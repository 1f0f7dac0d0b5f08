"""Wait-for attribution: charge every stalled cycle to its culprit.

The :class:`WaitForProfiler` is a kind-filtered telemetry sink
(:class:`repro.stats.telemetry.EventSink`): subscribed with
:data:`WaitForProfiler.KINDS` it sees only the rare structural events
(stalls, stage activations, reconfigurations, DRM blocks) and never the
per-token queue/cache traffic, which keeps armed-profiler overhead in
single digits (``benchmarks/bench_telemetry_overhead.py``).

During the run it accumulates, per PE, how many stalled cycles were
spent waiting on each queue (and through the queue, via the program
topology, on each upstream producer or downstream consumer). At
:meth:`finalize` those event-derived *splits* are reconciled against
the per-PE cycle counters: each CPI bucket's counter value is
distributed across the blamed components in proportion to the observed
waits, so the resulting :class:`BlameMatrix` sums to the CPI stacks
exactly — the blame matrix is a refinement of Fig. 14, never a second
opinion on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.stats.cpi_stack import cpi_stack
from repro.stats.telemetry import EventSink, TelemetryEvent
from repro.profiling.topology import (COMPUTE, IDLE, MEMORY, RECONFIG,
                                      Topology, base_name)

_EPS = 1e-9

#: CPI-stack buckets that event-derived splits refine; the remaining
#: buckets (issued, stall_mem, reconfig, idle) map to one column each.
_QUEUE_BUCKETS = ("stall_queue_full", "stall_queue_empty")


@dataclass
class BlameMatrix:
    """waiter (``pe<N>``) x waitee (component) -> stalled cycles.

    Rows sum to each PE's total cycles (the reconciliation invariant);
    ``rollup()`` collapses per-shard waitees (``bfs.fetch@3``) into base
    stage names for readable reports.
    """

    rows: dict = field(default_factory=dict)   # waiter -> {waitee: cycles}

    def charge(self, waiter: str, waitee: str, cycles: float) -> None:
        if cycles <= 0.0:
            return
        row = self.rows.setdefault(waiter, {})
        row[waitee] = row.get(waitee, 0.0) + cycles

    def row_total(self, waiter: str) -> float:
        return sum(self.rows.get(waiter, {}).values())

    def total(self) -> float:
        return sum(self.row_total(waiter) for waiter in self.rows)

    def waitee_totals(self) -> dict:
        """Aggregate blame per waitee across all waiters, descending."""
        totals: dict = {}
        for row in self.rows.values():
            for waitee, cycles in row.items():
                totals[waitee] = totals.get(waitee, 0.0) + cycles
        return dict(sorted(totals.items(), key=lambda kv: (-kv[1], kv[0])))

    def rollup(self) -> "BlameMatrix":
        """Collapse per-shard waitee names to base stage names."""
        rolled = BlameMatrix()
        for waiter, row in self.rows.items():
            for waitee, cycles in row.items():
                rolled.charge(waiter, base_name(waitee), cycles)
        return rolled

    def as_dict(self) -> dict:
        return {waiter: {waitee: cycles
                         for waitee, cycles in sorted(row.items())}
                for waiter, row in sorted(self.rows.items())}


@dataclass
class _StallSpan:
    """One merged run of stalled cycles on a PE."""

    __slots__ = ("start", "end", "bucket", "queue", "stage")

    start: float
    end: float
    bucket: str
    queue: object      # str | None
    stage: object      # str | None


class WaitForProfiler(EventSink):
    """Event sink building per-PE stall timelines and the blame matrix.

    Subscribe with ``bus.subscribe(profiler, kinds=WaitForProfiler.
    KINDS)`` so the bus never constructs per-token events on the
    profiler's behalf. After the run, call :meth:`finalize` with the
    :class:`~repro.core.system.SimulationResult` (or the per-PE counters
    and final cycle of a truncated run) to reconcile events against
    counters and obtain the :class:`BlameMatrix`.
    """

    #: The only event kinds the profiler needs. ``pe.stall`` dominates.
    #: A stage switch emits five bus events (``stage.deactivate``,
    #: ``reconfig.begin``/``end``, ``sched.switch``, ``stage.
    #: activate``), but ``reconfig.begin`` determines them all: the
    #: deactivation lands on the same cycle and the activation exactly
    #: ``period`` later (:meth:`~repro.core.pe.PE._activate`). The
    #: profiler therefore derives stage spans from ``reconfig.begin``
    #: alone, cutting armed-profiler bus traffic by more than half.
    KINDS = ("pe.stall", "reconfig.begin", "drm.blocked")

    def __init__(self, topology: Topology):
        self.topology = topology
        # Per-PE timelines, keyed by integer PE id.
        self.stalls: dict = {}        # pe -> [_StallSpan] (merged)
        self.stage_spans: dict = {}   # pe -> [[start, end|None, stage]]
        self.reconfigs: dict = {}     # pe -> [(start, end, incoming stage)]
        self.drm_blocked: dict = {}   # (drm, queue) -> event count
        self._active: dict = {}       # pe -> stage name | None
        # Live DRM references (wired by repro.profiling.attach_profiler)
        # whose busy/miss-stall counters split DRM-limited waits into
        # engine time vs memory time at finalize.
        self.drms: list = []
        self.n_events = 0

    # -- ingest ------------------------------------------------------------

    def on_event(self, event: TelemetryEvent) -> None:
        self.n_events += 1
        kind = event.kind
        data = event.data
        if kind == "pe.stall":
            self._on_stall(event.cycle, data)
        elif kind == "reconfig.begin":
            # One event, three facts: the outgoing stage deactivates
            # now, the fabric reconfigures for ``period`` cycles, and
            # the incoming stage activates at ``cycle + period``.
            pe = data["pe"]
            stage = data["stage"]
            period = data.get("period", 0.0)
            spans = self.stage_spans.setdefault(pe, [])
            if spans and spans[-1][1] is None:
                spans[-1][1] = event.cycle
            spans.append([event.cycle + period, None, stage])
            self._active[pe] = stage
            if period > 0.0:
                self.reconfigs.setdefault(pe, []).append(
                    (event.cycle, event.cycle + period, stage))
        elif kind == "drm.blocked":
            key = (data["drm"], data.get("queue"))
            self.drm_blocked[key] = self.drm_blocked.get(key, 0) + 1

    def _on_stall(self, cycle: float, data: dict) -> None:
        pe = data["pe"]
        bucket = data["bucket"]
        queue = data.get("queue")
        # The naive engine emits one event per stalled cycle; the fast
        # engine one event per coalesced span (``cycles``). Merge
        # adjacent same-cause cycles so both engines build identical
        # span lists (the classification is constant mid-span).
        cycles = float(data.get("cycles", 1.0))
        stage = data.get("stage", self._active.get(pe))
        spans = self.stalls.setdefault(pe, [])
        if spans:
            last = spans[-1]
            if (last.bucket == bucket and last.queue == queue
                    and cycle <= last.end + _EPS):
                last.end = max(last.end, cycle) + cycles
                return
        spans.append(_StallSpan(cycle, cycle + cycles, bucket, queue, stage))

    # -- finalize ----------------------------------------------------------

    def close(self) -> None:
        """Close any stage spans left open (end-of-run or truncation)."""
        # The actual end cycle arrives in finalize(); leave ends as None
        # here and let finalize() clamp them.

    def finalize(self, pe_counters, total_cycles: float) -> "RunProfile":
        """Reconcile event splits against counters into a RunProfile.

        ``pe_counters`` is the per-PE ``Counters`` list (from a
        ``SimulationResult`` or a partially-run ``System``); event-
        derived queue-wait proportions scale to the counter totals so
        every row of the blame matrix sums to ``total_cycles`` exactly,
        even when the run was truncated mid-quantum.
        """
        for pe, spans in self.stage_spans.items():
            for span in spans:
                if span[1] is None:
                    span[1] = total_cycles
            # A reconfiguration still in flight at the end of the run
            # derives an activation beyond ``total_cycles``; drop such
            # never-realized (or zero-length) spans.
            self.stage_spans[pe] = [s for s in spans if s[1] > s[0] + _EPS]
        blame = BlameMatrix()
        for pe, counters in enumerate(pe_counters):
            waiter = f"pe{pe}"
            stack = cpi_stack(counters, total_cycles)
            blame.charge(waiter, COMPUTE, stack["issued"])
            blame.charge(waiter, MEMORY, stack["stall_mem"])
            blame.charge(waiter, RECONFIG, stack["reconfig"])
            blame.charge(waiter, IDLE, stack["idle"])
            # Split the queue bucket across blamed components in
            # proportion to the observed stall spans.
            weights: dict = {}
            for span in self.stalls.get(pe, ()):
                if span.bucket not in _QUEUE_BUCKETS:
                    continue
                blamees = self.topology.blamees_for_stall(span.bucket,
                                                          span.queue)
                share = (span.end - span.start) / len(blamees)
                for name in blamees:
                    weights[name] = weights.get(name, 0.0) + share
            total_queue = stack["queue"]
            observed = sum(weights.values())
            if total_queue > 0.0:
                if observed > 0.0:
                    scale = total_queue / observed
                    for name, weight in weights.items():
                        blame.charge(waiter, name, weight * scale)
                else:
                    # Armed too late / no events: keep the bucket total
                    # honest under an explicit unresolved column.
                    blame.charge(waiter, "(unresolved)", total_queue)
        fractions = self._drm_memory_fractions()
        # Drop the live DRM references: their stats are folded into
        # ``fractions`` and they hold unpicklable route closures, which
        # would keep profiles from crossing sweep process pools.
        self.drms = []
        return RunProfile(blame=blame, profiler=self,
                          cycles=total_cycles,
                          pe_counters=list(pe_counters),
                          drm_memory_fractions=fractions)

    def _drm_memory_fractions(self) -> dict:
        """Per-DRM fraction of busy time spent on memory miss stalls.

        Keyed by both the per-shard spec name and the base name (busy-
        weighted aggregate); the critical-path attribution uses this to
        split a DRM-limited wait into the DRM's issue engine vs the
        memory behind it, which is what makes memory what-ifs see
        through decoupled access streams.
        """
        fractions: dict = {}
        base_busy: dict = {}
        base_miss: dict = {}
        for drm in self.drms:
            busy = drm.busy_cycles
            name = drm.spec.name
            if busy > 0.0:
                fractions[name] = min(1.0, drm.miss_stall_cycles / busy)
            base = base_name(name)
            base_busy[base] = base_busy.get(base, 0.0) + busy
            base_miss[base] = (base_miss.get(base, 0.0)
                               + drm.miss_stall_cycles)
        for base, busy in base_busy.items():
            if base not in fractions and busy > 0.0:
                fractions[base] = min(1.0, base_miss[base] / busy)
        return fractions


@dataclass
class RunProfile:
    """Everything the profiler learned about one run."""

    blame: BlameMatrix
    profiler: WaitForProfiler
    cycles: float
    pe_counters: list
    # name -> fraction of that DRM's busy time that was memory stall.
    drm_memory_fractions: dict = field(default_factory=dict)

    def critical_path(self):
        """Extract (and cache) the critical path; see
        :mod:`repro.profiling.critical_path`."""
        if not hasattr(self, "_critical_path"):
            from repro.profiling.critical_path import extract_critical_path
            self._critical_path = extract_critical_path(self)
        return self._critical_path

    def as_dict(self) -> dict:
        """JSON-ready profile document (blame, path, DRM blocks)."""
        path = self.critical_path()
        return {
            "cycles": self.cycles,
            "blame_matrix": self.blame.as_dict(),
            "blame_rollup": self.blame.rollup().waitee_totals(),
            "critical_path": path.as_dict(),
            "drm_blocked_events": {
                f"{drm}->{queue}": count
                for (drm, queue), count in
                sorted(self.profiler.drm_blocked.items(),
                       key=lambda kv: str(kv[0]))},
        }

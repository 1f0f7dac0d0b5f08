"""The multi-PE system: builds PEs from a program and steps the clock.

The system owns the memory hierarchy (private L1s, shared LLC, HBM), the
global queue registry (every queue is reachable by name so producers on
any PE can enqueue to consumers anywhere, subject to credits), and the
quantum-stepped simulation loop. PEs and DRMs advance in fixed quanta of
a few tens of cycles — the same timescale as Fifer's reconfigurations —
with all queue and cache state globally visible at quantum boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Optional

from repro.cgra.bitstream import generate_bitstream
from repro.cgra.fabric import FabricSpec
from repro.cgra.mapper import Mapping, map_dfg_cached
from repro.config import SystemConfig
from repro.core.drm import DRM
from repro.core.pe import ProcessingElement
from repro.core.program import Program
from repro.core.stage import StageContext, StageInstance
from repro.memory.cache import build_hierarchy
from repro.queues.queue import Queue
from repro.queues.queue_memory import QueueMemory
from repro.stats.counters import Counters
from repro.stats.cpi_stack import cpi_stack, merge_stacks


#: Valid ``System.run(engine=...)`` values. ``fast`` skips blocked and
#: quiescent spans in bulk and runs generated stage and DRM
#: step-functions; ``naive`` is the original per-cycle reference loop
#: over the interpreted stages and DRMs, kept as the
#: differential-testing oracle. Both are cycle- and counter-exact
#: (docs/performance.md, tests/test_engine_equivalence.py,
#: tests/test_engine_fuzz.py).
ENGINES = ("fast", "naive")


def _resolve(queues: dict, name: str) -> Queue:
    try:
        return queues[name]
    except KeyError:
        raise KeyError(f"no queue named {name!r} in the system") from None


class DeadlockError(Exception):
    """No token moved for many quanta while the program is unfinished."""


class SimulationTimeout(Exception):
    """The run exceeded the caller's cycle limit."""


@dataclass
class SimulationResult:
    """Outcome of one simulation run."""

    program_name: str
    mode: str
    cycles: float
    config: SystemConfig
    pe_counters: list[Counters]
    l1_stats: list[dict]
    llc_stats: dict
    mem_stats: dict
    result: Any
    mappings: dict[str, Mapping] = field(default_factory=dict)
    engine: str = "fast"
    # Engine-internal work accounting (quanta stepped, PE-quantum
    # activations, quanta jumped) — what bench_engine_speedup reports
    # as per-engine work counts.
    engine_stats: dict = field(default_factory=dict)

    @property
    def counters(self) -> Counters:
        merged = Counters()
        for counters in self.pe_counters:
            merged.merge(counters)
        return merged

    def cpi_stacks(self) -> list[dict[str, float]]:
        return [cpi_stack(c, self.cycles) for c in self.pe_counters]

    def merged_cpi_stack(self) -> dict[str, float]:
        return merge_stacks(self.cpi_stacks())

    @property
    def avg_residence_cycles(self) -> float:
        merged = self.counters
        events = merged["residence_events"]
        return merged["residence_sum"] / events if events else 0.0

    @property
    def avg_reconfig_cycles(self) -> float:
        merged = self.counters
        events = merged["reconfig_events"]
        return merged["reconfig_sum"] / events if events else 0.0


class System:
    """Instantiates a :class:`Program` on Fifer or the static baseline."""

    def __init__(self, config: SystemConfig, program: Program,
                 mode: str = "fifer", telemetry=None):
        if mode not in ("fifer", "static"):
            raise ValueError(f"unknown mode {mode!r}")
        if program.n_pes != config.n_pes:
            raise ValueError(
                f"program targets {program.n_pes} PEs, system has "
                f"{config.n_pes}")
        self.config = config
        self.program = program
        self.mode = mode
        self.cycle = 0.0
        self.fabric = FabricSpec.from_config(config.fabric)

        l1s, self.llc, self.memory = build_hierarchy(
            config.l1, config.llc, config.memory, config.n_pes)
        self._queues: dict[str, Queue] = dict(program.external_queues)
        self.pes: list[ProcessingElement] = []
        self.mappings: dict[str, Mapping] = {}

        # Pass 1: carve queue memories so every queue exists before any
        # stage or DRM resolves names.
        queue_memories = []
        for pe_id, pe_program in enumerate(program.pe_programs):
            qmem = QueueMemory(config.queue_mem_bytes,
                               config.max_queues_per_pe)
            if pe_program.queue_specs:
                for name, queue in qmem.carve(pe_program.queue_specs).items():
                    if name in self._queues:
                        raise ValueError(f"duplicate queue name {name!r}")
                    self._queues[name] = queue
            queue_memories.append(qmem)

        # Pass 2: build PEs, stages (with mapped configurations), DRMs.
        # PEs resolve names over the registry itself, not through a
        # bound method: nothing the System builds refers back to it.
        resolve = partial(_resolve, self._queues)
        speedups = dict(config.stage_speedup)
        for pe_id, pe_program in enumerate(program.pe_programs):
            pe = ProcessingElement(
                pe_id, config, l1s[pe_id], queue_memories[pe_id],
                resolve, time_multiplex=(mode == "fifer"))
            for spec in pe_program.stage_specs:
                caps = [cap for cap in (spec.max_replication,
                                        config.max_simd_replication)
                        if cap is not None]
                mapping = map_dfg_cached(
                    spec.dfg, self.fabric,
                    max_replication=min(caps) if caps else None)
                self.mappings[spec.name] = mapping
                config_region = program.address_space.alloc(
                    f"__cfg_{spec.name}", mapping.config_bytes)
                generate_bitstream(spec.dfg, mapping)  # validates budget
                ctx = StageContext(pe_id, spec.name, pe_program.shard,
                                   self._n_shards())
                stage = StageInstance(spec, ctx, mapping, config_region.base)
                if speedups:
                    # Exact per-shard name wins over the base name that
                    # matches every shard ("bfs.fetch" -> "bfs.fetch@*").
                    factor = speedups.get(
                        spec.name,
                        speedups.get(spec.name.split("@", 1)[0]))
                    if factor is not None:
                        stage.speed = float(factor)
                pe.attach_stage(stage)
            for drm_spec in pe_program.drm_specs:
                targets = (drm_spec.route_targets if drm_spec.route
                           else (drm_spec.out_queue,))
                out_queues = {name: resolve(name) for name in targets}
                drm = DRM(drm_spec, pe_id,
                          resolve(drm_spec.in_queue), out_queues,
                          l1s[pe_id], program.memmap,
                          config.drm_max_outstanding, config.l1.latency,
                          issue_width=config.drm_issue_width)
                if speedups:
                    factor = speedups.get(
                        drm_spec.name,
                        speedups.get(drm_spec.name.split("@", 1)[0]))
                    if factor is not None:
                        # Scale the DRM's issue throughput (misses still
                        # cost full latency; what-ifs model the engine,
                        # not the memory behind it).
                        drm._inv_issue = drm._inv_issue / float(factor)
                pe.attach_drm(drm)
            pe.finalize()
            self.pes.append(pe)
        # Optional telemetry bus (repro.stats.telemetry.EventBus).
        self.telemetry = None
        # Per-run engine work accounting; populated by run().
        self.engine_stats: dict = {}
        if program.post_build is not None:
            program.post_build(self)
        if telemetry is not None:
            self.attach_telemetry(telemetry)

    def _n_shards(self) -> int:
        return 1 + max(p.shard for p in self.program.pe_programs)

    def resolve_queue(self, name: str) -> Queue:
        return _resolve(self._queues, name)

    @property
    def queues(self) -> dict:
        """Name -> :class:`Queue` registry (read-only by convention)."""
        return self._queues

    # -- telemetry -----------------------------------------------------------

    def attach_telemetry(self, bus) -> "System":
        """Wire a :class:`~repro.stats.telemetry.EventBus` probe into
        every PE, DRM, queue, cache, and main memory. With no sinks
        subscribed the probes stay near-free; call
        :meth:`detach_telemetry` to restore the uninstrumented state."""
        from repro.stats.telemetry import Probe
        self.telemetry = bus
        for pe in self.pes:
            pe.probe = Probe(bus, f"pe{pe.pe_id}")
            pe.l1.probe = Probe(bus, pe.l1.name)
            for drm in pe.drms:
                drm.probe = Probe(bus, f"drm:{drm.spec.name}")
        for name, queue in self._queues.items():
            queue.probe = Probe(bus, f"queue:{name}")
        self.llc.probe = Probe(bus, "llc")
        self.memory.probe = Probe(bus, "mem")
        return self

    def detach_telemetry(self) -> None:
        """Remove every probe; hot paths return to the zero-cost state."""
        self.telemetry = None
        for pe in self.pes:
            pe.probe = None
            pe.l1.probe = None
            for drm in pe.drms:
                drm.probe = None
        for queue in self._queues.values():
            queue.probe = None
        self.llc.probe = None
        self.memory.probe = None

    # -- simulation ----------------------------------------------------------

    def done(self) -> bool:
        return all(pe.all_done() for pe in self.pes)

    def _progress_fingerprint(self) -> tuple:
        tokens = sum(q.total_enqueued for q in self._queues.values())
        finished = sum(stage.done for pe in self.pes for stage in pe.stages)
        issued = sum(pe.counters["issued"] + pe.counters["stall_mem"]
                     for pe in self.pes)
        return tokens, finished, issued

    def _state_report(self) -> str:
        """Per-PE resident stage + blocked reasons + queue occupancies,
        appended to deadlock/timeout exception messages."""
        lines = []
        for pe in self.pes:
            lines.append(f"  PE{pe.pe_id} resident={pe.state}")
            for stage in pe.stages:
                lines.append(f"    {stage.name}: {pe.blocked_reason(stage)}")
        occupied = [f"    {name}: {queue.describe()}"
                    for name, queue in sorted(self._queues.items())
                    if len(queue)]
        lines.append("  non-empty queues:")
        lines.extend(occupied if occupied else ["    (none)"])
        return "\n".join(lines)

    def _deadlock_report(self) -> str:
        return (f"deadlock in {self.program.name!r} ({self.mode}) at cycle "
                f"{self.cycle:.0f}: no progress for "
                f"{self.config.deadlock_quanta} quanta\n"
                + self._state_report())

    def _timeout_report(self, max_cycles: float) -> str:
        return (f"{self.program.name!r} exceeded {max_cycles} cycles\n"
                + self._state_report())

    def _control_poll_idle(self) -> bool:
        """Whether the next ``control_poll`` call is certified a no-op.

        The control core is a black box to the engine, so quiescence
        jumps over it are only legal when the program opts in with a
        side-effect-free ``control_poll_idle`` predicate certifying
        that (a) the next poll changes nothing and (b) polls stay
        no-ops until some queue activity occurs. Without the predicate
        every quantum boundary is visited so the poll keeps running.
        """
        if self.program.control_poll is None:
            return True
        idle = self.program.control_poll_idle
        return idle is not None and idle(self)

    def _can_fast_forward(self) -> bool:
        """Whether the fast engine may jump over the remaining quanta.

        Requires that nothing outside the PEs can inject work (no
        ``control_poll``, or one certified idle by
        :meth:`_control_poll_idle`), that quiescence probing cannot
        emit events a sink would record (``can_enq`` publishes
        ``queue.credit_stall`` when sinks are attached), and that no PE
        or DRM can move a token. Under those conditions every future
        quantum only adds stall cycles, so the run can only end in
        deadlock or timeout.
        """
        if self.telemetry is not None and self.telemetry.sinks:
            return False
        if not self._control_poll_idle():
            return False
        return not any(pe.can_progress() for pe in self.pes)

    def _fast_forward(self, quantum: float, max_cycles: Optional[float],
                      stuck_quanta: int) -> None:
        """Jump a quiescent system to its deadlock/timeout horizon.

        Replicates the naive loop's raise ordering exactly: the naive
        loop checks timeout at the top of an iteration and deadlock
        after running the quantum, so from here deadlock fires after
        ``deadlock_quanta - stuck_quanta`` more quanta and timeout
        after ``ceil((max_cycles - cycle) / quantum)`` quanta have run
        — whichever horizon is closer wins, deadlock on ties. Always
        raises; never returns.

        A certified-idle ``control_poll`` is not called: it would be a
        no-op on every skipped boundary, since no queue moves while
        nothing can progress.
        """
        to_deadlock = self.config.deadlock_quanta - stuck_quanta
        to_timeout = None
        if max_cycles is not None:
            to_timeout = max(0, math.ceil((max_cycles - self.cycle) / quantum))
        raise_deadlock = to_timeout is None or to_deadlock <= to_timeout
        quanta = to_deadlock if raise_deadlock else to_timeout
        stats = self.engine_stats
        if self.telemetry is not None and self.telemetry.samplers:
            # Keep sampled time series identical: tick every boundary.
            for _ in range(quanta):
                self.telemetry.now = self.cycle
                self.memory.begin_quantum(quantum)
                for pe in self.pes:
                    pe.run_quantum(quantum, fast=True)
                self.cycle += quantum
                self.telemetry.on_quantum(self)
            stats["quanta"] += quanta
            stats["pe_quanta"] += quanta * len(self.pes)
        else:
            # No observer: collapse all quanta into one bulk charge per
            # PE. No memory access can occur (nothing can progress), so
            # skipping begin_quantum's bandwidth reset changes nothing.
            for pe in self.pes:
                pe.fast_forward_quanta(quanta, quantum)
            self.cycle += quanta * quantum
            stats["jumped_quanta"] += quanta
            if self.telemetry is not None:
                self.telemetry.now = self.cycle
        if raise_deadlock:
            raise DeadlockError(self._deadlock_report())
        raise SimulationTimeout(self._timeout_report(max_cycles))

    def run(self, max_cycles: Optional[float] = None,
            engine: str = "fast",
            codegen: Optional[bool] = None) -> SimulationResult:
        """Run the program to completion and return the results.

        ``engine`` selects the simulation loop: ``"fast"`` (default)
        bulk-charges blocked spans, jumps quiescent systems — past a
        certified-idle control core — to their deadlock/timeout
        horizon, and runs every stage through the inlined request loop
        and every DRM as a generated step-function
        (:mod:`repro.codegen`); ``"naive"`` ticks every cycle and
        interprets: ``PE._execute`` over each stage coroutine,
        ``DRM.run`` for each DRM.

        ``codegen`` is accepted and selects nothing: every fast-engine
        stage already runs the inlined request loop. It goes once the
        repository benchmark (perfbench/) stops passing it.

        Both engines produce identical cycle counts, counters, CPI
        stacks, sampled time series, and results
        (tests/test_engine_equivalence.py, tests/test_engine_fuzz.py,
        tests/test_drm_codegen.py, tests/test_interp_codegen.py).

        ``engine_stats`` counts the quanta stepped (``quanta``), the
        PE-quanta run (``pe_quanta``), and the quanta a fast-forward
        skipped in bulk (``jumped_quanta``); ``quanta +
        jumped_quanta`` equals the naive engine's ``quanta``.
        """
        if engine not in ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; choose from {ENGINES}")
        from repro.codegen.runtime import bind_system
        fast = engine == "fast"
        bind_system(self, fast)
        self._run_stepped(max_cycles, fast)
        return self._build_result(engine)

    def _build_result(self, engine: str) -> SimulationResult:
        return SimulationResult(
            program_name=self.program.name,
            mode=self.mode,
            cycles=self.cycle,
            config=self.config,
            pe_counters=[pe.counters for pe in self.pes],
            l1_stats=[{"hits": pe.l1.hits, "misses": pe.l1.misses,
                       "hit_rate": pe.l1.hit_rate} for pe in self.pes],
            llc_stats={"hits": self.llc.hits, "misses": self.llc.misses,
                       "hit_rate": self.llc.hit_rate},
            mem_stats={"reads": self.memory.reads,
                       "writes": self.memory.writes,
                       "bytes": self.memory.bytes_transferred},
            result=self.program.result(),
            mappings=self.mappings,
            engine=engine,
            engine_stats=dict(self.engine_stats),
        )

    def _run_stepped(self, max_cycles: Optional[float], fast: bool) -> None:
        """The per-quantum loop shared by the naive and fast engines."""
        quantum = self.config.quantum
        stats = self.engine_stats = {"quanta": 0, "pe_quanta": 0,
                                     "jumped_quanta": 0}
        n_pes = len(self.pes)
        stuck_quanta = 0
        last_fingerprint = None
        while not self.done():
            if max_cycles is not None and self.cycle >= max_cycles:
                raise SimulationTimeout(self._timeout_report(max_cycles))
            if self.telemetry is not None:
                self.telemetry.now = self.cycle
            self.memory.begin_quantum(quantum)
            for pe in self.pes:
                pe.run_quantum(quantum, fast=fast)
            if self.program.control_poll is not None:
                self.program.control_poll(self)
            self.cycle += quantum
            stats["quanta"] += 1
            stats["pe_quanta"] += n_pes
            if self.telemetry is not None:
                self.telemetry.on_quantum(self)
            fingerprint = self._progress_fingerprint()
            if fingerprint == last_fingerprint:
                stuck_quanta += 1
                if stuck_quanta >= self.config.deadlock_quanta:
                    raise DeadlockError(self._deadlock_report())
                if fast and self._can_fast_forward():
                    self._fast_forward(quantum, max_cycles, stuck_quanta)
            else:
                stuck_quanta = 0
                last_fingerprint = fingerprint

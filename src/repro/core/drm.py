"""Decoupled reference machines (DRMs), paper Sec. 5.4.

A DRM is a small finite state machine that performs memory accesses on
the PE's behalf: the fabric enqueues addresses into the DRM's input
queue, the DRM performs the loads (overlapping misses out of order, up
to ``max_outstanding``), and places results in-order into an output
queue for the consumer stage. DRMs are configured once at
initialization and keep working regardless of which stage is currently
scheduled on the PE.

Modes (paper Sec. 5.4):

* **dereference** — input operands are addresses whose memory values are
  enqueued to the output. Extensions used by our pipelines: a token may
  carry ``width`` consecutive addresses (a multi-word dereference, e.g.
  ``offsets[v]``/``offsets[v+1]``) and an opaque *payload* tag that rides
  along to the output (as Pipette's reference accelerators do), and the
  output queue may be selected per-token from address/payload bits
  (``route``), implementing the owner-sharded cross-PE hop of Sec. 5.6.
* **scanning** — a token gives a ``(start_addr, end_addr)`` range to
  fetch sequentially and enqueue.

Control values pass through DRMs in order; a routing DRM broadcasts each
control value to every possible destination so iteration boundaries
reach all consumers (Sec. 5.5).

Because a DRM's configuration is fixed at initialization, the fast
engine runs a DRM as a step-function generated for its shape
(:mod:`repro.codegen`); :meth:`DRM.run`, the interpreted ``_step_*``
ladder below, is what the naive engine runs and the oracle the
generated code must match bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.memory.cache import Cache
from repro.memory.memmap import MemoryMap
from repro.queues.queue import Queue


@dataclass(frozen=True)
class DRMSpec:
    """Configuration of one DRM (fixed at program initialization)."""

    name: str
    mode: str                       # "deref" or "scan"
    in_queue: str
    out_queue: Optional[str] = None
    route: Optional[Callable] = None      # (values, payload) -> queue name
    route_targets: tuple = ()             # all queues `route` may select
    width: int = 1                        # addresses per deref token
    payload: bool = False                 # tokens carry a tag-along payload

    def __post_init__(self):
        if self.mode not in ("deref", "scan"):
            raise ValueError(f"DRM {self.name!r}: unknown mode {self.mode!r}")
        if (self.out_queue is None) == (self.route is None):
            raise ValueError(
                f"DRM {self.name!r}: exactly one of out_queue/route required")
        if self.route is not None and not self.route_targets:
            raise ValueError(
                f"DRM {self.name!r}: route requires route_targets")


class DRM:
    """Runtime state of one decoupled reference machine."""

    def __init__(self, spec: DRMSpec, pe_id: int, in_q: Queue,
                 out_queues: dict, l1: Cache, memmap: MemoryMap,
                 max_outstanding: int, l1_latency: int,
                 issue_width: int = 1):
        self.spec = spec
        self.pe_id = pe_id
        self.in_q = in_q
        self.out_queues = out_queues  # name -> Queue, for all targets
        self.l1 = l1
        self.memmap = memmap
        self.max_outstanding = max_outstanding
        self.l1_latency = l1_latency
        self.issue_width = issue_width
        # DRM spec names are unique per shard by construction.
        self.producer_key = spec.name
        # Spec fields and queue objects hoisted out of the per-token
        # paths (the spec is frozen and the queue set is fixed).
        self._mode = spec.mode
        self._width = spec.width
        self._payload = spec.payload
        self._route = spec.route
        self._out_q = (out_queues[spec.out_queue]
                       if spec.out_queue is not None else None)
        self._target_queues = tuple(out_queues[name]
                                    for name in self._targets())
        self._inv_issue = 1.0 / issue_width
        # Scanning-mode cursor (persists across quanta and stage
        # switches).
        self._scan_addr: Optional[int] = None
        self._scan_end: int = 0
        self._scan_elem_bytes: int = 8
        # Statistics.
        self.loads = 0
        self.miss_stall_cycles = 0.0
        self.busy_cycles = 0.0
        # Name of the output queue the last blocked step waited on
        # (written only on blocked paths; read by the drm.blocked probe).
        self._blocked_on: Optional[str] = None
        # Optional telemetry Probe (repro.stats.telemetry).
        self.probe = None
        # Generated step-function, called as step_fn(drm, budget) with
        # run()'s result; bound by the fast engine
        # (repro.codegen.runtime.bind_system). None runs the
        # interpreted ladder.
        self.step_fn: Optional[Callable[["DRM", float], float]] = None

    def _targets(self) -> Sequence[str]:
        if self.spec.route is not None:
            return self.spec.route_targets
        return (self.spec.out_queue,)

    def _access_cost(self, addrs) -> float:
        """One issue slot of throughput plus amortized miss stall.

        ``issue_width`` accesses issue per cycle (banked L1 ports feeding
        SIMD-replicated consumers); misses overlap out of order up to
        ``max_outstanding``, so a stream of misses costs the miss latency
        divided by the outstanding-access window.
        """
        worst = 0.0
        access = self.l1.access
        for addr in addrs:
            latency = access(addr)
            if latency > worst:
                worst = latency
        self.loads += len(addrs)
        over = worst - self.l1_latency
        extra = over / self.max_outstanding if over > 0.0 else 0.0
        self.miss_stall_cycles += extra
        return self._inv_issue + extra

    def _step_scan(self) -> Optional[float]:
        out = self._out_q
        if not out.can_enq(self.producer_key):
            self._blocked_on = out.name
            return None
        cost = self._access_cost((self._scan_addr,))
        out.enq(self.memmap.read(self._scan_addr), producer=self.producer_key)
        self._scan_addr += self._scan_elem_bytes
        if self._scan_addr >= self._scan_end:
            self._scan_addr = None
        return cost

    def _step_control(self, token) -> Optional[float]:
        targets = self._target_queues
        for target in targets:
            if not target.can_enq(self.producer_key, is_control=True):
                self._blocked_on = target.name
                return None
        self.in_q.deq()
        for target in targets:
            target.enq(token.value, is_control=True,
                       producer=self.producer_key)
        return 1.0

    def _operands(self, value) -> tuple:
        """``(addrs, payload, loaded)`` of a dereference token: its
        ``width`` addresses, the tag-along tail, and the loaded values."""
        if self._width > 1 or self._payload:
            parts = tuple(value)
            addrs = parts[:self._width]
            payload = parts[self._width:] if self._payload else ()
        else:
            addrs = (value,)
            payload = ()
        read = self.memmap.read
        return addrs, payload, tuple([read(a) for a in addrs])

    def _output(self, loaded: tuple, payload: tuple) -> Queue:
        if self._route is not None:
            return self.out_queues[self._route(loaded, payload)]
        return self._out_q

    def _step_deref(self, token) -> Optional[float]:
        addrs, payload, loaded = self._operands(token.value)
        out = self._output(loaded, payload)
        if not out.can_enq(self.producer_key):
            self._blocked_on = out.name
            return None
        cost = self._access_cost(addrs)
        if len(loaded) == 1 and not self._payload:
            result = loaded[0]
        else:
            result = loaded + payload
        self.in_q.deq()
        out.enq(result, producer=self.producer_key)
        return cost

    def can_progress(self) -> bool:
        """Whether :meth:`run` would perform at least one step right now.

        Side-effect free: replays ``run``'s first-step decision (scan
        cursor, control broadcast, scan setup, or a routed
        dereference) against the current queue state without touching
        caches or statistics. The fast engine's quiescence check uses
        this to prove a quantum would be a no-op for this DRM.
        """
        if self._scan_addr is not None:
            return self._out_q.can_enq(self.producer_key)
        in_q = self.in_q
        if not in_q._tokens:
            return False
        token = in_q._tokens[0]
        if token.is_control:
            return all(q.can_enq(self.producer_key, is_control=True)
                       for q in self._target_queues)
        if self._mode != "deref":
            return True  # scan cursor setup always costs one cycle
        _, payload, loaded = self._operands(token.value)
        return self._output(loaded, payload).can_enq(self.producer_key)

    def run(self, budget: float) -> float:
        """Advance the DRM for up to ``budget`` cycles; returns cycles used.

        The interpreted ladder: one ``_step_*`` call per token. The fast
        engine runs a generated :attr:`step_fn` instead
        (:mod:`repro.codegen`), and this ladder is its oracle.
        """
        spent = 0.0
        in_q = self.in_q
        while spent < budget:
            if self._scan_addr is not None:
                cost = self._step_scan()
            elif not in_q._tokens:
                break
            else:
                token = in_q._tokens[0]
                if token.is_control:
                    cost = self._step_control(token)
                elif self._mode == "deref":
                    cost = self._step_deref(token)
                else:  # scan
                    start, end = token.value
                    in_q.deq()
                    self._scan_addr = start if start < end else None
                    self._scan_end = end
                    if start < end:
                        self._scan_elem_bytes = (
                            self.memmap.elem_bytes_at(start))
                    cost = 1.0
            if cost is None:  # blocked on a full output queue
                if (self.probe is not None
                        and "drm.blocked" in self.probe.bus.wants):
                    self.probe.emit("drm.blocked", drm=self.spec.name,
                                    pe=self.pe_id, queue=self._blocked_on)
                break
            spent += cost
        self.busy_cycles += spent
        return spent

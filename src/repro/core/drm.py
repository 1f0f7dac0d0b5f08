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
* **strided** — a token gives ``(start_addr, count, stride_bytes)``;
  the DRM fetches ``count`` elements ``stride_bytes`` apart, traversing
  arrays of structs. (The paper notes this mode "could be easily added";
  its benchmarks did not need it, but the mode is implemented here as
  the suggested extension.)

Control values pass through DRMs in order; a routing DRM broadcasts each
control value to every possible destination so iteration boundaries
reach all consumers (Sec. 5.5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.memory.cache import Cache
from repro.memory.memmap import MemoryMap
from repro.queues.queue import Queue, Token


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
        if self.mode not in ("deref", "scan", "strided"):
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
        # Scanning/strided-mode cursor (persists across quanta and
        # stage switches).
        self._scan_addr: Optional[int] = None
        self._scan_end: int = 0
        self._scan_elem_bytes: int = 8
        self._scan_stride: int = 8
        self._scan_remaining: int = 0
        # Statistics.
        self.loads = 0
        self.miss_stall_cycles = 0.0
        self.busy_cycles = 0.0
        # Name of the output queue the last blocked step waited on
        # (written only on blocked paths; read by the drm.blocked probe).
        self._blocked_on: Optional[str] = None
        # Optional telemetry Probe (repro.stats.telemetry).
        self.probe = None

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
        # Inlined out.enq — Queue.enq verbatim, minus the full-queue
        # raise the can_enq gate above already ruled out.
        producer = self.producer_key
        words = out.entry_words
        credits = out._credits
        if credits is not None:
            credits[producer] -= words
        out._tokens.append(Token(self.memmap.read(self._scan_addr), False,
                                 producer))
        out._occupancy_words += words
        out.total_enqueued += 1
        probe = out.probe
        if probe is not None and "queue.enq" in probe.bus.wants:
            probe.emit("queue.enq", queue=out.name, words=words,
                       occupancy=out._occupancy_words, control=False)
        if self._mode == "strided":
            self._scan_addr += self._scan_stride
            self._scan_remaining -= 1
            if self._scan_remaining <= 0:
                self._scan_addr = None
        else:
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

    def _step_deref(self, token) -> Optional[float]:
        value = token.value
        width = self._width
        has_payload = self._payload
        read = self.memmap.read
        if width > 1 or has_payload:
            parts = tuple(value)
            addrs = parts[:width]
            payload = parts[width:] if has_payload else ()
            # Unrolled for the common widths (1 and 2 cover every
            # pipeline in the suite).
            if width == 1:
                loaded = (read(addrs[0]),)
            elif width == 2:
                loaded = (read(addrs[0]), read(addrs[1]))
            else:
                loaded = tuple([read(a) for a in addrs])
        else:
            addrs = (value,)
            payload = ()
            loaded = (read(value),)
        route = self._route
        if route is not None:
            out = self.out_queues[route(loaded, payload)]
        else:
            out = self._out_q
        if not out.can_enq(self.producer_key):
            self._blocked_on = out.name
            return None
        # Inlined _access_cost (this is the DRM's per-token hot path).
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
        cost = self._inv_issue + extra
        if len(loaded) == 1 and not has_payload:
            result = loaded[0]
        else:
            result = loaded + payload
        # Inlined in_q.deq() / out.enq() — Queue.deq / Queue.enq
        # verbatim (this transfer pair dominates the DRM's per-token
        # cost). The dequeued head is the data token examined by run(),
        # so it occupies entry_words; the full-queue raise was ruled
        # out by the can_enq gate above.
        in_q = self.in_q
        tok = in_q._tokens.popleft()
        words = in_q.entry_words
        in_q._occupancy_words -= words
        credits = in_q._credits
        if credits is not None:
            credits[tok.producer] += words
        probe = in_q.probe
        if probe is not None and "queue.deq" in probe.bus.wants:
            probe.emit("queue.deq", queue=in_q.name, words=words,
                       occupancy=in_q._occupancy_words)
        producer = self.producer_key
        words = out.entry_words
        credits = out._credits
        if credits is not None:
            credits[producer] -= words
        out._tokens.append(Token(result, False, producer))
        out._occupancy_words += words
        out.total_enqueued += 1
        probe = out.probe
        if probe is not None and "queue.enq" in probe.bus.wants:
            probe.emit("queue.enq", queue=out.name, words=words,
                       occupancy=out._occupancy_words, control=False)
        return cost

    def can_progress(self) -> bool:
        """Whether :meth:`run` would perform at least one step right now.

        Side-effect free: replays ``run``'s first-step decision (scan
        cursor, control broadcast, scan/strided setup, or a routed
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
            return True  # scan/strided cursor setup always costs one cycle
        value = token.value
        width = self._width
        has_payload = self._payload
        read = self.memmap.read
        if width > 1 or has_payload:
            parts = tuple(value)
            payload = parts[width:] if has_payload else ()
            if width == 1:
                loaded = (read(parts[0]),)
            elif width == 2:
                loaded = (read(parts[0]), read(parts[1]))
            else:
                loaded = tuple([read(a) for a in parts[:width]])
        else:
            payload = ()
            loaded = (read(value),)
        route = self._route
        if route is not None:
            return self.out_queues[route(loaded, payload)].can_enq(
                self.producer_key)
        return self._out_q.can_enq(self.producer_key)

    def run(self, budget: float) -> float:
        """Advance the DRM for up to ``budget`` cycles; returns cycles used."""
        spent = 0.0
        in_q = self.in_q
        in_tokens = in_q._tokens
        if self._scan_addr is None and self._mode == "deref" and in_tokens:
            # Hot path: back-to-back dereferences with every per-token
            # attribute lookup hoisted. Replays _step_deref exactly
            # (same per-token float accumulation order); bails to the
            # general ladder below on control tokens.
            width = self._width
            has_payload = self._payload
            mm = self.memmap
            read = mm.read
            route = self._route
            out_queues = self.out_queues
            default_out = self._out_q
            l1 = self.l1
            access = l1.access
            l1_sets = l1._sets
            l1_shift = l1._line_shift
            l1_mask = l1._set_mask
            l1_hit_lat = l1._latency
            l1_latency = self.l1_latency
            max_out = self.max_outstanding
            inv_issue = self._inv_issue
            producer = self.producer_key
            in_words = in_q.entry_words
            in_credits = in_q._credits
            in_name = in_q.name
            # Stats carried as locals (running totals, so float
            # accumulation order — and thus rounding — is unchanged);
            # flushed at every exit from the hot loop.
            n_loads = self.loads
            miss_stall = self.miss_stall_cycles
            while spent < budget and in_tokens:
                token = in_tokens[0]
                if token.is_control:
                    break
                value = token.value
                # Loads inline MemoryMap.read's locality-cache fast
                # path (re-read _last per address: a miss refills it).
                if width > 1 or has_payload:
                    parts = tuple(value)
                    addrs = parts[:width]
                    payload = parts[width:] if has_payload else ()
                    if width == 1:
                        a = addrs[0]
                        ml = mm._last
                        loaded = ((ml[4][(a - ml[0]) // ml[2]]
                                   if ml[0] <= a < ml[1] else read(a)),)
                    elif width == 2:
                        a = addrs[0]
                        ml = mm._last
                        v0 = (ml[4][(a - ml[0]) // ml[2]]
                              if ml[0] <= a < ml[1] else read(a))
                        a = addrs[1]
                        ml = mm._last
                        v1 = (ml[4][(a - ml[0]) // ml[2]]
                              if ml[0] <= a < ml[1] else read(a))
                        loaded = (v0, v1)
                    else:
                        loaded = tuple([read(a) for a in addrs])
                else:
                    addrs = (value,)
                    payload = ()
                    a = value
                    ml = mm._last
                    loaded = ((ml[4][(a - ml[0]) // ml[2]]
                               if ml[0] <= a < ml[1] else read(a)),)
                if route is not None:
                    out = out_queues[route(loaded, payload)]
                else:
                    out = default_out
                # Queue.can_enq's uncredited arm verbatim; credited
                # targets keep the method (credit_stall probe).
                if out._credits is None:
                    ok = (out.capacity_words - out._occupancy_words
                          >= out.entry_words)
                else:
                    ok = out.can_enq(producer)
                if not ok:
                    self._blocked_on = out.name
                    if (self.probe is not None
                            and "drm.blocked" in self.probe.bus.wants):
                        self.probe.emit("drm.blocked", drm=self.spec.name,
                                        pe=self.pe_id, queue=self._blocked_on)
                    self.loads = n_loads
                    self.miss_stall_cycles = miss_stall
                    self.busy_cycles += spent
                    return spent
                # Cache.access's L1-hit path verbatim (LRU move-to-MRU
                # included); misses take the full method.
                worst = 0.0
                for addr in addrs:
                    line = addr >> l1_shift
                    cset = l1_sets[line & l1_mask]
                    if line in cset:
                        l1.hits += 1
                        cset[line] = cset.pop(line)
                        latency = l1_hit_lat
                    else:
                        latency = access(addr)
                    if latency > worst:
                        worst = latency
                n_loads += len(addrs)
                over = worst - l1_latency
                extra = over / max_out if over > 0.0 else 0.0
                miss_stall += extra
                cost = inv_issue + extra
                if len(loaded) == 1 and not has_payload:
                    result = loaded[0]
                else:
                    result = loaded + payload
                # Inlined in_q.deq() / out.enq() (Queue.deq / Queue.enq
                # verbatim; the head is the data token just examined).
                tok = in_tokens.popleft()
                in_q._occupancy_words -= in_words
                if in_credits is not None:
                    in_credits[tok.producer] += in_words
                probe = in_q.probe
                if probe is not None and "queue.deq" in probe.bus.wants:
                    probe.emit("queue.deq", queue=in_name, words=in_words,
                               occupancy=in_q._occupancy_words)
                words = out.entry_words
                credits = out._credits
                if credits is not None:
                    credits[producer] -= words
                out._tokens.append(Token(result, False, producer))
                out._occupancy_words += words
                out.total_enqueued += 1
                probe = out.probe
                if probe is not None and "queue.enq" in probe.bus.wants:
                    probe.emit("queue.enq", queue=out.name, words=words,
                               occupancy=out._occupancy_words, control=False)
                spent += cost
            self.loads = n_loads
            self.miss_stall_cycles = miss_stall
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
                elif self._mode == "scan":
                    start, end = token.value
                    in_q.deq()
                    self._scan_addr = start if start < end else None
                    self._scan_end = end
                    if start < end:
                        self._scan_elem_bytes = self.memmap.elem_bytes_at(start)
                    cost = 1.0
                else:  # strided
                    start, count, stride = token.value
                    in_q.deq()
                    self._scan_addr = start if count > 0 else None
                    self._scan_remaining = int(count)
                    self._scan_stride = int(stride)
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

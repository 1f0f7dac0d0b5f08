"""Processing element: CGRA fabric engine with dynamic temporal pipelining.

A PE executes one stage configuration at a time. In Fifer mode it
time-multiplexes all of its resident stages: when the current stage
blocks (empty input or full output queue), the scheduler selects the
ready stage with the most queued work and the PE reconfigures
(paper Sec. 5.1/5.2). In static mode (the baseline spatial pipeline,
Sec. 7.1) a PE hosts exactly one stage and simply stalls when blocked.

Cycle accounting follows the CPI-stack buckets of Fig. 14:

* ``issued`` — useful computation (queue I/O through the datapath,
  explicit compute cycles).
* ``stall_mem`` — stalls of coupled (non-decoupled) loads and stores.
* ``stall_queue_full`` / ``stall_queue_empty`` — blocked with no
  runnable stage (merged into the "queue full/empty" bucket).
* ``reconfig`` — reconfiguration periods.
* ``idle`` — blocked with every local input queue empty (waiting on
  other PEs or the control core).

DRMs run concurrently with the fabric within each quantum: they are
configured once and keep performing accesses regardless of which stage
is scheduled (paper Sec. 5.4).
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from repro.config import SystemConfig
from repro.core.drm import DRM
from repro.core.reconfig import ReconfigurationModel
from repro.core.scheduler import any_runnable, make_scheduler
from repro.core.stage import StageInstance
from repro.memory.cache import Cache
from repro.queues.queue import Queue
from repro.queues.queue_memory import QueueMemory
from repro.stats.counters import Counters

_EPS = 1e-9
_TWO53 = 2.0 ** 53


class StageLivelockError(Exception):
    """A stage issued a long run of zero-cost requests without progress."""


def add_units(x: float, k: int) -> float:
    """Exactly what ``k`` successive ``x += 1.0`` leave in ``x``, for
    finite ``x >= 0``, in one addition per binade.

    Within a binade below 2**53, ``x`` and 1.0 are both multiples of the
    spacing, so every step that stays below the next power of two is
    exact and all of them add in one operation; the step that crosses
    it rounds, and is done alone. Below 1.0 that crossing is the first
    step. From 2**53 on a step rounds to an even neighbour or changes
    nothing, and once it changes nothing every later step does too.
    """
    while k > 0:
        if 1.0 <= x < _TWO53:
            top = math.ldexp(1.0, math.frexp(x)[1])  # next power of two
            inside = min(k, math.ceil(top - x) - 1)  # top - x is exact
            x += inside
            k -= inside
            if k == 0:
                break
        stepped = x + 1.0
        if stepped == x:
            break
        x = stepped
        k -= 1
    return x


class ProcessingElement:
    """One PE: fabric engine, queue memory, L1, DRMs, scheduler."""

    def __init__(self, pe_id: int, config: SystemConfig, l1: Cache,
                 queue_memory: QueueMemory,
                 resolve_queue: Callable[[str], Queue],
                 time_multiplex: bool = True):
        self.pe_id = pe_id
        self.config = config
        self.l1 = l1
        self.queue_memory = queue_memory
        self.resolve_queue = resolve_queue
        self.time_multiplex = time_multiplex
        self.scheduler = make_scheduler(config.scheduler_policy)
        self.reconfig_model = ReconfigurationModel(config, l1)
        self.stages: list[StageInstance] = []
        self.drms: list[DRM] = []
        self.counters = Counters()
        self.now = 0.0
        self.current: Optional[StageInstance] = None
        self._incoming: Optional[StageInstance] = None
        self._reconfig_remaining = 0.0
        self._reconfig_period = 0.0
        # Cycles consumed beyond a quantum's budget (the last request of
        # a quantum may overshoot); repaid from the next quantum so
        # long-run accounting matches wall-clock cycles.
        self._debt = 0.0
        self._last_activation: Optional[float] = None
        self._stage_inputs: dict[str, list[Queue]] = {}
        # Memoized name -> Queue lookups. The queue set is fixed for the
        # lifetime of a System, so the first resolve_queue() answer per
        # name stays valid; the hot paths then pay one dict probe
        # instead of a call into the system.
        self._qcache: dict[str, Queue] = {}
        # Optional telemetry Probe (repro.stats.telemetry); None means
        # instrumentation is disabled and costs one attribute check.
        self.probe = None

    # -- construction ------------------------------------------------------

    def attach_stage(self, stage: StageInstance) -> None:
        self.stages.append(stage)
        inputs = []
        for name in stage.spec.dfg.input_queues():
            inputs.append(self.resolve_queue(name))
        self._stage_inputs[stage.name] = inputs

    def attach_drm(self, drm: DRM) -> None:
        if len(self.drms) >= self.config.n_drms:
            raise ValueError(
                f"PE {self.pe_id}: more than {self.config.n_drms} DRMs")
        self.drms.append(drm)

    def finalize(self) -> None:
        """Complete setup; static PEs pin their single stage."""
        if not self.time_multiplex:
            if len(self.stages) != 1:
                raise ValueError(
                    f"static PE {self.pe_id} hosts {len(self.stages)} stages; "
                    f"exactly one is required")
            self.current = self.stages[0]
            self._last_activation = 0.0

    # -- scheduler support ---------------------------------------------------

    def _queue(self, name: str) -> Queue:
        queue = self._qcache.get(name)
        if queue is None:
            queue = self._qcache[name] = self.resolve_queue(name)
        return queue

    def _satisfiable(self, stage: StageInstance, request: tuple) -> bool:
        kind = request[0]
        if kind == "deq":
            queue = self._qcache.get(request[1])
            if queue is None:
                queue = self._queue(request[1])
            return bool(queue._tokens)  # == can_deq(), sans the call
        if kind == "enq":
            queue = self._qcache.get(request[1])
            if queue is None:
                queue = self._queue(request[1])
            return queue.can_enq(stage.ctx.producer_key, request[3])
        return True

    def stage_runnable(self, stage: StageInstance) -> bool:
        if stage.done:
            return False
        if not stage.started:
            return True
        if stage.pending is None:
            return False
        return self._satisfiable(stage, stage.pending)

    def stage_input_work(self, stage: StageInstance) -> int:
        return sum(q.occupancy_words for q in self._stage_inputs[stage.name])

    def all_done(self) -> bool:
        return all(stage.done for stage in self.stages)

    def can_progress(self) -> bool:
        """Whether the next quantum could advance anything besides stall
        counters: a reconfiguration in flight, a runnable stage, or a DRM
        with a performable step. Conservative — it may return ``True``
        for a PE that then blocks mid-step, but it must never return
        ``False`` when a token could move. The fast engine's quiescence
        check (:meth:`System._fast_forward`) relies on this to prove
        that future quanta are identical."""
        if self._reconfig_remaining > _EPS:
            return True
        if any_runnable(self):
            return True
        return any(drm.can_progress() for drm in self.drms)

    def blocked_reason(self, stage: StageInstance) -> str:
        """Human-readable account of why ``stage`` is (not) advancing;
        used by deadlock/timeout reports."""
        if stage.done:
            return "done"
        if not stage.started:
            return "not started (runnable)"
        request = stage.pending
        if request is None:
            return "no pending request"
        kind = request[0]
        if kind == "deq":
            queue = self.resolve_queue(request[1])
            if not queue.can_deq():
                return f"blocked on deq {request[1]!r} (empty)"
        elif kind == "enq":
            queue = self.resolve_queue(request[1])
            if not queue.can_enq(stage.ctx.producer_key, request[3]):
                words = 1 if request[3] else queue.entry_words
                cause = ("out of credits" if queue.free_words >= words
                         else "full")
                return (f"blocked on enq {request[1]!r} ({cause}; "
                        f"{queue.describe()})")
        return f"runnable ({kind} {request[1]!r})"

    # -- execution -----------------------------------------------------------

    def _try_perform(self, stage: StageInstance, request: tuple):
        """Check satisfiability and satisfy one request in one dispatch.

        Returns ``(result, cycle_cost)``, or ``None`` when the request
        is blocked (empty/full queue) — the fused form of
        :meth:`_satisfiable` + perform that the execute loop uses to
        avoid dispatching on the request twice. Counter updates are
        open-coded dict stores (this is the simulator's hottest path).
        """
        kind = request[0]
        counters = self.counters
        if kind == "deq":
            queue = self._qcache.get(request[1])
            if queue is None:
                queue = self._queue(request[1])
            if not queue._tokens:
                return None
            token = queue.deq()
            cost = stage.io_cost(1, 0, token.is_control)
            counters["issued"] = counters.get("issued", 0.0) + cost
            counters["tokens"] = counters.get("tokens", 0.0) + 1.0
            counters["fabric_ops"] = (counters.get("fabric_ops", 0.0)
                                      + stage.mapping.n_compute_ops)
            return token, cost
        if kind == "enq":
            _, name, value, is_control = request
            queue = self._qcache.get(name)
            if queue is None:
                queue = self._queue(name)
            producer = stage.ctx.producer_key
            if not queue.can_enq(producer, is_control):
                return None
            queue.enq(value, is_control=is_control, producer=producer)
            cost = stage.io_cost(0, 1, is_control)
            counters["issued"] = counters.get("issued", 0.0) + cost
            return None, cost
        if kind == "load":
            latency = self.l1.access(request[1])
            stall = latency - self.l1._latency
            if stall > 0.0:
                counters["stall_mem"] = counters.get("stall_mem", 0.0) + stall
                if (self.probe is not None
                        and "pe.stall" in self.probe.bus.wants):
                    # Timestamped at the start of this quantum slice
                    # (self.now advances only after _execute returns).
                    self.probe.emit("pe.stall", cycle=self.now,
                                    pe=self.pe_id, bucket="stall_mem",
                                    cycles=stall, stage=stage.name)
                return None, stall
            return None, 0.0
        if kind == "store":
            # Stores retire through a write buffer and do not stall the
            # datapath (no consumer depends on them); the access still
            # updates cache state and traffic counts.
            self.l1.access(request[1], write=True)
            return None, 0.0
        if kind == "try_deq":
            queue = self._queue(request[1])
            if not queue._tokens:
                return None, 0.0
            token = queue.deq()
            cost = stage.io_cost(1, 0, token.is_control)
            counters["issued"] = counters.get("issued", 0.0) + cost
            counters["tokens"] = counters.get("tokens", 0.0) + 1.0
            counters["fabric_ops"] = (counters.get("fabric_ops", 0.0)
                                      + stage.mapping.n_compute_ops)
            return token, cost
        if kind == "cycles":
            cost = float(request[1])
            speed = stage.speed
            if speed != 1.0:
                cost = cost / speed
            counters["issued"] = counters.get("issued", 0.0) + cost
            return None, cost
        raise ValueError(f"stage {stage.name!r}: unknown request {request!r}")

    def _execute(self, stage: StageInstance, budget: float) -> float:
        """Run ``stage`` until it blocks, finishes, or exhausts ``budget``."""
        spent = 0.0
        zero_streak = 0
        if not stage.started:
            stage.first_request()
        try_perform = self._try_perform
        send = stage.gen.send
        while spent < budget and not stage.done:
            request = stage.pending
            if request is None:
                break
            outcome = try_perform(stage, request)
            if outcome is None:  # blocked
                break
            result, cost = outcome
            spent += cost
            zero_streak = 0 if cost > 0 else zero_streak + 1
            if zero_streak > 1_000_000:
                raise StageLivelockError(
                    f"stage {stage.name!r} on PE {self.pe_id} issued 1M "
                    f"zero-cost requests")
            # Inlined StageInstance.advance (stage.started holds here).
            try:
                stage.pending = send(result)
            except StopIteration:
                stage.pending = None
                stage.done = True
        return spent

    def _classify_blocked(self) -> str:
        """Attribute a blocked cycle to the Fig. 14 buckets.

        Blocked enqueues are "queue full"; blocked dequeues on data
        queues are "queue empty"; a PE whose stages only wait on
        control-only queues (iteration barriers dispatched by the
        control core) is idle.
        """
        data_starved = False
        for stage in self.stages:
            if stage.done or stage.pending is None:
                continue
            kind = stage.pending[0]
            if kind == "enq" and not self._satisfiable(stage, stage.pending):
                return "stall_queue_full"
            if kind == "deq" and not self._satisfiable(stage, stage.pending):
                if not self._queue(stage.pending[1]).control_only:
                    data_starved = True
        return "stall_queue_empty" if data_starved else "idle"

    def _blocked_cause(self) -> tuple:
        """``(bucket, queue)`` for a blocked cycle, in one stage scan.

        Same attribution order as :meth:`_classify_blocked`, but also
        names the queue the PE is waiting on: for "queue full" the
        first unsatisfiable enqueue's target, for "queue empty" the
        first starved data queue, for "idle" the first blocked
        control-only dequeue (the barrier the PE sits on). Only called
        from probe emit sites — the uninstrumented path keeps the
        cheaper bucket-only scan.
        """
        starved = None
        fallback = None
        for stage in self.stages:
            if stage.done or stage.pending is None:
                continue
            request = stage.pending
            kind = request[0]
            if kind == "enq":
                if not self._satisfiable(stage, request):
                    return "stall_queue_full", request[1]
            elif kind == "deq" and not self._satisfiable(stage, request):
                if not self._queue(request[1]).control_only:
                    if starved is None:
                        starved = request[1]
                elif fallback is None:
                    fallback = request[1]
        if starved is not None:
            return "stall_queue_empty", starved
        return "idle", fallback

    def _begin_reconfiguration(self, incoming: StageInstance) -> None:
        outgoing_depth = (self.current.mapping.depth_cycles
                          if self.current is not None else 0.0)
        period = self.reconfig_model.reconfiguration_period(
            outgoing_depth, incoming.config_addr,
            incoming.mapping.config_bytes)
        if self._last_activation is not None:
            self.counters.add("residence_sum",
                              self.now - self._last_activation)
            self.counters.add("residence_events")
        self.counters.add("reconfig_events")
        self.counters.add("reconfig_sum", period)
        if self.probe is not None:
            if self.current is not None:
                self.probe.emit("stage.deactivate", cycle=self.now,
                                pe=self.pe_id, stage=self.current.name)
            self.probe.emit("reconfig.begin", cycle=self.now, pe=self.pe_id,
                            stage=incoming.name, period=period)
        self._incoming = incoming
        self._reconfig_remaining = period
        self._reconfig_period = period
        if period <= _EPS:
            self._activate()

    def _activate(self) -> None:
        self.current = self._incoming
        self._incoming = None
        self._reconfig_remaining = 0.0
        self._last_activation = self.now
        if self.probe is not None:
            self.probe.emit("reconfig.end", cycle=self.now, pe=self.pe_id,
                            stage=self.current.name)
            self.probe.emit("stage.activate", cycle=self.now, pe=self.pe_id,
                            stage=self.current.name,
                            reconfig_cycles=self._reconfig_period)

    def run_quantum(self, budget: float, fast: bool = False) -> None:
        """Advance this PE (and its DRMs) by ``budget`` cycles.

        DRMs are independent FSMs that run concurrently with the fabric;
        stepping them before *and* after the fabric's slice of the
        quantum approximates that concurrency (tokens the fabric
        produces this quantum can cross a DRM within the same quantum,
        halving the control-propagation latency of the quantum model).

        With ``fast=True``, a blocked PE charges the rest of the
        quantum to its stall bucket in one step instead of per-cycle.
        This is exact: queues and caches only change at quantum
        boundaries (DRM slices bracket the fabric slice), so once
        ``_pick_next`` returns ``None`` nothing can unblock the PE
        before the quantum ends, and the per-cycle loop would tick the
        same bucket every remaining cycle. See docs/performance.md.
        """
        # A DRM runs its generated step-function when the fast engine
        # bound one (repro.codegen), else the interpreted ladder.
        drm_used = [(drm.step_fn or DRM.run)(drm, budget)
                    for drm in self.drms]
        remaining = float(budget) - self._debt
        self._debt = 0.0
        guard = 0
        while remaining > _EPS:
            guard += 1
            if guard > 1_000_000:
                raise StageLivelockError(
                    f"PE {self.pe_id}: quantum failed to converge "
                    f"(zero-cost switch livelock?)")
            if self._reconfig_remaining > _EPS:
                step = min(remaining, self._reconfig_remaining)
                self._reconfig_remaining -= step
                remaining -= step
                self.now += step
                self.counters.add("reconfig", step)
                if self._reconfig_remaining <= _EPS:
                    self._activate()
                continue
            stage = self.current
            if stage is None or not self.stage_runnable(stage):
                # A runnable stage is never done, so only a blocked or
                # absent one needs the all-done scan.
                if self.all_done():
                    self.counters.add("idle", remaining)
                    self.now += remaining
                    return
                nxt = self._pick_next(stage)
                if nxt is None:
                    if fast:
                        remaining = self._stall_fast(remaining)
                        continue
                    if (self.probe is not None
                            and "pe.stall" in self.probe.bus.wants):
                        bucket, blocked_queue = self._blocked_cause()
                        self.counters.add(bucket, 1.0)
                        self.probe.emit("pe.stall", cycle=self.now,
                                        pe=self.pe_id, bucket=bucket,
                                        queue=blocked_queue)
                    else:
                        self.counters.add(self._classify_blocked(), 1.0)
                    remaining -= 1.0
                    self.now += 1.0
                    continue
                if nxt is not stage:
                    if self.probe is not None:
                        self.probe.emit(
                            "sched.switch", cycle=self.now, pe=self.pe_id,
                            **{"from": stage.name if stage else None,
                               "to": nxt.name})
                    self._begin_reconfiguration(nxt)
                    continue
            current = self.current
            step = current.step_fn
            if step is None:
                used = self._execute(current, remaining)
            else:
                # The fast engine's request loop (repro.codegen.interp)
                # replays _execute's loop with the request protocol
                # inlined.
                used = step(self, current, remaining)
            remaining -= used
            self.now += used
        if remaining < 0:
            self._debt = -remaining
        # Second slice: whatever of the quantum each DRM has not used
        # yet (keeps total DRM throughput at one quantum per quantum).
        for drm, used in zip(self.drms, drm_used):
            if used < budget:
                (drm.step_fn or DRM.run)(drm, budget - used)

    def _stall_fast(self, remaining: float) -> float:
        """Charge the rest of a quantum's blocked cycles in one step.

        Mirrors the naive per-cycle stall loop exactly: the naive loop
        subtracts 1.0 while ``remaining > _EPS``, so it takes
        ``ceil(remaining - _EPS)`` steps and may leave a fractional
        debt. :func:`add_units` gives ``now`` and the bucket what that
        many ``+= 1.0`` steps give them, rounding included.
        """
        steps = math.ceil(remaining - _EPS)
        if self.probe is not None and "pe.stall" in self.probe.bus.wants:
            # One aggregated event for the whole blocked span (the
            # naive engine emits one event per cycle). The blocked
            # cause cannot change mid-quantum (queues only move at
            # quantum boundaries), so one classification is exact.
            # ``wants`` is already checked, so publish directly.
            bucket, blocked_queue = self._blocked_cause()
            self.probe.bus.publish(
                "pe.stall", self.probe.source, self.now,
                {"pe": self.pe_id, "bucket": bucket,
                 "cycles": float(steps), "queue": blocked_queue})
        else:
            bucket = self._classify_blocked()
        counters = self.counters
        counters[bucket] = add_units(counters[bucket], steps)
        self.now = add_units(self.now, steps)
        return remaining - float(steps)

    def fast_forward_quanta(self, n: int, quantum: float) -> None:
        """Advance ``n`` quanta while the whole system is quiescent.

        Only called by :meth:`System._fast_forward` after proving no PE
        :meth:`can_progress`; each quantum would charge the full budget
        to one unchanging stall bucket, so the accounting collapses to
        a single bulk add when everything involved is integral.
        """
        if n <= 0:
            return
        bucket = ("idle" if self.all_done() else self._classify_blocked())
        total = float(n) * float(quantum)
        if (self._debt == 0.0 and float(quantum).is_integer()
                and self.now.is_integer()
                and self.counters[bucket].is_integer()
                and total.is_integer()):
            self.counters.add(bucket, total)
            self.now += total
        else:
            for _ in range(n):
                self.run_quantum(quantum, fast=True)

    def _pick_next(self, current: Optional[StageInstance]):
        if not self.time_multiplex:
            stage = self.stages[0]
            return stage if self.stage_runnable(stage) else None
        return self.scheduler.pick(self)

    # -- reporting -----------------------------------------------------------

    @property
    def state(self) -> str:
        """Instantaneous state for samplers: a stage name, ``(reconfig)``,
        ``(done)``, or ``(idle)``."""
        if self.all_done():
            return "(done)"
        if self._reconfig_remaining > _EPS:
            return "(reconfig)"
        if self.current is not None:
            return self.current.name
        return "(idle)"

    @property
    def avg_residence_cycles(self) -> float:
        events = self.counters["residence_events"]
        return self.counters["residence_sum"] / events if events else 0.0

    @property
    def avg_reconfig_cycles(self) -> float:
        events = self.counters["reconfig_events"]
        return self.counters["reconfig_sum"] / events if events else 0.0

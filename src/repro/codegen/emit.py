"""Deterministic Python source generation for pipeline stages and DRMs.

Every stage runs one generated step-function, the :data:`INTERP`
shape: PE._execute's request loop over the stage's own coroutine, with
the request protocol of ``PE._try_perform`` — and the queue transfer
bodies of ``Queue.enq`` / ``Queue.deq`` — inlined, and counters, cost
constants and the L1 bound as locals. Queue requests resolve their
queue per request through ``pe._qcache``; dequeues, enqueues, loads
and stores run inline. The rare requests (``try_deq``, ``peek``,
``cycles``) go through the generic ``pe._try_perform``. The fast
engine binds it to every stage.

Exactness is structural: every inlined fragment is a literal replica
of the interpreted code it replaces (the fragment builders below name
their originals), including counter update order and key creation
order, probe emission guards, credit bookkeeping, the zero-cost
livelock guard, and the budget-before-satisfiability check ordering.
``PE._execute`` stays the oracle (tests/test_interp_codegen.py).

The step-function keeps its state where the interpreter does: in the
coroutine and ``stage.pending``. A blocked or budget-exhausted request
stays in ``stage.pending`` exactly as the interpreter leaves it, so
schedulers, deadlock reports, and quiescence checks observe identical
state.

A step-function takes its owners as call arguments,
``step(pe, stage, budget)`` for a stage and ``step(drm, budget)`` for a
DRM. ``make_step`` binds only per-run constants into its closure:
queues, caches, counter dicts and numbers, never a PE, stage or DRM or
a bound method of one. So no owner is reachable from its own
step-function, and a finished run's objects are freed by reference
counting alone (docs/performance.md, "Object lifetimes").

Source text is a pure function of the shape — it never embeds queue
names, shard ids, or addresses (those bind at ``make_step`` time) — so
one compiled step-function serves every stage of every workload. See
:mod:`repro.codegen.runtime` for compiling and binding.

DRMs compile the same way, one step-function per :class:`DrmShape`
(:func:`drm_source`), replaying the interpreted ``DRM.run`` ladder.
Both emitters assemble their hot paths from the same fragment
functions for the queue transfer, the L1-hit path and the memory-map
read, so each inlined primitive has one source text.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar


@dataclass(frozen=True)
class StageShape:
    """The one stage shape (:data:`INTERP`): the generic request loop
    over a stage's coroutine. It has no axes; like a :class:`DrmShape`
    it keys the compiled-code memo and names the generated code
    (``<repro.codegen:NAME>``)."""

    name: ClassVar[str] = "interp"


#: The step-function shape the fast engine binds to every stage.
INTERP = StageShape()


#: DRM modes with a generated step-function; strided DRMs keep the
#: interpreted ladder of :class:`repro.core.drm.DRM`.
DRM_MODES = ("deref", "scan")


@dataclass(frozen=True)
class DrmShape:
    """Everything a generated DRM step-function depends on.

    ``width`` addresses per dereference token, ``payload`` a tag-along
    tail, ``routed`` a per-token output queue chosen by the spec's
    ``route`` callable; ``credited_out`` / ``credited_in`` say whether
    the output targets / the input queue use credit-based flow control
    (Sec. 5.6). A scanning DRM is one shape per flow-control pair.
    """

    mode: str
    width: int = 1
    payload: bool = False
    routed: bool = False
    credited_out: bool = False
    credited_in: bool = False

    def __post_init__(self):
        if self.mode not in DRM_MODES:
            raise ValueError(
                f"unknown DRM codegen mode {self.mode!r}; choose from "
                f"{DRM_MODES}")
        if self.width < 1:
            raise ValueError(f"DRM width must be positive, got {self.width}")
        if self.mode == "scan" and (self.width != 1 or self.payload
                                    or self.routed):
            raise ValueError("a scanning DRM has no width, payload or route")

    @property
    def name(self) -> str:
        """Label of the generated code (``<repro.codegen:NAME>``)."""
        parts = ["drm", self.mode]
        if self.mode == "deref":
            parts.append(f"w{self.width}")
        for flag, tag in ((self.payload, "payload"), (self.routed, "routed"),
                          (self.credited_out, "cout"),
                          (self.credited_in, "cin")):
            if flag:
                parts.append(tag)
        return ".".join(parts)


# -- emission helpers --------------------------------------------------------
#
# The generated code is assembled from small text fragments. Every
# fragment mirrors a specific piece of the interpreted hot path
# (PE._try_perform / PE._execute / StageInstance.io_cost / Queue.enq /
# Queue.deq) — comments below name the mirrored code so drift is
# auditable. The stage template is an f-string, so the text it emits
# contains no ``{``/``}``.


def _pad(indent: int) -> str:
    return " " * indent


def _header(shape, emitter: str) -> str:
    return (
        "# Generated by repro.codegen — specialized step-function.\n"
        f"# shape: {shape.name}\n"
        f"# Do not edit: regenerate via repro.codegen.emit.{emitter}.\n"
    )


# -- shared primitives -------------------------------------------------------
#
# One source text per inlined primitive: the stage emitter and the DRM
# emitter both build their hot paths from these three. Each takes its
# queue by prefix ``q`` and expects the locals ``q_<q>``, ``<q>_tok``,
# ``<q>_credits`` and ``<Q>_NAME`` (bound at bind time, or per request
# by the request loop, which passes the name expression instead).


def _credit(pad: str, q: str, producer: str, op: str, words: str,
            credited) -> list:
    """The credit bookkeeping of Queue.enq (``-=``) / Queue.deq (``+=``).
    ``credited`` fixes the queue's flow-control arm at emission time;
    ``None`` keeps the queue methods' runtime ``_credits`` test."""
    if credited is None:
        return [f"{pad}if {q}_credits is not None:",
                f"{pad}    {q}_credits[{producer}] {op} {words}"]
    return [f"{pad}{q}_credits[{producer}] {op} {words}"] if credited else []


def _queue_deq(indent: int, q: str, words: str, credited=None,
               name: str = "") -> list:
    """Queue.deq's transfer, minus the emptiness raise the caller's gate
    already ruled out: pop the head into ``token``, release ``tw``
    (``words``, evaluated after the pop so it may inspect ``token``),
    refund the producer's credit, probe. ``name`` is the expression of
    the queue's name (default: the bind-time ``<Q>_NAME``)."""
    pad = _pad(indent)
    name = name or f"{q.upper()}_NAME"
    return [
        f"{pad}token = {q}_tok.popleft()",
        f"{pad}tw = {words}",
        f"{pad}q_{q}._occupancy_words -= tw",
        *_credit(pad, q, "token.producer", "+=", "tw", credited),
        f"{pad}qp = q_{q}.probe",
        f'{pad}if qp is not None and "queue.deq" in qp.bus.wants:',
        f'{pad}    qp.emit("queue.deq", queue={name}, words=tw,',
        f"{pad}            occupancy=q_{q}._occupancy_words)",
    ]


def _queue_enq(indent: int, q: str, value: str, ctl: str, words: str,
               credited=None, reuse: bool = False, name: str = "") -> list:
    """Queue.enq's transfer, minus the full-queue raise the caller's gate
    already ruled out: credit debit, token append, occupancy,
    total_enqueued, probe. ``reuse`` refills the just-dequeued data
    ``token`` instead of allocating one (nothing else holds it);
    ``name`` as for :func:`_queue_deq`."""
    pad = _pad(indent)
    name = name or f"{q.upper()}_NAME"
    if reuse:
        append = [f"{pad}token.value = {value}",
                  f"{pad}token.producer = producer",
                  f"{pad}{q}_tok.append(token)"]
    else:
        append = [f"{pad}{q}_tok.append(Token({value}, {ctl}, producer))"]
    return [
        *_credit(pad, q, "producer", "-=", words, credited),
        *append,
        f"{pad}q_{q}._occupancy_words += {words}",
        f"{pad}q_{q}.total_enqueued += 1",
        f"{pad}qp = q_{q}.probe",
        f'{pad}if qp is not None and "queue.enq" in qp.bus.wants:',
        f'{pad}    qp.emit("queue.enq", queue={name}, words={words},',
        f"{pad}            occupancy=q_{q}._occupancy_words, control={ctl})",
    ]


def _l1_hit(indent: int, addr: str, hits: str = "l1.hits",
            write: bool = False) -> list:
    """The head of Cache.access's L1-hit path, verbatim: the set lookup,
    the hit count and the LRU move-to-MRU (write-allocate dirty marking
    for stores). It opens an ``if``: the caller finishes the hit arm and
    writes the ``else:`` that takes the full method on a miss."""
    pad = _pad(indent)
    mru = ([f"{pad}    cset.pop(line)", f"{pad}    cset[line] = True"]
           if write else [f"{pad}    cset[line] = cset.pop(line)"])
    return [
        f"{pad}line = {addr} >> l1_shift",
        f"{pad}cset = l1_sets[line & l1_mask]",
        f"{pad}if line in cset:",
        f"{pad}    {hits} += 1",
        *mru,
    ]


def _region_read(indent: int, slot: int, addr: str, out: str) -> list:
    """MemoryMap.read, with its one-entry locality cache kept per address
    slot in the closure cells ``lo<slot>``/``hi``/``eb``/``arr``: a hit
    indexes the region's array exactly as read() does; a miss calls
    read() and adopts the region it resolved (``MemoryMap._last``)."""
    pad = _pad(indent)
    s = slot
    return [
        f"{pad}if lo{s} <= {addr} < hi{s}:",
        f"{pad}    {out} = arr{s}[({addr} - lo{s}) // eb{s}]",
        f"{pad}else:",
        f"{pad}    {out} = read({addr})",
        f"{pad}    lo{s}, hi{s}, eb{s}, _, arr{s} = mm._last",
    ]


def _carry(indent: int) -> str:
    """Load the carried state at step entry: the SIMD I/O totals and the
    counter totals. ``c_dirty`` marks ``issued`` written; ``t_dirty``
    marks a dequeue, which writes ``tokens`` and ``fabric_ops`` too."""
    pad = _pad(indent)
    return "\n".join([
        f"{pad}wd = stage.work_deq",
        f"{pad}we = stage.work_enq",
        f'{pad}c_iss = counters.get("issued", 0.0)',
        f'{pad}c_tok = counters.get("tokens", 0.0)',
        f'{pad}c_fab = counters.get("fabric_ops", 0.0)',
        f"{pad}c_dirty = t_dirty = False",
    ])


def _flush_counters(indent: int, reset: bool = False) -> str:
    """Write the locally-carried counter totals back to pe.counters.

    The locals carry the same running totals the interpreter keeps in
    the dict (same left-fold order, so bit-exact). The dirty flags gate
    the writeback so a step creates exactly the keys the interpreter
    would have created, in its order: an enqueue or ``cycles`` request
    writes only ``issued``, a dequeue all three.
    """
    pad = _pad(indent)
    lines = [
        f"{pad}if t_dirty:",
        f'{pad}    counters["issued"] = c_iss',
        f'{pad}    counters["tokens"] = c_tok',
        f'{pad}    counters["fabric_ops"] = c_fab',
        f"{pad}elif c_dirty:",
        f'{pad}    counters["issued"] = c_iss',
    ]
    if reset:
        lines.append(f"{pad}c_dirty = t_dirty = False")
    return "\n".join(lines)


def _save(indent: int) -> str:
    """Suspend: leave the request ``req`` pending (the coroutine holds
    the rest of the stage's state) and write back the counter totals
    and the running SIMD I/O totals."""
    pad = _pad(indent)
    return "\n".join([
        _flush_counters(indent),
        f"{pad}stage.pending = req",
        f"{pad}stage.work_deq = wd",
        f"{pad}stage.work_enq = we",
        f"{pad}return spent",
    ])


def _finish(indent: int) -> str:
    """Terminal exit: the interpreter's StopIteration epilogue."""
    pad = _pad(indent)
    return "\n".join([
        _flush_counters(indent),
        f"{pad}stage.pending = None",
        f"{pad}stage.done = True",
        f"{pad}stage.work_deq = wd",
        f"{pad}stage.work_enq = we",
        f"{pad}return spent",
    ])


def _streak(indent: int) -> str:
    """Mirrors PE._execute's zero-cost livelock guard (counters and
    pending are left exactly as the interpreter leaves them)."""
    pad = _pad(indent)
    return "\n".join([
        f"{pad}zero_streak = 0 if cost > 0 else zero_streak + 1",
        f"{pad}if zero_streak > 1000000:",
        _flush_counters(indent + 4),
        f"{pad}    stage.pending = req",
        f"{pad}    stage.work_deq = wd",
        f"{pad}    stage.work_enq = we",
        f"{pad}    raise LivelockError(",
        f'{pad}        "stage %r on PE %s issued 1M zero-cost requests"',
        f"{pad}        % (stage_name, pe_id))",
    ])


def _io_cost(indent: int, side: str, control: str) -> list:
    """StageInstance.io_cost open-coded against the bind-time constants
    ``ctl_inc`` / ``inv_r``: ``side`` is the running total a data token
    advances (``wd`` dequeue, ``we`` enqueue); ``control`` is the
    expression that is true for a control token."""
    pad = _pad(indent)
    return [
        f"{pad}if {control}:",
        f"{pad}    top = (wd if wd >= we else we) + ctl_inc",
        f"{pad}    wd = we = top",
        f"{pad}    cost = ctl_inc",
        f"{pad}else:",
        f"{pad}    before = wd if wd >= we else we",
        f"{pad}    {side} += inv_r",
        f"{pad}    cost = (wd if wd >= we else we) - before",
    ]


def _deq_cost(indent: int) -> list:
    """PE._try_perform's "deq" accounting after the transfer."""
    pad = _pad(indent)
    return [
        *_io_cost(indent, "wd", "token.is_control"),
        f"{pad}spent += cost",
        f"{pad}c_iss += cost",
        f"{pad}c_tok += 1.0",
        f"{pad}c_fab += n_ops",
        f"{pad}t_dirty = True",
    ]


def _enq_cost(indent: int) -> list:
    """PE._try_perform's "enq" accounting after the transfer."""
    pad = _pad(indent)
    return [
        *_io_cost(indent, "we", "rq_ctl"),
        f"{pad}spent += cost",
        f"{pad}c_iss += cost",
        f"{pad}c_dirty = True",
    ]


def _request_loop(indent: int) -> str:
    """Drive the stage's coroutine one request at a time: PE._execute's
    loop with PE._try_perform's arms inlined. Expects ``send`` (the
    coroutine's ``send``), ``req`` (the pending request, or None to
    fetch the next) and ``res`` (what to send).

    Queue requests resolve their queue per request through
    ``pe._qcache`` and inline the Queue.deq / Queue.enq transfers;
    loads and stores inline the L1-hit path and take the full
    Cache.access on a miss. The rare kinds (try_deq, peek, cycles, and
    unknown ones, which raise there) flush the carried totals and take
    the generic ``pe._try_perform``.
    """
    pad = _pad(indent)
    p8, p12 = pad + " " * 4, pad + " " * 8
    return "\n".join([
        f"{pad}while True:",
        f"{pad}    if req is None:",
        f"{pad}        try:",
        f"{pad}            req = send(res)",
        f"{pad}        except StopIteration:",
        _finish(indent + 12),
        f"{pad}    if spent >= budget:",
        _save(indent + 8),
        f"{pad}    kind = req[0]",
        f'{pad}    if kind == "deq":',
        f"{p12}q_rq = qget(req[1])",
        f"{p12}if q_rq is None:",
        f"{p12}    q_rq = pe._queue(req[1])",
        f"{p12}rq_tok = q_rq._tokens",
        f"{p12}if not rq_tok:",
        _save(indent + 12),
        f"{p12}rq_credits = q_rq._credits",
        *_queue_deq(indent + 8, "rq",
                    "1 if token.is_control else q_rq.entry_words",
                    name="q_rq.name"),
        *_deq_cost(indent + 8),
        f"{p12}res = token",
        f'{pad}    elif kind == "enq":',
        f"{p12}_, rq_name, rq_value, rq_ctl = req",
        f"{p12}q_rq = qget(rq_name)",
        f"{p12}if q_rq is None:",
        f"{p12}    q_rq = pe._queue(rq_name)",
        f"{p12}rq_credits = q_rq._credits",
        f"{p12}words = 1 if rq_ctl else q_rq.entry_words",
        f"{p12}if rq_credits is None:",
        f"{p12}    if q_rq.capacity_words - q_rq._occupancy_words < words:",
        _save(indent + 16),
        f"{p12}elif not q_rq.can_enq(producer, rq_ctl):",
        _save(indent + 12),
        f"{p12}rq_tok = q_rq._tokens",
        *_queue_enq(indent + 8, "rq", "rq_value", "rq_ctl", "words",
                    name="q_rq.name"),
        *_enq_cost(indent + 8),
        f"{p12}res = None",
        # Misses take the full Cache.access; a hit's latency equals
        # l1_lat, so its stall is zero.
        f'{pad}    elif kind == "load":',
        f"{p12}a = req[1]",
        f"{p12}res = None",
        *_l1_hit(indent + 8, "a"),
        f"{p12}    cost = 0.0",
        f"{p12}else:",
        f"{p12}    stall = l1_access(a) - l1_lat",
        f"{p12}    if stall > 0.0:",
        # Flush before creating stall_mem so counter keys appear in
        # the dict in the same order the interpreter creates them.
        _flush_counters(indent + 16, reset=True),
        f'{p12}        counters["stall_mem"] = ('
        f'counters.get("stall_mem", 0.0) + stall)',
        f"{p12}        pp = pe.probe",
        f'{p12}        if pp is not None and "pe.stall" in pp.bus.wants:',
        f'{p12}            pp.emit("pe.stall", cycle=pe.now, pe=pe_id,',
        f'{p12}                    bucket="stall_mem", cycles=stall,',
        f"{p12}                    stage=stage_name)",
        f"{p12}        cost = stall",
        f"{p12}    else:",
        f"{p12}        cost = 0.0",
        f"{p12}spent += cost",
        f'{pad}    elif kind == "store":',
        f"{p12}a = req[1]",
        *_l1_hit(indent + 8, "a", write=True),
        f"{p12}else:",
        f"{p12}    l1_access(a, write=True)",
        f"{p12}res = None",
        f"{p12}cost = 0.0",
        f"{pad}    else:",
        # try_perform reads and writes pe.counters and the SIMD totals
        # directly: flush the carried ones first, reload after.
        _flush_counters(indent + 8, reset=True),
        f"{p12}stage.work_deq = wd",
        f"{p12}stage.work_enq = we",
        f"{p12}outcome = pe._try_perform(stage, req)",
        f"{p12}wd = stage.work_deq",
        f"{p12}we = stage.work_enq",
        f'{p12}c_iss = counters.get("issued", 0.0)',
        f'{p12}c_tok = counters.get("tokens", 0.0)',
        f'{p12}c_fab = counters.get("fabric_ops", 0.0)',
        f"{p12}if outcome is None:",
        _save(indent + 12),
        f"{p12}res, cost = outcome",
        f"{p12}spent += cost",
        _streak(indent + 4),
        f"{p8}req = None",
    ])


# The step-function's bind-time locals: the stage's cost constants, the
# PE's counters and queue cache, and the L1. The PE and the stage
# themselves arrive as arguments of each call.
_INTERP_PREAMBLE = '''\
from repro.core.pe import StageLivelockError as LivelockError
from repro.queues.queue import Token


def make_step(pe, stage):
    ctx = stage.ctx
    producer = ctx.producer_key
    counters = pe.counters
    qget = pe._qcache.get
    n_ops = stage.mapping.n_compute_ops
    speed = stage.speed
    # Bind-time constants of StageInstance.io_cost: control tokens cost
    # ctl_inc serially; data tokens cost 1/R against the running max.
    ctl_inc = 1.0 if speed == 1.0 else 1.0 / speed
    r = stage.mapping.replication
    if speed != 1.0:
        r = r * speed
    inv_r = 1 / r
    l1 = pe.l1
    l1_access = l1.access
    l1_lat = l1._latency
    l1_sets = l1._sets
    l1_shift = l1._line_shift
    l1_mask = l1._set_mask
    pe_id = pe.pe_id
    stage_name = stage.spec.name
'''


def stage_source(shape: StageShape) -> str:
    """Emit the step-function source for ``shape`` (:data:`INTERP`):
    PE._execute over the stage's own coroutine, every request through
    :func:`_request_loop`.

    Pure and deterministic: equal shapes produce byte-identical text.
    """
    body = f'''\

    def step(pe, stage, budget):
        spent = 0.0
        zero_streak = 0
        if not stage.started:
            stage.first_request()
        if stage.done:
            return spent
        send = stage.gen.send
        req = stage.pending
        res = None
{_carry(8)}
{_request_loop(8)}

    return step
'''
    return (_header(shape, "stage_source") + "\n" + _INTERP_PREAMBLE
            + body)


# -- DRM step-functions ------------------------------------------------------
#
# A DRM step-function replays DRM.run — the interpreted _step_* ladder —
# for one DrmShape: the same float operations in the same order (spent
# and miss_stall_cycles accumulate per token, busy_cycles once per
# call), the same probe guards, the same event order. Loads, miss stall
# and L1 hits ride in locals flushed at every exit; control tokens take
# the ladder's _step_control.


def _bind_in_queue(q: str, queue: str) -> str:
    """Dequeue-side bindings for queue prefix ``q``; ``queue`` is the
    expression that yields the queue at bind time."""
    return "\n".join([
        f"    q_{q} = {queue}",
        f"    {q}_tok = q_{q}._tokens",
        f"    {q}_words = q_{q}.entry_words",
        f"    {q}_credits = q_{q}._credits",
        f"    {q.upper()}_NAME = q_{q}.name",
    ])


def _bind_out_queue(q: str, queue: str) -> str:
    """Enqueue-side bindings: the dequeue side's plus capacity."""
    return "\n".join([
        _bind_in_queue(q, queue),
        f"    {q.upper()}_CAP = q_{q}.capacity_words",
    ])


_DRM_PREAMBLE = '''\
from repro.queues.queue import Token


def make_step(drm):
    producer = drm.producer_key
    l1 = drm.l1
    l1_access = l1.access
    l1_lat = l1._latency
    l1_sets = l1._sets
    l1_shift = l1._line_shift
    l1_mask = l1._set_mask
    drm_lat = drm.l1_latency
    max_out = drm.max_outstanding
    inv_issue = drm._inv_issue
    mm = drm.memmap
    read = mm.read
    DRM_NAME = drm.spec.name
    pe_id = drm.pe_id
'''


def _drm_blocked(indent: int, queue: str) -> list:
    """DRM.run's blocked exit: the drm.blocked probe, then leave."""
    pad = _pad(indent)
    return [
        f"{pad}dp = drm.probe",
        f'{pad}if dp is not None and "drm.blocked" in dp.bus.wants:',
        f'{pad}    dp.emit("drm.blocked", drm=DRM_NAME, pe=pe_id, '
        f"queue={queue})",
        f"{pad}break",
    ]


def _drm_gate(indent: int, credited: bool) -> list:
    """The ladder's ``out.can_enq(producer)`` test. An uncredited target
    compares occupancy inline; a credited one reads the producer's
    credits and calls can_enq only on the failing path, which fires the
    credit_stall probe exactly as the ladder's call does."""
    pad = _pad(indent)
    if credited:
        test = [f"{pad}if out_credits[producer] < out_words:",
                f"{pad}    q_out.can_enq(producer)"]
    else:
        test = [f"{pad}if OUT_CAP - q_out._occupancy_words < out_words:"]
    return [*test, f"{pad}    drm._blocked_on = OUT_NAME",
            *_drm_blocked(indent + 4, "OUT_NAME")]


def _drm_access(indent: int, addrs) -> list:
    """DRM._access_cost over ``addrs``, with L1 hits inlined."""
    pad = _pad(indent)
    lines = [f"{pad}worst = 0.0"]
    for addr in addrs:
        lines += [
            *_l1_hit(indent, addr, hits="hits"),
            f"{pad}    lat = l1_lat",
            f"{pad}else:",
            f"{pad}    lat = l1_access({addr})",
            f"{pad}if lat > worst:",
            f"{pad}    worst = lat",
        ]
    return lines + [
        f"{pad}loads += {len(addrs)}",
        f"{pad}over = worst - drm_lat",
        f"{pad}extra = over / max_out if over > 0.0 else 0.0",
        f"{pad}stall += extra",
        f"{pad}cost = inv_issue + extra",
    ]


def _drm_outputs(shape: DrmShape) -> str:
    if shape.routed:
        return "\n".join([
            "    route = drm._route",
            "    targets = {name: (q, q._tokens, q.entry_words, q._credits,",
            "                      q.name, q.capacity_words)",
            "               for name, q in drm.out_queues.items()}",
        ])
    return _bind_out_queue("out", "drm._out_q")


def _drm_regions(n_slots: int) -> tuple:
    """(bind-time initialisation, ``nonlocal`` line) of the per-slot
    region caches; each starts empty, like ``MemoryMap._last``."""
    cells = [f"lo{s}, hi{s}, eb{s}, arr{s}" for s in range(n_slots)]
    init = "\n".join(f"    {c} = 1, 0, 1, None" for c in cells)
    return init, "        nonlocal " + ", ".join(cells)


def _drm_flush(indent: int) -> str:
    pad = _pad(indent)
    return "\n".join([
        f"{pad}drm.loads = loads",
        f"{pad}drm.miss_stall_cycles = stall",
        f"{pad}l1.hits += hits",
        f"{pad}drm.busy_cycles += spent",
        f"{pad}return spent",
    ])


def _emit_drm_deref(shape: DrmShape) -> str:
    width = shape.width
    slots = range(width)
    if width == 1 and not shape.payload:
        operands = ["            a0 = token.value"]
    else:
        operands = ["            parts = tuple(token.value)"]
        operands += [f"            a{s} = parts[{s}]" for s in slots]
    if shape.payload:
        operands.append(f"            payload = parts[{width}:]")
    for s in slots:
        operands += _region_read(12, s, f"a{s}", f"v{s}")
    loaded = "(" + "".join(f"v{s}, " for s in slots).rstrip(" ") + ")"
    if shape.routed:
        payload = "payload" if shape.payload else "()"
        operands += [f"            loaded = {loaded}",
                     "            (q_out, out_tok, out_words, out_credits,",
                     "             OUT_NAME, OUT_CAP) = targets[",
                     f"                route(loaded, {payload})]"]
        loaded = "loaded"
    if width == 1 and not shape.payload:
        result = "v0"
    elif shape.payload:
        result = f"{loaded} + payload"
    else:
        result = loaded
    init, cells = _drm_regions(width)
    body = "\n".join([
        _bind_in_queue("in", "drm.in_q"),
        _drm_outputs(shape),
        init,
        "",
        "    def step(drm, budget):",
        cells,
        "        if not in_tok:",
        "            return 0.0",
        "        spent = 0.0",
        "        loads = drm.loads",
        "        stall = drm.miss_stall_cycles",
        "        hits = 0",
        "        while spent < budget and in_tok:",
        "            token = in_tok[0]",
        "            if token.is_control:",
        "                cost = drm._step_control(token)",
        "                if cost is None:",
        *_drm_blocked(20, "drm._blocked_on"),
        "                spent += cost",
        "                continue",
        *operands,
        *_drm_gate(12, shape.credited_out),
        *_drm_access(12, [f"a{s}" for s in slots]),
        *_queue_deq(12, "in", "in_words", shape.credited_in),
        *_queue_enq(12, "out", result, "False", "out_words",
                    shape.credited_out, reuse=True),
        "            spent += cost",
        _drm_flush(8),
        "",
        "    return step",
        "",
    ])
    return _header(shape, "drm_source") + "\n" + _DRM_PREAMBLE + body


def _emit_drm_scan(shape: DrmShape) -> str:
    init, cells = _drm_regions(1)
    body = "\n".join([
        _bind_in_queue("in", "drm.in_q"),
        _drm_outputs(shape),
        init,
        "",
        "    def step(drm, budget):",
        cells,
        "        sa = drm._scan_addr",
        "        if sa is None and not in_tok:",
        "            return 0.0",
        "        spent = 0.0",
        "        s_end = drm._scan_end",
        "        s_eb = drm._scan_elem_bytes",
        "        loads = drm.loads",
        "        stall = drm.miss_stall_cycles",
        "        hits = 0",
        "        while spent < budget:",
        "            if sa is not None:",
        *_drm_gate(16, shape.credited_out),
        *_drm_access(16, ["sa"]),
        *_region_read(16, 0, "sa", "v0"),
        *_queue_enq(16, "out", "v0", "False", "out_words",
                    shape.credited_out),
        "                sa += s_eb",
        "                if sa >= s_end:",
        "                    sa = None",
        "            elif not in_tok:",
        "                break",
        "            else:",
        "                token = in_tok[0]",
        "                if token.is_control:",
        "                    cost = drm._step_control(token)",
        "                    if cost is None:",
        *_drm_blocked(24, "drm._blocked_on"),
        "                else:",
        "                    start, end = token.value",
        "                    q_in.deq()",
        "                    sa = start if start < end else None",
        "                    s_end = end",
        "                    if start < end:",
        "                        s_eb = mm.elem_bytes_at(start)",
        "                    cost = 1.0",
        "            spent += cost",
        "        drm._scan_addr = sa",
        "        drm._scan_end = s_end",
        "        drm._scan_elem_bytes = s_eb",
        _drm_flush(8),
        "",
        "    return step",
        "",
    ])
    return _header(shape, "drm_source") + "\n" + _DRM_PREAMBLE + body


def drm_source(shape: DrmShape) -> str:
    """Emit the DRM step-function source for ``shape`` (pure and
    deterministic, like :func:`stage_source`)."""
    emit = _emit_drm_deref if shape.mode == "deref" else _emit_drm_scan
    return emit(shape)

"""Deterministic Python source generation for pipeline stages.

Each of the four decoupled graph-pipeline stage shapes (S0 process
fringe, S1 enumerate neighbors, S2 fetch values, S3 update — paper
Fig. 2(a)) compiles to a flat *step-function*: straight-line Python
that inlines the request protocol of ``PE._try_perform`` /
``PE._execute`` — and the queue transfer bodies of ``Queue.enq`` /
``Queue.deq`` — for the stage's fixed deq→compute→enq skeleton, with
queues, counters, and cost constants bound as locals. The coroutine
trampoline (request tuple allocation, ``gen.send``, string dispatch on
the request kind, ``io_cost`` calls, queue method dispatch) disappears
from the per-token hot path; only the per-workload hook sub-generators
(``vertex_process`` / ``s3_update``) still run as coroutines, driven
by a mini-trampoline that inlines their dominant load/store requests
and routes anything else through the generic ``pe._try_perform``.

Exactness is structural: every inlined fragment is a literal replica
of the interpreted code it replaces (the fragment builders below name
their originals), including counter update order, probe emission
guards, credit bookkeeping, the zero-cost livelock guard, and the
budget-before-satisfiability check ordering.

Suspension is explicit: the generated function is a state machine over
a small program counter plus loop counters kept in ``stage.cg``; a
blocked or budget-exhausted request saves the pc and sets
``stage.pending`` to the exact request tuple the interpreter would
have left there, so schedulers, deadlock reports, and quiescence
checks observe identical state.

Source text is a pure function of the :class:`StageShape` — it never
embeds queue names, shard ids, or addresses (those bind at
``make_step`` time) — so one cached artifact serves every shard of
every workload with the same shape. See :mod:`repro.codegen.runtime`
for caching and binding.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.content import sha256_text

# Bump when the emitted code changes in any way that should invalidate
# cached sources independently of the surrounding package (the on-disk
# artifact cache is additionally namespaced by code_version()).
CODEGEN_VERSION = "3"

ROLES = ("s0", "s1", "s2", "s3")


@dataclass(frozen=True)
class StageShape:
    """Everything the generated source depends on — and nothing else.

    ``role`` names one of the four decoupled skeleton stages.
    ``simple_edges`` is the ``edge_fetch_words == 1`` fast path of
    S1/S2; ``trivial_vp`` marks workloads that do not override
    ``vertex_process`` (S1 skips the sub-generator entirely).
    """

    role: str
    simple_edges: bool = True
    trivial_vp: bool = False

    def __post_init__(self):
        if self.role not in ROLES:
            raise ValueError(
                f"unknown codegen role {self.role!r}; choose from {ROLES}")

    def key(self) -> str:
        """Content-address of the source this shape emits."""
        return sha256_text("codegen/v" + CODEGEN_VERSION, self.role,
                           repr(bool(self.simple_edges)),
                           repr(bool(self.trivial_vp)))


# -- emission helpers --------------------------------------------------------
#
# The generated code is assembled from small text fragments. Every
# fragment mirrors a specific piece of the interpreted hot path
# (PE._try_perform / PE._execute / StageInstance.io_cost / Queue.enq /
# Queue.deq) — comments below name the mirrored code so drift is
# auditable. The emitted text contains no ``{``/``}`` so f-string
# assembly stays safe.


def _pad(indent: int) -> str:
    return " " * indent


def _flush_counters(indent: int, reset: bool = False) -> str:
    """Write the locally-carried counter totals back to pe.counters.

    The locals carry the same running totals the interpreter keeps in
    the dict (same left-fold order, so bit-exact); ``c_dirty`` gates
    the writeback so a step that performed no queue op creates no keys
    the interpreter would not have created.
    """
    pad = _pad(indent)
    lines = [
        f"{pad}if c_dirty:",
        f'{pad}    counters["issued"] = c_iss',
        f'{pad}    counters["tokens"] = c_tok',
        f'{pad}    counters["fabric_ops"] = c_fab',
    ]
    if reset:
        lines.append(f"{pad}    c_dirty = False")
    return "\n".join(lines)


def _save(indent: int, pc: int, pending: str, extra=()) -> str:
    """Suspend: persist the pc (+ loop state), the exact pending
    request tuple, the counter totals, and the running SIMD I/O
    totals."""
    pad = _pad(indent)
    lines = [f"{pad}cg[0] = {pc}"]
    lines += [pad + line for line in extra]
    lines += [
        _flush_counters(indent),
        f"{pad}stage.pending = {pending}",
        f"{pad}stage.work_deq = wd",
        f"{pad}stage.work_enq = we",
        f"{pad}return spent",
    ]
    return "\n".join(lines)


def _streak(indent: int, pending: str) -> str:
    """Mirrors PE._execute's zero-cost livelock guard (counters and
    pending are left exactly as the interpreter leaves them)."""
    pad = _pad(indent)
    return "\n".join([
        f"{pad}zero_streak = 0 if cost > 0 else zero_streak + 1",
        f"{pad}if zero_streak > 1000000:",
        _flush_counters(indent + 4),
        f"{pad}    stage.pending = {pending}",
        f"{pad}    stage.work_deq = wd",
        f"{pad}    stage.work_enq = we",
        f"{pad}    raise LivelockError(",
        f'{pad}        "stage %r on PE %s issued 1M zero-cost requests"',
        f"{pad}        % (stage_name, pe_id))",
    ])


def _deq_site(indent: int, q: str, pc: int, pending: str, extra=()) -> str:
    """One blocking dequeue, fully inlined.

    The budget/emptiness gate and the cost accounting mirror
    PE._try_perform's "deq" arm (StageInstance.io_cost open-coded
    against the bind-time constants ctl_inc / inv_r); the token
    transfer itself is Queue.deq verbatim — occupancy, credit refund,
    probe — minus only the emptiness re-raise the gate already rules
    out.
    """
    pad = _pad(indent)
    return "\n".join([
        f"{pad}if spent >= budget or not {q}_tok:",
        _save(indent + 4, pc, pending, extra),
        # -- Queue.deq --
        f"{pad}token = {q}_tok.popleft()",
        f"{pad}tw = 1 if token.is_control else {q}_words",
        f"{pad}q_{q}._occupancy_words -= tw",
        f"{pad}if {q}_credits is not None:",
        f"{pad}    {q}_credits[token.producer] += tw",
        f"{pad}qp = q_{q}.probe",
        f'{pad}if qp is not None and "queue.deq" in qp.bus.wants:',
        f'{pad}    qp.emit("queue.deq", queue={q.upper()}_NAME, words=tw,',
        f"{pad}            occupancy=q_{q}._occupancy_words)",
        # -- io_cost + counters (PE._try_perform "deq") --
        f"{pad}if token.is_control:",
        f"{pad}    top = (wd if wd >= we else we) + ctl_inc",
        f"{pad}    wd = we = top",
        f"{pad}    cost = ctl_inc",
        f"{pad}else:",
        f"{pad}    before = wd if wd >= we else we",
        f"{pad}    wd += inv_r",
        f"{pad}    cost = (wd if wd >= we else we) - before",
        f"{pad}spent += cost",
        f"{pad}c_iss += cost",
        f"{pad}c_tok += 1.0",
        f"{pad}c_fab += n_ops",
        f"{pad}c_dirty = True",
        _streak(indent, pending),
    ])


def _enq_site(indent: int, q: str, value: str, control: bool,
              pc: int, pending: str, extra=()) -> str:
    """One blocking enqueue, fully inlined.

    The budget check short-circuits before any capacity check so a
    budget-exhausted stage never emits a spurious credit_stall probe,
    exactly like the interpreted loop. Uncredited queues (every
    pipeline-internal edge) gate on Queue.can_enq's uncredited arm
    verbatim — a pure occupancy comparison; credited queues route
    through the can_enq method so the credit_stall probe fires
    identically. The transfer mirrors Queue.enq (credit debit, token
    append, occupancy, total_enqueued, probe) minus only the
    full-queue re-raise the gate already rules out; the io_cost arm
    (control vs data) is selected at emission time.
    """
    pad = _pad(indent)
    ctl = "True" if control else "False"
    words = "1" if control else f"{q}_words"
    lines = [
        f"{pad}if spent >= budget:",
        _save(indent + 4, pc, pending, extra),
        f"{pad}if {q}_credits is None:",
        f"{pad}    if {q.upper()}_CAP - q_{q}._occupancy_words < {words}:",
        _save(indent + 8, pc, pending, extra),
        f"{pad}elif not {q}_can(producer, {ctl}):",
        _save(indent + 4, pc, pending, extra),
        # -- Queue.enq --
        f"{pad}if {q}_credits is not None:",
        f"{pad}    {q}_credits[producer] -= {words}",
        f"{pad}{q}_tok.append(Token({value}, {ctl}, producer))",
        f"{pad}q_{q}._occupancy_words += {words}",
        f"{pad}q_{q}.total_enqueued += 1",
        f"{pad}qp = q_{q}.probe",
        f'{pad}if qp is not None and "queue.enq" in qp.bus.wants:',
        f'{pad}    qp.emit("queue.enq", queue={q.upper()}_NAME, '
        f"words={words},",
        f"{pad}            occupancy=q_{q}._occupancy_words, control={ctl})",
    ]
    # -- io_cost + counters (PE._try_perform "enq") --
    if control:
        lines += [
            f"{pad}top = (wd if wd >= we else we) + ctl_inc",
            f"{pad}wd = we = top",
            f"{pad}cost = ctl_inc",
        ]
    else:
        lines += [
            f"{pad}before = wd if wd >= we else we",
            f"{pad}we += inv_r",
            f"{pad}cost = (wd if wd >= we else we) - before",
        ]
    lines += [
        f"{pad}spent += cost",
        f"{pad}c_iss += cost",
        f"{pad}c_dirty = True",
        _streak(indent, pending),
    ]
    return "\n".join(lines)


def _subgen_loop(indent: int, pc: int) -> str:
    """Drive a hook sub-generator one request at a time.

    The dominant requests — coupled stores and loads — are inlined
    from PE._try_perform's "store"/"load" arms; everything else
    flushes the SIMD totals and takes the generic ``pe._try_perform``.
    Mirrors the interpreted ``yield from`` plumbing; the StopIteration
    value lands in ``p0``.
    """
    pad = _pad(indent)
    return "\n".join([
        f"{pad}while True:",
        f"{pad}    if req is None:",
        f"{pad}        try:",
        f"{pad}            req = gen.send(res)",
        f"{pad}        except StopIteration as stop:",
        f"{pad}            p0 = stop.value",
        f"{pad}            break",
        f"{pad}    if spent >= budget:",
        _save(indent + 8, pc, "req"),
        f"{pad}    kind = req[0]",
        # Cache.access's L1-hit path verbatim (write-allocate dirty
        # marking and LRU move-to-MRU included); misses take the full
        # method. A hit's latency equals l1_lat, so stall is zero.
        f'{pad}    if kind == "store":',
        f"{pad}        a = req[1]",
        f"{pad}        line = a >> l1_shift",
        f"{pad}        cset = l1_sets[line & l1_mask]",
        f"{pad}        if line in cset:",
        f"{pad}            l1.hits += 1",
        f"{pad}            cset.pop(line)",
        f"{pad}            cset[line] = True",
        f"{pad}        else:",
        f"{pad}            l1_access(a, write=True)",
        f"{pad}        res = None",
        f"{pad}        cost = 0.0",
        f'{pad}    elif kind == "load":',
        f"{pad}        a = req[1]",
        f"{pad}        line = a >> l1_shift",
        f"{pad}        cset = l1_sets[line & l1_mask]",
        f"{pad}        res = None",
        f"{pad}        if line in cset:",
        f"{pad}            l1.hits += 1",
        f"{pad}            cset[line] = cset.pop(line)",
        f"{pad}            cost = 0.0",
        f"{pad}        else:",
        f"{pad}            stall = l1_access(a) - l1_lat",
        f"{pad}            if stall > 0.0:",
        # Flush before creating stall_mem so counter keys appear in
        # the dict in the same order the interpreter creates them.
        _flush_counters(indent + 16, reset=True),
        f'{pad}                counters["stall_mem"] = ('
        f'counters.get("stall_mem", 0.0) + stall)',
        f"{pad}                pp = pe.probe",
        f'{pad}                if pp is not None and "pe.stall" in '
        f"pp.bus.wants:",
        f'{pad}                    pp.emit("pe.stall", cycle=pe.now, '
        f"pe=pe_id,",
        f'{pad}                            bucket="stall_mem", cycles=stall,',
        f"{pad}                            stage=stage_name)",
        f"{pad}                cost = stall",
        f"{pad}            else:",
        f"{pad}                cost = 0.0",
        f"{pad}    else:",
        # try_perform reads and writes pe.counters directly: flush the
        # carried totals first, reload after.
        _flush_counters(indent + 8, reset=True),
        f"{pad}        stage.work_deq = wd",
        f"{pad}        stage.work_enq = we",
        f"{pad}        outcome = try_perform(stage, req)",
        f"{pad}        wd = stage.work_deq",
        f"{pad}        we = stage.work_enq",
        f'{pad}        c_iss = counters.get("issued", 0.0)',
        f'{pad}        c_tok = counters.get("tokens", 0.0)',
        f'{pad}        c_fab = counters.get("fabric_ops", 0.0)',
        f"{pad}        if outcome is None:",
        _save(indent + 12, pc, "req"),
        f"{pad}        res, cost = outcome",
        f"{pad}    spent += cost",
        _streak(indent + 4, "req"),
        f"{pad}    req = None",
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


def _bind_in_queue(q: str, key: str) -> str:
    """Dequeue-side bindings for queue prefix ``q``."""
    return "\n".join([
        f'    q_{q} = pe._queue(b["{key}"])',
        f"    {q}_tok = q_{q}._tokens",
        f"    {q}_words = q_{q}.entry_words",
        f"    {q}_credits = q_{q}._credits",
        f"    {q.upper()}_NAME = q_{q}.name",
    ])


def _bind_out_queue(q: str, key: str) -> str:
    """Enqueue-side bindings for queue prefix ``q``."""
    return "\n".join([
        f'    q_{q} = pe._queue(b["{key}"])',
        f"    {q}_tok = q_{q}._tokens",
        f"    {q}_words = q_{q}.entry_words",
        f"    {q}_credits = q_{q}._credits",
        f"    {q}_can = q_{q}.can_enq",
        f"    {q.upper()}_NAME = q_{q}.name",
        f"    {q.upper()}_CAP = q_{q}.capacity_words",
    ])


_PREAMBLE = '''\
from repro.queues.queue import Token


def make_step(pe, stage, b):
    workload = b["workload"]
    shard = b["shard"]
    STOP_VALUE = b["STOP_VALUE"]
    LivelockError = b["LivelockError"]
    ctx = stage.ctx
    producer = ctx.producer_key
    counters = pe.counters
    n_ops = stage.mapping.n_compute_ops
    speed = stage.speed
    # Bind-time constants of StageInstance.io_cost: control tokens cost
    # ctl_inc serially; data tokens cost 1/R against the running max.
    ctl_inc = 1.0 if speed == 1.0 else 1.0 / speed
    r = stage.mapping.replication
    if speed != 1.0:
        r = r * speed
    inv_r = 1 / r
    try_perform = pe._try_perform
    l1 = pe.l1
    l1_access = l1.access
    l1_lat = l1._latency
    l1_sets = l1._sets
    l1_shift = l1._line_shift
    l1_mask = l1._set_mask
    pe_id = pe.pe_id
    stage_name = stage.spec.name
'''


def _header(shape: StageShape) -> str:
    return (
        "# Generated by repro.codegen — specialized step-function.\n"
        f"# shape: role={shape.role} simple_edges={shape.simple_edges}"
        f" trivial_vp={shape.trivial_vp} v={CODEGEN_VERSION}\n"
        "# Do not edit: regenerate via repro.codegen.emit.stage_source.\n"
    )


# -- per-role emitters -------------------------------------------------------


def _emit_s0(shape: StageShape) -> str:
    enq_scan = '("enq", FR_NAME, scan, False)'
    enq_off = '("enq", OUT_NAME, value, False)'
    body = f'''\
{_bind_in_queue("in", "q_in")}
{_bind_out_queue("fr", "q_fr_in")}
{_bind_in_queue("fro", "q_fr_out")}
{_bind_out_queue("out", "q_out")}
    END_ITER = b["END_ITER"]
    offsets_ref = workload.offsets_ref
    offsets_addr = offsets_ref.addr
    off_base = offsets_ref._base
    off_eb = offsets_ref.elem_bytes
    off_n = offsets_ref._n
    vertex_fetch_addrs = workload.vertex_fetch_addrs
    scan_range = workload.fringe_scan_range
    REQ_DEQ_IN = ("deq", IN_NAME)
    REQ_DEQ_FR = ("deq", FRO_NAME)
    REQ_ENQ_STOP = ("enq", OUT_NAME, STOP_VALUE, True)
    REQ_ENQ_END = ("enq", OUT_NAME, END_ITER, True)

    def step(budget):
        spent = 0.0
        zero_streak = 0
        if not stage.started:
            stage.started = True
            stage.cg = [0, 0]
            stage.pending = REQ_DEQ_IN
        cg = stage.cg
        pc = cg[0]
        wd = stage.work_deq
        we = stage.work_enq
        c_iss = counters.get("issued", 0.0)
        c_tok = counters.get("tokens", 0.0)
        c_fab = counters.get("fabric_ops", 0.0)
        c_dirty = False
        while True:
            if pc == 0:
{_deq_site(16, "in", 0, "REQ_DEQ_IN")}
                assert token.is_control
                if token.value == STOP_VALUE:
                    pc = 1
                    continue
                _, count, half = token.value
                if count:
                    scan = scan_range(shard, half, count)
                    cg[1] = count
{_enq_site(20, "fr", "scan", False, 2, enq_scan)}
                    pc = 3
                else:
                    pc = 5
                continue
            if pc == 1:
{_enq_site(16, "out", "STOP_VALUE", True, 1, "REQ_ENQ_STOP")}
{_finish(16)}
            if pc == 2:
                scan = stage.pending[2]
{_enq_site(16, "fr", "scan", False, 2, enq_scan)}
                pc = 3
                continue
            if pc == 3:
                i = cg[1]
                while i:
{_deq_site(20, "fro", 3, "REQ_DEQ_FR", ("cg[1] = i",))}
                    v = int(token.value)
                    value = ((off_base + v * off_eb)
                             if 0 <= v < off_n else offsets_addr(v),
                             (off_base + (v + 1) * off_eb)
                             if v + 1 < off_n else offsets_addr(v + 1),
                             *vertex_fetch_addrs(v), v)
                    i -= 1
{_enq_site(20, "out", "value", False, 4, enq_off, ("cg[1] = i",))}
                pc = 5
                continue
            if pc == 4:
                value = stage.pending[2]
{_enq_site(16, "out", "value", False, 4, enq_off)}
                pc = 3
                continue
            if pc == 5:
{_enq_site(16, "out", "END_ITER", True, 5, "REQ_ENQ_END")}
                pc = 0
                continue

    return step
'''
    return _header(shape) + "\n" + _PREAMBLE + body


def _emit_s1(shape: StageShape) -> str:
    enq_ctl = '("enq", OUT_NAME, val, True)'
    enq_edge = '("enq", OUT_NAME, value, False)'
    # ArrayRef.addr inlined (bounds check included via the method
    # fallback, which raises the identical IndexError).
    ngh_addr = ("(ngh_base + e * ngh_eb) if 0 <= e < ngh_n "
                "else neighbors_addr(e)")
    if shape.simple_edges:
        edge_value = f"value = ({ngh_addr}, p_edge)"
    else:
        edge_value = (f"value = ({ngh_addr}, *extra_addrs(e), "
                      "p_edge)")
    # The vertex-side hook: workloads that keep the base (no-op)
    # vertex_process skip the sub-generator; the rest drive it through
    # the mini-trampoline (pc 2).
    post_vp = "\n".join([
        "                if p0 is None:",
        "                    pc = 0",
        "                    continue",
        "                p_edge = s1_edge_payload(v, start, end, p0)",
        "                cg[4] = end",
        "                cg[5] = start",
        "                cg[6] = p_edge",
        "                pc = 3",
        "                continue",
    ])
    if shape.trivial_vp:
        vp_block = "\n".join([
            "                p0 = 0",
            post_vp,
        ])
        sub_arm = ""
    else:
        vp_block = "\n".join([
            "                gen = vertex_process(ctx, shard, v, start, end)",
            "                cg[1] = gen",
            "                cg[2] = v",
            "                cg[3] = start",
            "                cg[4] = end",
            "                req = None",
            "                pc = 2",
            "                continue",
        ])
        sub_arm = f'''\
            if pc == 2:
                gen = cg[1]
{_subgen_loop(16, 2)}
                cg[1] = None
                v = cg[2]
                start = cg[3]
                end = cg[4]
{post_vp}
'''
    body = f'''\
{_bind_in_queue("in", "q_in")}
{_bind_out_queue("out", "q_out")}
    neighbors_ref = workload.neighbors_ref
    neighbors_addr = neighbors_ref.addr
    ngh_base = neighbors_ref._base
    ngh_eb = neighbors_ref.elem_bytes
    ngh_n = neighbors_ref._n
    vertex_process = workload.vertex_process
    s1_edge_payload = workload.s1_edge_payload
    extra_addrs = workload.edge_extra_addrs
    REQ_DEQ_IN = ("deq", IN_NAME)

    def step(budget):
        spent = 0.0
        zero_streak = 0
        if not stage.started:
            stage.started = True
            stage.cg = [0, None, 0, 0, 0, 0, None]
            stage.pending = REQ_DEQ_IN
        cg = stage.cg
        pc = cg[0]
        wd = stage.work_deq
        we = stage.work_enq
        c_iss = counters.get("issued", 0.0)
        c_tok = counters.get("tokens", 0.0)
        c_fab = counters.get("fabric_ops", 0.0)
        c_dirty = False
        res = None
        req = stage.pending if pc == 2 else None
        while True:
            if pc == 0:
{_deq_site(16, "in", 0, "REQ_DEQ_IN")}
                if token.is_control:
                    val = token.value
{_enq_site(20, "out", "val", True, 1, enq_ctl)}
                    if val == STOP_VALUE:
{_finish(24)}
                    continue
                start = int(token.value[0])
                end = int(token.value[1])
                v = int(token.value[-1])
{vp_block}
            if pc == 1:
                val = stage.pending[2]
{_enq_site(16, "out", "val", True, 1, enq_ctl)}
                if val == STOP_VALUE:
{_finish(20)}
                pc = 0
                continue
{sub_arm}\
            if pc == 3:
                e = cg[5]
                end = cg[4]
                p_edge = cg[6]
                while e < end:
                    {edge_value}
{_enq_site(20, "out", "value", False, 3, enq_edge, ("cg[5] = e",))}
                    e += 1
                pc = 0
                continue

    return step
'''
    return _header(shape) + "\n" + _PREAMBLE + body


def _emit_s2(shape: StageShape) -> str:
    enq_ctl = '("enq", OUT_NAME, val, True)'
    enq_val = '("enq", OUT_NAME, value, False)'
    if shape.simple_edges:
        payload = "\n".join([
            "                ngh, p_edge = token.value",
            "                ngh = int(ngh)",
            "                value = (value_addr(ngh), ngh, p_edge)",
        ])
    else:
        payload = "\n".join([
            "                parts = token.value",
            "                ngh = int(parts[0])",
            "                value = (value_addr(ngh), ngh,",
            "                         s2_payload(ngh, parts[1:-1], "
            "parts[-1]))",
        ])
    body = f'''\
{_bind_in_queue("in", "q_in")}
{_bind_out_queue("out", "q_out")}
    value_addr = workload.value_addr
    s2_payload = workload.s2_payload
    REQ_DEQ_IN = ("deq", IN_NAME)

    def step(budget):
        spent = 0.0
        zero_streak = 0
        if not stage.started:
            stage.started = True
            stage.cg = [0]
            stage.pending = REQ_DEQ_IN
        cg = stage.cg
        pc = cg[0]
        wd = stage.work_deq
        we = stage.work_enq
        c_iss = counters.get("issued", 0.0)
        c_tok = counters.get("tokens", 0.0)
        c_fab = counters.get("fabric_ops", 0.0)
        c_dirty = False
        while True:
            if pc == 0:
{_deq_site(16, "in", 0, "REQ_DEQ_IN")}
                if token.is_control:
                    val = token.value
{_enq_site(20, "out", "val", True, 1, enq_ctl)}
                    if val == STOP_VALUE:
{_finish(24)}
                    continue
{payload}
{_enq_site(16, "out", "value", False, 2, enq_val)}
                continue
            if pc == 1:
                val = stage.pending[2]
{_enq_site(16, "out", "val", True, 1, enq_ctl)}
                if val == STOP_VALUE:
{_finish(20)}
                pc = 0
                continue
            if pc == 2:
                value = stage.pending[2]
{_enq_site(16, "out", "value", False, 2, enq_val)}
                pc = 0
                continue

    return step
'''
    return _header(shape) + "\n" + _PREAMBLE + body


def _emit_s3(shape: StageShape) -> str:
    enq_done = '("enq", BAR_NAME, BARRIER_DONE, True)'
    body = f'''\
{_bind_in_queue("in", "q_in")}
{_bind_out_queue("bar", "q_barrier")}
    n_shards = ctx.n_shards
    s3_update = workload.s3_update
    BARRIER_DONE = ("done", shard)
    REQ_DEQ_IN = ("deq", IN_NAME)

    def step(budget):
        spent = 0.0
        zero_streak = 0
        if not stage.started:
            stage.started = True
            stage.cg = [0, None, n_shards, n_shards]
            stage.pending = REQ_DEQ_IN
        cg = stage.cg
        pc = cg[0]
        wd = stage.work_deq
        we = stage.work_enq
        c_iss = counters.get("issued", 0.0)
        c_tok = counters.get("tokens", 0.0)
        c_fab = counters.get("fabric_ops", 0.0)
        c_dirty = False
        res = None
        req = stage.pending if pc == 2 else None
        while True:
            if pc == 0:
{_deq_site(16, "in", 0, "REQ_DEQ_IN")}
                if token.is_control:
                    if token.value == STOP_VALUE:
                        cg[3] -= 1
                        if cg[3] == 0:
{_finish(28)}
                    else:
                        cg[2] -= 1
                        if cg[2] == 0:
                            cg[2] = n_shards
                            pc = 1
                    continue
                value, ngh, p_edge = token.value
                gen = s3_update(ctx, shard, int(ngh), value, p_edge)
                cg[1] = gen
                req = None
                pc = 2
                continue
            if pc == 1:
{_enq_site(16, "bar", "BARRIER_DONE", True, 1, enq_done)}
                pc = 0
                continue
            if pc == 2:
                gen = cg[1]
{_subgen_loop(16, 2)}
                cg[1] = None
                pc = 0
                continue

    return step
'''
    return _header(shape) + "\n" + _PREAMBLE + body


_EMITTERS = {"s0": _emit_s0, "s1": _emit_s1, "s2": _emit_s2, "s3": _emit_s3}


def stage_source(shape: StageShape) -> str:
    """Emit the specialized step-function source for ``shape``.

    Pure and deterministic: equal shapes produce byte-identical text.
    Callers wanting caching go through
    :func:`repro.codegen.runtime.source_for` instead.
    """
    source = _EMITTERS[shape.role](shape)
    # The emitted module must always parse — catch template drift at
    # generation time, not at bind time deep inside a run.
    compile(source, f"<repro.codegen:{shape.role}>", "exec")
    return source

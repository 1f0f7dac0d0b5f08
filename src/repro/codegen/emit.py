"""Deterministic Python source generation for DRM step-functions.

Because a DRM's configuration is fixed at initialization, the fast
engine runs a DRM as a step-function generated for its
:class:`DrmShape` (:func:`drm_source`), replaying the interpreted
``DRM.run`` ladder. Every inlined fragment is a literal replica of the
interpreted code it replaces (the fragment builders below name their
originals), so ``DRM.run`` stays the oracle
(tests/test_drm_codegen.py). Stages need no generated code: the one
request loop they all run is written out in :mod:`repro.codegen.interp`.

A step-function takes its owner as a call argument,
``step(drm, budget)``. ``make_step`` binds only per-run constants into
its closure: queues, caches and numbers, never the DRM or a bound
method of it. So no DRM is reachable from its own step-function, and a
finished run's objects are freed by reference counting alone
(docs/performance.md, "Object lifetimes").

Source text is a pure function of the shape — it never embeds queue
names, shard ids, or addresses (those bind at ``make_step`` time) — so
one compiled step-function serves every DRM of that shape in every
workload. See :mod:`repro.codegen.runtime` for compiling and binding.
"""

from __future__ import annotations

from dataclasses import dataclass

#: DRM modes with a generated step-function.
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
# (DRM.run / DRM._access_cost / Cache.access / MemoryMap.read /
# Queue.enq / Queue.deq) — comments below name the mirrored code so
# drift is auditable.


def _pad(indent: int) -> str:
    return " " * indent


def _header(shape: DrmShape) -> str:
    return (
        "# Generated by repro.codegen — specialized step-function.\n"
        f"# shape: {shape.name}\n"
        "# Do not edit: regenerate via repro.codegen.emit.drm_source.\n"
    )


# -- queue transfers ---------------------------------------------------------
#
# Each takes its queue by prefix ``q`` and expects the locals ``q_<q>``,
# ``<q>_tok``, ``<q>_words``, ``<q>_credits`` and ``<Q>_NAME`` (bound at
# bind time, or per token for a routed output).


def _credit(pad: str, q: str, producer: str, op: str, words: str,
            credited: bool) -> list:
    """The credit bookkeeping of Queue.enq (``-=``) / Queue.deq (``+=``),
    whose flow-control arm ``credited`` fixes at emission time."""
    return [f"{pad}{q}_credits[{producer}] {op} {words}"] if credited else []


def _queue_deq(indent: int, q: str, credited: bool) -> list:
    """Queue.deq's transfer of a data token, minus the emptiness raise
    the caller's gate already ruled out: pop the head into ``token``,
    release its words, refund the producer's credit, probe."""
    pad = _pad(indent)
    return [
        f"{pad}token = {q}_tok.popleft()",
        f"{pad}tw = {q}_words",
        f"{pad}q_{q}._occupancy_words -= tw",
        *_credit(pad, q, "token.producer", "+=", "tw", credited),
        f"{pad}qp = q_{q}.probe",
        f'{pad}if qp is not None and "queue.deq" in qp.bus.wants:',
        f'{pad}    qp.emit("queue.deq", queue={q.upper()}_NAME, words=tw,',
        f"{pad}            occupancy=q_{q}._occupancy_words)",
    ]


def _queue_enq(indent: int, q: str, value: str, credited: bool,
               reuse: bool = False) -> list:
    """Queue.enq's transfer of a data token, minus the full-queue raise
    the caller's gate already ruled out: credit debit, token append,
    occupancy, total_enqueued, probe. ``reuse`` refills the
    just-dequeued ``token`` instead of allocating one (nothing else
    holds it)."""
    pad = _pad(indent)
    words = f"{q}_words"
    if reuse:
        append = [f"{pad}token.value = {value}",
                  f"{pad}token.producer = producer",
                  f"{pad}{q}_tok.append(token)"]
    else:
        append = [f"{pad}{q}_tok.append(Token({value}, False, producer))"]
    return [
        *_credit(pad, q, "producer", "-=", words, credited),
        *append,
        f"{pad}q_{q}._occupancy_words += {words}",
        f"{pad}q_{q}.total_enqueued += 1",
        f"{pad}qp = q_{q}.probe",
        f'{pad}if qp is not None and "queue.enq" in qp.bus.wants:',
        f'{pad}    qp.emit("queue.enq", queue={q.upper()}_NAME, '
        f"words={words},",
        f"{pad}            occupancy=q_{q}._occupancy_words, control=False)",
    ]


def _l1_hit(indent: int, addr: str) -> list:
    """The head of Cache.access's L1-hit path for a load, verbatim: the
    set lookup, the hit count (in the local ``hits``) and the LRU
    move-to-MRU. It opens an ``if``: the caller finishes the hit arm and
    writes the ``else:`` that takes the full method on a miss."""
    pad = _pad(indent)
    return [
        f"{pad}line = {addr} >> l1_shift",
        f"{pad}cset = l1_sets[line & l1_mask]",
        f"{pad}if line in cset:",
        f"{pad}    hits += 1",
        f"{pad}    cset[line] = cset.pop(line)",
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
            *_l1_hit(indent, addr),
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
        *_queue_deq(12, "in", shape.credited_in),
        *_queue_enq(12, "out", result, shape.credited_out, reuse=True),
        "            spent += cost",
        _drm_flush(8),
        "",
        "    return step",
        "",
    ])
    return _header(shape) + "\n" + _DRM_PREAMBLE + body


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
        *_queue_enq(16, "out", "v0", shape.credited_out),
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
    return _header(shape) + "\n" + _DRM_PREAMBLE + body


def drm_source(shape: DrmShape) -> str:
    """Emit the DRM step-function source for ``shape``.

    Pure and deterministic: equal shapes produce byte-identical text.
    """
    emit = _emit_drm_deref if shape.mode == "deref" else _emit_drm_scan
    return emit(shape)

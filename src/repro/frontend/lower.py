"""Lowering: instantiate a stage plan as a runnable pipeline program.

The generated pipeline is a :class:`FrontendWorkload`, a subclass of the
same :class:`~repro.workloads.common.GraphPipelineWorkload` skeleton the
hand-written PRD and Radii workloads use: the split analysis fills in
the hooks (vertex fetches, payload datapaths, the update program) that
a human author would write by hand. BFS and CC are built only this
way; the golden suite (``tests/test_frontend_parity.py``) holds the
recorded outputs of the hand-written pipelines they replaced — same
per-stage DFGs, queue specs, DRM specs, address-space layout, cycles
and run statistics — and the generated pipelines must reproduce them.

Kernel expressions are lowered twice:

* to *Python functions*, one compiled per expression, called by the
  stage semantics coroutines (marked loads compile to authoritative
  re-reads of the live arrays at the consuming stage — the DRM-fetched
  copy may be stale within an iteration, so the update re-checks the
  live value);
* to *DFG node emissions* for the mapper (loads that crossed a cut
  become CTRL taps off the stage's input token).

Every generated stage DFG is validated strictly (no dangling nodes) and
the assembled program's queue wiring is checked with
:func:`repro.ir.dfg.check_queue_wiring` before it is returned.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.config import SystemConfig
from repro.datasets.graphs import CSRGraph
from repro.frontend.kernel import FrontendError, GraphKernel
from repro.frontend.split import StagePlan, analyze
from repro.ir.dfg import check_queue_wiring
from repro.workloads.common import GraphPipelineWorkload, shards_for_mode


# -- runtime expression compiler ------------------------------------------

_PYSYMS = {"add": "+", "sub": "-", "mul": "*", "lt": "<", "eq": "=="}


def _compile(value, bind: dict, params: tuple, wl):
    """Compile a kernel expression to one Python function of ``params``.

    ``bind`` maps value ids to parameter names; unbound marked loads
    compile to authoritative re-reads of the live arrays of ``wl``. The
    body is one Python expression whose operands evaluate in the order
    of the expression tree; constants, arrays and the iteration counter
    (``wl._epoch``, a one-element list) are bound as names of the
    function's globals. Those globals hold neither ``wl`` nor the
    function itself, so the workload that keeps the function is freed
    by reference counting.
    """
    names = {"epoch": wl._epoch}

    def bound(obj) -> str:
        name = f"k{len(names)}"
        names[name] = obj
        return name

    body = _text(value, bind, bound, wl._arrays)
    source = f"def expr({', '.join(params)}):\n    return {body}\n"
    exec(compile(source, f"<kernel {wl.name}>", "exec"), names)
    return names.pop("expr")


def _text(value, bind: dict, bound, arrays: dict) -> str:
    """The Python expression of ``value`` (see :func:`_compile`);
    ``bound`` names an object in the function's globals."""
    slot = bind.get(value.vid)
    if slot is not None:
        return slot
    op = value.op
    if op == "const":
        return bound(value.attr)
    if op == "epoch":
        return "epoch[0]"
    if op == "vertex":
        return "v"
    if op == "edge":
        return "e"
    if op == "load":
        array = bound(arrays[value.attr.ref.name])
        return f"{array}[{_text(value.args[0], bind, bound, arrays)}].item()"
    if op in _PYSYMS:
        left = _text(value.args[0], bind, bound, arrays)
        right = _text(value.args[1], bind, bound, arrays)
        return f"({left} {_PYSYMS[op]} {right})"
    raise FrontendError(f"cannot compile {value.label} to Python")


# -- DFG emission ----------------------------------------------------------

_BIN_EMIT = {"add": "add", "sub": "sub", "mul": "mul", "lt": "lt",
             "eq": "eq"}


def _emit(b, value, bind: dict, memo: dict):
    """Emit a kernel expression as DFG nodes; post-order, memoized.

    ``bind`` maps value ids to already-present nodes (or thunks creating
    them lazily, e.g. a CTRL tap off the stage's input token).
    """
    node = memo.get(value.vid)
    if node is not None:
        return node
    bound = bind.get(value.vid)
    if bound is not None:
        node = bound() if callable(bound) else bound
    elif value.op == "const":
        node = b.const(value.attr)
    elif value.op == "epoch":
        # The iteration counter is a configuration-time constant the
        # control core rewrites at each barrier (paper Sec. 5.5).
        node = b.const(0)
    elif value.op in _BIN_EMIT:
        left = _emit(b, value.args[0], bind, memo)
        right = _emit(b, value.args[1], bind, memo)
        node = getattr(b, _BIN_EMIT[value.op])(left, right)
    else:
        raise FrontendError(
            f"cannot emit {value.label} into this stage's datapath")
    memo[value.vid] = node
    return node


# -- the generated workload ------------------------------------------------

class FrontendWorkload(GraphPipelineWorkload):
    """A pipeline generated from an annotated kernel by the front-end."""

    def __init__(self, plan: StagePlan, graph: CSRGraph, n_shards: int,
                 params: Optional[dict] = None,
                 max_iterations: Optional[int] = None):
        kernel = plan.kernel
        self.plan = plan
        self.kernel = kernel
        # Instance attributes shadow the skeleton's class attributes; the
        # kernel name keys every queue, DRM, and stage name (and thereby
        # the runtime's credit bookkeeping).
        self.name = kernel.name
        self.vertex_fetch_words = len(plan.vertex_loads)
        self.edge_fetch_words = 1 + len(plan.edge_extra_loads)
        self.max_iterations = max_iterations

        self._params = dict(kernel.params)
        for key, value in (params or {}).items():
            if key not in self._params:
                raise FrontendError(
                    f"kernel {kernel.name!r} has no parameter {key!r} "
                    f"(declared: {sorted(self._params) or 'none'})")
            self._params[key] = value

        super().__init__(graph, n_shards)
        self._compile_hooks()

    def _compile_hooks(self) -> None:
        """Compile the plan's expressions, after :meth:`setup` has
        allocated the arrays they read."""
        plan = self.plan
        kernel = self.kernel
        refs, arrays = self._refs, self._arrays
        vbind = {}
        if kernel._vertex is not None:
            vbind[kernel._vertex.vid] = "v"
        # S0: per-vertex state fetch address generators.
        self._vf = [(refs[load.attr.ref.name],
                     _compile(load.args[0], vbind, ("v",), self))
                    for load in plan.vertex_loads]
        # S1: the per-vertex payload (cut-1 loads re-read live arrays).
        self._p0_fn = (_compile(plan.p0, vbind, ("v",), self)
                       if plan.p0 is not None else None)
        # S1: extra per-edge fetch address generators.
        ebind = dict(vbind)
        if kernel._edge_var is not None:
            ebind[kernel._edge_var.vid] = "e"
        self._extra_addr = [(refs[load.attr.ref.name],
                             arrays[load.attr.ref.name],
                             _compile(load.args[0], ebind, ("e",), self))
                            for load in plan.edge_extra_loads]
        # S2: fold the fetched extras into the hop payload.
        s2bind = {plan.route_load.vid: "ngh"}
        if plan.p0 is not None:
            s2bind[plan.p0.vid] = "payload"
        s2params = ["ngh", "payload"]
        for i, load in enumerate(plan.edge_extra_loads):
            s2bind[load.vid] = f"x{i}"
            s2params.append(f"x{i}")
        self._s2_fn = (_compile(plan.s2_value, s2bind, tuple(s2params), self)
                       if plan.s2_value is not None else None)
        # S3: the update program. The owner load is deliberately NOT
        # bound: it compiles to an authoritative re-read of the live
        # array at the owner shard (the DRM-fetched copy may be stale).
        s3bind = {plan.route_load.vid: "ngh"}
        if plan.s3_payload is not None:
            s3bind[plan.s3_payload.vid] = "payload"
        s3params = ("ngh", "payload")
        self._cond_fn = (_compile(plan.cond, s3bind, s3params, self)
                         if plan.cond is not None else None)
        self._update = []
        for stmt in plan.update_ops:
            if stmt.kind == "store":
                self._update.append(
                    ("store", arrays[stmt.ref.name], refs[stmt.ref.name],
                     _compile(stmt.value, s3bind, s3params, self), False))
            else:
                self._update.append(("push", None, None, None, stmt.dedup))

    # -- skeleton hooks: state ------------------------------------------

    def setup(self) -> None:
        self._arrays = {}
        self._refs = {}
        for ref in self.kernel.refs:
            length = ref.length(self.graph)
            array = np.asarray(ref.init(self.graph, self._params))
            if array.shape != (length,):
                raise FrontendError(
                    f"kernel {self.kernel.name!r}: init of {ref.name!r} "
                    f"returned shape {array.shape}, expected ({length},)")
            handle = self.space.alloc_array(ref.name, length)
            self.memmap.register(handle, array)
            self._arrays[ref.name] = array
            self._refs[ref.name] = handle
        self._owner_handle = self._refs[self.plan.owner_load.attr.ref.name]
        # A one-element list the compiled expressions read in place.
        self._epoch = [1]
        if self.plan.needs_dedup:
            self._in_next = [set() for _ in range(self.n_shards)]

    def value_addr(self, ngh: int) -> int:
        return self._owner_handle.addr(ngh)

    def initial_fringe(self):
        kind, param = self.kernel.fringe
        if kind == "all":
            return range(self.graph.n_vertices)
        return [int(self._params[param])]

    def result(self):
        for ref in self.kernel.refs:
            if ref.output:
                return self._arrays[ref.name]
        return self._arrays[self.kernel.refs[0].name]

    # -- skeleton hooks: stage semantics --------------------------------

    def vertex_fetch_addrs(self, v: int) -> tuple:
        return tuple(ref.addr(fn(v)) for ref, fn in self._vf)

    def vertex_process(self, ctx, shard: int, v: int, start: int, end: int):
        fn = self._p0_fn
        if fn is None:
            return 0
        return fn(v)
        yield  # pragma: no cover - makes this a generator

    def edge_extra_addrs(self, e: int) -> tuple:
        return tuple(ref.addr(fn(e)) for ref, _, fn in self._extra_addr)

    def edge_extra_values(self, e: int) -> tuple:
        return tuple(array[fn(e)].item() for _, array, fn in self._extra_addr)

    def s2_payload(self, ngh: int, extras: tuple, p_edge):
        fn = self._s2_fn
        if fn is None:
            return p_edge
        return fn(ngh, p_edge, *map(int, extras))

    def s3_update(self, ctx, shard: int, ngh: int, value, p_edge):
        cond = self._cond_fn
        if cond is not None and not cond(ngh, p_edge):
            return
        for kind, array, ref, value_fn, dedup in self._update:
            if kind == "store":
                array[ngh] = value_fn(ngh, p_edge)
                yield ("store", ref.addr(ngh))
            else:
                if dedup:
                    pending = self._in_next[shard]
                    if ngh in pending:
                        continue
                    pending.add(ngh)
                yield from self.push_touched(ctx, shard, ngh)

    def at_barrier(self, iteration: int) -> None:
        if self.plan.uses_epoch:
            self._epoch[0] += 1
        if self.plan.needs_dedup:
            for pending in self._in_next:
                pending.clear()

    # -- skeleton hooks: stage datapaths --------------------------------

    def vertex_extra_ops(self, b, v_node):
        plan = self.plan
        if plan.p0 is None:
            return b.const(0)
        bind = {load.vid: (lambda: b.ctrl(v_node))
                for load in plan.vertex_loads}
        if self.kernel._vertex is not None:
            bind[self.kernel._vertex.vid] = v_node
        return _emit(b, plan.p0, bind, {})

    def s1_extra_edge_ops(self, b, e_next) -> tuple:
        return tuple(
            b.lea(b.const(self._refs[load.attr.ref.name].base), e_next)
            for load in self.plan.edge_extra_loads)

    def s2_extra_ops(self, b, ngh_node):
        plan = self.plan
        if plan.s2_value is None:
            return None
        bind = {plan.route_load.vid: ngh_node}
        if plan.p0 is not None:
            bind[plan.p0.vid] = lambda: b.ctrl(ngh_node)
        for load in plan.edge_extra_loads:
            bind[load.vid] = lambda: b.ctrl(ngh_node)
        return _emit(b, plan.s2_value, bind, {})

    def s3_extra_ops(self, b, value_node, payload_node):
        plan = self.plan
        bind = {plan.owner_load.vid: value_node,
                plan.route_load.vid: (lambda: b.ctrl(value_node))}
        if plan.s3_payload is not None:
            bind[plan.s3_payload.vid] = payload_node
        memo: dict = {}
        cond = (_emit(b, plan.cond, bind, memo)
                if plan.cond is not None else None)
        store = next(s for s in plan.update_ops if s.kind == "store")
        new = _emit(b, store.value, bind, memo)
        if cond is None:
            return new
        return b.sel(cond, new, value_node)

    def merged_extra_ops(self, b, e_next, ngh_node, payload):
        plan = self.plan
        if plan.s2_value is None:
            return payload
        bind = {plan.route_load.vid: ngh_node}
        if plan.p0 is not None:
            bind[plan.p0.vid] = payload
        for load in plan.edge_extra_loads:
            base = self._refs[load.attr.ref.name].base
            bind[load.vid] = (
                lambda base=base: b.load(b.lea(b.const(base), e_next)))
        return _emit(b, plan.s2_value, bind, {})

    # -- program assembly -----------------------------------------------

    def build_program(self, config: SystemConfig, mode: str,
                      variant: str = "decoupled"):
        program = super().build_program(config, mode, variant)
        self._check_wiring(program)
        return program

    def _check_wiring(self, program) -> None:
        declared = set(program.external_queues)
        stages = []
        drm_consumed, drm_produced = set(), set()
        for pe_program in program.pe_programs:
            declared.update(qs.name for qs in pe_program.queue_specs)
            stages.extend(ss.dfg for ss in pe_program.stage_specs)
            for drm in pe_program.drm_specs:
                drm_consumed.add(drm.in_queue)
                if drm.out_queue:
                    drm_produced.add(drm.out_queue)
                drm_produced.update(drm.route_targets or ())
        external = set(program.external_queues)
        external.update(self.q("iter", s) for s in range(self.n_shards))
        check_queue_wiring(stages, declared, drm_consumed=drm_consumed,
                           drm_produced=drm_produced, external=external)


# -- the compiled-pipeline handle ------------------------------------------

def _demo_graph() -> CSRGraph:
    """A tiny fixed graph used to materialize stage DFGs for display."""
    n = 8
    offsets = np.arange(n + 1, dtype=np.int64) * 2
    neighbors = np.empty(2 * n, dtype=np.int64)
    for v in range(n):
        neighbors[2 * v] = (v + 1) % n
        neighbors[2 * v + 1] = (v + 3) % n
    return CSRGraph(offsets, neighbors)


_STAGE_ROLES = (
    ("fringe", "S0 process fringe", ("drm_fr (scan)", "drm_off (deref)")),
    ("enum", "S1 enumerate neighbors", ("drm_ngh (deref)",)),
    ("fetch", "S2 fetch values", ("drm_val (deref, owner-routed)",)),
    ("update", "S3 update data / next fringe", ()),
)


class CompiledPipeline:
    """A kernel that passed split analysis and lint; ready to lower."""

    def __init__(self, kernel: GraphKernel, plan: StagePlan):
        self.kernel = kernel
        self.plan = plan

    @property
    def name(self) -> str:
        return self.kernel.name

    def workload(self, graph: CSRGraph, n_shards: int,
                 max_iterations: Optional[int] = None,
                 **params) -> FrontendWorkload:
        return FrontendWorkload(self.plan, graph, n_shards, params=params,
                                max_iterations=max_iterations)

    def build(self, graph: CSRGraph, config: SystemConfig, mode: str,
              variant: str = "decoupled", **params):
        """Build a ready-to-run program, like the workloads' ``build``."""
        n_stages = 4 if variant == "decoupled" else 2
        workload = self.workload(
            graph, shards_for_mode(config, mode, n_stages), **params)
        return workload.build_program(config, mode, variant), workload

    def describe(self) -> dict:
        """Stage list, queue graph, and per-stage assembly (for the CLI).

        DFGs are materialized on a small fixed graph — node structure is
        graph-independent; only base-address constants vary.
        """
        plan = self.plan
        workload = self.workload(_demo_graph(), 1)
        builders = {"fringe": workload._s0_dfg, "enum": workload._s1_dfg,
                    "fetch": workload._s2_dfg, "update": workload._s3_dfg}
        stages = []
        for index, (key, role, drms) in enumerate(_STAGE_ROLES):
            dfg = builders[key](0)
            stages.append({
                "index": index,
                "name": dfg.name,
                "role": role,
                "drms": list(drms),
                "compute_ops": dfg.n_compute_ops,
                "depth": dfg.depth,
                "asm": dfg.to_asm(),
            })
        return {
            "kernel": self.kernel.name,
            "doc": self.kernel.doc,
            "params": dict(self.kernel.params),
            "arrays": [{"name": ref.name, "size": ref.size,
                        "mutable": ref.mutable, "output": ref.output}
                       for ref in self.kernel.refs],
            "split": {
                "vertex_fetch_words": plan.vertex_fetch_words,
                "edge_fetch_words": plan.edge_fetch_words,
                "owner_array": plan.owner_load.attr.ref.name,
                "payload_across_edge_cut":
                    plan.p0.label if plan.p0 is not None else None,
                "payload_across_hop":
                    (plan.s3_payload.label
                     if plan.s3_payload is not None else None),
                "uses_epoch": plan.uses_epoch,
                "dedup_pushes": plan.needs_dedup,
            },
            "stages": stages,
            "queues": [edge.as_dict() for edge in plan.queue_graph()],
            "feed_forward": True,
        }


def compile_kernel(kernel: GraphKernel) -> CompiledPipeline:
    """Split, lint, and prepare ``kernel`` for lowering."""
    return CompiledPipeline(kernel, analyze(kernel))

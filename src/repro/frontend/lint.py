"""Pipeline linter: prove the generated pipeline is feed-forward.

The paper's split rule produces a legal decoupled pipeline only when
data flows strictly forward through the FIFO-connected stages; the only
permitted exceptions are loop-carried registers inside a stage, the
explicit cross-shard queue between fetch and update (Sec. 5.6), and the
control core's iteration edges (Sec. 5.5). This module rejects kernels
that violate those rules with errors naming the offending node:

* **edge-escape** — a value defined inside the edge loop consumed
  outside it would have to flow backwards across its cut;
* **illegal back-edge** — a store to an array that an earlier stage
  reads (only the owner-routed array may be written mid-pipeline: its
  update is the loop-carried exception, serialized at the owner shard);
* **feed-forward proof** — the final stage/queue graph is walked and
  every data channel checked to point downstream.

Structural checks on the generated per-stage DFGs (dangling nodes,
multiply-driven registers, queue wiring) live in :mod:`repro.ir.dfg`;
the lowering pass runs them on every generated stage. The feed-forward
edge classification itself is shared with the static verifier
(:func:`repro.analysis.graph.classify_edge`), which applies the same
rule to hand-written pipelines.
"""

from __future__ import annotations

from typing import Iterable

from repro.analysis.graph import classify_edge
from repro.frontend.kernel import FrontendError, GraphKernel, Value


class PipelineLintError(FrontendError):
    """The kernel does not lower to a legal feed-forward pipeline."""


_STAGE_OF_DEPTH = {
    1: "S0/S1 (process fringe / enumerate)",
    2: "S2 (fetch)",
    3: "S3 (update)",
}


def compute_levels(kernel: GraphKernel) -> dict:
    """Stage level of every value (vid -> int).

    For a marked load this is its cut depth: 1 + the deepest load its
    index transitively depends on (the paper's "split at each
    long-latency load"). For any other value it is the earliest stage
    where all of its inputs are available.
    """
    level: dict[int, int] = {}
    for v in kernel.values:
        _level(v, level)
    return level


# The depth-first helpers are module functions, not nested ones: a
# recursive nested function holds itself through its closure cell.


def _level(v: Value, level: dict) -> int:
    got = level.get(v.vid)
    if got is not None:
        return got
    if v.op == "load":
        lv = 1 + _level(v.args[0], level)
    elif v.op == "edge":
        start, end = v.attr
        lv = max(_level(start, level), _level(end, level))
    elif v.args:
        lv = max(_level(a, level) for a in v.args)
    else:
        lv = 0  # const, vertex, epoch
    level[v.vid] = lv
    return lv


def compute_edgy(kernel: GraphKernel) -> dict:
    """Whether each value depends on the edge induction variable."""
    edgy: dict[int, bool] = {}
    for v in kernel.values:
        _edgy(v, edgy)
    return edgy


def _edgy(v: Value, edgy: dict) -> bool:
    got = edgy.get(v.vid)
    if got is not None:
        return got
    if v.op == "edge":
        result = True
    else:
        result = any(_edgy(a, edgy) for a in v.args)
    edgy[v.vid] = result
    return result


def _edgy_leaf(v: Value, edgy: dict) -> Value:
    """The first edge-loop-defined leaf under ``v`` (for diagnostics)."""
    if v.op in ("edge", "load"):
        return v
    for a in v.args:
        if edgy[a.vid]:
            return _edgy_leaf(a, edgy)
    return v


def check_edge_escape(kernel: GraphKernel, edgy: dict) -> None:
    """Reject values defined inside the edge loop but used outside it."""

    def fail(user_label: str, expr: Value) -> None:
        leaf = _edgy_leaf(expr, edgy)
        raise PipelineLintError(
            f"kernel {kernel.name!r}: {user_label} uses {leaf.label}, "
            f"which is only defined inside the edge loop — the value is "
            f"not live across its cut. Move the use inside edges() or "
            f"transport the value through a marked load.")

    for v in kernel.values:
        if v.op == "load" and not v.in_edge_loop and edgy[v.args[0].vid]:
            fail(v.label, v.args[0])
    for s in kernel.statements:
        if s.in_edge_loop:
            continue
        exprs = [e for e in (s.index, s.value) if e is not None]
        exprs.extend(s.preds)
        for expr in exprs:
            if edgy[expr.vid]:
                fail(s.label, expr)


def check_back_edges(kernel: GraphKernel, owner_ref, level: dict) -> None:
    """Reject stores that would feed data back to an earlier stage."""
    earliest: dict[str, tuple] = {}
    for v in kernel.values:
        if v.op != "load" or v.attr.owner:
            continue
        depth = level[v.vid]
        ref = v.attr.ref
        if ref.name not in earliest or depth < earliest[ref.name][0]:
            earliest[ref.name] = (depth, v)
    for s in kernel.statements:
        if s.kind != "store":
            continue
        if owner_ref is not None and s.ref is owner_ref:
            continue  # the loop-carried update, serialized at the owner
        if s.ref.name in earliest:
            depth, load = earliest[s.ref.name]
            raise PipelineLintError(
                f"kernel {kernel.name!r}: illegal back-edge — {s.label} at "
                f"the update stage writes {s.ref.name!r}, which "
                f"{load.label} reads at {_STAGE_OF_DEPTH.get(depth, depth)}; "
                f"only the owner-routed array may be written mid-pipeline")


def check_feed_forward(kernel_name: str, edges: Iterable) -> None:
    """Walk the generated stage/queue graph and prove it feed-forward.

    ``edges`` are :class:`repro.frontend.split.QueueEdge` records. Data
    channels must point downstream (DRM round trips sit on a stage
    boundary and may return to their issuing stage); only control
    channels may close the iteration loop, and they must terminate at
    the control core.
    """
    for edge in edges:
        verdict = classify_edge(edge)
        if verdict == "control-escape":
            raise PipelineLintError(
                f"kernel {kernel_name!r}: control channel "
                f"{edge.queue!r} does not terminate at the control "
                f"core ({edge.src} -> {edge.dst})")
        if verdict == "backward":
            raise PipelineLintError(
                f"kernel {kernel_name!r}: queue {edge.queue!r} flows "
                f"backwards ({edge.src} -> {edge.dst}); the pipeline is "
                f"not feed-forward")

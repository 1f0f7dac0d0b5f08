"""Dataflow graphs (DFGs) for pipeline stages.

A DFG is a directed graph of :class:`Node` operations. Forward edges
carry operands between functional units; back-edges are only allowed
into ``REG`` nodes (loop-carried state). ``levels()`` computes an ASAP
levelization ignoring register back-edges, which the mapper uses for
row-by-row placement and to derive the configuration's pipeline depth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.ir.ops import Op, OpKind, OP_INFO


class DFGError(Exception):
    """Structural problem in a dataflow graph."""


@dataclass
class Node:
    """One operation in a DFG."""

    node_id: int
    op: Op
    operands: tuple = ()

    @property
    def kind(self) -> OpKind:
        return self.op.kind

    def __hash__(self) -> int:
        return self.node_id

    def __repr__(self) -> str:
        ops = ",".join(f"n{o.node_id}" for o in self.operands)
        return f"n{self.node_id}={self.op}({ops})"


@dataclass
class DataflowGraph:
    """A stage's computation as a feed-forward graph of FU operations."""

    name: str
    nodes: list[Node] = field(default_factory=list)

    def add(self, op: Op, *operands: Node) -> Node:
        info = OP_INFO[op.kind]
        if info.arity >= 0 and len(operands) != info.arity:
            raise DFGError(
                f"{op}: expected {info.arity} operands, got {len(operands)}")
        for operand in operands:
            if operand not in self.nodes:
                raise DFGError(
                    f"operand {operand!r} is not in graph {self.name!r}")
        node = Node(len(self.nodes), op, tuple(operands))
        self.nodes.append(node)
        return node

    def set_reg_input(self, reg: Node, value: Node) -> None:
        """Connect the loop-carried input of a REG node (a back-edge)."""
        if reg.kind is not OpKind.REG:
            raise DFGError(f"{reg!r} is not a REG node")
        if value not in self.nodes:
            raise DFGError(f"{value!r} is not in graph {self.name!r}")
        if reg.operands:
            raise DFGError(
                f"stage {self.name!r}: register {reg!r} is multiply "
                f"driven (already connected to {reg.operands[0]!r})")
        reg.operands = (value,)

    # -- queries -----------------------------------------------------------

    def inputs(self) -> list[Node]:
        return [n for n in self.nodes if n.kind is OpKind.DEQ]

    def outputs(self) -> list[Node]:
        return [n for n in self.nodes if n.kind in (OpKind.ENQ, OpKind.ST)]

    def input_queues(self) -> list[str]:
        return [n.op.attr for n in self.inputs()]

    def output_queues(self) -> list[str]:
        return [n.op.attr for n in self.nodes if n.kind is OpKind.ENQ]

    def iter_dependence_edges(self) -> Iterable[tuple]:
        """Walk every dependence edge as ``(producer, consumer, kind)``.

        ``kind`` is ``"data"`` for forward operand edges and
        ``"reg-carried"`` for the loop-carried back-edge into a REG
        node (the value written this traversal, read the next). This is
        the per-stage counterpart of the whole-kernel dependence graph
        (:mod:`repro.analysis.depgraph`): analyses that reason about
        chains of dependences walk this instead of re-deriving operand
        structure from node kinds.
        """
        for node in self.nodes:
            kind = "reg-carried" if node.kind is OpKind.REG else "data"
            for operand in node.operands:
                yield operand, node, kind

    def consumers(self) -> dict:
        """Map ``node_id`` -> list of nodes consuming its result.

        REG back-edge consumption is included (kind ``"reg-carried"``
        in :meth:`iter_dependence_edges`); a node absent from the map
        is dangling in the :meth:`iter_dangling_nodes` sense unless its
        kind is a sink.
        """
        fanout: dict = {}
        for producer, consumer, _kind in self.iter_dependence_edges():
            fanout.setdefault(producer.node_id, []).append(consumer)
        return fanout

    def longest_dependence_chain(self) -> int:
        """Length (in edges) of the longest forward data-dependence
        chain — the stage's dataflow critical path, excluding
        reg-carried back-edges. Equals ``depth - 1`` on a non-empty
        graph; exposed as a dependence query so cost models name the
        quantity they price."""
        return max(self.depth - 1, 0)

    @property
    def n_fma_ops(self) -> int:
        return sum(1 for n in self.nodes if OP_INFO[n.kind].needs_fma)

    @property
    def n_memory_ops(self) -> int:
        return sum(1 for n in self.nodes if OP_INFO[n.kind].is_memory)

    @property
    def n_compute_ops(self) -> int:
        """Ops that occupy a functional unit (everything but queue edges)."""
        return sum(1 for n in self.nodes if not OP_INFO[n.kind].is_edge)

    # -- structure ---------------------------------------------------------

    def _forward_operands(self, node: Node) -> Iterable[Node]:
        """Operand edges excluding REG back-edges."""
        if node.kind is OpKind.REG:
            return ()
        return node.operands

    # Kinds whose result may legitimately go unconsumed: queue and
    # memory edges are sinks, comparisons drive (implicit) predication,
    # CTRL steers a token that the datapath may ignore, and a REG can be
    # written without being read back this stage.
    _SINK_KINDS = frozenset((OpKind.DEQ, OpKind.ENQ, OpKind.ST, OpKind.REG,
                             OpKind.CMP_LT, OpKind.CMP_EQ, OpKind.CTRL))

    def validate(self, strict: bool = False) -> None:
        """Check the graph is feed-forward apart from REG back-edges.

        With ``strict=True``, additionally reject dangling nodes: any
        value-producing node whose result no other node consumes (REG
        back-edge operands count as consumption). Hand-authored toy
        graphs may leave sinks unconsumed, so strictness is opt-in; the
        workload pipelines and the front-end lowering always use it.
        """
        if not self.nodes:
            raise DFGError(f"graph {self.name!r} is empty")
        self.levels()  # raises on cycles
        if not strict:
            return
        for node in self.iter_dangling_nodes():
            raise DFGError(
                f"stage {self.name!r}: dangling node {node!r} — its "
                f"result is never consumed")

    def consumed_ids(self) -> set[int]:
        """Node ids that appear as an operand somewhere (REG back-edge
        operands count as consumption)."""
        consumed = set()
        for node in self.nodes:
            for operand in node.operands:
                consumed.add(operand.node_id)
        return consumed

    def iter_dangling_nodes(self) -> Iterable[Node]:
        """Value-producing nodes whose result nothing consumes.

        Shared by strict :meth:`validate` and the dead-node pass in
        ``repro.analysis.dfg_passes`` so both report the same set.
        """
        consumed = self.consumed_ids()
        for node in self.nodes:
            if node.kind in self._SINK_KINDS:
                continue
            if node.node_id not in consumed:
                yield node

    def levels(self) -> list[list[Node]]:
        """ASAP levelization: level of a node = 1 + max(level of operands).

        REG back-edges are ignored (a REG sources its value from the
        previous traversal of the pipeline). Raises :class:`DFGError` on
        a combinational cycle.
        """
        level: dict[int, int] = {}
        state: dict[int, int] = {}  # 0=unvisited, 1=on stack, 2=done
        for node in self.nodes:
            self._visit(node, level, state)
        if not level:
            return []
        n_levels = max(level.values()) + 1
        result: list[list[Node]] = [[] for _ in range(n_levels)]
        for node in self.nodes:
            result[level[node.node_id]].append(node)
        return result

    def _visit(self, node: Node, level: dict, state: dict) -> int:
        """Depth-first step of :meth:`levels`: ``node``'s level, memoized
        in ``level``. A method rather than a nested function, which
        would hold itself through its closure cell."""
        seen = state.get(node.node_id, 0)
        if seen == 1:
            raise DFGError(
                f"graph {self.name!r} has a combinational cycle through "
                f"{node!r}")
        if seen == 2:
            return level[node.node_id]
        state[node.node_id] = 1
        depth = 0
        for operand in self._forward_operands(node):
            depth = max(depth, self._visit(operand, level, state) + 1)
        state[node.node_id] = 2
        level[node.node_id] = depth
        return depth

    @property
    def depth(self) -> int:
        """Number of dataflow levels (combinational pipeline stages)."""
        return len(self.levels())

    def pseudo_assembly(self) -> str:
        """Render the DFG in the pseudo-assembly style of paper Fig. 6."""
        lines = []
        for node in self.nodes:
            ops = ", ".join(f"%n{o.node_id}" for o in node.operands)
            attr = f" ${node.op.attr}" if node.op.attr is not None else ""
            lines.append(
                f"  %n{node.node_id} = {node.kind.value}{attr} {ops}"
                .rstrip())
        return f"{self.name}:\n" + "\n".join(lines)

    _ASM_BINARY = {
        OpKind.ADD: "add", OpKind.SUB: "sub", OpKind.MUL: "mul",
        OpKind.AND: "and", OpKind.OR: "or", OpKind.XOR: "xor",
        OpKind.SHL: "shl", OpKind.SHR: "shr",
        OpKind.CMP_LT: "cmplt", OpKind.CMP_EQ: "cmpeq",
        OpKind.FADD: "fadd", OpKind.FMUL: "fmul",
    }

    def to_asm(self) -> str:
        """Render in :func:`repro.ir.asmparse.parse_stage_asm`'s dialect.

        Parsing the result back yields an isomorphic graph: the same
        node sequence, operand edges, and attributes (REG debug names
        excepted). ``setreg`` lines are emitted last so loop-carried
        inputs defined after their register still resolve.
        """
        lines = []
        setregs = []

        def ref(node: Node) -> str:
            return f"%n{node.node_id}"

        for node in self.nodes:
            kind, ops = node.kind, node.operands
            if kind is OpKind.DEQ:
                lines.append(f"deq {ref(node)}, ${node.op.attr}")
            elif kind is OpKind.ENQ:
                lines.append(f"enq ${node.op.attr}, {ref(ops[0])}")
            elif kind is OpKind.CONST:
                lines.append(f"mov {ref(node)}, {node.op.attr!r}")
            elif kind is OpKind.REG:
                lines.append(f"reg {ref(node)}")
                if ops:
                    setregs.append(f"setreg {ref(node)}, {ref(ops[0])}")
            elif kind is OpKind.LEA:
                scale = "" if node.op.attr == 8 else f", {node.op.attr}"
                lines.append(
                    f"lea {ref(node)}, {ref(ops[0])}, {ref(ops[1])}{scale}")
            elif kind is OpKind.LD:
                lines.append(f"ld {ref(node)}, {ref(ops[0])}")
            elif kind is OpKind.ST:
                lines.append(f"st {ref(ops[0])}, {ref(ops[1])}")
            elif kind is OpKind.SEL:
                lines.append(f"sel {ref(node)}, {ref(ops[0])}, "
                             f"{ref(ops[1])}, {ref(ops[2])}")
            elif kind is OpKind.FMA:
                lines.append(f"fma {ref(node)}, {ref(ops[0])}, "
                             f"{ref(ops[1])}, {ref(ops[2])}")
            elif kind is OpKind.CTRL:
                lines.append(f"ctrl {ref(node)}, {ref(ops[0])}")
            elif kind in self._ASM_BINARY:
                lines.append(f"{self._ASM_BINARY[kind]} {ref(node)}, "
                             f"{ref(ops[0])}, {ref(ops[1])}")
            else:  # pragma: no cover - OpKind is closed
                raise DFGError(f"cannot print {node!r} as pseudo-assembly")
        return "\n".join(lines + setregs) + "\n"


def check_queue_wiring(stages: Iterable[DataflowGraph],
                       declared: Iterable[str],
                       drm_consumed: Iterable[str] = (),
                       drm_produced: Iterable[str] = (),
                       external: Iterable[str] = ()) -> None:
    """Cross-stage ENQ/DEQ consistency for a set of stage graphs.

    ``declared`` are the queue names the program allocates; DRMs consume
    ``drm_consumed`` and produce ``drm_produced``; ``external`` queues
    are fed or drained outside the fabric (the control core's iteration
    queues, the barrier). Raises :class:`DFGError` naming the offending
    node and stage when a fabric edge references an undeclared queue, or
    when a declared queue has a consumer but no producer (or vice
    versa) — instead of the mapper or a hung simulation finding out.
    """
    stages = list(stages)
    declared = set(declared)
    external = set(external)
    produced = set(drm_produced) | external
    consumed = set(drm_consumed) | external
    for stage in stages:
        for node in stage.nodes:
            if node.kind is OpKind.ENQ:
                if node.op.attr not in declared:
                    raise DFGError(
                        f"stage {stage.name!r}: {node!r} enqueues to "
                        f"undeclared queue {node.op.attr!r}")
                produced.add(node.op.attr)
            elif node.kind is OpKind.DEQ:
                if node.op.attr not in declared:
                    raise DFGError(
                        f"stage {stage.name!r}: {node!r} dequeues from "
                        f"undeclared queue {node.op.attr!r}")
                consumed.add(node.op.attr)
    for stage in stages:
        for node in stage.nodes:
            if node.kind is OpKind.DEQ and node.op.attr not in produced:
                raise DFGError(
                    f"stage {stage.name!r}: {node!r} dequeues from "
                    f"{node.op.attr!r}, which no stage or DRM produces")
            if node.kind is OpKind.ENQ and node.op.attr not in consumed:
                raise DFGError(
                    f"stage {stage.name!r}: {node!r} enqueues to "
                    f"{node.op.attr!r}, which no stage or DRM consumes")

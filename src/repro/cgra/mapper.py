"""Place a stage's dataflow graph onto the CGRA fabric.

The mapper levelizes the DFG (ASAP), folds levels onto fabric rows when
the graph is deeper than the fabric, packs each level's operations into
columns, and then replicates the resulting datapath across unused
columns to exploit SIMD-style data parallelism (paper Sec. 5.6:
"a 16x5 grid of functional units can be configured as four copies of a
datapath that fit on a smaller 4x5 grid").

The outputs — placement, pipeline depth, replication factor, and
configuration size — are exactly what the cycle-level simulator consumes
(paper Sec. 7.1: "it simulates executing stages using mapping
information produced by CGRA-ME").
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.cgra.fabric import FabricSpec
from repro.ir.dfg import DataflowGraph, Node
from repro.ir.ops import OP_INFO


class UnmappableStageError(Exception):
    """The DFG does not fit on the fabric; split the stage (paper Sec. 4)."""


@dataclass(frozen=True)
class Mapping:
    """Mapping information for one stage configuration."""

    stage_name: str
    placement: dict[int, tuple[int, int]]  # node_id -> (row, col) in lane 0
    n_levels: int
    lane_width: int
    replication: int
    depth_cycles: int
    config_bytes: int
    n_compute_ops: int
    n_fma_ops: int
    fabric: FabricSpec = field(repr=False, default=None)

    @property
    def fabric_utilization(self) -> float:
        """Fraction of functional units active across all lanes."""
        return (self.n_compute_ops * self.replication /
                self.fabric.n_functional_units)

    def render(self, dfg=None) -> str:
        """ASCII picture of the fabric grid with this configuration.

        Lane 0's placement is drawn with op mnemonics; replicated lanes
        are shown as ``rep``; unused cells as ``.``. Pass the original
        ``dfg`` to label cells with op kinds rather than node ids.
        """
        labels = {}
        if dfg is not None:
            labels = {node.node_id: node.kind.value[:3]
                      for node in dfg.nodes}
        grid = [["." for _ in range(self.fabric.cols)]
                for _ in range(self.fabric.rows)]
        for node_id, (row, col) in self.placement.items():
            text = labels.get(node_id, f"n{node_id}")[:3]
            for lane in range(self.replication):
                lane_col = col + lane * self.lane_width
                if lane_col < self.fabric.cols:
                    grid[row][lane_col] = text if lane == 0 else "rep"
        header = (f"{self.stage_name}: {self.n_levels} levels x "
                  f"{self.lane_width} cols, {self.replication}x SIMD, "
                  f"depth {self.depth_cycles} cycles, "
                  f"{self.config_bytes} B config")
        rows = [" ".join(f"{cell:>3}" for cell in row) for row in grid]
        return "\n".join([header] + rows)


def fold_levels(levels: list[list[Node]], rows: int) -> list[list[Node]]:
    """Fold dataflow levels onto fabric rows (deep graphs traverse the
    fabric more than once through the edge switches). Queue/memory edge
    ops occupy no functional unit and are dropped.

    Shared by the mapper and the fabric-feasibility pass in
    ``repro.analysis.dfg_passes`` so both predict the same placement.
    """
    row_load: list[list[Node]] = [[] for _ in range(rows)]
    for i, level in enumerate(levels):
        compute = [n for n in level if not OP_INFO[n.kind].is_edge]
        row_load[i % rows].extend(compute)
    return row_load


def map_dfg_cached(dfg: DataflowGraph, fabric: FabricSpec,
                   max_replication: int | None = None) -> Mapping:
    """Memoized :func:`map_dfg`: a repeat mapping costs its key.

    The key (:func:`repro.cache.mapping_key`) is what the mapper reads:
    the DFG's nodes, op kinds and operand wiring, the fabric geometry
    and the replication cap. Any change to the stage's datapath or the
    target fabric misses and re-maps; the shards of one stage, which
    differ only in queue names and constants, map once. A hit returns
    the memoized :class:`Mapping` (frozen, safely shared) under the
    stage's own name, counted under the ``mapping.*`` counters of
    :class:`repro.cache.ArtifactCache`.
    """
    from repro.cache import get_artifact_cache, mapping_key
    cache = get_artifact_cache()
    key = mapping_key(dfg, fabric, max_replication)
    mapping = cache.get("mapping", key)
    if mapping is None:
        mapping = map_dfg(dfg, fabric, max_replication)
        cache.put("mapping", key, mapping)
    elif mapping.stage_name != dfg.name:
        mapping = replace(mapping, stage_name=dfg.name)
    return mapping


def map_dfg(dfg: DataflowGraph, fabric: FabricSpec,
            max_replication: int | None = None) -> Mapping:
    """Map ``dfg`` onto ``fabric``; raises ``UnmappableStageError`` if it
    cannot fit even unreplicated."""
    dfg.validate()
    levels = dfg.levels()

    row_load = fold_levels(levels, fabric.rows)

    lane_width = max((len(ops) for ops in row_load), default=0)
    lane_width = max(lane_width, 1)
    if lane_width > fabric.cols:
        raise UnmappableStageError(
            f"stage {dfg.name!r}: needs {lane_width} columns, fabric has "
            f"{fabric.cols}; split the stage into smaller stages")

    n_fma = dfg.n_fma_ops
    if n_fma > fabric.fma_units:
        raise UnmappableStageError(
            f"stage {dfg.name!r}: needs {n_fma} FMA units, fabric has "
            f"{fabric.fma_units}")

    replication = fabric.cols // lane_width
    if n_fma:
        replication = min(replication, fabric.fma_units // n_fma)
    if max_replication is not None:
        replication = min(replication, max_replication)
    replication = max(replication, 1)

    placement: dict[int, tuple[int, int]] = {}
    for row, ops in enumerate(row_load):
        for col, node in enumerate(ops):
            placement[node.node_id] = (row, col)

    return Mapping(
        stage_name=dfg.name,
        placement=placement,
        n_levels=len(levels),
        lane_width=lane_width,
        replication=replication,
        depth_cycles=fabric.pipeline_depth(len(levels)),
        config_bytes=fabric.config_bytes,
        n_compute_ops=dfg.n_compute_ops,
        n_fma_ops=n_fma,
        fabric=fabric,
    )

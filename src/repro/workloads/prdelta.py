"""PageRank-Delta (paper Sec. 7.2).

PageRank-Delta only visits vertices whose PageRank change exceeds a
threshold (Ligra's PageRankDelta). The scheme implemented here (the
golden reference and the pipeline are the same algorithm):

* initially every vertex is active with ``delta[v] = 1/n``;
* an active vertex adds ``delta[v]`` to its rank and pushes the
  contribution ``damping * delta[v] / deg(v)`` along its out-edges;
* contributions accumulate into ``acc[u]``; in the next iteration each
  touched vertex u sets ``delta[u] = acc[u]`` (resetting the
  accumulator) and is active again iff ``|delta[u]| > epsilon``.

The vertex-side update is fused into S0 (process fringe); the edge-side
accumulation is S3. Contributions are double-precision, exercising the
fabric's FMA units (which caps SIMD replication of those stages).
"""

from __future__ import annotations

import numpy as np

from repro.datasets.graphs import CSRGraph
from repro.workloads.common import GraphPipelineWorkload

DAMPING = 0.85
EPSILON_FRACTION = 0.05  # epsilon = EPSILON_FRACTION / n


def prd_reference(graph: CSRGraph, max_iterations: int = 1000) -> np.ndarray:
    """Golden PageRank-Delta; returns the rank vector."""
    n = graph.n_vertices
    offsets = graph.offsets.tolist()
    neighbors = graph.neighbors.tolist()
    epsilon = EPSILON_FRACTION / n
    rank = [0.0] * n
    delta = [1.0 / n] * n
    acc = [0.0] * n
    active = list(range(n))
    for _ in range(max_iterations):
        if not active:
            break
        touched = set()
        for v in active:
            delta_v = delta[v]
            if abs(delta_v) <= epsilon:
                continue
            rank[v] += delta_v
            lo, hi = offsets[v], offsets[v + 1]
            if hi == lo:
                continue
            contribution = DAMPING * delta_v / (hi - lo)
            for ngh in neighbors[lo:hi]:
                acc[ngh] += contribution
                touched.add(ngh)
        active = sorted(touched)
        for v in active:
            delta[v] = acc[v]
            acc[v] = 0.0
    return np.array(rank, dtype=np.float64)


class PRDeltaWorkload(GraphPipelineWorkload):
    """Pipeline-parallel PageRank-Delta."""

    name = "prd"
    # drm_off also fetches the vertex's accumulator (or initial delta).
    vertex_fetch_words = 1

    def __init__(self, graph: CSRGraph, n_shards: int, max_iterations=None):
        self.max_iterations = max_iterations
        super().__init__(graph, n_shards)

    def setup(self) -> None:
        n = self.graph.n_vertices
        self.epsilon = EPSILON_FRACTION / n
        self.rank = np.zeros(n, dtype=np.float64)
        self.delta = np.full(n, 1.0 / n, dtype=np.float64)
        self.rank_ref = self.space.alloc_array("rank", n)
        self.delta_ref = self.space.alloc_array("delta", n)
        self.memmap.register(self.rank_ref, self.rank)
        self.memmap.register(self.delta_ref, self.delta)
        # Double-buffered contribution accumulator: S3 of iteration k
        # writes one half while S0 of iteration k consumes (and clears)
        # the other; swapped at the barrier. The pipeline overlaps both
        # phases within an iteration, so a single buffer would mix
        # contributions across iterations.
        self.acc = [np.zeros(n, dtype=np.float64) for _ in range(2)]
        self.acc_refs = [self.space.alloc_array(f"acc.{i}", n)
                         for i in range(2)]
        for ref, array in zip(self.acc_refs, self.acc):
            self.memmap.register(ref, array)
        self._write_buf = 0
        self.first_iteration = True
        self._in_next = [set() for _ in range(self.n_shards)]

    def value_addr(self, ngh: int) -> int:
        return self.acc_refs[self._write_buf].addr(ngh)

    def initial_fringe(self):
        return range(self.graph.n_vertices)

    def vertex_fetch_addrs(self, v: int) -> tuple:
        if self.first_iteration:
            return (self.delta_ref.addr(v),)
        return (self.acc_refs[self._write_buf ^ 1].addr(v),)

    def vertex_process(self, ctx, shard: int, v: int, start: int, end: int):
        """Vertex-side update: refresh delta from the accumulator,
        apply the activation threshold, update the rank."""
        if not self.first_iteration:
            read_buf = self._write_buf ^ 1
            self.delta[v] = self.acc[read_buf][v]
            self.acc[read_buf][v] = 0.0
            yield ("store", self.acc_refs[read_buf].addr(v))
            yield ("store", self.delta_ref.addr(v))
        if abs(self.delta[v]) <= self.epsilon:
            return None
        self.rank[v] += self.delta[v]
        yield ("store", self.rank_ref.addr(v))
        return float(self.delta[v])

    def s1_edge_payload(self, v: int, start: int, end: int, p0):
        if end == start:  # zero-degree vertex: no edges will be pushed
            return 0.0
        return DAMPING * p0 / (end - start)

    def s3_update(self, ctx, shard: int, ngh: int, value, p0):
        buf = self._write_buf
        self.acc[buf][ngh] += p0
        yield ("store", self.acc_refs[buf].addr(ngh))
        if ngh not in self._in_next[shard]:
            self._in_next[shard].add(ngh)
            yield from self.push_touched(ctx, shard, ngh)

    def at_barrier(self, iteration: int) -> None:
        self.first_iteration = False
        self._write_buf ^= 1
        for pending in self._in_next:
            pending.clear()

    def result(self) -> np.ndarray:
        return self.rank

    def vertex_extra_ops(self, b, v_node):
        damping = b.const(DAMPING)
        return b.fmul(v_node, damping)

    def s3_extra_ops(self, b, value_node, payload_node):
        return b.fadd(value_node, payload_node)


def build(graph: CSRGraph, config, mode: str, variant: str = "decoupled",
          max_iterations=None):
    from repro.workloads.common import shards_for_mode

    n_stages = 4 if variant == "decoupled" else 2
    workload = PRDeltaWorkload(graph, shards_for_mode(config, mode, n_stages),
                               max_iterations=max_iterations)
    return workload.build_program(config, mode, variant), workload

"""Graph radii estimation via multiple simultaneous BFS (paper Sec. 7.2).

Radii estimates the diameter of a graph by launching breadth-first
searches from a random sample of up to 64 source vertices at once,
Ligra-style: each source owns one bit of a 64-bit visited mask; an
active vertex ORs its mask into each neighbor's next-mask, and a vertex
whose mask grows becomes active with its eccentricity estimate updated
to the current round. The largest estimate over all vertices
approximates the graph radius/diameter.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.graphs import CSRGraph
from repro.workloads.common import GraphPipelineWorkload


def _sample_sources(n: int, k: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.choice(n, size=min(k, n), replace=False).astype(np.int64)


def radii_reference(graph: CSRGraph, k: int = 64, seed: int = 7,
                    max_iterations=None) -> np.ndarray:
    """Golden multi-source BFS; returns per-vertex eccentricity estimates.

    ``max_iterations`` caps the number of edge-propagation rounds (the
    paper samples a subset of iterations for Radii, Sec. 7.2); the
    final round's touched vertices are then left unabsorbed, exactly as
    in the capped pipeline run.
    """
    n = graph.n_vertices
    offsets = graph.offsets.tolist()
    neighbors = graph.neighbors.tolist()
    sources = _sample_sources(n, k, seed).tolist()
    # Masks are Python ints; with at most 64 sources every mask stays
    # below 2**64, as in the pipeline's uint64 words.
    if len(sources) > 64:
        raise ValueError(f"radii samples at most 64 sources (one bit "
                         f"of a 64-bit mask each), got k={k}")
    visited = [0] * n
    next_visited = [0] * n
    radii = [-1] * n
    for bit, src in enumerate(sources):
        visited[src] |= 1 << bit
        radii[src] = 0
    fringe = sorted(set(sources))
    iteration = 0
    while fringe:
        iteration += 1
        touched = set()
        for v in fringe:
            mask = visited[v]
            for ngh in neighbors[offsets[v]:offsets[v + 1]]:
                combined = next_visited[ngh] | mask
                if combined != next_visited[ngh]:
                    next_visited[ngh] = combined
                    touched.add(ngh)
        if max_iterations is not None and iteration >= max_iterations:
            break
        fringe = []
        for v in sorted(touched):
            if next_visited[v] | visited[v] != visited[v]:
                visited[v] |= next_visited[v]
                radii[v] = iteration
                fringe.append(v)
    return np.array(radii, dtype=np.int64)


class RadiiWorkload(GraphPipelineWorkload):
    """Pipeline-parallel radii estimation."""

    name = "radii"
    # drm_off also fetches the arriving next-mask and the visited mask.
    vertex_fetch_words = 2

    def __init__(self, graph: CSRGraph, n_shards: int, k: int = 64,
                 seed: int = 7, max_iterations=None):
        self.k = k
        self.seed = seed
        self.max_iterations = max_iterations
        super().__init__(graph, n_shards)

    def setup(self) -> None:
        n = self.graph.n_vertices
        self.sources = _sample_sources(n, self.k, self.seed)
        self.visited = np.zeros(n, dtype=np.uint64)
        self.radii = np.full(n, -1, dtype=np.int64)
        for bit, src in enumerate(self.sources):
            self.visited[src] |= np.uint64(1 << bit)
            self.radii[src] = 0
        self.visited_ref = self.space.alloc_array("visited", n)
        self.radii_ref = self.space.alloc_array("radii", n)
        self.memmap.register(self.visited_ref, self.visited)
        self.memmap.register(self.radii_ref, self.radii)
        # The next-mask accumulator is double-buffered: S3 of round k
        # writes one half while S0 of round k absorbs the other; the
        # control core swaps halves at the barrier. A single buffer
        # would let round-(k+1) pushes leak into round-k absorption
        # (the pipeline overlaps both within an iteration).
        self.next_visited = [np.zeros(n, dtype=np.uint64) for _ in range(2)]
        self.next_refs = [self.space.alloc_array(f"next_visited.{i}", n)
                          for i in range(2)]
        for ref, array in zip(self.next_refs, self.next_visited):
            self.memmap.register(ref, array)
        self._write_buf = 0
        self.round = 1
        self._in_next = [set() for _ in range(self.n_shards)]

    def value_addr(self, ngh: int) -> int:
        return self.next_refs[self._write_buf].addr(ngh)

    def initial_fringe(self):
        return sorted(int(s) for s in set(self.sources))

    def vertex_fetch_addrs(self, v: int) -> tuple:
        read_buf = self._write_buf ^ 1
        return (self.next_refs[read_buf].addr(v), self.visited_ref.addr(v))

    def vertex_process(self, ctx, shard: int, v: int, start: int, end: int):
        """Fold the vertex update in: absorb next-mask, stamp the radius.

        Touched vertices whose mask did not actually grow (the bits had
        already reached them in an earlier round) are filtered out here.
        The mask words arrive with the decoupled vertex fetch; the
        authoritative values are re-read from the arrays.
        """
        read_buf = self._write_buf ^ 1
        if self.round > 1:
            arrived = self.next_visited[read_buf][v]
            self.next_visited[read_buf][v] = np.uint64(0)
            combined = self.visited[v] | arrived
            if combined == self.visited[v]:
                return None
            self.visited[v] = combined
            self.radii[v] = self.round - 1
            yield ("store", self.visited_ref.addr(v))
            yield ("store", self.radii_ref.addr(v))
        return int(self.visited[v])

    def s3_update(self, ctx, shard: int, ngh: int, value, p0):
        mask = np.uint64(p0)
        buf = self._write_buf
        combined = self.next_visited[buf][ngh] | mask
        if combined != self.next_visited[buf][ngh]:
            self.next_visited[buf][ngh] = combined
            yield ("store", self.next_refs[buf].addr(ngh))
            if ngh not in self._in_next[shard]:
                self._in_next[shard].add(ngh)
                yield from self.push_touched(ctx, shard, ngh)

    def at_barrier(self, iteration: int) -> None:
        self.round += 1
        self._write_buf ^= 1
        for pending in self._in_next:
            pending.clear()

    def result(self) -> np.ndarray:
        return self.radii

    def vertex_extra_ops(self, b, v_node):
        # Absorb: OR the arriving mask into visited, compare, select.
        absorbed = b.or_(v_node, b.ctrl(v_node))
        grew = b.eq(absorbed, v_node)
        return b.sel(grew, absorbed, v_node)

    def s3_extra_ops(self, b, value_node, payload_node):
        return b.or_(value_node, payload_node)


def build(graph: CSRGraph, config, mode: str, variant: str = "decoupled",
          k: int = 64, seed: int = 7, max_iterations=None):
    from repro.workloads.common import shards_for_mode

    n_stages = 4 if variant == "decoupled" else 2
    workload = RadiiWorkload(graph, shards_for_mode(config, mode, n_stages),
                             k=k, seed=seed, max_iterations=max_iterations)
    return workload.build_program(config, mode, variant), workload

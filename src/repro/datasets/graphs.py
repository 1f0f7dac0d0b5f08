"""Graphs in compressed sparse row (CSR) format and synthetic generators.

The paper's graph benchmarks (BFS, CC, PageRank-Delta, Radii) run on
five real graphs (Table 3):

====================== ========================== ========= ====== =========
Domain                 Graph                      Vertices  Edges  Avg. deg.
====================== ========================== ========= ====== =========
Human collaboration    coAuthorsDBLP (Hu)         299 K     1.9 M  6.4
Dynamic simulation     hugetrace-00000 (Dy)       4.6 M     14 M   3.0
Circuit simulation     Freescale1 (Ci)            3.4 M     19 M   5.6
Internet graph         as-Skitter (In)            1.7 M     22 M   12.9
Road network           USA-road-d-USA (Rd)        24 M      58 M   2.4
====================== ========================== ========= ====== =========

``TABLE3_GRAPHS`` maps each to a scaled synthetic generator preserving
the property that drives performance: average degree and degree skew
(collaboration and internet graphs are heavy-tailed; meshes and road
networks are near-regular with large diameter).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CSRGraph:
    """A directed graph in CSR: ``neighbors[offsets[v]:offsets[v+1]]``."""

    offsets: np.ndarray    # int64, length n+1
    neighbors: np.ndarray  # int64, length m

    @property
    def n_vertices(self) -> int:
        return len(self.offsets) - 1

    @property
    def n_edges(self) -> int:
        return int(self.offsets[-1])

    @property
    def avg_degree(self) -> float:
        return self.n_edges / max(1, self.n_vertices)

    def out_degree(self, v: int) -> int:
        return int(self.offsets[v + 1] - self.offsets[v])

    def neighbors_of(self, v: int) -> np.ndarray:
        return self.neighbors[self.offsets[v]:self.offsets[v + 1]]

    def validate(self) -> None:
        if len(self.offsets) < 2:
            raise ValueError("graph needs at least one vertex")
        if self.offsets[0] != 0 or np.any(np.diff(self.offsets) < 0):
            raise ValueError("offsets must be non-decreasing from 0")
        if self.offsets[-1] != len(self.neighbors):
            raise ValueError("offsets[-1] must equal len(neighbors)")
        if len(self.neighbors) and (
                self.neighbors.min() < 0
                or self.neighbors.max() >= self.n_vertices):
            raise ValueError("neighbor ids out of range")


def _from_adjacency(adjacency: list[np.ndarray]) -> CSRGraph:
    degrees = np.fromiter((len(a) for a in adjacency), dtype=np.int64,
                          count=len(adjacency))
    offsets = np.zeros(len(adjacency) + 1, dtype=np.int64)
    np.cumsum(degrees, out=offsets[1:])
    if offsets[-1]:
        neighbors = np.concatenate(adjacency).astype(np.int64)
    else:
        neighbors = np.zeros(0, dtype=np.int64)
    graph = CSRGraph(offsets, neighbors)
    graph.validate()
    return graph


def _symmetrize(n: int, sources: np.ndarray, targets: np.ndarray) -> CSRGraph:
    """Build an undirected CSR graph from an edge list (both directions)."""
    src = np.concatenate([sources, targets])
    dst = np.concatenate([targets, sources])
    # Both ends lie in [0, n), so sorting the key src * n + dst stably
    # is the (src, dst) lexicographic sort.
    order = np.argsort(src * n + dst, kind="stable")
    src, dst = src[order], dst[order]
    # Deduplicate parallel edges and self-loops.
    keep = src != dst
    if len(src):
        dup = np.zeros(len(src), dtype=bool)
        dup[1:] = (src[1:] == src[:-1]) & (dst[1:] == dst[:-1])
        keep &= ~dup
    src, dst = src[keep], dst[keep]
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=offsets[1:])
    graph = CSRGraph(offsets, dst.astype(np.int64))
    graph.validate()
    return graph


def uniform_random_graph(n: int, avg_degree: float, seed: int = 0) -> CSRGraph:
    """Erdős–Rényi-style graph: near-uniform degrees (mesh/circuit-like)."""
    rng = np.random.default_rng(seed)
    m = int(n * avg_degree / 2)
    sources = rng.integers(0, n, size=m, dtype=np.int64)
    targets = rng.integers(0, n, size=m, dtype=np.int64)
    return _symmetrize(n, sources, targets)


def power_law_graph(n: int, avg_degree: float, exponent: float = 2.0,
                    seed: int = 0) -> CSRGraph:
    """Heavy-tailed degree distribution (collaboration/internet-like).

    Endpoints are drawn with probability proportional to a Zipf-like
    weight ``rank**-1/(exponent-1)``, producing hubs with large degree.
    """
    rng = np.random.default_rng(seed)
    m = int(n * avg_degree / 2)
    weights = (np.arange(1, n + 1, dtype=np.float64)
               ** (-1.0 / (exponent - 1.0)))
    weights /= weights.sum()
    # Shuffle so hub ids are spread across the id space (and shards).
    perm = rng.permutation(n)
    sources = perm[rng.choice(n, size=m, p=weights)]
    targets = perm[rng.integers(0, n, size=m, dtype=np.int64)]
    return _symmetrize(n, sources.astype(np.int64), targets.astype(np.int64))


def grid_graph(width: int, height: int, keep: float = 1.0,
               seed: int = 0) -> CSRGraph:
    """2-D mesh (road-network-like: degree ~2-4, very large diameter).

    ``keep < 1`` randomly removes a fraction of edges, lowering the
    average degree toward road-network values while keeping long paths.
    """
    rng = np.random.default_rng(seed)
    n = width * height
    ids = np.arange(n, dtype=np.int64).reshape(height, width)
    horiz = np.stack([ids[:, :-1].ravel(), ids[:, 1:].ravel()], axis=1)
    vert = np.stack([ids[:-1, :].ravel(), ids[1:, :].ravel()], axis=1)
    edges = np.concatenate([horiz, vert])
    if keep < 1.0:
        mask = rng.random(len(edges)) < keep
        edges = edges[mask]
    return _symmetrize(n, edges[:, 0], edges[:, 1])


# Scaled synthetic stand-ins for Table 3. Keys are the paper's two-letter
# input codes; each entry is (generator_name, kwargs, paper_stats).
TABLE3_GRAPHS = {
    "Hu": dict(kind="power_law", n=3_000, avg_degree=6.4, exponent=2.2,
               paper="coAuthorsDBLP: 299K vertices, 1.9M edges, deg 6.4"),
    "Dy": dict(kind="uniform", n=8_000, avg_degree=3.0,
               paper="hugetrace-00000: 4.6M vertices, 14M edges, deg 3.0"),
    "Ci": dict(kind="uniform", n=6_000, avg_degree=5.6,
               paper="Freescale1: 3.4M vertices, 19M edges, deg 5.6"),
    "In": dict(kind="power_law", n=4_000, avg_degree=12.9, exponent=1.9,
               paper="as-Skitter: 1.7M vertices, 22M edges, deg 12.9"),
    "Rd": dict(kind="grid", width=100, height=100, keep=0.62,
               paper="USA-road-d: 24M vertices, 58M edges, deg 2.4"),
}


def make_graph(code: str, scale: float = 1.0, seed: int = 1) -> CSRGraph:
    """Instantiate a Table 3 stand-in; ``scale`` multiplies vertex count."""
    spec = dict(TABLE3_GRAPHS[code])
    kind = spec.pop("kind")
    spec.pop("paper")
    if kind == "power_law":
        return power_law_graph(int(spec["n"] * scale), spec["avg_degree"],
                               spec["exponent"], seed=seed)
    if kind == "uniform":
        return uniform_random_graph(int(spec["n"] * scale),
                                    spec["avg_degree"], seed=seed)
    if kind == "grid":
        side_scale = scale ** 0.5
        return grid_graph(int(spec["width"] * side_scale),
                          int(spec["height"] * side_scale),
                          keep=spec["keep"], seed=seed)
    raise ValueError(f"unknown generator kind {kind!r}")

"""Single-source shortest paths — generated entirely by the front-end.

Like BFS and CC, SSSP has no hand-written pipeline: the annotated
kernel in :mod:`repro.frontend.kernels` is the only description, and
:func:`build` lowers it through the decoupling front-end. It exercises
the edge-state path no other workload uses — a second word (the edge
weight) fetched by ``drm_ngh`` alongside ``neighbors[e]`` and folded
into the cross-shard payload at S2.

The pipeline is label-correcting: a relaxation may use a stale (only
ever too-high) source distance, but the update stage re-checks against
the authoritative distance and any vertex whose distance shrinks is
re-pushed, so the run converges to the same fixed point as the serial
reference below (distances only decrease and are bounded).
"""

from __future__ import annotations

import numpy as np

from repro.datasets.graphs import CSRGraph
from repro.frontend.kernels import SSSP_INF, sssp_edge_weights

INF = SSSP_INF


def sssp_reference(graph: CSRGraph, source: int = 0) -> np.ndarray:
    """Golden Bellman-Ford-style fringe relaxation; INF = unreachable."""
    offsets = graph.offsets.tolist()
    neighbors = graph.neighbors.tolist()
    weights = sssp_edge_weights(graph).tolist()
    dist = [INF] * graph.n_vertices
    dist[source] = 0
    fringe = [source]
    while fringe:
        touched = set()
        for v in fringe:
            dv = dist[v]
            lo, hi = offsets[v], offsets[v + 1]
            for ngh, weight in zip(neighbors[lo:hi], weights[lo:hi]):
                cand = dv + weight
                if cand < dist[ngh]:
                    dist[ngh] = cand
                    touched.add(ngh)
        fringe = sorted(touched)
    return np.array(dist, dtype=np.int64)


def build(graph: CSRGraph, config, mode: str, variant: str = "decoupled",
          source: int = 0):
    """Build a ready-to-run SSSP program via the decoupling front-end."""
    from repro.frontend.kernels import get_frontend

    return get_frontend("sssp").build(graph, config, mode, variant,
                                      source=source)

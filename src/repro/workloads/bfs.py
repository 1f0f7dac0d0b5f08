"""Breadth-first search (paper Sec. 2.2, Fig. 1/2/10).

BFS finds the distance from a source vertex to all reachable vertices.
The pipeline splits at each level of indirection: process current
fringe -> enumerate neighbors -> fetch distances -> update data / next
fringe, replicated per shard with the fetch->update hop crossing shards
by neighbor ownership. It is generated from the annotated kernel in
:mod:`repro.frontend.kernels`, the only description of the pipeline;
this module keeps the golden serial reference.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.graphs import CSRGraph


def bfs_reference(graph: CSRGraph, source: int) -> np.ndarray:
    """Golden serial BFS; -1 marks unreachable vertices."""
    distances = np.full(graph.n_vertices, -1, dtype=np.int64)
    distances[source] = 0
    fringe = [source]
    current = 1
    while fringe:
        next_fringe = []
        for v in fringe:
            for ngh in graph.neighbors_of(v):
                if distances[ngh] < 0:
                    distances[ngh] = current
                    next_fringe.append(int(ngh))
        fringe = next_fringe
        current += 1
    return distances


def build(graph: CSRGraph, config, mode: str, variant: str = "decoupled",
          source: int = 0):
    """Build a ready-to-run BFS program via the decoupling front-end."""
    from repro.frontend.kernels import get_frontend

    return get_frontend("bfs").build(graph, config, mode, variant,
                                     source=source)

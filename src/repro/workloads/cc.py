"""Connected components via label propagation (paper Sec. 7.2).

CC discovers the connectivity of graph vertices. The Ligra-style
algorithm propagates minimum labels: every vertex starts with its own id
as its label; active vertices push their label to neighbors, a neighbor
whose label shrinks becomes active, and the algorithm converges when no
label changes. The pipeline shape is identical to BFS with the fetched
value array being ``labels``. It is generated from the annotated kernel
in :mod:`repro.frontend.kernels`, the only description of the
pipeline; this module keeps the golden serial reference.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.graphs import CSRGraph


def cc_reference(graph: CSRGraph) -> np.ndarray:
    """Golden label propagation; labels converge to component minima."""
    labels = np.arange(graph.n_vertices, dtype=np.int64)
    fringe = list(range(graph.n_vertices))
    while fringe:
        touched = set()
        for v in fringe:
            label = labels[v]
            for ngh in graph.neighbors_of(v):
                if label < labels[ngh]:
                    labels[ngh] = label
                    touched.add(int(ngh))
        fringe = sorted(touched)
    return labels


def build(graph: CSRGraph, config, mode: str, variant: str = "decoupled"):
    """Build a ready-to-run CC program via the decoupling front-end."""
    from repro.frontend.kernels import get_frontend

    return get_frontend("cc").build(graph, config, mode, variant)

"""Annotated-kernel definitions for the front-end.

These kernels are the only definitions of the BFS, CC and SSSP
pipelines: :mod:`repro.workloads.bfs`, :mod:`repro.workloads.cc` and
:mod:`repro.workloads.sssp` build through :func:`get_frontend` and keep
only their golden serial references. ``bfs`` and ``cc`` are a dozen
lines of kernel description each; they replaced hand-written pipelines
whose recorded outputs (per-stage DFGs, queue and DRM specs, cycles and
run statistics) the generated ones reproduce bit for bit
(``tests/test_frontend_parity.py``). ``sssp`` exercises the edge-state
path (two-word edge fetches, a payload transform at S2) that no other
workload uses.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.graphs import CSRGraph
from repro.frontend.kernel import GraphKernel
from repro.frontend.lower import CompiledPipeline, compile_kernel

#: Unreachable-distance sentinel for SSSP. Far above any finite path
#: length (max weight 16 x edges) yet small enough that int64 sums of
#: finite distances and weights cannot overflow.
SSSP_INF = 1 << 60


def sssp_edge_weights(graph: CSRGraph) -> np.ndarray:
    """Deterministic per-edge weights in [1, 16] (Knuth-hash of the id)."""
    e = np.arange(max(1, graph.n_edges), dtype=np.int64)
    return (e * 2654435761 % 1000003) % 15 + 1


def bfs_kernel() -> GraphKernel:
    """Breadth-first search from a source vertex."""
    k = GraphKernel("bfs", doc="BFS: distance in hops from a source")
    k.param("source", 0)

    def init_distances(graph, params):
        distances = np.full(graph.n_vertices, -1, dtype=np.int64)
        distances[int(params["source"])] = 0
        return distances

    dist = k.state("distances", init=init_distances, output=True)
    k.start_from("source", "source")
    v = k.vertex()
    start = k.load(k.offsets, v)
    end = k.load(k.offsets, v + 1)
    with k.edges(start, end) as e:
        ngh = k.load(k.neighbors, e)
        dv = k.load(dist, ngh, owner=True)
        with k.when(dv < 0):
            k.store(dist, ngh, k.epoch())
            k.push(ngh)
    return k


def cc_kernel() -> GraphKernel:
    """Connected components via minimum-label propagation."""
    k = GraphKernel("cc", doc="CC: propagate minimum labels to convergence")

    def init_labels(graph, params):
        return np.arange(graph.n_vertices, dtype=np.int64)

    labels = k.state("labels", init=init_labels, output=True)
    k.start_from("all")
    v = k.vertex()
    label = k.load(labels, v)
    start = k.load(k.offsets, v)
    end = k.load(k.offsets, v + 1)
    with k.edges(start, end) as e:
        ngh = k.load(k.neighbors, e)
        cur = k.load(labels, ngh, owner=True)
        with k.when(label < cur):
            k.store(labels, ngh, label)
            k.push(ngh, dedup=True)
    return k


def sssp_kernel() -> GraphKernel:
    """Single-source shortest paths (label-correcting relaxation).

    Each relaxation uses the source distance read at enumerate time; a
    stale (too-high) read only delays convergence — the update stage
    re-checks against the authoritative distance, and any vertex whose
    distance shrinks is re-pushed — so the pipeline converges to the
    same fixed point as the serial reference.
    """
    k = GraphKernel("sssp", doc="SSSP: weighted shortest path lengths")
    k.param("source", 0)

    def init_dist(graph, params):
        dist = np.full(graph.n_vertices, SSSP_INF, dtype=np.int64)
        dist[int(params["source"])] = 0
        return dist

    dist = k.state("dist", init=init_dist, output=True)
    weights = k.state("weights", size="edges", mutable=False,
                      init=lambda graph, params: sssp_edge_weights(graph))
    k.start_from("source", "source")
    v = k.vertex()
    dv = k.load(dist, v)
    start = k.load(k.offsets, v)
    end = k.load(k.offsets, v + 1)
    with k.edges(start, end) as e:
        ngh = k.load(k.neighbors, e)
        w = k.load(weights, e)
        cand = dv + w
        dn = k.load(dist, ngh, owner=True)
        with k.when(cand < dn):
            k.store(dist, ngh, cand)
            k.push(ngh, dedup=True)
    return k


#: Kernel factories by name, in presentation order.
FRONTEND_KERNELS = {
    "bfs": bfs_kernel,
    "cc": cc_kernel,
    "sssp": sssp_kernel,
}

_COMPILED: dict = {}


def get_frontend(name: str) -> CompiledPipeline:
    """Compile (once) and return the named kernel's pipeline."""
    pipeline = _COMPILED.get(name)
    if pipeline is None:
        try:
            factory = FRONTEND_KERNELS[name]
        except KeyError:
            raise KeyError(
                f"no frontend kernel {name!r} (have: "
                f"{', '.join(sorted(FRONTEND_KERNELS))})") from None
        pipeline = compile_kernel(factory())
        _COMPILED[name] = pipeline
    return pipeline


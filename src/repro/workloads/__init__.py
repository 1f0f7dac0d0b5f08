"""The evaluated workloads (paper Sec. 7.2).

Graph analytics (BFS, CC, PageRank-Delta, Radii, SSSP) share the
four-stage push pipeline of Fig. 2(a)/Fig. 10; SpMM uses the
merge-intersect pipeline of Fig. 12(a); Silo uses the B+tree lookup
pipeline of Fig. 12(b). The BFS, CC and SSSP pipelines are generated
from annotated kernels by the decoupling front-end
(:mod:`repro.frontend`); the others are written by hand. Every workload
module provides:

* a pipeline-parallel :class:`~repro.core.program.Program` builder with
  ``decoupled`` (fully split) and ``merged`` (Fig. 17) variants,
* a golden reference implementation for functional verification, and
* an out-of-order-core kernel for the serial/multicore baselines.

Use :func:`get_workload` to look a module up by its short name.
"""

import importlib

_MODULES = {
    "bfs": "repro.workloads.bfs",
    "cc": "repro.workloads.cc",
    "prd": "repro.workloads.prdelta",
    "radii": "repro.workloads.radii",
    "sssp": "repro.workloads.sssp",
    "spmm": "repro.workloads.spmm",
    "silo": "repro.workloads.silo",
}

WORKLOAD_NAMES = tuple(_MODULES)


def get_workload(name: str):
    """Import and return the workload module for ``name``."""
    try:
        return importlib.import_module(_MODULES[name])
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; choose from {WORKLOAD_NAMES}"
        ) from None


__all__ = ["get_workload", "WORKLOAD_NAMES"]

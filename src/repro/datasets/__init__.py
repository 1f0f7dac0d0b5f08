"""Synthetic inputs matched to the statistics of the paper's datasets.

The paper uses five real-world graphs (Table 3), six SuiteSparse
matrices (Table 4), and a 52 GB YCSB-C database. None of those are
available offline, so each is replaced by a synthetic generator matched
to the published statistics (vertex/edge counts and degree skew; matrix
size and nnz/row; zipfian key popularity) at a scale a pure-Python
cycle-level simulator can run. See DESIGN.md, "Substitutions".

The specs of Tables 3 and 4 live in :mod:`repro.datasets.tables`, which
needs no numpy; the names below are imported on first use, so reading
a spec loads no generator.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.datasets.tables": ("TABLE3_GRAPHS", "TABLE4_MATRICES"),
    "repro.datasets.graphs": ("CSRGraph", "uniform_random_graph",
                              "power_law_graph", "grid_graph", "make_graph"),
    "repro.datasets.matrices": ("SparseMatrix", "random_sparse_matrix",
                                "make_matrix"),
    "repro.datasets.btree": ("BPlusTree",),
    "repro.datasets.ycsb": ("zipfian_keys",),
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "CSRGraph", "uniform_random_graph", "power_law_graph", "grid_graph",
    "TABLE3_GRAPHS", "make_graph",
    "SparseMatrix", "random_sparse_matrix", "TABLE4_MATRICES", "make_matrix",
    "BPlusTree", "zipfian_keys",
]

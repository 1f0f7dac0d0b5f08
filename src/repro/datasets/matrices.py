"""Sparse matrices (CSR/CSC views) and synthetic generators.

SpMM multiplies a CSR matrix by a CSC matrix with inner products
(paper Sec. 7.2). The six SuiteSparse inputs of Table 4:

================== =============== ========= ============
Domain             Matrix          Size n    Avg. nnz/row
================== =============== ========= ============
File sharing       p2p-Gnutella31  62,586    2.4
Graph as matrix    amazon0312      400,727   8.0
Gel electrophor.   cage12          130,228   15.6
Electromagnetics   2cubes_sphere   101,492   16.2
Fluid dynamics     rma10           46,835    49.7
Structural         pwtk            217,918   52.9
================== =============== ========= ============

``TABLE4_MATRICES`` (:mod:`repro.datasets.tables`) provides scaled
synthetic stand-ins preserving the average non-zeros per row — the
statistic the paper's analysis keys on (sparser rows cause faster
merge-intersections and more frequent reconfigurations).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets.tables import TABLE4_MATRICES


@dataclass(frozen=True)
class SparseMatrix:
    """A square sparse matrix holding both CSR and CSC views.

    The CSR view (``row_ptr``/``row_idx``/``row_val``) plays the role of
    matrix A; the CSC view (``col_ptr``/``col_idx``/``col_val``) plays
    the role of matrix B. Column indices within a row (and row indices
    within a column) are sorted, as merge-intersection requires.
    """

    n: int
    row_ptr: np.ndarray
    row_idx: np.ndarray
    row_val: np.ndarray
    col_ptr: np.ndarray
    col_idx: np.ndarray
    col_val: np.ndarray

    @property
    def nnz(self) -> int:
        return len(self.row_idx)

    @property
    def avg_nnz_per_row(self) -> float:
        return self.nnz / max(1, self.n)

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self.row_ptr[i], self.row_ptr[i + 1]
        return self.row_idx[lo:hi], self.row_val[lo:hi]

    def col(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self.col_ptr[j], self.col_ptr[j + 1]
        return self.col_idx[lo:hi], self.col_val[lo:hi]

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.n, self.n))
        for i in range(self.n):
            idx, val = self.row(i)
            dense[i, idx] = val
        return dense


def _from_coo(n: int, rows: np.ndarray, cols: np.ndarray,
              vals: np.ndarray) -> SparseMatrix:
    # Coordinates lie in [0, n), so a stable sort of row * n + col is
    # the (row, col) lexicographic sort, and col * n + row the (col,
    # row) one.
    order = np.argsort(rows * n + cols, kind="stable")
    rows, cols, vals = rows[order], cols[order], vals[order]
    if len(rows):  # drop duplicate coordinates (keep first)
        dup = np.zeros(len(rows), dtype=bool)
        dup[1:] = (rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])
        rows, cols, vals = rows[~dup], cols[~dup], vals[~dup]

    row_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=row_ptr[1:])

    corder = np.argsort(cols * n + rows, kind="stable")
    crows, ccols, cvals = rows[corder], cols[corder], vals[corder]
    col_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(ccols, minlength=n), out=col_ptr[1:])

    return SparseMatrix(
        n=n,
        row_ptr=row_ptr, row_idx=cols.astype(np.int64),
        row_val=vals.astype(np.float64),
        col_ptr=col_ptr, col_idx=crows.astype(np.int64),
        col_val=cvals.astype(np.float64),
    )


def random_sparse_matrix(n: int, avg_nnz_per_row: float,
                         seed: int = 0) -> SparseMatrix:
    """Uniform-random sparsity pattern with the requested density."""
    rng = np.random.default_rng(seed)
    nnz = int(n * avg_nnz_per_row)
    rows = rng.integers(0, n, size=nnz, dtype=np.int64)
    cols = rng.integers(0, n, size=nnz, dtype=np.int64)
    vals = rng.uniform(0.5, 1.5, size=nnz)
    return _from_coo(n, rows, cols, vals)


def make_matrix(code: str, scale: float = 1.0, seed: int = 1) -> SparseMatrix:
    """Instantiate a Table 4 stand-in; ``scale`` multiplies the size."""
    spec = TABLE4_MATRICES[code]
    return random_sparse_matrix(int(spec["n"] * scale),
                                spec["avg_nnz_per_row"], seed=seed)

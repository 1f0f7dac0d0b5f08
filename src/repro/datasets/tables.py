"""The paper's datasets (Tables 3 and 4) and the sizes of their stand-ins.

The generators in :mod:`repro.datasets.graphs` and
:mod:`repro.datasets.matrices` need numpy; these specs and the size
rule do not, so listing the inputs (``repro inputs``) or rejecting a
scale loads no array library (docs/performance.md, "Cold start").
"""

from __future__ import annotations

# Scaled synthetic stand-ins for Table 3. Keys are the paper's two-letter
# input codes; each entry names the generator kind, its arguments and the
# paper graph it stands in for.
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

# Scaled synthetic stand-ins for Table 4, keyed by the paper's codes.
TABLE4_MATRICES = {
    "FS": dict(n=700, avg_nnz_per_row=2.4,
               paper="p2p-Gnutella31: n=62,586, nnz/row 2.4"),
    "Gr": dict(n=900, avg_nnz_per_row=8.0,
               paper="amazon0312: n=400,727, nnz/row 8.0"),
    "GE": dict(n=500, avg_nnz_per_row=15.6,
               paper="cage12: n=130,228, nnz/row 15.6"),
    "EM": dict(n=450, avg_nnz_per_row=16.2,
               paper="2cubes_sphere: n=101,492, nnz/row 16.2"),
    "FD": dict(n=300, avg_nnz_per_row=49.7,
               paper="rma10: n=46,835, nnz/row 49.7"),
    "St": dict(n=350, avg_nnz_per_row=52.9,
               paper="pwtk: n=217,918, nnz/row 52.9"),
}


def graph_size(code: str, scale: float) -> tuple:
    """The size :func:`repro.datasets.graphs.make_graph` builds for the
    Table 3 stand-in ``code`` at ``scale``: ``(n,)`` vertices, or the
    grid's ``(width, height)``; ``scale`` multiplies the vertex count.

    Raises :class:`ValueError` naming ``scale`` when the graph would
    have no vertex."""
    spec = TABLE3_GRAPHS[code]
    if spec["kind"] == "grid":
        side_scale = scale ** 0.5
        size = (int(spec["width"] * side_scale),
                int(spec["height"] * side_scale))
    else:
        size = (int(spec["n"] * scale),)
    if min(size) < 1:
        raise ValueError(f"scale must give input {code} at least one "
                         f"vertex, got {scale}")
    return size

"""Every generated input and golden result, pinned by digest.

``prepare_input`` generates each (app, input) pair's synthetic data and
its golden serial result, the oracle every simulated run is checked
against. Both must stay bit-identical when a generator or a reference
is rewritten for speed (docs/performance.md, "Input preparation"). Each
digest is a sha256 over the dtype, shape and bytes of the arrays
involved, so representation changes that keep the values (numpy
scalars against Python ints in B+tree nodes, say) do not move it, and
any change of a value, an order or a dtype does.
"""

import hashlib

import numpy as np
import pytest

from repro.harness.run import APP_INPUTS, GRAPH_APPS, prepare_input

# The dtype each graph reference returns.
GOLDEN_DTYPES = {"bfs": np.int64, "cc": np.int64, "prd": np.float64,
                 "radii": np.int64, "sssp": np.int64}

# (app, input, seed): (input digest, golden digest); the first 16 hex
# digits of each sha256, at each input's default scale.
DIGESTS = {
    ("bfs", "Hu", 1): ("a3fee77f841fba89", "aa8c0adeaf745819"),
    ("bfs", "Dy", 1): ("cdecb4318bee0c06", "56ad0da7c3ae3655"),
    ("bfs", "Ci", 1): ("010a2b38405b590d", "87d062b2bd73c264"),
    ("bfs", "In", 1): ("e30e897d686b370b", "a3f1b887b9ffc3cb"),
    ("bfs", "Rd", 1): ("53be40f057243135", "78875ba066302a32"),
    ("cc", "Hu", 1): ("a3fee77f841fba89", "99cb71e20929e365"),
    ("cc", "Dy", 1): ("516731765486df86", "da7712ad5a0f4197"),
    ("cc", "Ci", 1): ("010a2b38405b590d", "cacc8880960ef48f"),
    ("cc", "In", 1): ("e30e897d686b370b", "872d66f0f7b57641"),
    ("cc", "Rd", 1): ("ab7ddbab3dcf1c1a", "edfa7bd1402d1d78"),
    ("prd", "Hu", 1): ("a3fee77f841fba89", "d7456fd182a9323d"),
    ("prd", "Dy", 1): ("516731765486df86", "9833b4c882bf19df"),
    ("prd", "Ci", 1): ("010a2b38405b590d", "5552ffa9bf66d609"),
    ("prd", "In", 1): ("e30e897d686b370b", "c248dafc18c69b94"),
    ("prd", "Rd", 1): ("ab7ddbab3dcf1c1a", "99b7de9e2762b210"),
    ("radii", "Hu", 1): ("a3fee77f841fba89", "19385f2d494ebc4b"),
    ("radii", "Dy", 1): ("516731765486df86", "5a80425bd86a2a8e"),
    ("radii", "Ci", 1): ("010a2b38405b590d", "045995d6c5fa75d7"),
    ("radii", "In", 1): ("e30e897d686b370b", "6cc8a7ecd314aae9"),
    ("radii", "Rd", 1): ("ab7ddbab3dcf1c1a", "5309251ff9a6c869"),
    ("silo", "YC", 1): ("3218569a3efadefa", "0ad1b61dae53232b"),
    ("spmm", "FS", 1): ("6f03e8e2b8fba869", "457d7e6f61aec6be"),
    ("spmm", "Gr", 1): ("c5698213fc40b294", "cc4fe6e38803a946"),
    ("spmm", "GE", 1): ("0877023e33809551", "759fe658b4a19669"),
    ("spmm", "EM", 1): ("8c3a5d795b8eeb2e", "4e16134d0d0ac3bb"),
    ("spmm", "FD", 1): ("57b492812beb023e", "2719037496b7becc"),
    ("spmm", "St", 1): ("8fb53b0d9b5964d1", "ac4705384eb71c18"),
    ("sssp", "Hu", 1): ("a3fee77f841fba89", "6a227e8dd5bdf577"),
    ("sssp", "Dy", 1): ("516731765486df86", "03427efc5cac838c"),
    ("sssp", "Ci", 1): ("010a2b38405b590d", "f0163af25d2e3961"),
    ("sssp", "In", 1): ("e30e897d686b370b", "d50d246070cdad78"),
    ("sssp", "Rd", 1): ("ab7ddbab3dcf1c1a", "010a727f8dc9a887"),
    ("bfs", "Hu", 2): ("b562edff1fdf3920", "698931478f0793cb"),
    ("bfs", "Dy", 2): ("9c60c6caff0073aa", "e1161cd639594640"),
    ("bfs", "Ci", 2): ("8d2cf42eed31e1a5", "3a14522e0b953ecc"),
    ("bfs", "In", 2): ("b4247b9d00632cc2", "25229015edd96866"),
    ("bfs", "Rd", 2): ("7ddf94fa9632b28f", "66ec02223bf21868"),
    ("cc", "Hu", 2): ("b562edff1fdf3920", "0d8cc4168ecb8ce9"),
    ("cc", "Dy", 2): ("dda8023af8bcb4e2", "e0d3f0f27f68d921"),
    ("cc", "Ci", 2): ("8d2cf42eed31e1a5", "fd4a2eb3c9fdb0a2"),
    ("cc", "In", 2): ("b4247b9d00632cc2", "576b7a23cee802aa"),
    ("cc", "Rd", 2): ("3028cd92851e4825", "2907a0e1534db12b"),
    ("prd", "Hu", 2): ("b562edff1fdf3920", "7374496bf9b346ad"),
    ("prd", "Dy", 2): ("dda8023af8bcb4e2", "8a55eb70a957d338"),
    ("prd", "Ci", 2): ("8d2cf42eed31e1a5", "59d3b2b035f900ec"),
    ("prd", "In", 2): ("b4247b9d00632cc2", "130266e5c268e249"),
    ("prd", "Rd", 2): ("3028cd92851e4825", "ac395abf22409a78"),
    ("radii", "Hu", 2): ("b562edff1fdf3920", "342407de2bdea910"),
    ("radii", "Dy", 2): ("dda8023af8bcb4e2", "a6161c8cd9786a4e"),
    ("radii", "Ci", 2): ("8d2cf42eed31e1a5", "1a619b9fccf1fd1c"),
    ("radii", "In", 2): ("b4247b9d00632cc2", "60ee3622c56634ac"),
    ("radii", "Rd", 2): ("3028cd92851e4825", "28615058a6c513f0"),
    ("silo", "YC", 2): ("911d269b08193995", "358c995293475777"),
    ("spmm", "FS", 2): ("9169e8afcf38bf40", "7686e34e52029d89"),
    ("spmm", "Gr", 2): ("d0db802b992acab8", "ce2d44e2dd9b67f1"),
    ("spmm", "GE", 2): ("6f0b87c111b7fe22", "5f9fea78231e2066"),
    ("spmm", "EM", 2): ("489cf5384fa920d2", "a6e690a073504e42"),
    ("spmm", "FD", 2): ("8876a26a94192359", "a8a60b31cb232374"),
    ("spmm", "St", 2): ("f839b26fe6eb6ff7", "8b1952b97f9b3fab"),
    ("sssp", "Hu", 2): ("b562edff1fdf3920", "721857d779241676"),
    ("sssp", "Dy", 2): ("dda8023af8bcb4e2", "6d1ffa1ef96686d5"),
    ("sssp", "Ci", 2): ("8d2cf42eed31e1a5", "93a4ea92656bccdc"),
    ("sssp", "In", 2): ("b4247b9d00632cc2", "baab6c3b1ffdc5e1"),
    ("sssp", "Rd", 2): ("3028cd92851e4825", "9721b682e25374a0"),
}


def _digest(arrays) -> str:
    sha = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        sha.update(f"{array.dtype.str}{array.shape}".encode())
        sha.update(array.tobytes())
    return sha.hexdigest()[:16]


def _input_arrays(prepared) -> list:
    app, data = prepared.app, prepared.data
    if app in GRAPH_APPS:
        return [data.offsets, data.neighbors]
    if app == "spmm":
        matrix, rows, cols = data
        return [matrix.row_ptr, matrix.row_idx, matrix.row_val,
                matrix.col_ptr, matrix.col_idx, matrix.col_val, rows, cols]
    tree, ops = data
    nodes = tree.nodes
    return [
        np.array([tree.fanout, tree.root_id, tree.depth], dtype=np.int64),
        np.array([(node.node_id, node.is_leaf, len(node.keys),
                   len(node.values), len(node.children))
                  for node in nodes], dtype=np.int64),
        np.array([k for node in nodes for k in node.keys], dtype=np.int64),
        np.array([v for node in nodes for v in node.values],
                 dtype=np.int64),
        np.array([c for node in nodes for c in node.children],
                 dtype=np.int64),
        ops,
    ]


def _golden_arrays(app: str, golden) -> list:
    if app == "spmm":
        coords = np.array(list(golden), dtype=np.int64).reshape(-1, 2)
        return [coords, np.array(list(golden.values()), dtype=np.float64)]
    if app == "silo":
        return [np.array(golden, dtype=np.int64)]
    return [golden]


def _check_golden_type(app: str, golden) -> None:
    if app in GRAPH_APPS:
        assert type(golden) is np.ndarray
        assert golden.dtype == GOLDEN_DTYPES[app]
    elif app == "spmm":
        assert type(golden) is dict
        assert all(type(i) is int and type(j) is int for i, j in golden)
        assert all(isinstance(value, float) for value in golden.values())
    else:
        assert type(golden) is tuple and len(golden) == 2
        assert all(type(part) is int for part in golden)


CASES = [(app, code, seed) for seed in (1, 2)
         for app in sorted(APP_INPUTS) for code in APP_INPUTS[app]]


@pytest.mark.parametrize("app,code,seed", CASES,
                         ids=[f"{a}-{c}-seed{s}" for a, c, s in CASES])
def test_input_and_golden_digests(app, code, seed):
    prepared = prepare_input(app, code, seed=seed)
    _check_golden_type(app, prepared.golden)
    digests = (_digest(_input_arrays(prepared)),
               _digest(_golden_arrays(app, prepared.golden)))
    assert digests == DIGESTS[app, code, seed]


def test_every_pair_is_pinned():
    assert sorted(DIGESTS) == sorted(CASES)

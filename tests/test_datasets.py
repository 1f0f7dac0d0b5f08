"""Unit tests for the synthetic dataset generators."""

import numpy as np
import pytest

from repro.datasets import (BPlusTree, CSRGraph,
                            TABLE3_GRAPHS, TABLE4_MATRICES, grid_graph,
                            make_graph, make_matrix, power_law_graph,
                            random_sparse_matrix, uniform_random_graph,
                            zipfian_keys)


class TestGraphGenerators:
    def test_uniform_degree_near_target(self):
        g = uniform_random_graph(2000, 6.0, seed=1)
        assert g.avg_degree == pytest.approx(6.0, rel=0.15)

    def test_power_law_is_skewed(self):
        g = power_law_graph(2000, 8.0, seed=1)
        degrees = np.diff(g.offsets)
        assert degrees.max() > 6 * degrees.mean()

    def test_uniform_is_not_skewed(self):
        g = uniform_random_graph(2000, 8.0, seed=1)
        degrees = np.diff(g.offsets)
        assert degrees.max() < 6 * degrees.mean()

    def test_graphs_are_symmetric(self):
        g = power_law_graph(300, 5.0, seed=2)
        edges = set()
        for v in range(g.n_vertices):
            for ngh in g.neighbors_of(v):
                edges.add((v, int(ngh)))
        assert all((b, a) in edges for a, b in edges)

    def test_no_self_loops_or_duplicates(self):
        g = uniform_random_graph(500, 6.0, seed=3)
        for v in range(g.n_vertices):
            nghs = list(g.neighbors_of(v))
            assert v not in nghs
            assert len(nghs) == len(set(nghs))

    def test_grid_structure(self):
        g = grid_graph(5, 4)
        assert g.n_vertices == 20
        # Interior vertex has 4 neighbors; corner has 2.
        assert g.out_degree(6) == 4
        assert g.out_degree(0) == 2

    def test_grid_keep_reduces_degree(self):
        full = grid_graph(30, 30)
        sparse = grid_graph(30, 30, keep=0.5, seed=1)
        assert sparse.n_edges < full.n_edges

    def test_table3_registry_complete(self):
        assert set(TABLE3_GRAPHS) == {"Hu", "Dy", "Ci", "In", "Rd"}
        for code in TABLE3_GRAPHS:
            g = make_graph(code, scale=0.1)
            g.validate()
            assert g.n_vertices > 50

    def test_symmetrize_sorts_dedups_and_drops_self_loops(self):
        from repro.datasets.graphs import _symmetrize
        rng = np.random.default_rng(4)
        n = 40
        src = rng.integers(0, n, size=300, dtype=np.int64)
        dst = rng.integers(0, n, size=300, dtype=np.int64)
        g = _symmetrize(n, src, dst)
        adjacency = [set() for _ in range(n)]
        for a, b in zip(src.tolist(), dst.tolist()):
            if a != b:
                adjacency[a].add(b)
                adjacency[b].add(a)
        for v in range(n):
            assert g.neighbors_of(v).tolist() == sorted(adjacency[v])
        empty = np.zeros(0, dtype=np.int64)
        assert _symmetrize(3, empty, empty).offsets.tolist() == [0] * 4

    def test_validate_catches_bad_offsets(self):
        with pytest.raises(ValueError):
            CSRGraph(np.array([0, 2, 1], dtype=np.int64),
                     np.array([0, 1], dtype=np.int64)).validate()

    def test_validate_catches_bad_neighbors(self):
        with pytest.raises(ValueError):
            CSRGraph(np.array([0, 1], dtype=np.int64),
                     np.array([5], dtype=np.int64)).validate()


class TestMatrixGenerators:
    def test_density_near_target(self):
        m = random_sparse_matrix(500, 10.0, seed=1)
        assert m.avg_nnz_per_row == pytest.approx(10.0, rel=0.15)

    def test_csr_csc_views_agree(self):
        m = random_sparse_matrix(60, 5.0, seed=2)
        dense = m.to_dense()
        rebuilt = np.zeros_like(dense)
        for j in range(m.n):
            idx, val = m.col(j)
            rebuilt[idx, j] = val
        np.testing.assert_allclose(dense, rebuilt)

    def test_indices_sorted_within_row_and_col(self):
        m = random_sparse_matrix(100, 8.0, seed=3)
        for i in range(m.n):
            idx, _ = m.row(i)
            assert np.all(np.diff(idx) > 0)
            cidx, _ = m.col(i)
            assert np.all(np.diff(cidx) > 0)

    def test_from_coo_keeps_first_duplicate(self):
        from repro.datasets.matrices import _from_coo
        rows = np.array([2, 0, 2, 1, 0], dtype=np.int64)
        cols = np.array([1, 2, 1, 0, 2], dtype=np.int64)
        m = _from_coo(3, rows, cols, np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        assert m.row_ptr.tolist() == [0, 1, 2, 3]
        assert m.row_idx.tolist() == [2, 0, 1]
        assert m.row_val.tolist() == [2.0, 4.0, 1.0]
        assert m.col_ptr.tolist() == [0, 1, 2, 3]
        assert m.col_idx.tolist() == [1, 2, 0]
        assert m.col_val.tolist() == [4.0, 1.0, 2.0]

    def test_table4_registry_complete(self):
        assert set(TABLE4_MATRICES) == {"FS", "Gr", "GE", "EM", "FD", "St"}
        for code in TABLE4_MATRICES:
            m = make_matrix(code, scale=0.3)
            assert m.nnz > 0


class TestBPlusTree:
    def _tree(self, n=1000, fanout=8):
        keys = np.arange(n, dtype=np.int64) * 2
        return BPlusTree(keys, keys * 10, fanout=fanout), keys

    def test_lookup_finds_all_keys(self):
        tree, keys = self._tree()
        for key in keys[::37]:
            assert tree.lookup(int(key)) == key * 10

    def test_lookup_misses(self):
        tree, keys = self._tree()
        assert tree.lookup(1) is None       # odd keys absent
        assert tree.lookup(-5) is None
        assert tree.lookup(10 ** 9) is None

    def test_depth_grows_logarithmically(self):
        small, _ = self._tree(n=8)
        large, _ = self._tree(n=10_000)
        assert small.depth < large.depth
        assert large.depth <= 6

    def test_lookup_path_root_to_leaf(self):
        tree, keys = self._tree()
        path = tree.lookup_path(int(keys[500]))
        assert path[0] == tree.root_id
        assert len(path) == tree.depth
        assert tree.nodes[path[-1]].is_leaf

    def test_step_matches_lookup(self):
        tree, keys = self._tree()
        key = int(keys[123])
        node_id = tree.root_id
        is_leaf = tree.nodes[node_id].is_leaf
        while not is_leaf:
            node_id, is_leaf = tree.step(node_id, key)
        assert tree.leaf_lookup(node_id, key) == key * 10

    def test_node_addressing_disjoint(self):
        tree, _ = self._tree(n=100)
        offsets = {tree.node_offset(i) for i in range(tree.n_nodes)}
        assert len(offsets) == tree.n_nodes
        assert tree.total_bytes == tree.n_nodes * tree.node_bytes

    def test_nodes_hold_python_ints(self):
        tree, _ = self._tree(n=100)
        for node in tree.nodes:
            for item in node.keys + node.values + node.children:
                assert type(item) is int

    def test_single_leaf_tree(self):
        tree = BPlusTree([1, 2, 3], [10, 20, 30], fanout=8)
        assert tree.depth == 1
        assert tree.lookup(2) == 20

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            BPlusTree([], [], fanout=8)
        with pytest.raises(ValueError):
            BPlusTree([3, 1], [1, 2], fanout=8)  # not sorted
        with pytest.raises(ValueError):
            BPlusTree([1, 2], [1], fanout=8)     # length mismatch
        with pytest.raises(ValueError):
            BPlusTree([1], [1], fanout=1)


class TestYCSB:
    def test_zipfian_is_skewed(self):
        draws = zipfian_keys(10_000, 50_000, seed=1)
        _, counts = np.unique(draws, return_counts=True)
        top = np.sort(counts)[::-1]
        # The hottest keys absorb far more than their uniform share.
        assert top[0] > 20 * (50_000 / 10_000)

    def test_keys_in_range(self):
        draws = zipfian_keys(100, 1000, seed=2)
        assert draws.min() >= 0 and draws.max() < 100

    def test_scramble_spreads_hot_keys(self):
        raw = zipfian_keys(1000, 10_000, seed=3, scramble=False)
        scrambled = zipfian_keys(1000, 10_000, seed=3, scramble=True)
        # Unscrambled hot keys cluster at low ids; scrambled do not.
        assert raw.mean() < scrambled.mean()

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            zipfian_keys(0, 10)
        with pytest.raises(ValueError):
            zipfian_keys(10, 10, theta=1.5)

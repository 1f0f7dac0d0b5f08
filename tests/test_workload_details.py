"""Workload-specific behavior tests beyond cross-system equality."""

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.core import System
from repro.datasets.btree import BPlusTree
from repro.datasets.graphs import (grid_graph, power_law_graph,
                                   uniform_random_graph)
from repro.datasets.matrices import random_sparse_matrix
from repro.workloads import bfs, cc, prdelta, radii, silo, spmm
from repro.workloads.common import shard_of, shards_for_mode


class TestSharding:
    def test_shard_of_uses_low_bits(self):
        assert shard_of(0, 16) == 0
        assert shard_of(17, 16) == 1
        assert shard_of(31, 16) == 15

    def test_shards_for_mode(self):
        config = SystemConfig(n_pes=16)
        assert shards_for_mode(config, "fifer", 4) == 16
        assert shards_for_mode(config, "static", 4) == 4
        assert shards_for_mode(config, "static", 2) == 8
        with pytest.raises(ValueError):
            shards_for_mode(config, "static", 5)


class TestBFSDetails:
    def test_unreachable_vertices_stay_minus_one(self):
        # Two disconnected cliques; search from the first.
        offsets = np.array([0, 2, 4, 6, 8, 10, 12], dtype=np.int64)
        neighbors = np.array([1, 2, 0, 2, 0, 1, 4, 5, 3, 5, 3, 4],
                             dtype=np.int64)
        from repro.datasets.graphs import CSRGraph
        graph = CSRGraph(offsets, neighbors)
        config = SystemConfig(n_pes=16)
        program, workload = bfs.build(graph, config, "fifer")
        result = System(config, program, mode="fifer").run()
        assert list(result.result[:3]) == [0, 1, 1]
        assert list(result.result[3:]) == [-1, -1, -1]

    def test_iteration_count_tracks_depth(self):
        graph = grid_graph(12, 1)  # a path: max distance 11
        config = SystemConfig(n_pes=16)
        program, workload = bfs.build(graph, config, "fifer")
        result = System(config, program, mode="fifer").run()
        # One dispatched iteration per BFS level, including the final
        # level whose frontier discovers nothing new.
        assert workload.iterations_run == 12
        assert result.result.max() == 11


class TestCCDetails:
    def test_components_labeled_by_minimum(self):
        graph = uniform_random_graph(300, 3.0, seed=11)
        golden = cc.cc_reference(graph)
        components = {}
        for v, label in enumerate(golden):
            components.setdefault(int(label), []).append(v)
        for label, members in components.items():
            assert label == min(members)

    def test_pipeline_on_disconnected_graph(self):
        from repro.datasets.graphs import CSRGraph
        # 8 isolated vertices: every vertex is its own component.
        graph = CSRGraph(np.zeros(9, dtype=np.int64),
                         np.zeros(0, dtype=np.int64))
        config = SystemConfig(n_pes=16)
        program, workload = cc.build(graph, config, "fifer")
        result = System(config, program, mode="fifer").run()
        np.testing.assert_array_equal(result.result, np.arange(8))


class TestPRDDetails:
    def test_ranks_sum_bounded(self):
        graph = power_law_graph(400, 6.0, seed=12)
        ranks = prdelta.prd_reference(graph)
        # Total injected mass is 1; damping keeps totals bounded.
        assert 0 < ranks.sum() < 1.0 / (1.0 - prdelta.DAMPING) + 1

    def test_iteration_cap_respected(self):
        graph = power_law_graph(300, 6.0, seed=13)
        config = SystemConfig(n_pes=16)
        program, workload = prdelta.build(graph, config, "fifer",
                                          max_iterations=3)
        result = System(config, program, mode="fifer").run()
        assert workload.iterations_run == 3
        golden = prdelta.prd_reference(graph, max_iterations=3)
        assert np.allclose(result.result, golden, atol=1e-2 / 300)

    def test_zero_degree_vertices_keep_rank(self):
        from repro.datasets.graphs import CSRGraph
        # v0 -> v1; v2 isolated.
        graph = CSRGraph(np.array([0, 1, 2, 2], dtype=np.int64),
                         np.array([1, 0], dtype=np.int64))
        ranks = prdelta.prd_reference(graph)
        assert ranks[2] == pytest.approx(1.0 / 3.0)


class TestRadiiDetails:
    def test_sources_are_reached(self):
        graph = uniform_random_graph(300, 5.0, seed=14)
        result = radii.radii_reference(graph, k=16, seed=3)
        sources = radii._sample_sources(300, 16, 3)
        # A source starts at radius 0 but its estimate grows as other
        # sources' bits reach it (the estimate is the last round its
        # mask changed); it can never be unreached.
        assert all(result[s] >= 0 for s in sources)

    def test_at_most_64_sources(self):
        graph = uniform_random_graph(100, 4.0, seed=14)
        with pytest.raises(ValueError, match="at most 64 sources"):
            radii.radii_reference(graph, k=65)
        # Fewer vertices than k: every vertex is a source, one bit each.
        small = uniform_random_graph(40, 4.0, seed=14)
        assert (radii.radii_reference(small, k=65) >= 0).all()

    def test_radii_bounded_by_bfs_distance(self):
        graph = uniform_random_graph(200, 5.0, seed=15)
        sources = radii._sample_sources(200, 8, 3)
        estimates = radii.radii_reference(graph, k=8, seed=3)
        for v in range(200):
            if estimates[v] < 0:
                continue
            best = min(bfs.bfs_reference(graph, int(s))[v] for s in sources
                       if bfs.bfs_reference(graph, int(s))[v] >= 0)
            assert estimates[v] >= best

    def test_iteration_cap_matches_reference(self):
        graph = power_law_graph(250, 5.0, seed=16)
        config = SystemConfig(n_pes=16)
        program, workload = radii.build(graph, config, "fifer",
                                        k=32, max_iterations=2)
        result = System(config, program, mode="fifer").run()
        golden = radii.radii_reference(graph, k=32, max_iterations=2)
        np.testing.assert_array_equal(result.result, golden)


class TestSpMMDetails:
    def test_empty_rows_produce_no_output(self):
        matrix = random_sparse_matrix(50, 0.5, seed=17)  # mostly empty
        rows, cols = spmm.sample_rows_cols(matrix, 20, 20, seed=1)
        golden = spmm.spmm_reference(matrix, rows, cols)
        config = SystemConfig(n_pes=16)
        workload = spmm.SpMMWorkload(matrix, 16, rows, cols)
        program = workload.build_program(config, "fifer")
        result = System(config, program, mode="fifer").run()
        assert result.result == golden

    def test_bitwise_accumulation_order(self):
        """The pipeline accumulates in coordinate order, matching the
        reference bit-for-bit (no tolerance needed)."""
        matrix = random_sparse_matrix(120, 20.0, seed=18)
        rows, cols = spmm.sample_rows_cols(matrix, 16, 16, seed=2)
        golden = spmm.spmm_reference(matrix, rows, cols)
        config = SystemConfig(n_pes=16)
        workload = spmm.SpMMWorkload(matrix, 16, rows, cols)
        program = workload.build_program(config, "fifer")
        result = System(config, program, mode="fifer").run()
        assert result.result == golden  # exact dict equality

    def test_sparser_matrices_reconfigure_more(self):
        """Paper Sec. 8.2: sparse matrices finish intersections rapidly,
        triggering more reconfigurations per unit of work."""
        config = SystemConfig(n_pes=16)
        rates = {}
        for label, nnz in (("sparse", 2.0), ("dense", 30.0)):
            matrix = random_sparse_matrix(250, nnz, seed=19)
            rows, cols = spmm.sample_rows_cols(matrix, 32, 32, seed=3)
            workload = spmm.SpMMWorkload(matrix, 16, rows, cols)
            program = workload.build_program(config, "fifer")
            result = System(config, program, mode="fifer").run()
            rates[label] = (result.counters["reconfig_events"]
                            / result.counters["tokens"])
        assert rates["sparse"] > rates["dense"]


class TestSiloDetails:
    def _tree_and_ops(self, n=5000, n_ops=400):
        keys = np.arange(n, dtype=np.int64) * 2
        tree = BPlusTree(keys, keys + 7, fanout=8)
        rng = np.random.default_rng(20)
        ops = keys[rng.integers(0, n, size=n_ops)].copy()
        ops[::5] += 1  # misses
        return tree, ops

    def test_misses_counted_correctly(self):
        tree, ops = self._tree_and_ops()
        found, checksum = silo.silo_reference(tree, ops)
        assert found == sum(1 for k in ops if tree.lookup(int(k)) is not None)

    def test_queue_memory_recommendation(self):
        config = silo.recommended_config(SystemConfig())
        assert config.queue_mem_bytes == 4 * 1024

    def test_lookup_window_bounded_by_queues(self):
        tree, ops = self._tree_and_ops()
        config = silo.recommended_config(SystemConfig())
        program, workload = silo.build(tree, ops, config, "fifer")
        System(config, program, mode="fifer")  # triggers post_build
        assert all(w >= 1 for w in workload.lookup_window)

    def test_shallow_tree(self):
        """A root-only tree routes lookups straight to the leaf stage."""
        keys = np.array([1, 5, 9], dtype=np.int64)
        tree = BPlusTree(keys, keys * 10, fanout=8)
        assert tree.depth == 1
        ops = np.array([1, 5, 9, 3], dtype=np.int64)
        config = silo.recommended_config(SystemConfig())
        program, workload = silo.build(tree, ops, config, "fifer")
        result = System(config, program, mode="fifer").run()
        assert result.result == silo.silo_reference(tree, ops)

"""BFS functional and architectural tests across systems and variants."""

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.core import System
from repro.datasets.graphs import (power_law_graph, uniform_random_graph,
                                   grid_graph)
from repro.workloads import bfs


def _run(graph, mode, variant="decoupled", source=0, **config_kwargs):
    config = SystemConfig(n_pes=config_kwargs.pop("n_pes", 16),
                          **config_kwargs)
    program, workload = bfs.build(graph, config, mode, variant, source=source)
    result = System(config, program, mode=mode).run(max_cycles=50_000_000)
    return result, workload


@pytest.fixture(scope="module")
def small_graph():
    return power_law_graph(400, 6.0, seed=3)


def test_fifer_bfs_matches_reference(small_graph):
    result, _ = _run(small_graph, "fifer")
    golden = bfs.bfs_reference(small_graph, 0)
    np.testing.assert_array_equal(result.result, golden)


def test_static_bfs_matches_reference(small_graph):
    result, _ = _run(small_graph, "static")
    golden = bfs.bfs_reference(small_graph, 0)
    np.testing.assert_array_equal(result.result, golden)


def test_merged_variants_match_reference(small_graph):
    golden = bfs.bfs_reference(small_graph, 0)
    for mode in ("fifer", "static"):
        result, _ = _run(small_graph, mode, variant="merged")
        np.testing.assert_array_equal(result.result, golden)


def test_fifer_faster_than_static(small_graph):
    fifer, _ = _run(small_graph, "fifer")
    static, _ = _run(small_graph, "static")
    assert fifer.cycles < static.cycles


def test_bfs_on_grid_long_diameter():
    graph = grid_graph(20, 20)
    result, _ = _run(graph, "fifer")
    golden = bfs.bfs_reference(graph, 0)
    np.testing.assert_array_equal(result.result, golden)
    # Corner-to-corner distance on a 20x20 grid is 38 levels.
    assert result.result.max() == 38


def test_bfs_nonzero_source():
    graph = uniform_random_graph(300, 4.0, seed=9)
    result, _ = _run(graph, "fifer", source=137)
    golden = bfs.bfs_reference(graph, 137)
    np.testing.assert_array_equal(result.result, golden)


def test_fifer_reports_residence_and_reconfig(small_graph):
    result, _ = _run(small_graph, "fifer")
    assert result.avg_reconfig_cycles > 0
    assert result.avg_residence_cycles > result.avg_reconfig_cycles
    # The static pipeline never reconfigures after initial setup.
    static, _ = _run(small_graph, "static")
    assert static.counters["reconfig"] == 0

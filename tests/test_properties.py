"""Property-based tests (hypothesis) on core data structures and
invariants."""

import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import CacheConfig, MemoryConfig
from repro.core.pe import add_units
from repro.datasets.btree import BPlusTree
from repro.datasets.graphs import power_law_graph, uniform_random_graph
from repro.datasets.matrices import random_sparse_matrix
from repro.memory import AddressSpace, Cache, MainMemory
from repro.queues import Queue
from repro.workloads.bfs import bfs_reference
from repro.workloads.cc import cc_reference
from repro.workloads.spmm import spmm_reference

_settings = settings(max_examples=25, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


# -- queues ------------------------------------------------------------------

@given(st.lists(st.tuples(st.integers(), st.booleans()), max_size=60))
@_settings
def test_queue_preserves_fifo_order_and_occupancy(items):
    q = Queue("q", capacity_words=200, entry_words=2)
    accepted = []
    for value, is_control in items:
        if q.can_enq(is_control=is_control):
            q.enq(value, is_control=is_control)
            accepted.append((value, is_control))
    # Occupancy: control values cost 1 word, data 2.
    expected = sum(1 if c else 2 for _, c in accepted)
    assert q.occupancy_words == expected
    out = [(t.value, t.is_control) for t in (q.deq() for _ in range(len(q)))]
    assert out == accepted
    assert q.occupancy_words == 0


@given(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=80))
@_settings
def test_credit_conservation(producers):
    q = Queue("q", capacity_words=30, producers=("a", "b", "c"))
    share = 10
    outstanding = {p: 0 for p in "abc"}
    for p in producers:
        if q.can_enq(p):
            q.enq(p, producer=p)
            outstanding[p] += 1
        assert outstanding[p] <= share
    while q.can_deq():
        token = q.deq()
        outstanding[token.producer] -= 1
    assert all(v == 0 for v in outstanding.values())
    assert all(q.can_enq(p) for p in "abc")


# -- address space ------------------------------------------------------------

@given(st.lists(st.integers(min_value=1, max_value=10_000), min_size=1,
                max_size=40))
@_settings
def test_address_space_regions_disjoint(sizes):
    space = AddressSpace()
    regions = [space.alloc(f"r{i}", size) for i, size in enumerate(sizes)]
    spans = sorted((r.base, r.end) for r in regions)
    for (b1, e1), (b2, _) in zip(spans, spans[1:]):
        assert e1 <= b2


# -- caches -------------------------------------------------------------------

@given(st.lists(st.integers(min_value=0, max_value=63), min_size=1,
                max_size=200))
@_settings
def test_cache_inclusion_of_recent_lines(line_ids):
    """After any access sequence, the most recent `ways` distinct lines
    of each set are resident (LRU invariant)."""
    memory = MainMemory(MemoryConfig())
    memory.begin_quantum(10 ** 9)
    ways = 4
    cache = Cache("c", CacheConfig(16 * 64 // 4 * ways, ways, 1), memory)
    n_sets = cache.config.n_sets
    for line in line_ids:
        cache.access(line * 64)
    # Replay per set: last `ways` distinct lines must be resident.
    per_set = {}
    for line in line_ids:
        per_set.setdefault(line % n_sets, []).append(line)
    for lines in per_set.values():
        recent = []
        for line in reversed(lines):
            if line not in recent:
                recent.append(line)
            if len(recent) == ways:
                break
        for line in recent:
            assert cache.contains(line * 64)


# -- B+tree -------------------------------------------------------------------

@given(st.sets(st.integers(min_value=-10 ** 6, max_value=10 ** 6),
               min_size=1, max_size=300),
       st.integers(min_value=2, max_value=16))
@_settings
def test_btree_finds_exactly_its_keys(keys, fanout):
    keys = np.array(sorted(keys), dtype=np.int64)
    tree = BPlusTree(keys, keys * 2 + 1, fanout=fanout)
    for key in keys:
        assert tree.lookup(int(key)) == int(key) * 2 + 1
    for key in keys:
        probe = int(key) + 1
        if probe not in set(int(k) for k in keys):
            assert tree.lookup(probe) is None


@given(st.sets(st.integers(min_value=0, max_value=10 ** 5), min_size=2,
               max_size=400),
       st.integers(min_value=2, max_value=8))
@_settings
def test_btree_paths_have_tree_depth(keys, fanout):
    keys = np.array(sorted(keys), dtype=np.int64)
    tree = BPlusTree(keys, keys, fanout=fanout)
    for key in list(keys)[:: max(1, len(keys) // 5)]:
        path = tree.lookup_path(int(key))
        assert len(path) == tree.depth
        assert tree.nodes[path[-1]].is_leaf
        assert all(not tree.nodes[n].is_leaf for n in path[:-1])


# -- graph algorithm invariants -----------------------------------------------

@given(st.integers(min_value=2, max_value=120),
       st.floats(min_value=1.0, max_value=6.0),
       st.integers(min_value=0, max_value=10 ** 6))
@_settings
def test_bfs_distances_satisfy_triangle_property(n, deg, seed):
    graph = uniform_random_graph(n, deg, seed=seed)
    distances = bfs_reference(graph, 0)
    assert distances[0] == 0
    for v in range(n):
        if distances[v] < 0:
            continue
        for ngh in graph.neighbors_of(v):
            assert distances[ngh] >= 0
            assert abs(distances[ngh] - distances[v]) <= 1


@given(st.integers(min_value=2, max_value=100),
       st.floats(min_value=1.0, max_value=6.0),
       st.integers(min_value=0, max_value=10 ** 6))
@_settings
def test_cc_labels_constant_within_edges(n, deg, seed):
    graph = power_law_graph(n, deg, seed=seed)
    labels = cc_reference(graph)
    for v in range(n):
        for ngh in graph.neighbors_of(v):
            assert labels[v] == labels[ngh]
    # Each component's label is its minimum member id.
    for v in range(n):
        assert labels[v] <= v


# -- SpMM reference vs dense --------------------------------------------------

@given(st.integers(min_value=2, max_value=40),
       st.floats(min_value=0.5, max_value=8.0),
       st.integers(min_value=0, max_value=10 ** 6))
@_settings
def test_spmm_reference_matches_dense_product(n, density, seed):
    matrix = random_sparse_matrix(n, density, seed=seed)
    rows = np.arange(n, dtype=np.int64)
    cols = np.arange(n, dtype=np.int64)
    sparse = spmm_reference(matrix, rows, cols)
    dense = matrix.to_dense() @ matrix.to_dense()
    for (i, j), value in sparse.items():
        assert np.isclose(value, dense[i, j])
    # Every significant dense entry is present in the sparse result.
    for i in range(n):
        for j in range(n):
            if abs(dense[i, j]) > 1e-12:
                assert (i, j) in sparse


# -- exact bulk stall charging ------------------------------------------------


def _unit_steps(x, k):
    for _ in range(k):
        x += 1.0
    return x


_BINADE_EDGES = st.integers(0, 60).flatmap(
    lambda e: st.integers(0, 40).map(
        lambda back: max(0.0, math.nextafter(2.0 ** e, 0.0) - back)))


@given(st.one_of(st.integers(0, 10 ** 7).map(float),      # integral
                 st.floats(0.0, 1e7),                      # fractional
                 _BINADE_EDGES,                            # just below 2**e
                 st.floats(0.0, 1e-300),                   # tiny
                 st.floats(2.0 ** 52, 2.0 ** 56)),         # past 2**53
       st.integers(0, 10 ** 4))
@settings(max_examples=400, deadline=None)
def test_add_units_matches_unit_steps(x, k):
    assert add_units(x, k).hex() == _unit_steps(x, k).hex()

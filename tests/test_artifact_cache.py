"""Compiled artifacts: content addressing and the in-process memo.

Locks the tentpole properties of :mod:`repro.cache`:

* a repeat mapping of an unchanged DFG performs **no placement** (hit
  counters plus a raising stub prove it);
* any observable edit to a kernel — constant, predicate, init
  function — changes its fingerprint (``repro advise --apply``
  compares the hand-marked and auto-split kernels by it);
* nothing outlives the process: the memo takes no root, and a run
  writes no file under ``REPRO_CACHE_DIR`` or ``HOME``.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cache import (ArtifactCache, callable_fingerprint,
                         configure_artifact_cache, get_artifact_cache,
                         kernel_fingerprint, mapping_key)
from repro.cgra import FabricSpec, map_dfg, map_dfg_cached
from repro.config import FabricConfig, SystemConfig
from repro.core import System
from repro.frontend.kernel import GraphKernel
from repro.frontend.kernels import bfs_kernel, cc_kernel, sssp_kernel
from repro.harness.run import (APP_INPUTS, build_cgra_program,
                               prepare_input, resolve_config)
from repro.ir import DFGBuilder, Op, OpKind
from repro.workloads import WORKLOAD_NAMES

SRC = Path(__file__).resolve().parent.parent / "src"


def _fifer_system(app):
    """``(program, System)`` of a fifer build of ``app``'s first input."""
    code = APP_INPUTS[app][0]
    config = resolve_config(app, SystemConfig())
    program, _ = build_cgra_program(prepare_input(app, code, scale=0.05),
                                    config, "fifer", "decoupled")
    return program, System(config, program, mode="fifer")


@pytest.fixture
def memo(monkeypatch):
    """An empty process-wide memo; the test's own is restored after."""
    monkeypatch.setattr("repro.cache.artifacts._GLOBAL", ArtifactCache())
    return get_artifact_cache()


def _fabric():
    return FabricSpec.from_config(FabricConfig())


def _dfg(base=0x1000):
    b = DFGBuilder("enumerate")
    e = b.deq("q_start")
    end = b.deq("q_end")
    addr = b.lea(b.const(base), e)
    b.enq("q_ngh", b.load(addr))
    b.lt(b.add(e, b.const(1)), end)
    return b.finish()


# -- content addressing ----------------------------------------------------


class TestFingerprints:
    def test_kernel_fingerprint_stable_across_builds(self):
        for factory in (bfs_kernel, cc_kernel, sssp_kernel):
            assert (kernel_fingerprint(factory())
                    == kernel_fingerprint(factory())), factory.__name__

    def test_distinct_kernels_distinct_fingerprints(self):
        prints = {kernel_fingerprint(f())
                  for f in (bfs_kernel, cc_kernel, sssp_kernel)}
        assert len(prints) == 3

    def test_editing_a_constant_changes_the_fingerprint(self):
        def variant(threshold):
            k = GraphKernel("bfs")
            k.param("source", 0)
            dist = k.state("distances", init=lambda g, p: np.full(
                g.n_vertices, -1, dtype=np.int64), output=True)
            k.start_from("source", "source")
            v = k.vertex()
            start = k.load(k.offsets, v)
            end = k.load(k.offsets, v + 1)
            with k.edges(start, end) as e:
                ngh = k.load(k.neighbors, e)
                dv = k.load(dist, ngh, owner=True)
                with k.when(dv < threshold):
                    k.store(dist, ngh, k.epoch())
                    k.push(ngh)
            return k

        assert (kernel_fingerprint(variant(0))
                != kernel_fingerprint(variant(1)))

    def test_editing_an_init_function_changes_the_fingerprint(self):
        def variant(fill):
            k = GraphKernel("bfs")

            def init(graph, params):
                return np.full(graph.n_vertices, fill, dtype=np.int64)

            k.state("distances", init=init, output=True)
            k.start_from("all")
            v = k.vertex()
            k.load(k.offsets, v)
            return k

        assert kernel_fingerprint(variant(-1)) != kernel_fingerprint(
            variant(-2))

    def test_callable_fingerprint_sees_closures(self):
        def make(n):
            def fn(x):
                return x + n
            return fn

        assert callable_fingerprint(make(1)) != callable_fingerprint(make(2))
        assert callable_fingerprint(make(3)) == callable_fingerprint(make(3))
        assert callable_fingerprint(None) is None

    def test_mapping_key_tracks_dfg_and_fabric(self):
        fabric = _fabric()
        assert (mapping_key(_dfg(), fabric, None)
                == mapping_key(_dfg(), fabric, None))
        # The mapper reads no constant, queue name or stage name, so
        # the shards of one stage share a key ...
        shard = _dfg(0x2000)
        shard.name = "enumerate@1"
        assert (mapping_key(_dfg(0x1000), fabric, None)
                == mapping_key(shard, fabric, None))
        # ... while another op kind or operand edge changes it.
        other_kind = _dfg()
        add = next(n for n in other_kind.nodes if n.kind is OpKind.ADD)
        add.op = Op(OpKind.SUB)
        rewired = _dfg()
        lea = next(n for n in rewired.nodes if n.kind is OpKind.LEA)
        lea.operands = (lea.operands[0], rewired.inputs()[1])
        for changed in (other_kind, rewired):
            assert (mapping_key(_dfg(), fabric, None)
                    != mapping_key(changed, fabric, None))
        small = FabricSpec.from_config(FabricConfig(cols=8))
        assert (mapping_key(_dfg(), fabric, None)
                != mapping_key(_dfg(), small, None))
        assert (mapping_key(_dfg(), fabric, 2)
                != mapping_key(_dfg(), fabric, None))


# -- the memo ------------------------------------------------------------


class TestArtifactCache:
    def test_memory_roundtrip_and_counters(self):
        cache = ArtifactCache()
        assert cache.get("mapping", "aa" * 32) is None
        cache.put("mapping", "aa" * 32, {"plan": 1})
        assert cache.get("mapping", "aa" * 32) == {"plan": 1}
        assert cache.counters == {"mapping.miss": 1,
                                  "mapping.store": 1,
                                  "mapping.hit": 1}

    def test_configure_starts_an_empty_memo_without_a_root(self, memo,
                                                           tmp_path):
        memo.put("mapping", "key", "value")
        fresh = configure_artifact_cache(None)
        assert fresh is get_artifact_cache() and fresh is not memo
        assert fresh.get("mapping", "key") is None
        with pytest.raises(ValueError, match="in-memory only"):
            configure_artifact_cache(tmp_path)

    def test_run_writes_no_file(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(SRC), HOME=str(tmp_path),
                   REPRO_CACHE_DIR=str(tmp_path))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "run", "bfs", "Hu",
             "--scale", "0.05"], env=env, capture_output=True, text=True,
            timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert list(tmp_path.iterdir()) == []


# -- reuse oracles: no re-mapping ------------------------------------------


class TestCompileReuse:
    def test_repeat_mapping_performs_no_placement(self, memo, monkeypatch):
        fabric = _fabric()
        first = map_dfg_cached(_dfg(), fabric)
        assert memo.counters == {"mapping.miss": 1, "mapping.store": 1}

        def boom(dfg, fabric, max_replication=None):
            raise AssertionError("placement ran on a warm cache")

        monkeypatch.setattr("repro.cgra.mapper.map_dfg", boom)
        second = map_dfg_cached(_dfg(), fabric)
        assert memo.counters["mapping.hit"] == 1
        assert second is first

    def test_mapping_cache_distinguishes_replication_caps(self, memo):
        fabric = _fabric()
        map_dfg_cached(_dfg(), fabric)
        map_dfg_cached(_dfg(), fabric, max_replication=1)
        assert memo.counters["mapping.miss"] == 2

    def test_cached_mapping_equals_uncached(self, memo):
        fabric = _fabric()
        cached = map_dfg_cached(_dfg(), fabric)
        direct = map_dfg(_dfg(), fabric)
        assert cached.render() == direct.render()

    @pytest.mark.parametrize("app", WORKLOAD_NAMES)
    def test_fifer_build_maps_each_distinct_stage_once(self, app, memo):
        program, _ = _fifer_system(app)
        stages = {spec.name.split("@", 1)[0]
                  for pe in program.pe_programs for spec in pe.stage_specs}
        assert memo.counters["mapping.miss"] == len(stages)

    @pytest.mark.parametrize("app", WORKLOAD_NAMES)
    def test_every_shard_mapping_equals_a_fresh_one(self, app, memo):
        program, system = _fifer_system(app)
        for pe in program.pe_programs:
            for spec in pe.stage_specs:
                caps = [cap for cap in (spec.max_replication,
                                        system.config.max_simd_replication)
                        if cap is not None]
                fresh = map_dfg(spec.dfg, system.fabric,
                                min(caps, default=None))
                assert system.mappings[spec.name] == fresh, spec.name

"""The compiled-artifact cache: content addressing, reuse, invalidation.

Locks the tentpole properties of :mod:`repro.cache`:

* a repeat mapping of an unchanged DFG performs **no placement** (hit
  counters plus a raising stub prove it);
* any observable edit to a kernel — constant, predicate, init
  function — changes its fingerprint (``repro advise --apply``
  compares the hand-marked and auto-split kernels by it);
* the disk layer survives process boundaries (modeled as fresh cache
  instances), tolerates corruption, and namespaces by code version;
* ``repro cache stats|gc`` reports and prunes the disk layer.
"""

import json

import numpy as np

from repro.cache import (ArtifactCache, callable_fingerprint,
                         code_version, kernel_fingerprint, mapping_key)
from repro.cgra import FabricSpec, map_dfg, map_dfg_cached
from repro.config import FabricConfig
from repro.frontend.kernel import GraphKernel
from repro.frontend.kernels import bfs_kernel, cc_kernel, sssp_kernel
from repro.ir import DFGBuilder


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
        assert (mapping_key(_dfg(0x1000), fabric, None)
                != mapping_key(_dfg(0x2000), fabric, None))
        small = FabricSpec.from_config(FabricConfig(cols=8))
        assert (mapping_key(_dfg(), fabric, None)
                != mapping_key(_dfg(), small, None))
        assert (mapping_key(_dfg(), fabric, 2)
                != mapping_key(_dfg(), fabric, None))

    def test_code_version_is_stable_hex(self):
        assert code_version() == code_version()
        assert len(code_version()) == 64


# -- the two-layer store ---------------------------------------------------


class TestArtifactCache:
    def test_memory_roundtrip_and_counters(self):
        cache = ArtifactCache()
        assert cache.get("mapping", "aa" * 32) is None
        cache.put("mapping", "aa" * 32, {"plan": 1})
        assert cache.get("mapping", "aa" * 32) == {"plan": 1}
        assert cache.counters == {"mapping.miss": 1,
                                  "mapping.store": 1,
                                  "mapping.hit": 1}

    def test_disk_layer_survives_process_boundary(self, tmp_path):
        key = "bb" * 32
        first = ArtifactCache(root=tmp_path)
        first.put("codegen", key, {"stages": [1, 2]})
        # a new instance models a fresh process: memory empty, disk warm
        second = ArtifactCache(root=tmp_path)
        assert second.get("codegen", key) == {"stages": [1, 2]}
        assert second.counters["codegen.disk_hit"] == 1
        # and the entry was promoted into memory
        assert second.get("codegen", key) == {"stages": [1, 2]}
        assert second.counters["codegen.hit"] == 2
        assert second.counters["codegen.disk_hit"] == 1

    def test_corrupt_disk_entry_is_a_miss_and_removed(self, tmp_path):
        key = "dd" * 32
        cache = ArtifactCache(root=tmp_path)
        cache.put("codegen", key, {"ok": True})
        path = cache._disk_path("codegen", key)
        path.write_bytes(b"{truncated")
        fresh = ArtifactCache(root=tmp_path)
        assert fresh.get("codegen", key) is None
        assert fresh.counters["codegen.disk_read_error"] == 1
        assert not path.exists()

    def test_gc_prunes_stale_code_versions(self, tmp_path):
        cache = ArtifactCache(root=tmp_path)
        cache.put("codegen", "ee" * 32, {"v": 1})
        stale = tmp_path / "artifacts" / ("0" * 16)
        stale.mkdir(parents=True)
        (stale / "junk.json").write_text("{}")
        stats = cache.stats()
        assert stats["disk"]["stale_versions"] == 1
        removed = cache.gc()
        assert removed["removed_dirs"] == 1
        assert cache.stats()["disk"]["stale_versions"] == 0
        assert cache.get("codegen", "ee" * 32) == {"v": 1}
        removed = cache.gc(all_versions=True)
        assert removed["removed_dirs"] == 1
        assert ArtifactCache(root=tmp_path).get("codegen",
                                                "ee" * 32) is None


# -- reuse oracles: no re-mapping ------------------------------------------


class TestCompileReuse:
    def test_repeat_mapping_performs_no_placement(self, monkeypatch):
        cache = ArtifactCache()
        fabric = _fabric()
        first = map_dfg_cached(_dfg(), fabric, cache=cache)
        assert cache.counters == {"mapping.miss": 1, "mapping.store": 1}

        def boom(dfg, fabric, max_replication=None):
            raise AssertionError("placement ran on a warm cache")

        monkeypatch.setattr("repro.cgra.mapper.map_dfg", boom)
        second = map_dfg_cached(_dfg(), fabric, cache=cache)
        assert cache.counters["mapping.hit"] == 1
        assert second is first

    def test_mapping_cache_distinguishes_replication_caps(self):
        cache = ArtifactCache()
        fabric = _fabric()
        map_dfg_cached(_dfg(), fabric, cache=cache)
        map_dfg_cached(_dfg(), fabric, max_replication=1, cache=cache)
        assert cache.counters["mapping.miss"] == 2

    def test_cached_mapping_equals_uncached(self):
        cache = ArtifactCache()
        fabric = _fabric()
        cached = map_dfg_cached(_dfg(), fabric, cache=cache)
        direct = map_dfg(_dfg(), fabric)
        assert cached.render() == direct.render()

    def test_mapping_persists_across_processes(self, tmp_path):
        fabric = _fabric()
        first = ArtifactCache(root=tmp_path)
        map_dfg_cached(_dfg(), fabric, cache=first)
        fresh = ArtifactCache(root=tmp_path)
        map_dfg_cached(_dfg(), fabric, cache=fresh)
        assert fresh.counters["mapping.disk_hit"] == 1


class TestCacheCli:
    def test_stats_and_gc(self, tmp_path, monkeypatch, capsys):
        from repro.cache import configure_artifact_cache
        from repro.cli import main as cli_main

        def cache_cli(*argv):
            assert cli_main(["cache", *argv,
                             "--cache-dir", str(tmp_path)]) == 0
            return json.loads(capsys.readouterr().out)

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        configure_artifact_cache(tmp_path)
        try:
            assert cli_main(["compile", "sssp", "--emit-python"]) == 0
            capsys.readouterr()
            stats = cache_cli("stats")
            assert set(stats) == {"root", "artifacts"}
            assert stats["artifacts"]["disk"]["entries"] > 0
            assert cache_cli("gc", "--all")["artifacts"]["removed_dirs"] == 1
            assert cache_cli("stats")["artifacts"]["disk"]["entries"] == 0
        finally:
            configure_artifact_cache(None)

    def test_default_root_is_the_one_inspected(self, tmp_path, monkeypatch,
                                               capsys):
        # With neither --cache-dir nor REPRO_CACHE_DIR, stats and gc
        # printed ~/.cache/repro but read the memory-only process cache.
        from repro.cli import main as cli_main

        monkeypatch.setenv("HOME", str(tmp_path))
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        root = tmp_path / ".cache" / "repro"
        ArtifactCache(root=root).put("codegen", "ab" * 32, {"source": ""})

        def cache_cli(*argv):
            assert cli_main(["cache", *argv]) == 0
            return json.loads(capsys.readouterr().out)

        stats = cache_cli("stats")
        assert stats["root"] == str(root)
        assert stats["artifacts"]["disk"]["entries"] == 1
        assert cache_cli("gc", "--all")["artifacts"]["removed_dirs"] == 1
        assert list((root / "artifacts").iterdir()) == []
        assert cache_cli("stats")["artifacts"]["disk"]["entries"] == 0

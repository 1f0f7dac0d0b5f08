"""The codegen backend: determinism and caching.

Locks the properties of :mod:`repro.codegen`:

* source generation is **deterministic** — the interp stage shape and
  every DRM shape emit byte-identical Python, so the text
  content-addresses cleanly under the artifact cache's ``codegen``
  kind;
* a warm cache performs **zero source generation** (emission counter
  plus a raising stub prove it), both within a process and across a
  process boundary via the disk layer.

The generated code's behaviour is checked call by call against its
oracles in tests/test_interp_codegen.py and tests/test_drm_codegen.py.
"""

import pytest

from repro.cache.artifacts import ArtifactCache
from repro.codegen import (CODEGEN_VERSION, INTERP, DrmShape, drm_source,
                           emitted_count, source_for, stage_source)
from repro.harness import prepare_input, run_experiment

#: The interp stage shape and a spread of DRM shapes.
SHAPES = (INTERP, DrmShape("scan"), DrmShape("deref"),
          DrmShape("deref", width=3, payload=True),
          DrmShape("deref", payload=True, routed=True, credited_out=True),
          DrmShape("scan", credited_out=True, credited_in=True))


def _emit(shape) -> str:
    return (drm_source if isinstance(shape, DrmShape) else stage_source)(
        shape)


@pytest.fixture(scope="module")
def bfs_prepared():
    return prepare_input("bfs", "Hu", scale=0.1)


# -- determinism ----------------------------------------------------------


class TestDeterminism:

    def test_same_shape_emits_identical_source(self):
        for shape in SHAPES:
            again = type(shape)(**vars(shape))
            assert _emit(shape) == _emit(again)
            assert shape.key() == again.key()

    def test_distinct_shapes_distinct_sources(self):
        assert len({shape.key() for shape in SHAPES}) == len(SHAPES)
        assert len({_emit(shape) for shape in SHAPES}) == len(SHAPES)

    def test_key_is_versioned(self):
        for shape in SHAPES:
            assert f" v={CODEGEN_VERSION}\n" in _emit(shape)
            # The key is a stable hex digest (cache addressing).
            key = shape.key()
            assert key == shape.key()
            int(key, 16)

    def test_shards_share_shapes(self, bfs_prepared, monkeypatch):
        """Every stage of every shard binds the one interp factory, so a
        16-PE system compiles one stage step-function body."""
        from repro.core import System
        systems = []
        real_run = System.run

        def spy(system, *args, **kwargs):
            systems.append(system)
            return real_run(system, *args, **kwargs)

        monkeypatch.setattr(System, "run", spy)
        run_experiment("bfs", "Hu", "fifer", prepared=bfs_prepared)
        [system] = systems
        codes = {stage.step_fn.__code__
                 for pe in system.pes for stage in pe.stages}
        assert len(codes) == 1
        assert codes.pop().co_filename == "<repro.codegen:interp>"

    def test_generated_source_compiles(self):
        for shape in SHAPES:
            namespace: dict = {}
            exec(compile(_emit(shape), "<test>", "exec"), namespace)
            assert callable(namespace["make_step"]), shape.name


# -- caching: warm runs perform zero source generation --------------------


class TestCaching:

    def test_miss_store_hit_counters(self, tmp_path):
        cache = ArtifactCache(root=tmp_path)
        before = emitted_count()
        first = source_for(INTERP, cache)
        assert emitted_count() == before + 1
        assert cache.counters["codegen.miss"] == 1
        assert cache.counters["codegen.store"] == 1
        second = source_for(INTERP, cache)
        assert second == first
        assert cache.counters["codegen.hit"] == 1
        assert emitted_count() == before + 1  # no second generation

    def test_disk_layer_survives_process_boundary(self, tmp_path,
                                                  monkeypatch):
        warm = ArtifactCache(root=tmp_path)
        first = source_for(INTERP, warm)
        # A "new process": fresh cache instance over the same root,
        # with the emitter rigged to blow up if invoked.
        def boom(_shape):
            raise AssertionError("warm run generated source")
        monkeypatch.setattr("repro.codegen.runtime.stage_source", boom)
        fresh = ArtifactCache(root=tmp_path)
        assert source_for(INTERP, fresh) == first
        assert fresh.counters["codegen.disk_hit"] == 1

    def test_warm_bind_generates_nothing(self, bfs_prepared, monkeypatch):
        """After one run, rebinding (a repeat run in the same process)
        must not emit source, for stages or DRMs: the raising stubs
        prove neither the artifact cache nor the factory cache falls
        through."""
        first = run_experiment("bfs", "Hu", "fifer", prepared=bfs_prepared)
        def boom(_shape):
            raise AssertionError("warm bind generated source")
        monkeypatch.setattr("repro.codegen.runtime.stage_source", boom)
        monkeypatch.setattr("repro.codegen.runtime.drm_source", boom)
        before = emitted_count()
        again = run_experiment("bfs", "Hu", "fifer", prepared=bfs_prepared)
        assert emitted_count() == before
        assert again.cycles == first.cycles


class TestEnvKnobs:

    def test_bench_engine_knob_validated(self, monkeypatch):
        from repro.env import EnvKnobError, env_choice
        from repro.core import ENGINES
        monkeypatch.setenv("REPRO_BENCH_ENGINE", "warp")
        with pytest.raises(EnvKnobError, match="REPRO_BENCH_ENGINE"):
            env_choice("REPRO_BENCH_ENGINE", "fast", ENGINES)

"""The codegen backend: determinism and the compiled-code memo.

Locks the properties of :mod:`repro.codegen`:

* source generation is **deterministic** — the interp stage shape and
  every DRM shape emit byte-identical Python, so a shape can key the
  memo of compiled step-functions;
* a warm run performs **zero source generation and placement**
  (emission counter plus raising stubs prove it).

The generated code's behaviour is checked call by call against its
oracles in tests/test_interp_codegen.py and tests/test_drm_codegen.py.
"""

import pytest

from repro.codegen import (INTERP, DrmShape, drm_source, emitted_count,
                           source_for, stage_source)
from repro.codegen.runtime import _factory_for
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
            assert shape == again and hash(shape) == hash(again)

    def test_distinct_shapes_distinct_sources(self):
        assert len({shape.name for shape in SHAPES}) == len(SHAPES)
        assert len({_emit(shape) for shape in SHAPES}) == len(SHAPES)
        for shape in SHAPES:
            assert f"# shape: {shape.name}\n" in _emit(shape)

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


# -- the memo: warm runs perform zero source generation ------------------


class TestCaching:

    def test_miss_store_hit_counters(self, monkeypatch):
        """A miss generates, compiles and stores one factory per shape;
        a hit returns it without generating."""
        monkeypatch.setattr("repro.codegen.runtime._FACTORY", {})
        before = emitted_count()
        first = _factory_for(INTERP)
        assert emitted_count() == before + 1
        assert _factory_for(INTERP) is first
        assert emitted_count() == before + 1  # no second generation
        assert source_for(INTERP) == stage_source(INTERP)
        assert emitted_count() == before + 1  # source_for is not counted

    def test_warm_bind_generates_nothing(self, bfs_prepared, monkeypatch):
        """After one run, a repeat run in the same process must neither
        place a stage nor emit source, for stages or DRMs: the raising
        stubs prove neither the mapping memo nor the compiled-code memo
        falls through."""
        first = run_experiment("bfs", "Hu", "fifer", prepared=bfs_prepared)
        def boom(*_args, **_kwargs):
            raise AssertionError("warm run placed or generated")
        monkeypatch.setattr("repro.cgra.mapper.map_dfg", boom)
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

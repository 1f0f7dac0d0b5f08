"""The codegen backend: determinism and the compiled-code memo.

Locks the properties of :mod:`repro.codegen`:

* source generation is **deterministic** — every DRM shape emits
  byte-identical Python, so a shape can key the memo of compiled
  step-functions;
* binding a stage generates no source: every stage shares the one
  hand-written request loop of :func:`make_interp_step`;
* a cold run generates each DRM shape once, and a warm run performs
  **zero source generation and placement** (emission counter plus
  raising stubs prove it).

The step-functions' behaviour is checked call by call against their
oracles in tests/test_interp_codegen.py and tests/test_drm_codegen.py.
"""

import types

import pytest

from repro.codegen import DrmShape, drm_source, emitted_count
from repro.codegen.interp import make_interp_step
from repro.codegen.runtime import _factory_for
from repro.harness import prepare_input, run_experiment

#: A spread of DRM shapes.
SHAPES = (DrmShape("scan"), DrmShape("deref"),
          DrmShape("deref", width=3, payload=True),
          DrmShape("deref", payload=True, routed=True, credited_out=True),
          DrmShape("scan", credited_out=True, credited_in=True))

#: The code object of the step-function make_interp_step returns.
[STEP_CODE] = [const for const in make_interp_step.__code__.co_consts
               if isinstance(const, types.CodeType)]


@pytest.fixture(scope="module")
def bfs_prepared():
    return prepare_input("bfs", "Hu", scale=0.1)


# -- determinism ----------------------------------------------------------


class TestDeterminism:

    def test_same_shape_emits_identical_source(self):
        for shape in SHAPES:
            again = type(shape)(**vars(shape))
            assert drm_source(shape) == drm_source(again)
            assert shape == again and hash(shape) == hash(again)

    def test_distinct_shapes_distinct_sources(self):
        assert len({shape.name for shape in SHAPES}) == len(SHAPES)
        assert len({drm_source(shape) for shape in SHAPES}) == len(SHAPES)
        for shape in SHAPES:
            assert f"# shape: {shape.name}\n" in drm_source(shape)

    def test_shards_share_shapes(self, bfs_prepared, monkeypatch):
        """Every stage of every shard binds a closure of the one
        hand-written request loop, so a 16-PE system shares one stage
        code object and generates no stage source."""
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
        assert codes == {STEP_CODE}

    def test_generated_source_compiles(self):
        for shape in SHAPES:
            namespace: dict = {}
            exec(compile(drm_source(shape), "<test>", "exec"), namespace)
            assert callable(namespace["make_step"]), shape.name


# -- the memo: warm runs perform zero source generation ------------------


class TestCaching:

    def test_miss_store_hit_counters(self, monkeypatch):
        """A miss generates, compiles and stores one factory per shape;
        a hit returns it without generating."""
        monkeypatch.setattr("repro.codegen.runtime._FACTORY", {})
        shape = DrmShape("scan")
        before = emitted_count()
        first = _factory_for(shape)
        assert emitted_count() == before + 1
        assert _factory_for(shape) is first
        assert emitted_count() == before + 1  # no second generation
        drm_source(shape)
        assert emitted_count() == before + 1  # drm_source is not counted

    def test_warm_bind_generates_nothing(self, bfs_prepared, monkeypatch):
        """A cold run generates each distinct DRM shape it binds once (a
        fifer bfs run binds four), and no stage source. A repeat run in
        the same process must neither place a stage nor emit source:
        the raising stubs prove neither the mapping memo nor the
        compiled-code memo falls through."""
        factories: dict = {}
        monkeypatch.setattr("repro.codegen.runtime._FACTORY", factories)
        before = emitted_count()
        first = run_experiment("bfs", "Hu", "fifer", prepared=bfs_prepared)
        assert len(factories) == 4
        assert emitted_count() == before + len(factories)

        def boom(*_args, **_kwargs):
            raise AssertionError("warm run placed or generated")
        monkeypatch.setattr("repro.cgra.mapper.map_dfg", boom)
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

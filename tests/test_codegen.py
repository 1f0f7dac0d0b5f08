"""The codegen backend: determinism, caching, fallback, and the CLI.

Locks the tentpole properties of :mod:`repro.codegen`:

* source generation is **deterministic** — the same stage shape emits
  byte-identical Python, so the text content-addresses cleanly under
  the artifact cache's ``codegen`` kind;
* a warm cache performs **zero source generation** (emission counter
  plus a raising stub prove it), both within a process and across a
  process boundary via the disk layer;
* stages without a codegen descriptor (spmm, silo) **fall back** to
  the interpreted coroutine path instead of erroring, and the run
  reports bound/fallback counts in ``engine_stats``;
* ``repro compile --emit-python`` dumps the exact source the binder
  would execute.
"""

import json

import pytest

from repro.cache.artifacts import ArtifactCache
from repro.cli import main as cli_main
from repro.codegen import (CODEGEN_VERSION, ROLES, StageShape, bind_system,
                           emitted_count, source_for, stage_source)
from repro.harness import prepare_input, run_experiment
from repro.frontend import get_frontend
from repro.ir import DFGBuilder


@pytest.fixture(scope="module")
def bfs_prepared():
    return prepare_input("bfs", "Hu", scale=0.1)


def _bfs_workload(n_shards=2):
    return get_frontend("bfs").workload(
        prepare_input("bfs", "Hu", scale=0.1).data, n_shards)


def _bfs_shapes():
    """The four stage shapes of a bfs shard, via the descriptor hook."""
    specs = _bfs_workload()._shard_stage_specs(0)
    return {key: specs[key].codegen[0] for key in ("s0", "s1", "s2", "s3")}


# -- determinism ----------------------------------------------------------


class TestDeterminism:

    def test_same_shape_emits_identical_source(self):
        for role in ROLES:
            shape = StageShape(role, simple_edges=True)
            again = StageShape(role, simple_edges=True)
            assert stage_source(shape) == stage_source(again)
            assert shape.key() == again.key()

    def test_distinct_shapes_distinct_sources(self):
        keys, sources = set(), set()
        for role in ROLES:
            for simple in (False, True):
                shape = StageShape(role, simple_edges=simple)
                keys.add(shape.key())
                sources.add(stage_source(shape))
        # s0/s3 don't read simple_edges, so their sources collapse —
        # but every (role, simple_edges) pair still has its own key.
        assert len(keys) == len(ROLES) * 2
        assert len(sources) >= len(ROLES)

    def test_key_is_versioned(self):
        shape = StageShape("s1", simple_edges=True)
        assert CODEGEN_VERSION in repr(stage_source(shape))
        # The key is a stable hex digest (cache addressing).
        key = shape.key()
        assert key == shape.key()
        int(key, 16)

    def test_shards_share_shapes(self):
        """Every shard of a workload maps to the same four shapes, so a
        16-PE system compiles at most four step-function bodies."""
        workload = _bfs_workload(n_shards=4)
        keys = set()
        for shard in range(4):
            specs = workload._shard_stage_specs(shard)
            keys.update(specs[k].codegen[0].key()
                        for k in ("s0", "s1", "s2", "s3"))
        assert len(keys) == 4

    def test_generated_source_compiles(self):
        for key, shape in _bfs_shapes().items():
            source = stage_source(shape)
            namespace: dict = {}
            exec(compile(source, "<test>", "exec"), namespace)
            assert callable(namespace["make_step"]), key


# -- caching: warm runs perform zero source generation --------------------


class TestCaching:

    def test_miss_store_hit_counters(self, tmp_path):
        cache = ArtifactCache(root=tmp_path)
        shape = _bfs_shapes()["s1"]
        before = emitted_count()
        first = source_for(shape, cache)
        assert emitted_count() == before + 1
        assert cache.counters["codegen.miss"] == 1
        assert cache.counters["codegen.store"] == 1
        second = source_for(shape, cache)
        assert second == first
        assert cache.counters["codegen.hit"] == 1
        assert emitted_count() == before + 1  # no second generation

    def test_disk_layer_survives_process_boundary(self, tmp_path,
                                                  monkeypatch):
        shape = _bfs_shapes()["s1"]
        warm = ArtifactCache(root=tmp_path)
        first = source_for(shape, warm)
        # A "new process": fresh cache instance over the same root,
        # with the emitter rigged to blow up if invoked.
        def boom(_shape):
            raise AssertionError("warm run generated source")
        monkeypatch.setattr("repro.codegen.runtime.stage_source", boom)
        fresh = ArtifactCache(root=tmp_path)
        assert source_for(shape, fresh) == first
        assert fresh.counters["codegen.disk_hit"] == 1

    def test_warm_bind_generates_nothing(self, bfs_prepared, monkeypatch):
        """After one codegen run, rebinding (a repeat run in the same
        process) must not emit source, for stages or DRMs: the raising
        stubs prove neither the artifact cache nor the factory cache
        falls through. The fast engine binds DRMs with stage codegen
        off too, so that run must not emit either."""
        run_experiment("bfs", "Hu", "fifer", prepared=bfs_prepared,
                       codegen=True)
        def boom(_shape):
            raise AssertionError("warm bind generated source")
        monkeypatch.setattr("repro.codegen.runtime.stage_source", boom)
        monkeypatch.setattr("repro.codegen.runtime.drm_source", boom)
        before = emitted_count()
        res = run_experiment("bfs", "Hu", "fifer", prepared=bfs_prepared,
                             codegen=True)
        interp = run_experiment("bfs", "Hu", "fifer",
                                prepared=bfs_prepared, codegen=False)
        assert emitted_count() == before
        assert res.raw.engine_stats["codegen_stages"] == 64
        assert interp.cycles == res.cycles


# -- fallback -------------------------------------------------------------


class TestFallback:

    def test_graph_apps_bind_all_stages(self, bfs_prepared):
        res = run_experiment("bfs", "Hu", "fifer", prepared=bfs_prepared,
                             codegen=True)
        stats = res.raw.engine_stats
        assert stats["codegen_stages"] == 64
        assert stats["codegen_fallback"] == 0

    @pytest.mark.parametrize("app,code,scale", [("spmm", "GE", 0.1),
                                                ("silo", "YC", 1.0)])
    def test_undescribed_stages_fall_back(self, app, code, scale):
        """Workloads without codegen descriptors run unchanged on the
        interpreted path — same cycles, fallback counted, no error."""
        prepared = prepare_input(app, code, scale=scale)
        interp = run_experiment(app, code, "fifer", prepared=prepared,
                                codegen=False)
        compiled = run_experiment(app, code, "fifer", prepared=prepared,
                                  codegen=True)
        assert compiled.raw.cycles == interp.raw.cycles
        stats = compiled.raw.engine_stats
        assert stats["codegen_stages"] == 0
        assert stats["codegen_fallback"] == 64

    def test_signature_mismatch_falls_back(self, bfs_prepared):
        """A descriptor whose queue contract disagrees with the stage
        DFG is rejected at bind time (defensive fallback, not a wrong
        answer)."""
        from repro.config import SystemConfig
        from repro.core import System
        from repro.workloads import bfs as bfs_mod
        program, _workload = bfs_mod.build(bfs_prepared.data,
                                           SystemConfig(), "fifer")
        system = System(SystemConfig(), program, mode="fifer")
        # Corrupt one spec's recorded contract.
        stage = system.pes[0].stages[0]
        shape, bindings = stage.spec.codegen
        bad = dict(bindings)
        bad["consumed"] = frozenset({"no.such.queue"})
        object.__setattr__(stage.spec, "codegen", (shape, bad))
        bound, fallback = bind_system(system)
        assert fallback >= 1
        assert bound + fallback == sum(len(pe.stages) for pe in system.pes)

    def test_interp_run_clears_stale_step_fns(self, bfs_prepared):
        """Toggling codegen off on the same System really re-interprets
        (stale step-functions are dropped, not silently reused): the
        fast engine drives every coroutine with the generic interp
        step-function, the naive engine with PE._execute."""
        from repro.config import SystemConfig
        from repro.core import System
        from repro.workloads import bfs as bfs_mod
        program, _workload = bfs_mod.build(bfs_prepared.data,
                                           SystemConfig(), "fifer")
        system = System(SystemConfig(), program, mode="fifer")
        bind_system(system)
        assert any(s.step_fn is not None
                   for pe in system.pes for s in pe.stages)
        system.run(codegen=False)
        assert all(s.step_fn.__code__.co_filename == "<repro.codegen:interp>"
                   for pe in system.pes for s in pe.stages)
        system.run(codegen=False, engine="naive")
        assert all(s.step_fn is None
                   for pe in system.pes for s in pe.stages)

    @pytest.mark.parametrize("mode", ["static", "fifer"])
    def test_bound_stages_build_no_coroutine(self, bfs_prepared, mode):
        """A stage its step-function drives never builds the interpreted
        coroutine, so a finished System holds no unrun generator whose
        close() would enter workload code when the collector frees it."""
        from repro.config import SystemConfig
        from repro.core import System
        from repro.workloads import bfs as bfs_mod

        def run(codegen):
            program, _workload = bfs_mod.build(bfs_prepared.data,
                                               SystemConfig(), mode)
            system = System(SystemConfig(), program, mode=mode)
            return system, system.run(codegen=codegen)

        system, compiled = run(True)
        bound = [s for pe in system.pes for s in pe.stages
                 if s.step_fn is not None]
        assert len(bound) == compiled.engine_stats["codegen_stages"] > 0
        assert all(s.gen is None for s in bound)
        _system, interp = run(False)
        assert compiled.cycles == interp.cycles


# -- the IR walker the binder cross-checks against ------------------------


def test_iter_queue_ops_and_signature():
    b = DFGBuilder("walker")
    x = b.deq("q_in")
    b.enq("q_out", b.add(x, b.const(1)))
    b.enq("q_out", x)
    dfg = b.finish()
    ops = list(dfg.iter_queue_ops())
    assert ops == [("deq", "q_in"), ("enq", "q_out"), ("enq", "q_out")]
    assert dfg.queue_signature() == (frozenset({"q_in"}),
                                     frozenset({"q_out"}))


# -- the CLI dump ---------------------------------------------------------


class TestEmitPythonCLI:

    def test_dumps_all_stages(self, capsys):
        assert cli_main(["compile", "bfs", "--emit-python"]) == 0
        out = capsys.readouterr().out
        assert out.count("# stage ") == 4
        assert "def make_step(pe, stage, b):" in out

    def test_single_stage_json_matches_generated_source(self, capsys):
        assert cli_main(["compile", "bfs", "--emit-python", "--json",
                         "--stage", "1"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["role"] == "s1"
        # Round-trip: rebuild the shape from the dumped header and
        # confirm the CLI printed exactly what the emitter generates.
        header = next(line for line in record["source"].splitlines()
                      if line.startswith("# shape:"))
        shape = StageShape("s1",
                           simple_edges="simple_edges=True" in header)
        assert record["source"] == stage_source(shape)
        assert record["key"] == shape.key()

    def test_stage_out_of_range_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["compile", "bfs", "--emit-python", "--stage", "7"])


# -- env knobs ------------------------------------------------------------


class TestEnvKnobs:

    def test_codegen_flag_spellings(self, monkeypatch):
        from repro.env import EnvKnobError, env_flag
        for raw, expected in (("1", True), ("true", True), ("ON", True),
                              ("0", False), ("off", False)):
            monkeypatch.setenv("REPRO_CODEGEN", raw)
            assert env_flag("REPRO_CODEGEN") is expected
        monkeypatch.setenv("REPRO_CODEGEN", "maybe")
        with pytest.raises(EnvKnobError, match="REPRO_CODEGEN"):
            env_flag("REPRO_CODEGEN")

    def test_run_honors_env_default(self, bfs_prepared, monkeypatch):
        monkeypatch.setenv("REPRO_CODEGEN", "1")
        res = run_experiment("bfs", "Hu", "fifer", prepared=bfs_prepared)
        assert res.raw.engine_stats["codegen_stages"] == 64

    def test_bench_engine_knob_validated(self, monkeypatch):
        from repro.env import EnvKnobError, env_choice
        from repro.core import ENGINES
        monkeypatch.setenv("REPRO_BENCH_ENGINE", "warp")
        with pytest.raises(EnvKnobError, match="REPRO_BENCH_ENGINE"):
            env_choice("REPRO_BENCH_ENGINE", "fast", ENGINES)

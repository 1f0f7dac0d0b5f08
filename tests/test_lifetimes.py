"""A finished run frees itself: nothing a run builds holds a strong
reference back to its owner, so reference counting alone frees the
``System`` and everything in it as soon as the caller drops the result.

Each case runs one experiment with the cyclic garbage collector off
and drops the result (or the exception). Then:

* weak references to the ``System``, a PE, a stage, a DRM, a queue, an
  L1 and the workload must be dead;
* a collection must find none of those objects' kinds, no
  step-function (a DRM's generated one, ``<repro.codegen:…>``, or a
  stage's, defined in ``repro/codegen/interp.py``) and no compiled
  kernel expression (``<kernel …>``);
* everything it does find must hang off a known leftover, counted by
  kind: DFG nodes joined by a register back-edge, telemetry objects
  the caller owns, and the standard library JSON encoder's closures.
"""

import gc
import io
import json.encoder
import types
import weakref

import pytest

import repro.codegen.interp as codegen_interp
import repro.harness.run as harness_run
from repro.core import System
from repro.core.system import SimulationTimeout
from repro.harness import APP_INPUTS, prepare_input, run_experiment
from repro.ir.dfg import Node
from repro.ir.ops import OpKind
from repro.stats import telemetry
from repro.stats.telemetry import EventBus, JsonlSink, PeriodicSampler

SCALE = 0.05


@pytest.fixture
def built(monkeypatch):
    """Weak references to what ``System(...)`` and
    ``build_cgra_program`` build during a case, by name, plus the
    back-edge count of the built stage DFGs and the types built."""
    refs = {}
    record = {"refs": refs, "back_edges": 0, "types": set()}
    init = System.__init__
    build = harness_run.build_cgra_program

    def track(name, obj):
        refs[name] = weakref.ref(obj)
        record["types"].add(type(obj))

    def tracked_init(system, *args, **kwargs):
        init(system, *args, **kwargs)
        pe = next(pe for pe in system.pes if pe.drms)
        track("system", system)
        track("pe", pe)
        track("stage", pe.stages[0])
        track("drm", pe.drms[0])
        track("queue", pe.drms[0].in_q)
        track("l1", pe.l1)

    def tracked_build(*args, **kwargs):
        program, workload = build(*args, **kwargs)
        track("workload", workload)
        record["back_edges"] += sum(
            1 for pe_program in program.pe_programs
            for spec in pe_program.stage_specs
            for node in spec.dfg.nodes
            if node.kind is OpKind.REG and node.operands)
        return program, workload

    monkeypatch.setattr(System, "__init__", tracked_init)
    monkeypatch.setattr(harness_run, "build_cgra_program", tracked_build)
    return record


def _garbage_of(run, refs) -> list:
    """Call ``run`` with the collector off; check every tracked object
    died with it, then return what a collection finds."""
    gc.collect()
    gc.disable()
    try:
        run()
        alive = sorted(name for name, ref in refs.items()
                       if ref() is not None)
        saved = len(gc.garbage)
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        garbage = gc.garbage[saved:]
        del gc.garbage[saved:]
    finally:
        gc.set_debug(0)
        gc.enable()
    assert not alive, f"still alive after the run was dropped: {alive}"
    return garbage


def _leftovers(garbage) -> dict:
    """The known leftovers among ``garbage``, by kind."""
    kinds = {"back-edge": [], "telemetry": [], "json": []}
    for obj in garbage:
        if isinstance(obj, Node):
            if obj.kind is OpKind.REG and obj.operands:
                kinds["back-edge"].append(obj)
        elif type(obj).__module__ == telemetry.__name__:
            kinds["telemetry"].append(obj)
        elif (isinstance(obj, types.FunctionType)
              and obj.__code__.co_filename == json.encoder.__file__):
            kinds["json"].append(obj)
    return kinds


def _unexplained(garbage, roots) -> list:
    """The objects of ``garbage`` no known leftover reaches."""
    ids = {id(obj) for obj in garbage}
    seen = set()
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) not in seen:
            seen.add(id(obj))
            stack.extend(ref for ref in gc.get_referents(obj)
                         if id(ref) in ids)
    return [obj for obj in garbage if id(obj) not in seen]


def _check(record, run, allowed=("back-edge",)) -> dict:
    """Run one case; return the count of each kind of leftover."""
    garbage = _garbage_of(run, record["refs"])
    built_types = tuple(record["types"])
    assert not [obj for obj in garbage if isinstance(obj, built_types)]
    filenames = [obj.__code__.co_filename for obj in garbage
                 if isinstance(obj, types.FunctionType)]
    leaked = [name for name in filenames
              if name.startswith(("<repro.codegen:", "<kernel "))
              or name == codegen_interp.__file__]
    assert not leaked, leaked
    kinds = _leftovers(garbage)
    roots = [obj for kind in allowed for obj in kinds[kind]]
    unexplained = _unexplained(garbage, roots)
    assert not unexplained, sorted({type(obj).__name__
                                    for obj in unexplained})
    counts = {kind: len(objs) for kind, objs in kinds.items() if objs}
    assert set(counts) <= set(allowed), counts
    assert counts.get("back-edge", 0) <= record["back_edges"]
    return counts


def _prepared(app: str):
    return prepare_input(app, APP_INPUTS[app][0], scale=SCALE, seed=1)


@pytest.mark.parametrize("system", ["static", "fifer"])
@pytest.mark.parametrize("app", sorted(APP_INPUTS))
def test_cgra_run_frees_itself(built, app, system):
    prepared = _prepared(app)
    _check(built, lambda: run_experiment(
        app, prepared.code, system, prepared=prepared))
    assert set(built["refs"]) == {"system", "pe", "stage", "drm",
                                  "queue", "l1", "workload"}


def test_naive_run_frees_itself(built):
    prepared = _prepared("cc")
    _check(built, lambda: run_experiment(
        "cc", prepared.code, "static", prepared=prepared, engine="naive"))


@pytest.mark.parametrize("system", ["serial", "multicore"])
def test_ooo_run_with_manifest_frees_itself(built, system, tmp_path):
    """The analytic points build no System; writing the manifest
    leaves only the JSON encoder's closures."""
    prepared = _prepared("radii")
    counts = _check(built, lambda: run_experiment(
        "radii", prepared.code, system, prepared=prepared,
        manifest_dir=tmp_path), allowed=("json",))
    assert not built["refs"]
    assert counts["json"] > 0


def test_profiled_run_frees_itself(built):
    prepared = _prepared("bfs")
    _check(built, lambda: run_experiment(
        "bfs", prepared.code, "fifer", prepared=prepared, profile=True))


def test_traced_run_frees_itself(built):
    """A run with a JSONL sink: what is left of the caller's event bus
    is the caller's."""
    prepared = _prepared("bfs")

    def run():
        bus = EventBus()
        sink = bus.subscribe(JsonlSink(io.StringIO()))
        bus.add_sampler(PeriodicSampler(512))
        run_experiment("bfs", prepared.code, "fifer", prepared=prepared,
                       telemetry=bus)
        bus.close()
        assert sink.n_events == bus.seq > 0

    counts = _check(built, run, allowed=("back-edge", "telemetry"))
    assert counts["telemetry"] > 0


def test_timed_out_run_frees_itself(built):
    """Dropping the SimulationTimeout frees the truncated run."""
    prepared = _prepared("sssp")

    def run():
        try:
            run_experiment("sssp", prepared.code, "fifer",
                           prepared=prepared, max_cycles=2000)
        except SimulationTimeout:
            return
        pytest.fail("the run did not time out")

    _check(built, run)
    assert "system" in built["refs"]

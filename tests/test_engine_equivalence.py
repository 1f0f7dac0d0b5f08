"""Differential suite: the fast engine must be cycle-exact.

The fast engine (``engine="fast"``) bulk-charges blocked spans instead
of ticking them cycle by cycle and jumps fully quiescent systems to
their deadlock/timeout horizon (docs/performance.md). These tests lock
it down against the naive per-cycle reference: for every workload,
final cycle counts, per-PE counters, CPI stacks, cache and memory
statistics, functional results, and sampled telemetry series must be
*identical* — not approximately equal — under both engines.

Truncated runs matter as much as completed ones: a
:class:`DeadlockError` or :class:`SimulationTimeout` raised mid-flight
exercises the fast engine's horizon jump (including the jump over a
control core certified idle by ``Program.control_poll_idle``), so the
suite also asserts that interrupted simulations leave bit-identical
state, raise byte-identical reports, and account for every quantum in
``engine_stats``.
"""

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.core import (DeadlockError, ENGINES, PEProgram, Program,
                        StageSpec, System, STOP_VALUE)
from repro.core.system import SimulationTimeout
from repro.harness import prepare_input, run_experiment
from repro.ir import DFGBuilder
from repro.memory import AddressSpace
from repro.memory.memmap import MemoryMap
from repro.queues import QueueSpec
from repro.stats.telemetry import EventBus, PeriodicSampler

# One representative input per workload, scaled down so the naive
# engine stays affordable. silo ignores scale (fixed tree/op counts).
_CASES = [
    ("bfs", "Hu", 0.1),
    ("cc", "Ci", 0.08),
    ("prd", "Hu", 0.08),
    ("radii", "In", 0.08),
    ("sssp", "Hu", 0.1),
    ("spmm", "GE", 0.1),
    ("silo", "YC", 1.0),
]

# The codegen axis: every differential case runs both with the
# interpreted coroutine path and with compiled step-functions
# (System.run(codegen=True)); both must be bit-identical.
_CODEGEN = pytest.mark.parametrize(
    "codegen", [False, True], ids=["interp", "codegen"])


@pytest.fixture(scope="module")
def prepared_inputs():
    return {(app, code): prepare_input(app, code, scale=scale)
            for app, code, scale in _CASES}


def _same_result(a, b):
    if isinstance(a, dict):
        return (set(a) == set(b)
                and all(np.array_equal(a[k], b[k]) for k in a))
    if isinstance(a, tuple):
        return a == b
    return np.array_equal(a, b)


def _assert_runs_identical(runs):
    """Every engine's run must match the naive per-cycle reference."""
    naive = runs["naive"]
    for engine, run in runs.items():
        if engine == "naive":
            continue
        assert run.cycles == naive.cycles, engine
        assert [c.as_dict() for c in run.pe_counters] == \
            [c.as_dict() for c in naive.pe_counters], engine
        assert run.cpi_stacks() == naive.cpi_stacks(), engine
        assert run.l1_stats == naive.l1_stats, engine
        assert run.llc_stats == naive.llc_stats, engine
        assert run.mem_stats == naive.mem_stats, engine
        assert _same_result(run.result, naive.result), engine


@_CODEGEN
@pytest.mark.parametrize("app,code,scale", _CASES)
def test_engines_identical_fifer(app, code, scale, codegen,
                                 prepared_inputs):
    prepared = prepared_inputs[(app, code)]
    runs = {engine: run_experiment(app, code, "fifer", prepared=prepared,
                                   engine=engine, codegen=codegen)
            for engine in ENGINES}
    _assert_runs_identical({e: r.raw for e, r in runs.items()})
    for engine in ENGINES:
        assert runs[engine].engine == engine
        assert runs[engine].raw.engine == engine


@_CODEGEN
@pytest.mark.parametrize("app,code,scale", [("bfs", "Hu", 0.1),
                                            ("spmm", "GE", 0.1)])
def test_engines_identical_static(app, code, scale, codegen,
                                  prepared_inputs):
    prepared = prepared_inputs[(app, code)]
    runs = {engine: run_experiment(app, code, "static", prepared=prepared,
                                   engine=engine, codegen=codegen)
            for engine in ENGINES}
    _assert_runs_identical({e: r.raw for e, r in runs.items()})


@pytest.mark.parametrize("app,code,scale", _CASES)
def test_codegen_matches_interpreted(app, code, scale, prepared_inputs):
    """Compiled step-functions reproduce the interpreted run exactly —
    cycles, counters, CPI stacks, cache/memory stats, and results —
    not just agree across engines (the codegen-parametrized tests)."""
    prepared = prepared_inputs[(app, code)]
    interp = run_experiment(app, code, "fifer", prepared=prepared,
                            engine="fast", codegen=False)
    compiled = run_experiment(app, code, "fifer", prepared=prepared,
                              engine="fast", codegen=True)
    # _assert_runs_identical compares everything against key "naive";
    # here the interpreted run is the reference.
    _assert_runs_identical({"naive": interp.raw, "codegen": compiled.raw})


def test_sampled_series_identical(prepared_inputs):
    """With a periodic sampler attached, the fast engine must still
    visit every quantum boundary: the sampled time series (queue
    occupancies, PE states, cumulative CPI stacks) match point for
    point, not just the final totals."""
    prepared = prepared_inputs[("bfs", "Hu")]
    samples = {}
    for engine in ENGINES:
        bus = EventBus()
        sampler = bus.add_sampler(PeriodicSampler(256.0, publish=False))
        run_experiment("bfs", "Hu", "fifer", prepared=prepared,
                       engine=engine, telemetry=bus)
        samples[engine] = sampler.samples
    assert samples["fast"] == samples["naive"]


def test_run_rejects_unknown_engine(prepared_inputs):
    for engine in ("warp", "event"):
        with pytest.raises(ValueError, match="engine"):
            run_experiment("bfs", "Hu", "fifer",
                           prepared=prepared_inputs[("bfs", "Hu")],
                           engine=engine)


def test_system_run_default_engine_is_fast(prepared_inputs):
    res = run_experiment("bfs", "Hu", "fifer",
                         prepared=prepared_inputs[("bfs", "Hu")])
    assert res.engine == "fast"
    assert res.raw.engine == "fast"


def test_small_fabric_engines_identical(prepared_inputs):
    """A 4-PE fabric maximizes blocked time (stages contend for PEs),
    the regime where the fast engine's stall paths do the most
    work."""
    prepared = prepared_inputs[("bfs", "Hu")]
    config = SystemConfig(n_pes=4)
    runs = {engine: run_experiment("bfs", "Hu", "fifer", prepared=prepared,
                                   config=config, engine=engine)
            for engine in ENGINES}
    _assert_runs_identical({e: r.raw for e, r in runs.items()})


# -- truncated runs: deadlock/timeout mid-flight --------------------------

def _sink_dfg(name, in_q):
    b = DFGBuilder(name)
    x = b.deq(in_q)
    b.add(x, x)
    return b.finish()


def _source_dfg(name, out_q):
    b = DFGBuilder(name)
    counter = b.reg("i")
    one = b.const(1)
    nxt = b.add(counter, one)
    b.set_reg(counter, nxt)
    b.enq(out_q, nxt)
    return b.finish()


def _truncatable_program(n_items, sink_consumes=True, control=None):
    """Producer/consumer pair; with ``sink_consumes=False`` the sink
    waits on a queue nothing feeds, so the run deadlocks once the
    shared queue fills. ``control`` installs a passive control core:
    ``"certified"`` with a ``control_poll_idle`` certificate,
    ``"uncertified"`` without one."""
    space = AddressSpace()
    seen = []

    def producer(ctx):
        for i in range(n_items):
            yield from ctx.enq("trunc.q", i)
        yield from ctx.enq("trunc.q", STOP_VALUE, is_control=True)

    def consumer(ctx):
        while True:
            token = yield from ctx.deq("trunc.q")
            if token.is_control:
                return
            seen.append(token.value)

    def stuck_consumer(ctx):
        yield from ctx.deq("trunc.never")

    consumer_fn = consumer if sink_consumes else stuck_consumer
    sink_queue = "trunc.q" if sink_consumes else "trunc.never"
    pe = PEProgram(
        shard=0,
        queue_specs=[QueueSpec("trunc.q"), QueueSpec("trunc.never")],
        stage_specs=[
            StageSpec("trunc.src", _source_dfg("trunc.src", "trunc.q"),
                      producer),
            StageSpec("trunc.snk", _sink_dfg("trunc.snk", sink_queue),
                      consumer_fn),
        ])
    program = Program("trunc", [pe], space, MemoryMap(),
                      result_fn=lambda: list(seen))
    if control is not None:
        program.control_poll = lambda system: None
        if control == "certified":
            program.control_poll_idle = lambda system: True
    return program


def _truncated_run(engine, *, n_items, sink_consumes, config, max_cycles,
                   expect, control=None, sampled=False):
    """Run to the expected mid-flight exception; return the system's
    complete observable state at the moment of the raise (with the
    sampled series when ``sampled``) and the engine's work counts."""
    program = _truncatable_program(n_items, sink_consumes=sink_consumes,
                                   control=control)
    bus = sampler = None
    if sampled:
        bus = EventBus()
        sampler = bus.add_sampler(PeriodicSampler(256.0, publish=False))
    system = System(config, program, mode="fifer", telemetry=bus)
    with pytest.raises(expect) as excinfo:
        system.run(max_cycles=max_cycles, engine=engine)
    state = {
        "cycle": system.cycle,
        "counters": [pe.counters.as_dict() for pe in system.pes],
        "queues": {name: (len(q), q.occupancy_words, q.total_enqueued)
                   for name, q in system.queues.items()},
        "message": str(excinfo.value),
        "samples": sampler.samples if sampler is not None else None,
    }
    return state, system.engine_stats


class TestTruncatedRuns:
    """Interrupted simulations leave identical state under both
    engines: the fast engine's horizon jumps must clamp exactly at the
    raise."""

    def test_deadlock_state_identical(self):
        config = SystemConfig(n_pes=1, deadlock_quanta=20)
        states = {engine: _truncated_run(
            engine, n_items=5, sink_consumes=False, config=config,
            max_cycles=None, expect=DeadlockError)[0] for engine in ENGINES}
        assert states["fast"] == states["naive"]

    def test_timeout_state_identical(self):
        config = SystemConfig(n_pes=1)
        states = {engine: _truncated_run(
            engine, n_items=10_000, sink_consumes=True, config=config,
            max_cycles=640, expect=SimulationTimeout)[0]
            for engine in ENGINES}
        assert states["fast"] == states["naive"]

    def test_timeout_through_quiescence_jump_identical(self):
        """With the deadlock horizon far out and a nearer cycle limit,
        a fully blocked system must time out — the fast engine takes
        its fast-forward, the naive engine ticks there; both must agree
        to the cycle."""
        config = SystemConfig(n_pes=1, deadlock_quanta=100_000)
        states = {engine: _truncated_run(
            engine, n_items=5, sink_consumes=False, config=config,
            max_cycles=50_000, expect=SimulationTimeout)[0]
            for engine in ENGINES}
        assert states["fast"] == states["naive"]

    @pytest.mark.parametrize("max_cycles", [1_000, 2_500])
    def test_workload_timeout_state_identical(self, max_cycles,
                                              prepared_inputs):
        """A real workload interrupted mid-flight (PEs mid-quantum)
        reports identical cycles and timeout text under both
        engines."""
        prepared = prepared_inputs[("bfs", "Hu")]
        messages = {}
        for engine in ENGINES:
            with pytest.raises(SimulationTimeout) as excinfo:
                run_experiment("bfs", "Hu", "static", prepared=prepared,
                               engine=engine, max_cycles=max_cycles)
            messages[engine] = str(excinfo.value)
        assert messages["fast"] == messages["naive"]

    @pytest.mark.parametrize("ending", ["deadlock", "timeout"])
    @pytest.mark.parametrize("sampled", [False, True],
                             ids=["unsampled", "sampled"])
    @pytest.mark.parametrize("control", ["certified", "uncertified"])
    def test_control_core_jump_identical(self, control, sampled, ending):
        """A wedged pipeline under an active control core: the fast
        engine jumps the dead quanta only when ``control_poll_idle``
        certifies the poll a no-op and no sampler needs every
        boundary. State, report, and sampled series match naive either
        way, and every quantum naive steps is either stepped or
        jumped."""
        if ending == "deadlock":
            config = SystemConfig(n_pes=1, deadlock_quanta=20)
            max_cycles, expect = None, DeadlockError
        else:
            config = SystemConfig(n_pes=1, deadlock_quanta=100_000)
            max_cycles, expect = 50_000, SimulationTimeout
        runs = {engine: _truncated_run(
            engine, n_items=5, sink_consumes=False, config=config,
            max_cycles=max_cycles, expect=expect, control=control,
            sampled=sampled) for engine in ENGINES}
        (fast, fast_stats), (naive, naive_stats) = runs["fast"], runs["naive"]
        assert fast == naive
        assert (fast_stats["quanta"] + fast_stats["jumped_quanta"]
                == naive_stats["quanta"])
        assert naive_stats["jumped_quanta"] == 0
        assert (fast_stats["jumped_quanta"] > 0) == (
            control == "certified" and not sampled)

"""The fast engine's stage step-function against ``PE._execute``.

Random request programs run twice from identical state: once through
the request loop of ``make_interp_step``, which the fast engine binds
to every stage, and once through ``PE._execute`` over
``PE._try_perform``, the loop the naive engine keeps as the oracle.
After every call both worlds must agree bit for bit: the cycles spent,
each stage's pending request, done flag and SIMD totals, the PE's
counters (values and key order), every queue's tokens, occupancy,
credits and ``total_enqueued``, the L1/LLC/memory state and statistics,
and what the coroutines were sent — and, with an unfiltered recording
sink attached, the event stream.
"""

import random
import types
from types import SimpleNamespace

import pytest

from repro.codegen.interp import make_interp_step
from repro.config import CacheConfig, MemoryConfig, SystemConfig
from repro.core.pe import ProcessingElement, StageLivelockError
from repro.core.stage import StageContext, StageInstance, StageSpec
from repro.memory import Cache, MainMemory
from repro.queues import Queue
from repro.queues.queue_memory import QueueMemory
from repro.stats.telemetry import EventBus, Probe, RecordingSink

#: Two stages share the PE, and with it the counters dict.
STAGES = ("a", "b")
#: (name, capacity words, entry words, producers). ``in`` and ``cin``
#: are fed by the script (``cin`` by two outside producers, so its
#: dequeues refund credits); ``out`` is small and fills up; ``cout`` is
#: shared by both stages and an outside producer, so credits run out
#: while words are free; both stages enqueue to and dequeue from
#: ``loop``.
QUEUES = (
    ("in", 16, 2, ()),
    ("cin", 12, 1, ("x", "y")),
    ("out", 6, 2, ()),
    ("cout", 9, 1, ("a", "b", "z")),
    ("loop", 8, 1, ()),
)
#: Addresses span 32 lines over a 4-set, 2-way L1: hits, misses and
#: dirty evictions mix.
N_LINES = 32


class World:
    """One PE with two stages, five queues, and a two-level cache over
    main memory; ``programs`` are the stages' request lists."""

    def __init__(self, programs, speed=1.0, replication=1, bus=None):
        self.memory = MainMemory(MemoryConfig(latency=120))
        # A small bandwidth budget: later misses pay a queueing penalty.
        self.memory.begin_quantum(2)
        self.llc = Cache("llc", CacheConfig(4096, 4, 20), self.memory)
        self.l1 = Cache("l1", CacheConfig(512, 2, 3), self.llc)
        self.queues = {name: Queue(name, cap, words, producers=producers)
                       for name, cap, words, producers in QUEUES}
        self.pe = ProcessingElement(0, SystemConfig(), self.l1,
                                    QueueMemory(4096),
                                    self.queues.__getitem__)
        self.received = []
        self.stages = []
        for name, requests in zip(STAGES, programs):
            spec = StageSpec(name, None, self._semantics(requests))
            mapping = SimpleNamespace(replication=replication,
                                      n_compute_ops=3)
            stage = StageInstance(spec, StageContext(0, name, 0, 1),
                                  mapping, 0)
            stage.speed = speed
            self.stages.append(stage)
        if bus is not None:
            self.pe.probe = Probe(bus, "pe0")
            for queue in self.queues.values():
                queue.probe = Probe(bus, f"queue:{queue.name}")
            self.l1.probe = Probe(bus, "l1")
            self.llc.probe = Probe(bus, "llc")
            self.memory.probe = Probe(bus, "mem")

    def _semantics(self, requests):
        received = self.received

        def run(ctx):
            for request in requests:
                result = yield request
                received.append((ctx.stage_name, _describe(result)))
        return run

    def push(self, queue, value, control, producer):
        queue = self.queues[queue]
        if queue.can_enq(producer, control):
            queue.enq(value, is_control=control, producer=producer)

    def drain(self, queue, n):
        queue = self.queues[queue]
        for _ in range(min(n, len(queue))):
            queue.deq()

    def snapshot(self) -> tuple:
        def cache_state(cache):
            return (cache.hits, cache.misses, cache.dirty_evictions,
                    [list(s.items()) for s in cache._sets])

        return (
            [(s.pending, s.started, s.done, repr(s.work_deq),
              repr(s.work_enq)) for s in self.stages],
            repr(list(dict.items(self.pe.counters))),
            [(repr([(t.value, t.is_control, t.producer)
                    for t in q._tokens]),
              q.occupancy_words, q.total_enqueued, q.credit_state())
             for q in self.queues.values()],
            cache_state(self.l1), cache_state(self.llc),
            self.memory.reads, self.memory.writes,
            repr(self.memory._quantum_bytes),
            list(self.received),
        )


def _describe(result):
    if result is None:
        return None
    return (result.value, result.is_control, result.producer)


def _program(rng, length):
    """A request list covering all six kinds, with control tokens and
    runs of zero-cost requests (L1-hit loads and stores)."""
    requests = []
    while len(requests) < length:
        roll = rng.random()
        if roll < 0.2:
            requests.append(("deq", rng.choice(("in", "in", "cin", "loop"))))
        elif roll < 0.42:
            queue = rng.choice(("out", "cout", "cout", "loop"))
            control = rng.random() < 0.2
            value = rng.choice(("END", -1)) if control else (
                (rng.randrange(100), len(requests)))
            requests.append(("enq", queue, value, control))
        elif roll < 0.6:
            addr = rng.randrange(N_LINES) * 64 + rng.randrange(0, 64, 8)
            requests.append((rng.choice(("load", "store")), addr))
        elif roll < 0.68:
            # A zero-cost streak: one line loaded or stored repeatedly.
            kind = rng.choice(("load", "store"))
            addr = rng.randrange(N_LINES) * 64
            requests += [(kind, addr)] * rng.randrange(3, 12)
        elif roll < 0.76:
            requests.append(("try_deq", rng.choice(("in", "cin", "loop"))))
        else:
            requests.append(("cycles", rng.choice((0, 1, 2, 0.5, 3.25))))
    return requests


def _script(rng, steps):
    """Budgeted calls of either stage, pushes to the fed queues (data
    and control, from each outside producer), and drains."""
    actions = []
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.45:
            actions.append(("run", rng.randrange(len(STAGES)),
                            rng.choice((0.0, 0.5, 1.0, 2.25, 3.0, 7.5,
                                        40.0, 400.0))))
        elif roll < 0.8:
            queue, producer = rng.choice((
                ("in", None), ("in", None), ("in", None), ("cin", "x"),
                ("cin", "y"), ("cout", "z"), ("loop", None), ("loop", None)))
            control = rng.random() < 0.15
            value = "END" if control else rng.randrange(1000)
            actions.append(("push", queue, value, control, producer))
        else:
            actions.append(("drain",
                            rng.choice(("out", "out", "cout", "cout",
                                        "loop", "in", "cin")),
                            rng.randrange(1, 5)))
    return actions


def _play(world, actions, run):
    trace = []
    for action in actions:
        if action[0] == "run":
            stage = world.stages[action[1]]
            spent = run(world, stage, action[2])
            # Advance the PE clock as run_quantum does, so pe.stall
            # events carry moving timestamps.
            world.pe.now += spent
            trace.append(repr(spent))
        elif action[0] == "push":
            world.push(*action[1:])
        else:
            world.drain(*action[1:])
        trace.append(world.snapshot())
    return trace


def _bind(world):
    steps = {id(stage): make_interp_step(world.pe, stage)
             for stage in world.stages}
    return lambda w, stage, budget: steps[id(stage)](w.pe, stage, budget)


def _execute(world, stage, budget):
    return world.pe._execute(stage, budget)


def _compare(seed, speed=1.0, replication=1, steps=300, record=True):
    rng = random.Random(seed)
    programs = [_program(rng, 80) for _ in STAGES]
    actions = _script(rng, steps)
    buses = [EventBus(), EventBus()] if record else [None, None]
    sinks = [bus.subscribe(RecordingSink()) for bus in buses] \
        if record else []
    interp, oracle = (World(programs, speed, replication, bus)
                      for bus in buses)
    assert _play(interp, actions, _bind(interp)) == _play(oracle, actions,
                                                          _execute)
    if record:
        events = [[(e.cycle, e.seq, e.kind, e.source, repr(e.data))
                   for e in sink.events] for sink in sinks]
        assert events[0] == events[1]
        assert events[0]  # the streams are not trivially empty


CONFIGS = {
    "plain": dict(),
    "replicated": dict(replication=4),
    "replicated_odd": dict(replication=3),
    "slow": dict(speed=0.5),
    "fast_replicated": dict(speed=1.5, replication=2),
}


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("seed", range(4))
def test_interp_matches_execute(config, seed):
    _compare(seed, **CONFIGS[config])


@pytest.mark.parametrize("seed", range(4, 8))
def test_interp_matches_execute_unobserved(seed):
    """Without probes the uninstrumented arms run."""
    _compare(seed, record=False)


def test_scripts_reach_every_path():
    """The scripts really exercise what the comparison is for: every
    request kind, suspensions on an empty queue, a full queue, spent
    credits and an exhausted budget, memory stalls, and finished
    stages."""
    kinds, suspended = set(), set()
    credit_stalls = finished = 0
    for seed in range(4):
        rng = random.Random(seed)
        programs = [_program(rng, 80) for _ in STAGES]
        kinds.update(request[0] for program in programs
                     for request in program)
        bus = EventBus()
        sink = bus.subscribe(RecordingSink(kinds=("queue.credit_stall",)))
        world = World(programs, bus=bus)
        run = _bind(world)
        for action in _script(rng, 300):
            if action[0] == "run":
                stage = world.stages[action[1]]
                spent = run(world, stage, action[2])
                if stage.pending is None:
                    continue
                if spent >= action[2]:
                    suspended.add("budget")
                elif stage.pending[0] == "enq":
                    queue = world.queues[stage.pending[1]]
                    suspended.add("credits" if queue._credits else "full")
                else:
                    suspended.add(stage.pending[0])
            elif action[0] == "push":
                world.push(*action[1:])
            else:
                world.drain(*action[1:])
        credit_stalls += len(sink.events)
        finished += sum(stage.done for stage in world.stages)
        assert world.pe.counters["stall_mem"] > 0
    assert kinds == {"deq", "enq", "load", "store", "try_deq", "cycles"}
    assert {"deq", "full", "credits", "budget"} <= suspended
    assert credit_stalls and finished


def test_finished_stage_spends_nothing():
    programs = [[("cycles", 1)], [("deq", "in")]]
    interp, oracle = World(programs), World(programs)
    step = _bind(interp)
    for _ in range(3):
        assert (step(interp, interp.stages[0], 5.0)
                == _execute(oracle, oracle.stages[0], 5.0))
        assert interp.snapshot() == oracle.snapshot()
    assert interp.stages[0].done


def test_counter_keys_follow_first_use():
    """An enqueue creates only ``issued``; a later dequeue adds
    ``tokens`` and ``fabric_ops``; a memory stall in between lands
    between them, as in the interpreter."""
    programs = [[("enq", "loop", 1, False), ("load", 64 * 7),
                 ("deq", "loop")], []]
    interp, oracle = World(programs), World(programs)
    step = _bind(interp)
    assert repr(step(interp, interp.stages[0], 500.0)) == repr(
        _execute(oracle, oracle.stages[0], 500.0))
    assert interp.snapshot() == oracle.snapshot()
    assert list(dict.keys(interp.pe.counters)) == [
        "issued", "stall_mem", "tokens", "fabric_ops"]


def test_livelock_guard_matches():
    """A million zero-cost requests raise the same error and leave the
    same state behind."""
    programs = [[("store", 0)] * 1_000_002, []]
    worlds = World(programs), World(programs)
    runs = _bind(worlds[0]), _execute
    messages = []
    for world, run in zip(worlds, runs):
        with pytest.raises(StageLivelockError) as info:
            run(world, world.stages[0], 10.0)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert worlds[0].snapshot() == worlds[1].snapshot()


@pytest.mark.parametrize("request_, error", [
    (("bogus", "in"), ValueError),
    (("deq", "no.such.queue"), KeyError),
    (("enq", "no.such.queue", 1, False), KeyError),
])
def test_bad_requests_raise_alike(request_, error):
    programs = [[("cycles", 1), request_], []]
    worlds = World(programs), World(programs)
    runs = _bind(worlds[0]), _execute
    messages = []
    for world, run in zip(worlds, runs):
        with pytest.raises(error) as info:
            run(world, world.stages[0], 10.0)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def _fingerprint(raw) -> str:
    return repr((raw.cycles, [list(dict.items(c)) for c in raw.pe_counters],
                 raw.l1_stats, raw.llc_stats, raw.mem_stats))


def test_fast_engine_binds_interp_to_fallback_stages(monkeypatch):
    """On the fast engine every stage runs a closure of the one request
    loop, for a graph app as for spmm, and the ``codegen`` keyword of
    System.run and run_experiment selects nothing: with it on or off,
    no ``codegen_*`` engine stat, and the same cycles, counters and
    cache stats as each other and as the naive engine. A naive run on
    a System the fast engine ran drops the step-functions."""
    from repro.core import System
    from repro.harness import (build_cgra_program, prepare_input,
                               resolve_config, run_experiment)
    systems = []
    real_run = System.run

    def spy(system, *args, **kwargs):
        systems.append(system)
        return real_run(system, *args, **kwargs)

    monkeypatch.setattr(System, "run", spy)
    for app, code, scale in (("spmm", "GE", 0.02), ("bfs", "Hu", 0.05)):
        prepared = prepare_input(app, code, scale=scale, seed=0)
        config = resolve_config(app)

        def fresh():
            program, _ = build_cgra_program(prepared, config, "fifer",
                                            "decoupled")
            return System(config, program, mode="fifer")

        systems.clear()
        runs = []
        for codegen in (False, True):
            runs.append(fresh().run(codegen=codegen))
            runs.append(run_experiment(app, code, "fifer", prepared=prepared,
                                       codegen=codegen).raw)
        assert len(systems) == 4
        [step_code] = [const for const in make_interp_step.__code__.co_consts
                       if isinstance(const, types.CodeType)]
        for system in systems:
            assert {s.step_fn.__code__ for pe in system.pes
                    for s in pe.stages} == {step_code}, app
        runs.append(fresh().run(engine="naive"))
        systems[0].run(engine="naive")
        assert all(s.step_fn is None
                   for pe in systems[0].pes for s in pe.stages)
        assert not [key for raw in runs for key in raw.engine_stats
                    if key.startswith("codegen")]
        assert len({_fingerprint(raw) for raw in runs}) == 1, app

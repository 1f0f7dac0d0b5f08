"""Generated DRM step-functions against the interpreted ladder.

Every DRM shape the registered workloads use, plus synthetic ones, is
run twice from identical state: once through its generated
step-function (what the fast engine binds) and once through
``DRM.run``, the interpreted ladder the naive engine keeps as the
oracle. After every call both worlds must agree bit for bit: return
values, queue contents and credits, L1/LLC/memory state, the DRM's
statistics, its scan cursor and ``_blocked_on`` — and, with an
unfiltered recording sink attached, the event stream.
"""

import random
from functools import partial

import numpy as np
import pytest

from repro.codegen import DrmShape, drm_shape, drm_source
from repro.codegen.runtime import _factory_for
from repro.config import CacheConfig, MemoryConfig
from repro.core.drm import DRM, DRMSpec
from repro.memory import AddressSpace, Cache, MainMemory
from repro.memory.memmap import MemoryMap
from repro.queues import Queue
from repro.stats.telemetry import EventBus, Probe, RecordingSink

N_ELEMS = 256
STOP = -1


class World:
    """One DRM with its queues, a two-level cache over main memory, and
    three mapped arrays (int64, float64 and int32 elements)."""

    def __init__(self, case: dict, bus=None):
        self.memory = MainMemory(MemoryConfig(latency=120))
        # A small bandwidth budget: later misses pay a queueing penalty.
        self.memory.begin_quantum(2)
        self.llc = Cache("llc", CacheConfig(4096, 4, 20), self.memory)
        # A tiny L1 (4 sets x 2 ways): hits, misses and evictions mix.
        self.l1 = Cache("l1", CacheConfig(512, 2, 3), self.llc)
        space = AddressSpace()
        self.memmap = MemoryMap()
        self.refs = []
        for name, array in (
                ("ints", np.arange(N_ELEMS, dtype=np.int64) * 3),
                ("floats", np.arange(N_ELEMS, dtype=np.float64) / 7),
                ("halves", np.arange(N_ELEMS, dtype=np.int32) - 9)):
            ref = space.alloc_array(name, N_ELEMS,
                                    elem_bytes=array.itemsize)
            self.memmap.register(ref, array)
            self.refs.append(ref)
        spec = case["spec"]
        in_producers = case.get("in_producers", ())
        self.in_q = Queue(spec.in_queue, 64, case.get("in_words", 2),
                          producers=in_producers)
        out_words = case.get("out_words", 2)
        self.outs = {}
        for name in (spec.route_targets if spec.route else
                     (spec.out_queue,)):
            producers = case.get("out_producers", {}).get(name, ())
            self.outs[name] = Queue(name, case.get("out_cap", 8), out_words,
                                    producers=producers)
        self.drm = DRM(spec, 0, self.in_q, dict(self.outs), self.l1,
                       self.memmap, max_outstanding=case.get("window", 4),
                       l1_latency=case.get("l1_latency", 3),
                       issue_width=case.get("issue_width", 1))
        if bus is not None:
            self.drm.probe = Probe(bus, f"drm:{spec.name}")
            for queue in [self.in_q, *self.outs.values()]:
                queue.probe = Probe(bus, f"queue:{queue.name}")
            self.l1.probe = Probe(bus, "l1")
            self.llc.probe = Probe(bus, "llc")
            self.memory.probe = Probe(bus, "mem")

    def push(self, value, control=False, producer=None):
        if self.in_q.can_enq(producer, control):
            self.in_q.enq(value, is_control=control, producer=producer)

    def drain(self, name, n):
        queue = self.outs[name]
        for _ in range(min(n, len(queue))):
            queue.deq()

    def snapshot(self) -> tuple:
        def queue_state(queue):
            return (repr([(t.value, t.is_control, t.producer)
                          for t in queue._tokens]),
                    queue.occupancy_words, queue.total_enqueued,
                    queue.credit_state())

        def cache_state(cache):
            return (cache.hits, cache.misses, cache.dirty_evictions,
                    [list(s.items()) for s in cache._sets])

        drm = self.drm
        return (queue_state(self.in_q),
                [queue_state(q) for q in self.outs.values()],
                cache_state(self.l1), cache_state(self.llc),
                self.memory.reads, self.memory.writes,
                repr(self.memory._quantum_bytes),
                drm.loads, repr(drm.miss_stall_cycles),
                repr(drm.busy_cycles), drm._blocked_on,
                drm._scan_addr, drm._scan_end, drm._scan_elem_bytes)


def _deref_token(rng, refs, width, payload):
    addrs = []
    for _ in range(width):
        ref = refs[rng.randrange(len(refs))]
        addrs.append(ref.addr(rng.randrange(N_ELEMS)))
    if payload:
        tail = (rng.randrange(1000),) + (("tag",) if rng.random() < 0.5
                                         else ())
        return tuple(addrs) + tail
    return tuple(addrs) if width > 1 else addrs[0]


def _scan_token(rng, refs):
    ref = refs[rng.randrange(len(refs))]
    start = rng.randrange(N_ELEMS)
    length = rng.choice((0, 1, 3, 9))  # 0 is an empty range
    end = min(N_ELEMS, start + length)
    return ref.addr(start), ref.base + end * ref.elem_bytes


def _script(case, refs, seed, steps=60):
    """A deterministic action list: pushes (data and control, from each
    input producer), budgeted DRM calls, and drains of each output."""
    rng = random.Random(seed)
    spec = case["spec"]
    producers = case.get("in_producers", ()) or (None,)
    outs = list(spec.route_targets if spec.route else (spec.out_queue,))
    actions = []
    for _ in range(steps):
        roll = rng.random()
        producer = rng.choice(producers)
        if roll < 0.45:
            if rng.random() < case.get("control_rate", 0.1):
                actions.append(("push", STOP, True, producer))
            elif spec.mode == "scan":
                actions.append(("push", _scan_token(rng, refs), False,
                                producer))
            else:
                actions.append(("push", _deref_token(
                    rng, refs, spec.width, spec.payload), False, producer))
        elif roll < 0.8:
            actions.append(("run", rng.choice((0.5, 1.0, 2.25, 3.0, 7.5,
                                               40.0))))
        else:
            actions.append(("drain", rng.choice(outs), rng.randrange(1, 5)))
    return actions


def _play(world, actions, step):
    results = []
    for action in actions:
        if action[0] == "push":
            world.push(*action[1:])
        elif action[0] == "run":
            results.append(repr(step(action[1])))
        else:
            world.drain(*action[1:])
        results.append(world.snapshot())
    return results


def _compare(case, seed=0, steps=60, record=False):
    buses = [EventBus(), EventBus()] if record else [None, None]
    sinks = [bus.subscribe(RecordingSink()) for bus in buses] \
        if record else []
    generated, ladder = (World(case, bus) for bus in buses)
    shape = drm_shape(generated.drm)
    assert shape == case["shape"]
    step = partial(_factory_for(shape)(generated.drm), generated.drm)
    actions = _script(case, generated.refs, seed, steps)
    assert _play(generated, actions, step) == _play(ladder, actions,
                                                    ladder.drm.run)
    if record:
        events = [[(e.cycle, e.seq, e.kind, e.source, repr(e.data))
                   for e in sink.events] for sink in sinks]
        assert events[0] == events[1]
        assert events[0]  # the streams are not trivially empty
    return generated


def _spec(mode="deref", width=1, payload=True, route=None, targets=(),
          name="d"):
    if route is not None:
        return DRMSpec(name, mode, in_queue="in", route=route,
                       route_targets=targets, width=width, payload=payload)
    return DRMSpec(name, mode, in_queue="in", out_queue="out", width=width,
                   payload=payload)


def _route_by_payload(values, payload):
    return ("o0", "o1", "o2")[int(payload[0]) % 3]


def _route_by_value(values, payload):
    return "o0" if float(values[0]) < 20.0 else "o1"


# The shapes of the registered workloads (each named after one user).
REGISTERED = {
    "w1_payload": dict(spec=_spec(), shape=DrmShape("deref", 1, True)),
    "w2_payload": dict(spec=_spec(width=2), in_words=3, out_words=3,
                       shape=DrmShape("deref", 2, True)),
    "w3_payload": dict(spec=_spec(width=3), in_words=4, out_words=4,
                       shape=DrmShape("deref", 3, True)),
    "w4_payload": dict(spec=_spec(width=4), in_words=5, out_words=5,
                       shape=DrmShape("deref", 4, True)),
    "w2_spmm": dict(spec=_spec(width=2, payload=False),
                    shape=DrmShape("deref", 2)),
    "w1_routed_credited": dict(
        spec=_spec(route=_route_by_payload, targets=("o0", "o1", "o2")),
        out_producers={q: ("d", "x", "y") for q in ("o0", "o1", "o2")},
        out_cap=12, control_rate=0.15,
        shape=DrmShape("deref", 1, True, routed=True, credited_out=True)),
    "w2_credited_in": dict(spec=_spec(width=2), in_words=3, out_words=3,
                           in_producers=("p0", "p1"),
                           shape=DrmShape("deref", 2, True,
                                          credited_in=True)),
    "scan": dict(spec=_spec("scan", payload=False), in_words=2, out_words=1,
                 shape=DrmShape("scan")),
}

SYNTHETIC = {
    "w1_plain": dict(spec=_spec(payload=False), in_words=1, out_words=1,
                     shape=DrmShape("deref", 1)),
    "w5_payload_wide_issue": dict(spec=_spec(width=5), in_words=6,
                                  out_words=6, issue_width=2, window=3,
                                  shape=DrmShape("deref", 5, True)),
    "w1_routed_uncredited": dict(
        spec=_spec(route=_route_by_value, targets=("o0", "o1")),
        control_rate=0.2, shape=DrmShape("deref", 1, True, routed=True)),
    "w2_routed_plain_credited_both": dict(
        spec=_spec(width=2, payload=False, route=_route_by_value,
                   targets=("o0", "o1")),
        out_producers={q: ("d", "z") for q in ("o0", "o1")},
        in_producers=("p0", "p1", "p2"), out_cap=8,
        shape=DrmShape("deref", 2, routed=True, credited_out=True,
                       credited_in=True)),
    "w1_credited_out": dict(spec=_spec(), out_producers={"out": ("d", "q")},
                            shape=DrmShape("deref", 1, True,
                                           credited_out=True)),
    "scan_credited_both": dict(
        spec=_spec("scan", payload=False), in_words=2, out_words=1,
        in_producers=("p0", "p1"), out_producers={"out": ("d", "e")},
        shape=DrmShape("scan", credited_out=True, credited_in=True)),
    "l1_latency_mismatch": dict(spec=_spec(), l1_latency=5,
                                shape=DrmShape("deref", 1, True)),
}

CASES = {**REGISTERED, **SYNTHETIC}


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generated_step_matches_ladder(name, seed):
    _compare(CASES[name], seed=seed)


@pytest.mark.parametrize("name", sorted(REGISTERED))
def test_event_streams_match(name):
    _compare(REGISTERED[name], seed=3, record=True)


def test_blocking_paths_are_exercised():
    """The scripts above really block: on capacity, on credits, and on a
    control broadcast that cannot reach every target."""
    capacity = _compare(dict(REGISTERED["w1_payload"], out_cap=2), seed=4,
                        steps=120)
    assert capacity.drm._blocked_on == "out"
    credits = _compare(REGISTERED["w1_routed_credited"], seed=5, steps=150,
                       record=True)
    assert credits.drm._blocked_on in ("o0", "o1", "o2")


def test_credit_stall_probe_fires_identically():
    case = REGISTERED["w1_routed_credited"]
    bus = EventBus()
    sink = bus.subscribe(RecordingSink(kinds=("queue.credit_stall",
                                              "drm.blocked")))
    world = World(case, bus)
    step = _factory_for(drm_shape(world.drm))(world.drm)
    rng = random.Random(7)
    for _ in range(40):
        world.push(_deref_token(rng, world.refs, 1, True))
    step(world.drm, 1000.0)
    kinds = {e.kind for e in sink.events}
    assert kinds == {"queue.credit_stall", "drm.blocked"}


def test_budget_runs_out_mid_stream():
    """A budget smaller than the queued work leaves the rest in place,
    and the next call resumes where the first stopped."""
    case = REGISTERED["w2_payload"]
    generated, ladder = World(case), World(case)
    step = partial(_factory_for(drm_shape(generated.drm))(generated.drm),
                   generated.drm)
    rng = random.Random(8)
    tokens = [_deref_token(rng, generated.refs, 2, True) for _ in range(6)]
    for world in (generated, ladder):
        for token in tokens:
            world.push(token)
    assert step(2.5) == ladder.drm.run(2.5) >= 2.5
    assert 0 < len(generated.in_q) == len(ladder.in_q) < len(tokens)
    assert generated.snapshot() == ladder.snapshot()
    assert step(100.0) == ladder.drm.run(100.0)
    assert generated.snapshot() == ladder.snapshot()


def test_unlisted_producer_keeps_the_ladder():
    """A credited target without the DRM among its producers is not
    bound, so the ladder raises can_enq's KeyError as before."""
    case = dict(REGISTERED["w1_payload"],
                out_producers={"out": ("a", "b")})
    world = World(case)
    assert drm_shape(world.drm) is None
    world.push(_deref_token(random.Random(9), world.refs, 1, True))
    with pytest.raises(KeyError, match="unknown producer"):
        world.drm.run(10.0)


def test_mixed_flow_control_targets_keep_the_ladder():
    case = dict(REGISTERED["w1_routed_credited"],
                out_producers={"o0": ("d", "x")})
    assert drm_shape(World(case).drm) is None


def test_shape_validation():
    with pytest.raises(ValueError, match="unknown DRM codegen mode"):
        DrmShape("gather")
    with pytest.raises(ValueError, match="width"):
        DrmShape("deref", 0)
    with pytest.raises(ValueError, match="scanning"):
        DrmShape("scan", payload=True)


def test_sources_are_deterministic_and_named():
    shapes = [case["shape"] for case in CASES.values()]
    assert len({s.name for s in shapes}) == len(set(shapes))
    assert len({drm_source(s) for s in shapes}) == len(set(shapes))
    for shape in shapes:
        assert drm_source(shape) == drm_source(shape)
        assert f"# shape: {shape.name}\n" in drm_source(shape)
        assert shape.name.startswith("drm.")


def test_fast_engine_binds_and_naive_unbinds(bfs_system):
    """System.run(engine="fast") binds every DRM of a registered workload;
    a later naive run on the same System drops the bindings."""
    system = bfs_system()
    system.run(engine="fast")
    drms = [drm for pe in system.pes for drm in pe.drms]
    assert drms and all(drm.step_fn is not None for drm in drms)
    fast = bfs_system().run(engine="fast")
    naive_system = bfs_system()
    naive = naive_system.run(engine="naive")
    assert all(drm.step_fn is None
               for pe in naive_system.pes for drm in pe.drms)
    assert fast.cycles == naive.cycles
    assert fast.pe_counters == naive.pe_counters
    assert fast.l1_stats == naive.l1_stats


@pytest.fixture
def bfs_system():
    from repro.core import System
    from repro.harness import (build_cgra_program, prepare_input,
                               resolve_config)
    prepared = prepare_input("bfs", "Hu", scale=0.05, seed=0)
    config = resolve_config("bfs")

    def build():
        program, _ = build_cgra_program(prepared, config, "fifer",
                                        "decoupled")
        return System(config, program, mode="fifer")
    return build

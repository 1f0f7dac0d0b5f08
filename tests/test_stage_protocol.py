"""Tests for the stage coroutine protocol and StageContext helpers."""

import pytest

from repro.config import SystemConfig
from repro.core import PEProgram, Program, StageSpec, System, STOP_VALUE
from repro.core.stage import StageContext, StageInstance
from repro.ir import DFGBuilder
from repro.memory import AddressSpace
from repro.memory.memmap import MemoryMap
from repro.queues import QueueSpec


def _dfg(name, in_q=None, out_q=None):
    b = DFGBuilder(name)
    if in_q:
        x = b.deq(in_q)
    else:
        x = b.const(0)
    y = b.add(x, x)
    if out_q:
        b.enq(out_q, y)
    return b.finish()


class TestStageContext:
    def test_producer_key_is_stage_name(self):
        ctx = StageContext(3, "app.stage@7", 7, 16)
        assert ctx.producer_key == "app.stage@7"

    def test_helpers_yield_request_tuples(self):
        ctx = StageContext(0, "s", 0, 1)
        gen = ctx.deq("q")
        assert next(gen) == ("deq", "q")
        gen = ctx.enq("q", 42, is_control=True)
        assert next(gen) == ("enq", "q", 42, True)
        gen = ctx.load(0x100)
        assert next(gen) == ("load", 0x100)
        gen = ctx.store(0x200)
        assert next(gen) == ("store", 0x200)
        gen = ctx.cycles(5)
        assert next(gen) == ("cycles", 5)
        gen = ctx.try_deq("q")
        assert next(gen) == ("try_deq", "q")


class TestStageInstance:
    def _instance(self, semantics, name="s"):
        from repro.cgra import FabricSpec, map_dfg
        from repro.config import FabricConfig
        dfg = _dfg(name)
        mapping = map_dfg(dfg, FabricSpec.from_config(FabricConfig()))
        spec = StageSpec(name, dfg, semantics)
        return StageInstance(spec, StageContext(0, name, 0, 1),
                             mapping, 0x1000)

    def test_first_request_starts_coroutine(self):
        def semantics(ctx):
            yield ("cycles", 1)

        stage = self._instance(semantics)
        assert not stage.started
        assert stage.first_request() == ("cycles", 1)
        assert stage.started and not stage.done

    def test_advance_to_completion(self):
        def semantics(ctx):
            yield ("cycles", 1)
            yield ("cycles", 2)

        stage = self._instance(semantics)
        stage.first_request()
        assert stage.advance(None) == ("cycles", 2)
        assert stage.advance(None) is None
        assert stage.done

    def test_immediate_completion(self):
        def semantics(ctx):
            return
            yield

        stage = self._instance(semantics)
        assert stage.first_request() is None
        assert stage.done


class TestRequestBehaviors:
    """Drive the less-common requests through a real system."""

    def _run(self, semantics_pair, queue_specs):
        space = AddressSpace()
        producer, consumer = semantics_pair
        pe = PEProgram(
            shard=0, queue_specs=queue_specs,
            stage_specs=[
                StageSpec("p.src", _dfg("p.src", out_q="p.q"), producer),
                StageSpec("p.snk", _dfg("p.snk", in_q="p.q"), consumer)])
        program = Program("p", [pe], space, MemoryMap())
        return System(SystemConfig(n_pes=1), program, mode="fifer").run()

    def test_try_deq_returns_none_when_empty(self):
        observations = []

        def producer(ctx):
            token = yield from ctx.try_deq("p.side")
            observations.append(token)
            yield from ctx.enq("p.side", "x")
            token = yield from ctx.try_deq("p.side")
            observations.append(token.value)
            yield from ctx.enq("p.q", STOP_VALUE, is_control=True)

        def consumer(ctx):
            token = yield from ctx.deq("p.q")
            assert token.is_control

        self._run((producer, consumer),
                  [QueueSpec("p.q"), QueueSpec("p.side")])
        assert observations == [None, "x"]

    def test_unknown_request_rejected(self):
        def producer(ctx):
            yield ("teleport", "p.q")

        def consumer(ctx):
            return
            yield

        with pytest.raises(ValueError, match="unknown request"):
            self._run((producer, consumer), [QueueSpec("p.q")])

    def test_control_value_ends_iteration_boundaries_in_order(self):
        order = []

        def producer(ctx):
            for i in range(3):
                yield from ctx.enq("p.q", i)
            yield from ctx.enq("p.q", "END", is_control=True)
            for i in range(3, 6):
                yield from ctx.enq("p.q", i)
            yield from ctx.enq("p.q", STOP_VALUE, is_control=True)

        def consumer(ctx):
            while True:
                token = yield from ctx.deq("p.q")
                order.append("C" if token.is_control else token.value)
                if token.is_control and token.value == STOP_VALUE:
                    return

        self._run((producer, consumer), [QueueSpec("p.q")])
        assert order == [0, 1, 2, "C", 3, 4, 5, "C"]

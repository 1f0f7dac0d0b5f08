"""End-to-end engine checks on a tiny hand-built two-stage pipeline."""

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.core import (Program, PEProgram, StageSpec, System, STOP_VALUE)
from repro.ir import DFGBuilder
from repro.memory import AddressSpace
from repro.memory.memmap import MemoryMap
from repro.queues import QueueSpec


def _producer_dfg(out_queue):
    b = DFGBuilder("producer")
    counter = b.reg("i")
    one = b.const(1)
    nxt = b.add(counter, one)
    b.set_reg(counter, nxt)
    b.enq(out_queue, nxt)
    return b.finish()


def _consumer_dfg(in_queue):
    b = DFGBuilder("consumer")
    value = b.deq(in_queue)
    acc = b.reg("sum")
    total = b.add(acc, value)
    b.set_reg(acc, total)
    return b.finish()


def _build_program(n_items, n_pes, fifer):
    space = AddressSpace()
    memmap = MemoryMap()
    sums = np.zeros(1, dtype=np.int64)

    def producer(ctx):
        for i in range(n_items):
            yield from ctx.enq("toy.data", i)
        yield from ctx.enq("toy.data", STOP_VALUE, is_control=True)

    def consumer(ctx):
        while True:
            token = yield from ctx.deq("toy.data")
            if token.is_control:
                assert token.value == STOP_VALUE
                return
            sums[0] += token.value

    prod_spec = StageSpec("toy.producer", _producer_dfg("toy.data"), producer)
    cons_spec = StageSpec("toy.consumer", _consumer_dfg("toy.data"), consumer)
    data_queue = QueueSpec("toy.data")

    if fifer:
        pe0 = PEProgram(shard=0, queue_specs=[data_queue],
                        stage_specs=[prod_spec, cons_spec])
        pe_programs = [pe0]
    else:
        pe0 = PEProgram(shard=0, stage_specs=[prod_spec])
        pe1 = PEProgram(shard=0, queue_specs=[data_queue],
                        stage_specs=[cons_spec])
        pe_programs = [pe0, pe1]

    program = Program("toy", pe_programs, space, memmap,
                      result_fn=lambda: int(sums[0]))
    return program


def test_fifer_single_pe_pipeline():
    config = SystemConfig(n_pes=1)
    program = _build_program(500, 1, fifer=True)
    result = System(config, program, mode="fifer").run(max_cycles=1_000_000)
    assert result.result == sum(range(500))
    assert result.cycles > 0
    assert result.counters["reconfig_events"] >= 2  # at least both activations


def test_static_two_pe_pipeline():
    config = SystemConfig(n_pes=2)
    program = _build_program(500, 2, fifer=False)
    result = System(config, program, mode="static").run(max_cycles=1_000_000)
    assert result.result == sum(range(500))
    # The static pipeline never reconfigures.
    assert result.counters["reconfig"] == 0


def test_fifer_reconfigures_more_with_small_queues():
    small = _build_program(2000, 1, fifer=True)
    large = _build_program(2000, 1, fifer=True)
    r_small = System(SystemConfig(n_pes=1, queue_mem_bytes=512),
                     small, mode="fifer").run(max_cycles=5_000_000)
    r_large = System(SystemConfig(n_pes=1, queue_mem_bytes=16 * 1024),
                     large, mode="fifer").run(max_cycles=5_000_000)
    assert (r_small.counters["reconfig_events"]
            > r_large.counters["reconfig_events"])
    assert r_small.result == r_large.result


def test_cpi_stack_accounts_all_cycles():
    config = SystemConfig(n_pes=1)
    program = _build_program(300, 1, fifer=True)
    result = System(config, program, mode="fifer").run(max_cycles=1_000_000)
    stack = result.merged_cpi_stack()
    assert sum(stack.values()) == pytest.approx(result.cycles * config.n_pes)
    assert stack["issued"] > 0

"""Unit tests for the control core's IterationCoordinator, against a
fake system (no simulation)."""

import pytest

from repro.core.stage import STOP_VALUE
from repro.datasets.graphs import power_law_graph
from repro.frontend import get_frontend
from repro.queues import Queue
from repro.workloads.common import IterationCoordinator


class _FakeSystem:
    def __init__(self, workload):
        self.queues = {
            workload.q("iter", shard): Queue(f"iter{shard}", 64)
            for shard in range(workload.n_shards)
        }

    def resolve_queue(self, name):
        return self.queues[name]


@pytest.fixture
def setup():
    graph = power_law_graph(60, 4.0, seed=60)
    workload = get_frontend("bfs").workload(graph, 4)
    barrier = Queue("bfs.barrier", 16)
    coordinator = IterationCoordinator(workload, barrier)
    system = _FakeSystem(workload)
    return workload, barrier, coordinator, system


class TestIterationCoordinator:
    def test_first_poll_kicks_off(self, setup):
        workload, barrier, coordinator, system = setup
        coordinator.poll(system)
        # Every shard got exactly one iteration directive.
        for shard in range(4):
            queue = system.resolve_queue(workload.q("iter", shard))
            assert len(queue) == 1
            token = queue.deq()
            assert token.is_control
            kind, count, half = token.value
            assert kind == "iter"
        assert coordinator.iteration == 1

    def test_barrier_waits_for_all_shards(self, setup):
        workload, barrier, coordinator, system = setup
        coordinator.poll(system)
        for queue in system.queues.values():
            queue.deq()
        # Three of four shards arrive: no dispatch yet.
        for shard in range(3):
            barrier.enq(("done", shard), is_control=True)
        coordinator.poll(system)
        assert all(queue.is_empty() for queue in system.queues.values())
        # The last shard arrives: the next iteration (or STOP) dispatches.
        barrier.enq(("done", 3), is_control=True)
        coordinator.poll(system)
        assert all(len(queue) == 1 for queue in system.queues.values())

    def test_duplicate_arrivals_do_not_double_dispatch(self, setup):
        workload, barrier, coordinator, system = setup
        coordinator.poll(system)
        for queue in system.queues.values():
            queue.deq()
        for _ in range(3):  # shard 0 reports three times
            barrier.enq(("done", 0), is_control=True)
        coordinator.poll(system)
        assert all(queue.is_empty() for queue in system.queues.values())

    def test_stop_dispatched_when_no_work(self, setup):
        workload, barrier, coordinator, system = setup
        coordinator.poll(system)  # consumes the initial fringe
        for queue in system.queues.values():
            queue.deq()
        # No S3 appended anything: the barrier should broadcast STOP.
        for shard in range(4):
            barrier.enq(("done", shard), is_control=True)
        coordinator.poll(system)
        for queue in system.queues.values():
            token = queue.deq()
            assert token.is_control and token.value == STOP_VALUE

    def test_dispatch_reflects_touched_counts(self, setup):
        workload, barrier, coordinator, system = setup
        coordinator.poll(system)
        for queue in system.queues.values():
            queue.deq()
        workload._append_touched(2, 34)
        workload._append_touched(2, 38)
        for shard in range(4):
            barrier.enq(("done", shard), is_control=True)
        coordinator.poll(system)
        counts = {}
        for shard in range(4):
            token = system.resolve_queue(workload.q("iter", shard)).deq()
            counts[shard] = token.value[1]
        assert counts[2] == 2
        assert counts[0] == counts[1] == counts[3] == 0

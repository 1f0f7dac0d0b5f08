"""Unit tests for decoupled reference machines (paper Sec. 5.4)."""

import numpy as np
import pytest

from repro.config import CacheConfig, MemoryConfig
from repro.core.drm import DRM, DRMSpec
from repro.memory import AddressSpace, Cache, MainMemory
from repro.memory.memmap import MemoryMap
from repro.queues import Queue


def _env():
    memory = MainMemory(MemoryConfig(latency=120))
    memory.begin_quantum(10 ** 9)
    l1 = Cache("l1", CacheConfig(32 * 1024, 8, 4), memory)
    space = AddressSpace()
    memmap = MemoryMap()
    data = np.arange(100, dtype=np.int64) * 3
    ref = space.alloc_array("data", 100)
    memmap.register(ref, data)
    return l1, memmap, ref, data


def _drm(spec, in_q, out_queues, l1, memmap, issue_width=1,
         max_outstanding=8):
    return DRM(spec, 0, in_q, out_queues, l1, memmap,
               max_outstanding=max_outstanding, l1_latency=4,
               issue_width=issue_width)


class TestDerefMode:
    def test_dereferences_addresses(self):
        l1, memmap, ref, data = _env()
        in_q = Queue("in", 64)
        out_q = Queue("out", 64)
        spec = DRMSpec("d", "deref", in_queue="in", out_queue="out")
        drm = _drm(spec, in_q, {"out": out_q}, l1, memmap)
        for i in (3, 7, 11):
            in_q.enq(ref.addr(i))
        drm.run(100)
        assert [out_q.deq().value for _ in range(3)] == [9, 21, 33]

    def test_payload_rides_along(self):
        l1, memmap, ref, data = _env()
        in_q = Queue("in", 64, entry_words=2)
        out_q = Queue("out", 64, entry_words=2)
        spec = DRMSpec("d", "deref", in_queue="in", out_queue="out",
                       payload=True)
        drm = _drm(spec, in_q, {"out": out_q}, l1, memmap)
        in_q.enq((ref.addr(5), "tag"))
        drm.run(10)
        assert out_q.deq().value == (15, "tag")

    def test_multi_word_dereference(self):
        l1, memmap, ref, data = _env()
        in_q = Queue("in", 64, entry_words=2)
        out_q = Queue("out", 64, entry_words=2)
        spec = DRMSpec("d", "deref", in_queue="in", out_queue="out", width=2)
        drm = _drm(spec, in_q, {"out": out_q}, l1, memmap)
        in_q.enq((ref.addr(2), ref.addr(3)))
        drm.run(10)
        assert out_q.deq().value == (6, 9)

    def test_blocks_on_full_output(self):
        l1, memmap, ref, data = _env()
        in_q = Queue("in", 64)
        out_q = Queue("out", 2)
        spec = DRMSpec("d", "deref", in_queue="in", out_queue="out")
        drm = _drm(spec, in_q, {"out": out_q}, l1, memmap)
        for i in range(5):
            in_q.enq(ref.addr(i))
        drm.run(100)
        assert len(out_q) == 2
        assert len(in_q) == 3

    def test_routing_by_payload(self):
        l1, memmap, ref, data = _env()
        in_q = Queue("in", 64, entry_words=2)
        outs = {"even": Queue("even", 64, entry_words=2),
                "odd": Queue("odd", 64, entry_words=2)}
        spec = DRMSpec("d", "deref", in_queue="in",
                       route=lambda vals, payload:
                           "even" if payload[0] % 2 == 0 else "odd",
                       route_targets=("even", "odd"), payload=True)
        drm = _drm(spec, in_q, outs, l1, memmap)
        for tag in range(4):
            in_q.enq((ref.addr(tag), tag))
        drm.run(100)
        evens = (outs["even"].deq(), outs["even"].deq())
        odds = (outs["odd"].deq(), outs["odd"].deq())
        assert [t.value[1] for t in evens] == [0, 2]
        assert [t.value[1] for t in odds] == [1, 3]

    def test_control_broadcast_to_all_routes(self):
        l1, memmap, ref, data = _env()
        in_q = Queue("in", 64, entry_words=2)
        outs = {"a": Queue("a", 64, entry_words=2),
                "b": Queue("b", 64, entry_words=2)}
        spec = DRMSpec("d", "deref", in_queue="in",
                       route=lambda vals, payload: "a",
                       route_targets=("a", "b"), payload=True)
        drm = _drm(spec, in_q, outs, l1, memmap)
        in_q.enq("END", is_control=True)
        drm.run(10)
        assert outs["a"].deq().is_control
        assert outs["b"].deq().is_control

    def test_control_preserves_order(self):
        l1, memmap, ref, data = _env()
        in_q = Queue("in", 64)
        out_q = Queue("out", 64)
        spec = DRMSpec("d", "deref", in_queue="in", out_queue="out")
        drm = _drm(spec, in_q, {"out": out_q}, l1, memmap)
        in_q.enq(ref.addr(1))
        in_q.enq("END", is_control=True)
        in_q.enq(ref.addr(2))
        drm.run(100)
        values = [out_q.deq() for _ in range(3)]
        assert [t.is_control for t in values] == [False, True, False]


class TestScanMode:
    def test_scans_range_in_order(self):
        l1, memmap, ref, data = _env()
        in_q = Queue("in", 64, entry_words=2)
        out_q = Queue("out", 64)
        spec = DRMSpec("s", "scan", in_queue="in", out_queue="out")
        drm = _drm(spec, in_q, {"out": out_q}, l1, memmap)
        in_q.enq((ref.addr(10), ref.addr(14)))
        drm.run(100)
        assert [out_q.deq().value for _ in range(4)] == [30, 33, 36, 39]
        assert out_q.is_empty()

    def test_scan_resumes_after_full_output(self):
        l1, memmap, ref, data = _env()
        in_q = Queue("in", 64, entry_words=2)
        out_q = Queue("out", 3)
        spec = DRMSpec("s", "scan", in_queue="in", out_queue="out")
        drm = _drm(spec, in_q, {"out": out_q}, l1, memmap)
        in_q.enq((ref.addr(0), ref.addr(6)))
        drm.run(100)
        collected = [out_q.deq().value for _ in range(3)]
        drm.run(100)
        collected += [out_q.deq().value for _ in range(3)]
        assert collected == [0, 3, 6, 9, 12, 15]

    def test_empty_range_produces_nothing(self):
        l1, memmap, ref, data = _env()
        in_q = Queue("in", 64, entry_words=2)
        out_q = Queue("out", 64)
        spec = DRMSpec("s", "scan", in_queue="in", out_queue="out")
        drm = _drm(spec, in_q, {"out": out_q}, l1, memmap)
        in_q.enq((ref.addr(5), ref.addr(5)))
        drm.run(10)
        assert out_q.is_empty()


class TestTiming:
    def test_issue_width_raises_throughput(self):
        l1, memmap, ref, data = _env()
        results = {}
        for width in (1, 4):
            in_q = Queue("in", 256)
            out_q = Queue("out", 256)
            spec = DRMSpec("d", "deref", in_queue="in", out_queue="out")
            drm = _drm(spec, in_q, {"out": out_q}, l1, memmap,
                       issue_width=width)
            for i in range(64):
                in_q.enq(ref.addr(i % 100))
            drm.run(16)  # 16 cycles
            results[width] = len(out_q)
        assert results[4] > results[1]

    def test_misses_amortized_by_outstanding_window(self):
        l1, memmap, ref, data = _env()
        in_q = Queue("in", 64)
        out_q = Queue("out", 64)
        spec = DRMSpec("d", "deref", in_queue="in", out_queue="out")
        drm = _drm(spec, in_q, {"out": out_q}, l1, memmap,
                   max_outstanding=8)
        in_q.enq(ref.addr(0))  # cold miss
        spent = drm.run(100)
        # 1 issue slot + ((4 + 120) - 4) / 8 = 16 cycles (L1 over memory).
        assert spent == pytest.approx(1 + 120 / 8)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            DRMSpec("bad", "teleport", in_queue="in", out_queue="out")
        with pytest.raises(ValueError):
            DRMSpec("bad", "deref", in_queue="in")  # no output
        with pytest.raises(ValueError):
            DRMSpec("bad", "deref", in_queue="in", out_queue="o",
                    route=lambda v, p: "o")  # both outputs

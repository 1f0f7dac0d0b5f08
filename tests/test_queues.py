"""Unit tests for queues, control values, credits, and queue memory."""

import pytest

from repro.queues import (Queue, QueueEmptyError, QueueFullError,
                          QueueMemory, QueueSpec)
from repro.queues.queue_memory import QueueMemoryError


class TestQueueBasics:
    def test_fifo_order(self):
        q = Queue("q", 8)
        for i in range(5):
            q.enq(i)
        assert [q.deq().value for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_capacity_in_words(self):
        q = Queue("q", 4, entry_words=2)
        q.enq((1, 2))
        q.enq((3, 4))
        assert not q.can_enq()
        with pytest.raises(QueueFullError):
            q.enq((5, 6))

    def test_control_values_occupy_one_word(self):
        q = Queue("q", 4, entry_words=2)
        q.enq((1, 2))
        q.enq("END", is_control=True)
        q.enq("END2", is_control=True)
        assert q.occupancy_words == 4
        assert not q.can_enq(is_control=True)

    def test_control_bit_travels_with_value(self):
        q = Queue("q", 8)
        q.enq(1)
        q.enq("CTL", is_control=True)
        assert not q.deq().is_control
        token = q.deq()
        assert token.is_control and token.value == "CTL"

    def test_deq_empty_raises(self):
        q = Queue("q", 4)
        with pytest.raises(QueueEmptyError):
            q.deq()

    def test_capacity_below_entry_rejected(self):
        with pytest.raises(ValueError):
            Queue("q", 1, entry_words=2)


class TestCreditFlowControl:
    def _queue(self):
        return Queue("q", 8, producers=("a", "b"))

    def test_credits_divided_evenly(self):
        q = self._queue()
        for _ in range(4):
            q.enq(0, producer="a")
        assert not q.can_enq("a")
        assert q.can_enq("b")

    def test_credit_returns_to_original_producer(self):
        q = self._queue()
        for _ in range(4):
            q.enq("A", producer="a")
        q.deq()
        assert q.can_enq("a")
        # b's credits were never consumed.
        for _ in range(4):
            q.enq("B", producer="b")
        assert not q.can_enq("b")

    def test_unknown_producer_rejected(self):
        q = self._queue()
        with pytest.raises(KeyError):
            q.can_enq("stranger")

    def test_single_producer_needs_no_credits(self):
        q = Queue("q", 8, producers=("only",))
        for _ in range(8):
            q.enq(0, producer="only")
        assert not q.can_enq("only")

    def test_insufficient_credit_share_rejected(self):
        with pytest.raises(ValueError):
            Queue("q", 4, entry_words=4, producers=("a", "b"))


class TestQueueMemory:
    def test_even_split(self):
        qmem = QueueMemory(16 * 1024)
        queues = qmem.carve([QueueSpec("a"), QueueSpec("b")])
        assert queues["a"].capacity_words == 1024
        assert queues["b"].capacity_words == 1024

    def test_weighted_split(self):
        qmem = QueueMemory(16 * 1024)
        queues = qmem.carve([QueueSpec("a", weight=3.0), QueueSpec("b")])
        assert queues["a"].capacity_words == 3 * queues["b"].capacity_words

    def test_max_queue_limit(self):
        qmem = QueueMemory(16 * 1024, max_queues=2)
        with pytest.raises(QueueMemoryError):
            qmem.carve([QueueSpec(f"q{i}") for i in range(3)])

    def test_duplicate_names_rejected(self):
        qmem = QueueMemory(16 * 1024)
        with pytest.raises(QueueMemoryError):
            qmem.carve([QueueSpec("a"), QueueSpec("a")])

    def test_floor_guarantees_one_entry_per_producer(self):
        qmem = QueueMemory(256)  # 32 words
        queues = qmem.carve(
            [QueueSpec("wide", entry_words=4,
                       producers=tuple(f"p{i}" for i in range(4))),
             QueueSpec("other")])
        # 4 producers x 4-word entries need at least 16 words.
        assert queues["wide"].capacity_words >= 16

    def test_control_only_flag_propagates(self):
        qmem = QueueMemory(1024)
        queues = qmem.carve([QueueSpec("ctl", control_only=True)])
        assert queues["ctl"].control_only

    def test_words_in_use_tracks_occupancy(self):
        qmem = QueueMemory(1024)
        queues = qmem.carve([QueueSpec("a"), QueueSpec("b", entry_words=2)])
        queues["a"].enq(1)
        queues["b"].enq((1, 2))
        assert qmem.words_in_use == 3

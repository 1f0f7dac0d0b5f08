"""FIFO queues with control values and credit-based flow control.

A queue stores :class:`Token` entries. Data tokens occupy ``entry_words``
words of queue memory; control tokens always occupy one word (a control
value is a single word plus the control bit, paper Sec. 5.5).

Queues declared with multiple producers implement the paper's
credit-based flow control (Sec. 5.6): free space is divided evenly
across producers as credits; a producer stalls when it runs out of
credits, and a credit returns to the producer that enqueued the token
when it is dequeued.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Hashable, Optional, Sequence


class QueueFullError(Exception):
    """Enqueue attempted with no space/credit available."""


class QueueEmptyError(Exception):
    """Dequeue attempted on an empty queue."""


class Token:
    """One queue entry: a value plus the control bit."""

    __slots__ = ("value", "is_control", "producer")

    def __init__(self, value: Any, is_control: bool = False,
                 producer: Optional[Hashable] = None):
        self.value = value
        self.is_control = is_control
        self.producer = producer

    def words(self, entry_words: int) -> int:
        return 1 if self.is_control else entry_words

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Token):
            return NotImplemented
        return (self.value == other.value
                and self.is_control == other.is_control
                and self.producer == other.producer)

    def __hash__(self) -> int:
        return hash((self.value, self.is_control, self.producer))

    def __repr__(self) -> str:
        return (f"Token(value={self.value!r}, is_control={self.is_control!r}, "
                f"producer={self.producer!r})")


class Queue:
    """A FIFO channel virtualized in a PE's queue memory.

    ``capacity_words`` bounds total occupancy in machine words.
    ``entry_words`` is the width of one data token (e.g., a
    ``(start, end)`` pair is two words). ``producers`` enables
    credit-based flow control when it names more than one producer.
    """

    # Optional telemetry Probe (repro.stats.telemetry), shadowed per
    # instance by System.attach_telemetry; the class default keeps the
    # uninstrumented hot path to one attribute lookup.
    probe = None

    def __init__(self, name: str, capacity_words: int, entry_words: int = 1,
                 producers: Sequence[Hashable] = (),
                 control_only: bool = False):
        self.control_only = control_only
        if entry_words < 1:
            raise ValueError(
                f"queue {name!r}: entry_words must be positive, "
                f"got {entry_words}")
        if capacity_words < entry_words:
            raise ValueError(
                f"queue {name!r}: capacity {capacity_words} words cannot hold "
                f"one {entry_words}-word entry")
        self.name = name
        self.capacity_words = capacity_words
        self.entry_words = entry_words
        self._tokens: deque[Token] = deque()
        self._occupancy_words = 0
        self.total_enqueued = 0
        self.producers = tuple(producers)
        self._credits: Optional[dict[Hashable, int]] = None
        if len(self.producers) > 1:
            share = capacity_words // len(self.producers)
            if share < entry_words:
                raise ValueError(
                    f"queue {name!r}: per-producer credit share {share} words "
                    f"cannot hold one {entry_words}-word entry")
            self._credits = {p: share for p in self.producers}

    # -- occupancy ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._tokens)

    @property
    def occupancy_words(self) -> int:
        return self._occupancy_words

    @property
    def free_words(self) -> int:
        return self.capacity_words - self._occupancy_words

    def is_empty(self) -> bool:
        return not self._tokens

    def token_words(self) -> int:
        """Recount occupancy from the stored tokens (sanitizer oracle)."""
        return sum(t.words(self.entry_words) for t in self._tokens)

    def credit_state(self) -> Optional[dict[Hashable, int]]:
        """Snapshot of per-producer credits, or None when uncredited."""
        if self._credits is None:
            return None
        return dict(self._credits)

    def describe(self) -> str:
        """One-line occupancy summary for deadlock/timeout reports."""
        text = (f"{len(self._tokens)} tokens, "
                f"{self._occupancy_words}/{self.capacity_words} words")
        if self._credits is not None:
            credits = ", ".join(f"{p}={c}"
                                for p, c in sorted(self._credits.items(),
                                                   key=lambda kv: str(kv[0])))
            text += f", credits: {credits}"
        return text

    # -- enqueue side ------------------------------------------------------

    def can_enq(self, producer: Optional[Hashable] = None,
                is_control: bool = False) -> bool:
        words = 1 if is_control else self.entry_words
        credits = self._credits
        if credits is None:
            return self.capacity_words - self._occupancy_words >= words
        if producer not in credits:
            raise KeyError(
                f"queue {self.name!r}: unknown producer {producer!r}")
        ok = credits[producer] >= words
        if (not ok and self.probe is not None
                and "queue.credit_stall" in self.probe.bus.wants
                and self.free_words >= words):
            # Space exists but this producer's credit share is
            # exhausted: the Sec. 5.6 flow-control stall.
            self.probe.emit("queue.credit_stall", queue=self.name,
                            producer=str(producer))
        return ok

    def enq(self, value: Any, is_control: bool = False,
            producer: Optional[Hashable] = None) -> None:
        words = 1 if is_control else self.entry_words
        credits = self._credits
        if credits is None:
            if self.capacity_words - self._occupancy_words < words:
                raise QueueFullError(
                    f"queue {self.name!r} full (producer {producer!r})")
        else:
            if producer not in credits:
                raise KeyError(
                    f"queue {self.name!r}: unknown producer {producer!r}")
            if credits[producer] < words:
                # Route through can_enq so an unchecked caller still gets
                # the credit_stall probe before the raise.
                self.can_enq(producer, is_control)
                raise QueueFullError(
                    f"queue {self.name!r} full (producer {producer!r})")
            credits[producer] -= words
        self._tokens.append(Token(value, is_control, producer))
        self._occupancy_words += words
        self.total_enqueued += 1
        if self.probe is not None and "queue.enq" in self.probe.bus.wants:
            self.probe.emit("queue.enq", queue=self.name, words=words,
                            occupancy=self._occupancy_words,
                            control=is_control)

    # -- dequeue side ------------------------------------------------------

    def can_deq(self) -> bool:
        return bool(self._tokens)

    def peek(self) -> Token:
        if not self._tokens:
            raise QueueEmptyError(f"queue {self.name!r} empty")
        return self._tokens[0]

    def deq(self) -> Token:
        if not self._tokens:
            raise QueueEmptyError(f"queue {self.name!r} empty")
        token = self._tokens.popleft()
        words = 1 if token.is_control else self.entry_words
        self._occupancy_words -= words
        if self._credits is not None:
            self._credits[token.producer] += words
        if self.probe is not None and "queue.deq" in self.probe.bus.wants:
            self.probe.emit("queue.deq", queue=self.name, words=words,
                            occupancy=self._occupancy_words)
        return token

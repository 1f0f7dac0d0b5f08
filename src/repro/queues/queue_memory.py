"""Per-PE queue memory: a small SRAM statically carved into queues.

The baseline and Fifer PEs store all their queues in a 16 KB buffer
(paper Sec. 3); the buffer is statically divided among the queues, each
managed as a circular buffer. Fifer adds intra-PE queues by adding
head/tail pointers in the same buffer (Sec. 5.3), so temporal pipelines
with many stages get *less effective space per queue* — the property the
Fig. 16 queue-size sweep studies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.queues.queue import Queue

WORD_BYTES = 8


class QueueMemoryError(Exception):
    """Raised when the queue memory cannot host the requested queues."""


@dataclass(frozen=True)
class QueueSpec:
    """Declaration of one queue to be carved from a PE's queue memory.

    ``weight`` sets the relative share of the buffer; memory accrues to
    queues proportionally (the static division of paper Sec. 3).
    """

    name: str
    entry_words: int = 1
    weight: float = 1.0
    producers: tuple = field(default=())
    # Marks queues that only ever carry control values from the control
    # core (iteration dispatch); blocked dequeues on these are reported
    # as idle time, not queue-empty stalls.
    control_only: bool = False

    def __post_init__(self):
        if self.entry_words < 1:
            raise ValueError(
                f"queue {self.name!r}: entry_words must be positive, "
                f"got {self.entry_words}")
        if self.weight <= 0:
            raise ValueError(
                f"queue {self.name!r}: weight must be positive, "
                f"got {self.weight}")

    @property
    def floor_words(self) -> int:
        """Minimum carve: one entry per producer so credit-based flow
        control has at least one credit each."""
        return self.entry_words * max(1, len(self.producers))


def plan_capacities(budget_words: int,
                    specs: Sequence[QueueSpec]) -> list[int]:
    """Pure capacity plan: divide ``budget_words`` among ``specs``.

    Memory accrues proportionally to ``weight``, with each queue floored
    at one entry per producer. If the floors alone exceed the budget the
    plan over-allocates (``sum(plan) > budget_words``) — callers that
    care, e.g. the static analyzer's budget pass, must check for that.
    """
    total_weight = sum(s.weight for s in specs)
    if total_weight <= 0:
        raise QueueMemoryError("total queue weight must be positive")
    capacities = []
    for spec in specs:
        words = int(budget_words * spec.weight / total_weight)
        # Every queue must hold at least one entry per producer so
        # credit-based flow control has at least one credit each.
        capacities.append(max(words, spec.floor_words))
    if sum(capacities) > budget_words and sum(capacities) > sum(
            s.floor_words for s in specs):
        # Shrink proportionally if the floors pushed us over budget.
        over = sum(capacities) - budget_words
        for i, spec in enumerate(specs):
            give = min(over, capacities[i] - spec.floor_words)
            capacities[i] -= give
            over -= give
            if over <= 0:
                break
    return capacities


class QueueMemory:
    """Carves a byte budget into :class:`Queue` objects."""

    def __init__(self, capacity_bytes: int, max_queues: int = 16):
        if capacity_bytes < WORD_BYTES:
            raise QueueMemoryError(
                f"queue memory of {capacity_bytes} bytes holds no words")
        self.capacity_bytes = capacity_bytes
        self.max_queues = max_queues
        self.queues: dict[str, Queue] = {}

    @property
    def capacity_words(self) -> int:
        return self.capacity_bytes // WORD_BYTES

    def carve(self, specs: Sequence[QueueSpec]) -> dict[str, Queue]:
        """Divide the buffer among ``specs`` and instantiate the queues."""
        if not specs:
            raise QueueMemoryError("no queues requested")
        if len(specs) > self.max_queues:
            raise QueueMemoryError(
                f"{len(specs)} queues exceed the {self.max_queues}-queue "
                f"limit")
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise QueueMemoryError(f"duplicate queue names in {names}")
        capacities = plan_capacities(self.capacity_words, specs)
        for spec, capacity in zip(specs, capacities):
            self.queues[spec.name] = Queue(
                spec.name, capacity, spec.entry_words, spec.producers,
                control_only=spec.control_only)
        return self.queues

    def __getitem__(self, name: str) -> Queue:
        return self.queues[name]

    @property
    def words_in_use(self) -> int:
        return sum(q.occupancy_words for q in self.queues.values())

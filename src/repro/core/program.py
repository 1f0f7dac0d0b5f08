"""Program descriptors: what runs where.

A workload builds a :class:`Program` for a given layout: for every PE, a
:class:`PEProgram` lists the queues to carve from that PE's queue
memory, the stages resident there, and the DRMs configured there.
Workloads also register their data arrays in a
:class:`~repro.memory.memmap.MemoryMap` (for DRM address resolution) and
may provide a ``control_poll`` callback — the control core of Fig. 4/7,
responsible for initialization, teardown, and the rare global actions
(iteration barriers, fringe swaps) that need a general-purpose agent.

Layout conventions (paper Sec. 5.6 / Sec. 7.1):

* **Fifer**: every PE hosts a complete temporal pipeline (all stages of
  one shard); 16 PEs = 16 replicated temporal pipelines.
* **Static**: each stage is pinned to its own PE for the whole run, so a
  ``k``-stage pipeline replicated ``n_pes // k`` times fills the system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.core.drm import DRMSpec
from repro.core.stage import StageSpec
from repro.memory.address import AddressSpace
from repro.memory.memmap import MemoryMap
from repro.queues.queue import Queue
from repro.queues.queue_memory import QueueSpec


@dataclass
class PEProgram:
    """Everything resident on one PE."""

    shard: int
    queue_specs: list[QueueSpec] = field(default_factory=list)
    stage_specs: list[StageSpec] = field(default_factory=list)
    drm_specs: list[DRMSpec] = field(default_factory=list)


@dataclass
class Program:
    """A complete pipeline-parallel program ready to instantiate."""

    name: str
    pe_programs: list[PEProgram]
    address_space: AddressSpace
    memmap: MemoryMap
    # Queues not stored in any PE's queue memory (e.g., the barrier queue
    # read by the control core).
    external_queues: dict[str, Queue] = field(default_factory=dict)
    # Called once per quantum after all PEs run; receives the System.
    control_poll: Optional[Callable[[Any], None]] = None
    # Optional side-effect-free predicate certifying that the *next*
    # control_poll call is a no-op and stays one until some queue
    # activity occurs. The fast engine only jumps a fully quiescent
    # system over the control core when this returns True; without it
    # every quantum boundary is visited so the poll keeps running.
    control_poll_idle: Optional[Callable[[Any], bool]] = None
    # Called once after the System instantiates all queues/PEs; lets the
    # workload size windows from the actual carved queue capacities.
    post_build: Optional[Callable[[Any], None]] = None
    # Extracts the program's functional result after completion.
    result_fn: Optional[Callable[[], Any]] = None

    @property
    def n_pes(self) -> int:
        return len(self.pe_programs)

    def result(self) -> Any:
        return self.result_fn() if self.result_fn is not None else None

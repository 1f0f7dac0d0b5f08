"""Queue-neighborhood lookup for blame attribution and path walking.

The wait-for profiler needs to answer, for any queue name, "who fills
this queue?" and "who drains it?" — so a ``stall_queue_empty`` cycle can
be charged to the upstream producer and a ``stall_queue_full`` cycle to
the downstream consumer. :func:`repro.analysis.graph.build_channel_graph`
already extracts exactly this topology from the compiled artifacts; this
module wraps it in O(1) lookups and adds the name conventions shared by
the profiler (base stage names, component labels).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.graph import CONTROL_CORE, build_channel_graph

#: Blame-matrix column for cycles a PE spent doing useful work.
COMPUTE = "(compute)"
#: Blame-matrix column for backend/memory-hierarchy stalls.
MEMORY = "(memory)"
#: Blame-matrix column for reconfiguration cycles.
RECONFIG = "(reconfig)"
#: Blame-matrix column for inactive cycles (no runnable work).
IDLE = "(idle)"
#: Blame target when a queue stall cannot be tied to a queue/endpoint.
UNRESOLVED = "(unresolved)"
#: Blame target for queues on the control-core boundary.
CONTROL = f"({CONTROL_CORE})"


def base_name(component: str) -> str:
    """Collapse a per-shard name to its base: ``bfs.fetch@3`` ->
    ``bfs.fetch``. Non-sharded labels pass through unchanged."""
    return component.split("@", 1)[0]


@dataclass(frozen=True)
class Neighbor:
    """One endpoint on a queue: a stage, DRM, or the control core."""

    kind: str   # "stage" | "drm" | "control"
    name: str
    pe: int     # -1 for the control core


class Topology:
    """Producer/consumer lookup tables for every queue in a program."""

    def __init__(self, producers: dict, consumers: dict, pes: dict):
        self._producers = producers   # queue -> tuple[Neighbor]
        self._consumers = consumers   # queue -> tuple[Neighbor]
        self._pes = pes               # component name -> pe id

    @classmethod
    def from_program(cls, program, config) -> "Topology":
        """Extract the topology from a compiled ``Program``."""
        graph = build_channel_graph(program, config)
        producers: dict = {}
        consumers: dict = {}
        pes: dict = {}
        for channel in graph.channels.values():
            producers[channel.name] = tuple(
                Neighbor(e.kind, e.name, e.pe) for e in channel.producers)
            consumers[channel.name] = tuple(
                Neighbor(e.kind, e.name, e.pe) for e in channel.consumers)
        for node in graph.stages:
            pes[node.endpoint.name] = node.endpoint.pe
        for node in graph.drms:
            pes[node.endpoint.name] = node.endpoint.pe
        return cls(producers, consumers, pes)

    def producers_of(self, queue: str) -> tuple:
        """Fabric endpoints that enqueue into ``queue`` (control-core
        producers excluded; empty when only the control core fills it)."""
        return tuple(n for n in self._producers.get(queue, ())
                     if n.kind != "control")

    def consumers_of(self, queue: str) -> tuple:
        """Fabric endpoints that dequeue from ``queue``."""
        return tuple(n for n in self._consumers.get(queue, ())
                     if n.kind != "control")

    def components(self) -> tuple:
        """Names of every stage and DRM placed on a PE (per shard)."""
        return tuple(self._pes)

    def pe_of(self, component: str) -> int:
        """PE hosting ``component``, or -1 when unknown."""
        return self._pes.get(component, -1)

    def blamees_for_stall(self, bucket: str, queue) -> tuple:
        """Components to blame for one queue stall: names, in a stable
        order. ``stall_queue_empty`` waits on the queue's producers;
        ``stall_queue_full`` waits on its consumers. Falls back to the
        control core (iteration dispatch / barrier) when no fabric
        endpoint sits on the blamed side, and to :data:`UNRESOLVED`
        when the stall carries no queue at all."""
        if queue is None:
            return (UNRESOLVED,)
        if bucket == "stall_queue_full":
            side = self.consumers_of(queue)
        else:
            side = self.producers_of(queue)
        if not side:
            return (CONTROL,)
        return tuple(n.name for n in side)

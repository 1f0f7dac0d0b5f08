"""Execution tracing: per-PE timelines of stage activations.

:class:`ActivationTracer` is a thin :class:`~repro.stats.telemetry.EventSink`
over the telemetry bus: it records every ``stage.activate`` event with
timestamps. Attach one to a :class:`~repro.core.system.System` before
running to inspect the schedule (which stages ran when, for how long)
and render an ASCII Gantt chart — useful for understanding Fifer's
dynamic temporal pipelining and for debugging load imbalance.

Attaching no longer mutates PEs directly: ``attach`` subscribes the
tracer to the system's event bus (creating one if needed) and
``detach`` — or leaving a ``with`` block — unsubscribes it, so tracing
can be scoped to part of a run::

    with ActivationTracer().attach(system):
        result = system.run()

For richer traces (queue occupancy, cache misses, Perfetto export) use
:mod:`repro.stats.telemetry` directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.stats.telemetry import EventBus, EventSink, TelemetryEvent


@dataclass(frozen=True)
class ActivationEvent:
    """One stage activation on one PE."""

    pe_id: int
    stage: str
    start: float            # cycle the stage became active
    reconfig_cycles: float  # dead time spent switching to it


class ActivationTracer(EventSink):
    """Collects activation events from all PEs of a system."""

    def __init__(self):
        self.events: list[ActivationEvent] = []
        self._bus: Optional[EventBus] = None

    # -- sink protocol -------------------------------------------------------

    def on_event(self, event: TelemetryEvent) -> None:
        if event.kind == "stage.activate":
            data = event.data
            self.record(data["pe"], data["stage"], event.cycle,
                        data["reconfig_cycles"])

    def record(self, pe_id: int, stage: str, start: float,
               reconfig_cycles: float) -> None:
        self.events.append(ActivationEvent(pe_id, stage, start,
                                           reconfig_cycles))

    # -- attachment ----------------------------------------------------------

    def attach(self, system) -> "ActivationTracer":
        """Subscribe to ``system``'s event bus (creating one if needed)."""
        bus = system.telemetry
        if bus is None:
            bus = EventBus()
            system.attach_telemetry(bus)
        bus.subscribe(self)
        self._bus = bus
        return self

    def detach(self) -> None:
        """Stop receiving events; recorded events are kept."""
        if self._bus is not None:
            self._bus.unsubscribe(self)
            self._bus = None

    def __enter__(self) -> "ActivationTracer":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.detach()
        return False

    # -- queries -------------------------------------------------------------

    def per_pe(self) -> dict:
        timelines: dict = {}
        for event in self.events:
            timelines.setdefault(event.pe_id, []).append(event)
        for timeline in timelines.values():
            timeline.sort(key=lambda e: e.start)
        return timelines

    def residences(self, end_cycle: float) -> list:
        """(pe, stage, start, duration) for every activation.

        Events are clamped to ``[0, end_cycle]``: an activation that
        starts at or after ``end_cycle`` (a truncated trace) contributes
        a zero-duration span rather than a negative one.
        """
        spans = []
        for pe_id, timeline in self.per_pe().items():
            for event, nxt in zip(timeline, timeline[1:] + [None]):
                start = min(event.start, end_cycle)
                end = min(nxt.start if nxt is not None else end_cycle,
                          end_cycle)
                spans.append((pe_id, event.stage, start,
                              max(0.0, end - start)))
        return spans

    def stage_cycle_share(self, end_cycle: float) -> dict:
        """Total resident cycles per stage name across all PEs."""
        shares: dict = {}
        for _, stage, _, duration in self.residences(end_cycle):
            shares[stage] = shares.get(stage, 0.0) + duration
        return shares

    # -- rendering ------------------------------------------------------------

    def gantt(self, end_cycle: float, width: int = 72,
              max_pes: int = 8) -> str:
        """Render per-PE timelines as an ASCII Gantt chart.

        Each stage gets a letter (assigned in first-seen order);
        reconfiguration time is implicit in the span boundaries.
        Events beyond ``end_cycle`` are clamped off the chart.
        """
        timelines = self.per_pe()
        letters: dict = {}

        def letter(stage: str) -> str:
            if stage not in letters:
                alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
                letters[stage] = alphabet[len(letters) % len(alphabet)]
            return letters[stage]

        lines = []
        scale = end_cycle / width if end_cycle else 1.0
        for pe_id in sorted(timelines)[:max_pes]:
            row = ["."] * width
            for event, nxt in zip(timelines[pe_id],
                                  timelines[pe_id][1:] + [None]):
                if event.start >= end_cycle:
                    continue
                end = min(nxt.start if nxt is not None else end_cycle,
                          end_cycle)
                lo = min(width - 1, int(event.start / scale))
                hi = min(width, max(lo + 1, int(end / scale)))
                for x in range(lo, hi):
                    row[x] = letter(event.stage)
            lines.append(f"PE{pe_id:<3}|{''.join(row)}|")
        legend = "  ".join(f"{v}={k}" for k, v in sorted(
            letters.items(), key=lambda kv: kv[1]))
        lines.append(f"legend: {legend}")
        return "\n".join(lines)

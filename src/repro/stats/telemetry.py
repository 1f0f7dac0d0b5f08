"""Structured telemetry: an event bus the whole simulator publishes to.

Every simulation component (PE engine, scheduler, DRMs, queues, caches,
main memory) owns an optional :class:`Probe`. With no telemetry attached
the probe attribute is ``None`` and instrumentation reduces to a single
attribute check on each (already rare) event site — a zero-cost no-op.
Attaching an :class:`EventBus` (``System.attach_telemetry``) wires a
probe into every component; subscribing :class:`EventSink` objects to
the bus then receives a totally ordered stream of structured
:class:`TelemetryEvent` records.

Event taxonomy (``kind`` / payload fields):

========================  ====================================================
``stage.activate``        ``pe``, ``stage``, ``reconfig_cycles`` — a stage
                          became active on a PE (after any reconfiguration)
``stage.deactivate``      ``pe``, ``stage`` — the outgoing stage stopped
``reconfig.begin``        ``pe``, ``stage`` (incoming), ``period``
``reconfig.end``          ``pe``, ``stage``
``sched.switch``          ``pe``, ``from``, ``to`` — scheduler decision
``pe.stall``              ``pe``, ``bucket`` — one blocked cycle, attributed
                          to a CPI bucket (queue full/empty/idle)
``queue.enq``             ``queue``, ``words``, ``occupancy``, ``control``
``queue.deq``             ``queue``, ``words``, ``occupancy``
``queue.credit_stall``    ``queue``, ``producer`` — space exists but the
                          producer is out of credits (Sec. 5.6 flow control)
``cache.miss``            ``level``, ``addr``, ``write``
``mem.issue``             ``addr``, ``write`` — request enters main memory
``mem.complete``          ``addr``, ``latency`` — stamped at completion time
``drm.blocked``           ``drm`` — a DRM stalled on a full output queue
``sample``                ``queues``, ``pe_state``, ``cpi`` — periodic
                          sampler output (see :class:`PeriodicSampler`)
========================  ====================================================

On top of the bus live a periodic sampler (queue-occupancy and per-PE
time series — a superset of the paper's Fig. 14/16 data), a JSONL sink,
and a Chrome trace-event exporter whose output loads directly in
Perfetto (https://ui.perfetto.dev): one track per PE with stage and
reconfiguration slices, plus one counter track per queue.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Optional

from repro.stats.cpi_stack import cpi_stack

_EPS = 1e-9


@dataclass
class TelemetryEvent:
    """One structured event: a timestamp, a kind, a source, a payload.

    ``seq`` is a bus-global monotonic sequence number that totally
    orders events even when several share a timestamp (e.g. a
    ``reconfig.end`` and the ``stage.activate`` it enables).

    Treat instances as read-only. The class is deliberately not
    ``frozen``: frozen-dataclass construction routes every field
    through ``object.__setattr__``, roughly tripling the per-event
    cost on the armed-profiler path that
    ``benchmarks/bench_telemetry_overhead.py`` budgets. Slots are
    declared by hand (``dataclass(slots=True)`` needs Python 3.10), so
    ``data`` has no default.
    """

    __slots__ = ("cycle", "seq", "kind", "source", "data")

    cycle: float
    seq: int
    kind: str
    source: str
    data: dict

    def as_dict(self) -> dict:
        return {"cycle": self.cycle, "seq": self.seq, "kind": self.kind,
                "source": self.source, **self.data}


class EventSink:
    """Receives events from an :class:`EventBus`; subclass and override."""

    def on_event(self, event: TelemetryEvent) -> None:  # pragma: no cover
        raise NotImplementedError

    def close(self) -> None:
        """Flush/release resources; the default is a no-op."""


class _AllKinds:
    """Sentinel ``wants`` value: every kind is wanted (unfiltered sink)."""

    __slots__ = ()

    def __contains__(self, kind: str) -> bool:
        return True

    def __bool__(self) -> bool:
        return True


_EVERY_KIND = _AllKinds()


class Probe:
    """A component's handle onto the bus (cheap to hold, cheap to skip).

    Publishers call ``emit`` only behind an ``if self.probe is not None``
    guard; ``emit`` itself drops the event unless some subscribed sink
    wants the kind (``bus.wants``), so an attached-but-unsubscribed bus
    costs one method call per event site and allocates nothing. The
    hottest sites (queue/cache/memory traffic) additionally pre-check
    ``kind in probe.bus.wants`` before building the payload, so a bus
    carrying only kind-filtered sinks (e.g. the wait-for profiler, which
    wants stall and reconfiguration events but not per-token queue
    traffic) skips those sites almost as cheaply as an idle bus.
    """

    __slots__ = ("bus", "source")

    def __init__(self, bus: "EventBus", source: str):
        self.bus = bus
        self.source = source

    def emit(self, kind: str, cycle: Optional[float] = None, **data) -> None:
        bus = self.bus
        if kind in bus.wants:
            # ``data`` is already a fresh dict; hand it to the bus
            # as-is rather than re-packing through a second **kwargs.
            bus.publish(kind, self.source, cycle, data)


class EventBus:
    """Fan-out hub: publishers emit, sinks subscribe, samplers tick.

    ``now`` is the bus clock: the :class:`~repro.core.system.System`
    updates it to the current cycle at every quantum boundary, and PEs
    pass their own (sub-quantum) ``now`` explicitly. Components without
    a clock of their own (queues, caches, memory) timestamp events with
    ``now``, so their timestamps are quantum-granular.

    ``subscribe(sink, kinds=...)`` registers a *kind-filtered* sink: the
    bus only constructs and delivers events some subscriber wants
    (``wants`` is the union of all subscriptions; an unfiltered sink
    widens it to everything). Filtering changes which events exist at
    all, so ``seq`` numbering — still strictly monotonic — depends on
    the subscription set. Note ``mem.complete`` rides behind the
    ``mem.issue`` fast-path guard in :class:`~repro.memory.cache.
    MainMemory`: subscribe to both to see completions.
    """

    def __init__(self):
        self.sinks: list = []
        self.samplers: list = []
        self.now = 0.0
        self.seq = 0
        #: Set-like of event kinds some sink wants; supports ``in``.
        self.wants = frozenset()
        self._filters: list = []   # parallel to sinks: frozenset | None
        self._delivery: list = []  # [(sink.on_event, kinds)] snapshot

    # -- sinks -------------------------------------------------------------

    def _rebuild_wants(self) -> None:
        if any(kinds is None for kinds in self._filters):
            self.wants = _EVERY_KIND
        elif self._filters:
            self.wants = frozenset().union(*self._filters)
        else:
            self.wants = frozenset()
        self._delivery = [(sink.on_event, kinds)
                          for sink, kinds in zip(self.sinks, self._filters)]

    def subscribe(self, sink: EventSink, kinds=None) -> EventSink:
        """Subscribe ``sink``; ``kinds`` (an iterable of event kinds)
        restricts delivery — and event construction — to those kinds.
        ``None`` (default) receives everything."""
        if sink not in self.sinks:
            self.sinks.append(sink)
            self._filters.append(frozenset(kinds) if kinds is not None
                                 else None)
            self._rebuild_wants()
        return sink

    def unsubscribe(self, sink: EventSink) -> None:
        if sink in self.sinks:
            index = self.sinks.index(sink)
            del self.sinks[index]
            del self._filters[index]
            self._rebuild_wants()

    @property
    def active(self) -> bool:
        return bool(self.sinks)

    def emit(self, kind: str, source: str,
             cycle: Optional[float] = None, **data) -> None:
        self.publish(kind, source, cycle, data)

    def publish(self, kind: str, source: str,
                cycle: Optional[float], data: dict) -> None:
        """Deliver one event; ``data`` is adopted, not copied."""
        if kind not in self.wants:
            return
        event = TelemetryEvent(self.now if cycle is None else cycle,
                               self.seq, kind, source, data)
        self.seq += 1
        for on_event, kinds in self._delivery:
            if kinds is None or kind in kinds:
                on_event(event)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()

    # -- samplers ----------------------------------------------------------

    def add_sampler(self, sampler: "PeriodicSampler") -> "PeriodicSampler":
        if sampler not in self.samplers:
            self.samplers.append(sampler)
            sampler.bus = self
        return sampler

    def on_quantum(self, system) -> None:
        """Advance the bus clock and run due samplers (one call/quantum)."""
        self.now = system.cycle
        for sampler in self.samplers:
            sampler.maybe_sample(system)


class RecordingSink(EventSink):
    """Collects events in memory, optionally filtered to a set of kinds."""

    def __init__(self, kinds=None):
        self.kinds = frozenset(kinds) if kinds is not None else None
        self.events: list[TelemetryEvent] = []

    def on_event(self, event: TelemetryEvent) -> None:
        if self.kinds is None or event.kind in self.kinds:
            self.events.append(event)


#: The keys :meth:`TelemetryEvent.as_dict` puts before the payload.
_BASE_KEYS = ("cycle", "seq", "kind", "source")

#: How json.dumps writes each exact type the JSONL formatter handles; an
#: encoder returns None for a value it leaves to json.dumps (NaN, inf).
_ENCODERS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: lambda value: (float.__repr__(value) if math.isfinite(value)
                          else None),
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


def _jsonl_layout(keys: tuple) -> tuple:
    """The sorted key layout of ``json.dumps(event.as_dict(),
    sort_keys=True)`` for events whose payload keys are ``keys``: one
    ``(text before the value, index into (cycle, seq, kind, source,
    *payload values))`` pair per key. Empty when a payload key is not a
    str or shadows a base key; json.dumps then writes those events."""
    if (any(type(key) is not str for key in keys)
            or not set(keys).isdisjoint(_BASE_KEYS)):
        return ()
    names = _BASE_KEYS + keys
    order = sorted(range(len(names)), key=names.__getitem__)
    return tuple((("{" if n == 0 else ", ")
                  + encode_basestring_ascii(names[i]) + ": ", i)
                 for n, i in enumerate(order))


class JsonlSink(EventSink):
    """Streams every event as one JSON object per line.

    Lines are byte-identical to ``json.dumps(event.as_dict(),
    sort_keys=True)``. A fixed-schema formatter writes them: one cached
    key layout per payload signature, values encoded by exact type.
    Anything else — non-finite floats, nested ``sample`` payloads,
    numpy scalars — goes through json.dumps.
    """

    def __init__(self, stream, kinds=None):
        self.stream = stream
        self.kinds = frozenset(kinds) if kinds is not None else None
        self.n_events = 0
        self._layouts: dict = {}

    def format(self, event: TelemetryEvent) -> str:
        """One event as its JSON line (without the newline)."""
        data = event.data
        keys = tuple(data)
        layout = self._layouts.get(keys)
        if layout is None:
            layout = self._layouts[keys] = _jsonl_layout(keys)
        if layout:
            values = (event.cycle, event.seq, event.kind, event.source,
                      *data.values())
            parts = []
            for prefix, index in layout:
                value = values[index]
                encode = _ENCODERS.get(type(value))
                text = None if encode is None else encode(value)
                if text is None:
                    break
                parts.append(prefix + text)
            else:
                return "".join(parts) + "}"
        return json.dumps(event.as_dict(), sort_keys=True)

    def on_event(self, event: TelemetryEvent) -> None:
        if self.kinds is None or event.kind in self.kinds:
            self.stream.write(self.format(event) + "\n")
            self.n_events += 1

    def close(self) -> None:
        self.stream.flush()


class PeriodicSampler:
    """Samples queue occupancy and per-PE state every ``period`` cycles.

    Sampling happens at quantum boundaries: each due point ``k*period``
    is recorded at the first boundary at or after it, and due points
    that fall inside one quantum collapse into a single sample — so for
    ``period >= quantum`` there are exactly ``floor(C/period) + 1``
    samples over ``C`` cycles, and for ``period < quantum`` one sample
    per quantum.

    Each sample is a plain dict::

        {"cycle": float,
         "queues": {name: occupancy_words},
         "pe_state": [state per PE: a stage name, "(reconfig)", "(idle)",
                      or "(done)"],
         "cpi": [per-PE Fig. 14 bucket dict, cumulative since cycle 0]}

    Differencing consecutive ``cpi`` entries yields time-resolved CPI
    stacks; ``queues`` series render as Perfetto counter tracks.
    """

    def __init__(self, period: float, publish: bool = True):
        if period <= 0:
            raise ValueError(f"sampler period must be positive, got {period}")
        self.period = float(period)
        self.publish = publish
        self.samples: list[dict] = []
        self.bus: Optional[EventBus] = None
        self._next = 0.0

    def maybe_sample(self, system) -> None:
        if system.cycle + _EPS < self._next:
            return
        self.sample(system)
        self._next = (math.floor(system.cycle / self.period) + 1) * self.period

    def sample(self, system) -> dict:
        """Record one sample immediately (regardless of the period)."""
        cycle = system.cycle
        record = {
            "cycle": cycle,
            "queues": {name: queue.occupancy_words
                       for name, queue in system.queues.items()},
            "pe_state": [pe.state for pe in system.pes],
            "cpi": [cpi_stack(pe.counters, cycle) for pe in system.pes],
        }
        self.samples.append(record)
        if self.publish and self.bus is not None:
            self.bus.emit("sample", "sampler", cycle=cycle,
                          queues=record["queues"],
                          pe_state=record["pe_state"],
                          cpi=record["cpi"])
        return record


# -- Chrome trace-event export ---------------------------------------------

def chrome_trace(events, end_cycle: float, samples=(),
                 process_name: str = "fifer") -> dict:
    """Convert bus events (+ sampler samples) to Chrome trace-event JSON.

    The returned dict serializes to a file Perfetto and
    ``chrome://tracing`` load directly. Stage residencies and
    reconfiguration periods become complete ("X") slices on one track
    (``tid``) per PE; queue-occupancy samples become counter ("C")
    tracks. Timestamps are cycles (1 "us" == 1 cycle).

    ``events`` needs only ``stage.activate`` and ``reconfig.begin``
    kinds (others are ignored), so a filtered :class:`RecordingSink`
    keeps memory bounded on long runs.
    """
    trace: list[dict] = [
        {"ph": "M", "name": "process_name", "pid": 0,
         "args": {"name": process_name}},
    ]
    # Replay activations/reconfigurations per PE into closed spans.
    open_span: dict[int, dict] = {}   # pe -> {"name", "cat", "ts"}
    pes_seen: set = set()

    def close(pe: int, at: float) -> None:
        span = open_span.pop(pe, None)
        if span is None:
            return
        ts = min(span["ts"], end_cycle)
        dur = max(0.0, min(at, end_cycle) - ts)
        trace.append({"ph": "X", "name": span["name"], "cat": span["cat"],
                      "ts": ts, "dur": dur, "pid": 0, "tid": pe,
                      "args": span.get("args", {})})

    for event in sorted(events, key=lambda e: (e.cycle, e.seq)):
        if event.kind == "reconfig.begin":
            pe = event.data["pe"]
            pes_seen.add(pe)
            close(pe, event.cycle)
            if event.data.get("period", 0.0) > 0.0:
                open_span[pe] = {"name": "(reconfig)", "cat": "reconfig",
                                 "ts": event.cycle,
                                 "args": {"incoming": event.data["stage"]}}
        elif event.kind == "stage.activate":
            pe = event.data["pe"]
            pes_seen.add(pe)
            close(pe, event.cycle)
            open_span[pe] = {"name": event.data["stage"], "cat": "stage",
                             "ts": event.cycle}
    for pe in sorted(open_span):
        close(pe, end_cycle)
    for pe in sorted(pes_seen):
        trace.append({"ph": "M", "name": "thread_name", "pid": 0, "tid": pe,
                      "args": {"name": f"PE {pe}"}})

    for sample in samples:
        for name, words in sample["queues"].items():
            trace.append({"ph": "C", "name": f"queue {name}", "pid": 0,
                          "ts": sample["cycle"], "args": {"words": words}})

    return {"traceEvents": trace, "displayTimeUnit": "ms",
            "otherData": {"clock": "cycles", "end_cycle": end_cycle}}


def write_chrome_trace(stream, events, end_cycle: float, samples=(),
                       **kwargs) -> None:
    """Serialize :func:`chrome_trace` output to an open text stream."""
    json.dump(chrome_trace(events, end_cycle, samples=samples, **kwargs),
              stream, sort_keys=True)
    stream.write("\n")

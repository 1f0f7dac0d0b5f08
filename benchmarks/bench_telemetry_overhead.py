"""Micro-benchmark: telemetry instrumentation overhead when disabled.

The telemetry subsystem's contract is that instrumented hot paths are a
zero-cost no-op when nothing is listening: every publish site is a
single ``if probe is not None`` attribute check, and an attached bus
with no sinks adds only one guarded method call per (rare) event site.
This benchmark measures simulated-run wall time for the same program in
four states —

* ``off``      — no bus attached (every probe is ``None``),
* ``armed``    — bus attached, no sinks subscribed,
* ``profiled`` — bus attached, kind-filtered :class:`WaitForProfiler`
  subscribed (the ``repro profile`` configuration),
* ``on``       — bus attached with a recording sink (full event stream),

and asserts the ``armed`` state stays within 5% of ``off`` and the
``profiled`` state within 10%. The profiler budget holds because its
kind-filtered subscription keeps the bus from even constructing the
per-token queue/cache events that dominate the ``on`` stream.

Methodology: paired rounds. Each round runs ``off`` and each other
state back to back, in alternating order (``off`` first in even rounds,
last in odd ones), and takes the ratio of the pair's two times. The
host's speed drifts by tens of percent over minutes; a ratio of two
neighbouring runs cancels that slow drift, where a ratio of per-state
minimums taken minutes apart does not (the min-of-10 estimator this
replaces read one commit's armed overhead anywhere from -10.7% to
+39.4% within an hour). The overhead is the median of the per-round
ratios minus one. Faster noise remains, so the table reports the
ratios' interquartile range beside it.
"""

import statistics
import time

from bench_common import emit
from repro.config import SystemConfig
from repro.core import System
from repro.datasets.graphs import power_law_graph
from repro.harness import format_table
from repro.profiling import attach_profiler
from repro.stats.telemetry import EventBus, RecordingSink
from repro.workloads import bfs

REPEATS = 10
OVERHEAD_BUDGET = 0.05   # acceptance: < 5% with no sinks attached
PROFILER_BUDGET = 0.10   # acceptance: < 10% with the profiler armed

_STATES = ("off", "armed", "profiled", "on")


def _run_once(state: str) -> float:
    config = SystemConfig()
    graph = power_law_graph(2000, 8.0, seed=3)
    program, _ = bfs.build(graph, config, "fifer")
    system = System(config, program, mode="fifer")
    if state != "off":
        bus = EventBus()
        system.attach_telemetry(bus)
        if state == "profiled":
            attach_profiler(system, bus=bus)
        elif state == "on":
            bus.subscribe(RecordingSink())
    start = time.perf_counter()
    system.run()
    return time.perf_counter() - start


def _measure() -> tuple:
    """Paired rounds: ``(times, ratios)``, where ``times`` maps each
    state to its wall time per run and ``ratios`` each instrumented
    state to its per-round ratio over the ``off`` run it was paired
    with."""
    for state in _STATES:  # warm the in-process compile caches
        _run_once(state)
    times = {state: [] for state in _STATES}
    ratios = {state: [] for state in _STATES if state != "off"}
    for round_no in range(REPEATS):
        for state in ratios:
            pair = ("off", state) if round_no % 2 == 0 else (state, "off")
            measured = {name: _run_once(name) for name in pair}
            for name, seconds in measured.items():
                times[name].append(seconds)
            ratios[state].append(measured[state] / measured["off"])
    return times, ratios


def run_overhead():
    times, ratios = _measure()
    # (first quartile, median, third quartile) of each state's ratios.
    spread = {state: statistics.quantiles(values, n=4)
              for state, values in ratios.items()}
    overhead = {state: median - 1.0
                for state, (_, median, _) in spread.items()}
    labels = {
        "off": "off (no bus)",
        "armed": "armed (bus, no sinks)",
        "profiled": "profiled (wait-for profiler)",
        "on": "on (recording sink)",
    }
    rows = []
    for state in _STATES:
        row = [labels[state],
               f"{statistics.median(times[state]) * 1e3:.1f}"]
        if state in spread:
            q1, _, q3 = spread[state]
            row += [f"{overhead[state]:+.1%}",
                    f"{q1 - 1.0:+.1%} .. {q3 - 1.0:+.1%}"]
        else:
            row += ["-", "-"]
        rows.append(row)
    table = format_table(
        ["telemetry state", "median wall time (ms)", "vs off (median)",
         "vs off (IQR)"], rows,
        title=(f"telemetry overhead, bfs on a 2000-vertex power-law graph "
               f"(median of {REPEATS} paired rounds, alternating order; "
               f"budgets: armed < {OVERHEAD_BUDGET:.0%}, profiled < "
               f"{PROFILER_BUDGET:.0%})"))
    emit("telemetry_overhead", table)
    return overhead


def test_telemetry_overhead(benchmark):
    overhead = benchmark.pedantic(run_overhead, rounds=1, iterations=1)
    assert overhead["armed"] <= OVERHEAD_BUDGET, (
        f"armed telemetry overhead {overhead['armed']:+.1%} exceeds "
        f"{OVERHEAD_BUDGET:.0%}")
    assert overhead["profiled"] <= PROFILER_BUDGET, (
        f"armed-profiler overhead {overhead['profiled']:+.1%} exceeds "
        f"{PROFILER_BUDGET:.0%}")

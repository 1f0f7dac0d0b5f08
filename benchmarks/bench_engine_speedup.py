"""Engine micro-benchmark: naive vs fast wall time.

The fast engine bulk-charges blocked spans instead of ticking them
cycle by cycle and jumps fully quiescent systems straight to their
deadlock/timeout horizon (docs/performance.md). Both engines are
cycle- and counter-exact (tests/test_engine_equivalence.py,
tests/test_engine_fuzz.py), so the only difference is wall time — and
the *work counts* this benchmark reports alongside it: per-PE quanta
actually stepped and quanta jumped over. The fast engine also runs
every stage and DRM as a generated step-function (``repro.codegen``)
where the naive engine interprets.

Two regimes are measured, because they answer different questions:

* **Fig. 13 grid** (activity-dominated): the full experiment grid
  end-to-end under each engine. Here wall time is dominated by real
  token movement, which every engine must simulate; the fast engine
  wins by charging blocked spans in bulk.
* **Quiescence horizon** (dead-time-dominated): time-to-deadlock of a
  wedged pipeline under an active control core. Real workloads keep a
  control-poll callback installed (the iteration coordinator); the
  fast engine proves no PE can progress, checks the program's
  ``control_poll_idle`` certificate, and jumps to the deadlock horizon
  in one step, while the naive engine visits every cycle.
"""

import time
from dataclasses import replace

from bench_common import WORKERS, emit
from bench_fig13_performance import fig13_points
from repro.core import ENGINES
from repro.harness import format_table, run_sweep

# Same-build naive-vs-fast floor. The blocked-span shortcut only pays
# where stall cycles dominate (static/fifer points); OOO baseline
# points are engine-neutral, so the grid-wide ratio is well under the
# per-point peaks (~3x on stall-heavy points).
SPEEDUP_FLOOR = 1.15
# Where dead time dominates, the certified horizon jump replaces every
# dead quantum with one bulk charge; measured ~4000-10000x over naive,
# so this floor only catches a lost jump.
HORIZON_FLOOR = 1000.0

_STAT_KEYS = ("quanta", "pe_quanta", "jumped_quanta")


def _timed_sweep(points, engine):
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; choose from {ENGINES}")
    pts = [replace(p, engine=engine) for p in points]
    start = time.perf_counter()
    results = run_sweep(pts, workers=WORKERS)
    return time.perf_counter() - start, results


def _work_counts(results):
    """Aggregate engine_stats over a sweep (CGRA points only; the
    analytic OOO points have no simulation loop)."""
    totals = dict.fromkeys(_STAT_KEYS, 0)
    for result in results:
        stats = getattr(result.raw, "engine_stats", None) or {}
        for key in _STAT_KEYS:
            totals[key] += stats.get(key, 0)
    return totals


def _wedged_horizon_run(engine):
    """Time-to-deadlock of a wedged pipeline under an active control
    core (the iteration-coordinator pattern of every paper workload):
    a consumer waits forever on a queue nothing feeds, and a reactive
    ``control_poll`` certifies itself idle, so the fast engine may jump
    past it."""
    from repro.config import SystemConfig
    from repro.core import (DeadlockError, PEProgram, Program, StageSpec,
                            System)
    from repro.ir import DFGBuilder
    from repro.memory import AddressSpace
    from repro.memory.memmap import MemoryMap
    from repro.queues import QueueSpec

    pes = []
    for i in range(16):
        def make(i=i):
            b = DFGBuilder(f"hz.snk@{i}")
            x = b.deq(f"hz.never@{i}")
            b.add(x, x)
            return b.finish()

        def stuck_i(ctx, i=i):
            yield from ctx.deq(f"hz.never@{i}")

        pes.append(PEProgram(
            shard=i, queue_specs=[QueueSpec(f"hz.never@{i}")],
            stage_specs=[StageSpec(f"hz.snk@{i}", make(), stuck_i)]))

    program = Program(
        "horizon", pes, AddressSpace(), MemoryMap(),
        control_poll=lambda system: None,
        control_poll_idle=lambda system: True)
    system = System(SystemConfig(n_pes=16), program, mode="fifer")
    start = time.perf_counter()
    try:
        system.run(engine=engine)
    except DeadlockError:
        pass
    else:
        raise AssertionError("wedged pipeline failed to deadlock")
    return time.perf_counter() - start, system.cycle


def run_engine_speedup():
    points = fig13_points()
    # Warm the per-process input caches so no engine pays for
    # synthetic input generation inside its timed window.
    _timed_sweep(points, "fast")
    timings, results = {}, {}
    for engine in ENGINES:
        timings[engine], results[engine] = _timed_sweep(points, engine)
    reference = [r.cycles for r in results["naive"]]
    for label, res in results.items():
        assert [r.cycles for r in res] == reference, label
    speedup = {label: timings["naive"] / timings[label]
               for label in timings}
    counts = {label: _work_counts(res) for label, res in results.items()}
    rows = []
    for label in ("naive", "fast"):
        c = counts[label]
        rows.append([
            label, f"{timings[label]:.2f}", f"{speedup[label]:.2f}x",
            f"{c['pe_quanta']}", f"{c['jumped_quanta']}"])
    grid_table = format_table(
        ["engine", "wall time (s)", "speedup", "pe-quanta stepped",
         "quanta jumped"], rows,
        title=(f"fig13 grid ({len(points)} experiments) end-to-end wall "
               f"time and work counts by simulation engine, same build "
               f"(floor: fast/naive >= {SPEEDUP_FLOOR}x)"))

    horizon, horizon_cycles = {}, {}
    for engine in ENGINES:
        horizon[engine], horizon_cycles[engine] = _wedged_horizon_run(engine)
    assert horizon_cycles["fast"] == horizon_cycles["naive"]
    horizon_rows = [
        [engine, f"{horizon_cycles[engine]:,.0f}",
         f"{horizon[engine]*1e3:.2f}",
         f"{horizon['naive'] / horizon[engine]:.1f}x"]
        for engine in ("naive", "fast")]
    horizon_table = format_table(
        ["engine", "cycles", "wall time (ms)", "vs naive"], horizon_rows,
        title=("time-to-deadlock, wedged 16-PE pipeline with an active "
               "control core (the regime where wall time is all dead "
               f"quanta; floor: fast/naive >= {HORIZON_FLOOR:.0f}x)"))

    emit("engine_speedup", grid_table + "\n\n" + horizon_table)
    return speedup["fast"], horizon["naive"] / horizon["fast"]


def test_engine_speedup(benchmark):
    fast_speedup, horizon_vs_naive = benchmark.pedantic(
        run_engine_speedup, rounds=1, iterations=1)
    assert fast_speedup >= SPEEDUP_FLOOR, (
        f"fast engine speedup {fast_speedup:.2f}x is under the "
        f"{SPEEDUP_FLOOR}x floor")
    assert horizon_vs_naive >= HORIZON_FLOOR, (
        f"fast engine horizon jump at {horizon_vs_naive:.1f}x of naive, "
        f"under the {HORIZON_FLOOR:.0f}x floor")

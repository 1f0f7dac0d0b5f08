"""Figure 13: per-input performance of all evaluated applications.

The paper reports the speedup of the serial OOO core, the static
16-PE pipeline, and 16-PE Fifer, normalized to the 4-core OOO
multicore, for every application/input pair. Headline results this
benchmark checks for shape (Sec. 8.1/8.2):

* Fifer outperforms the static pipeline by gmean ~2.8x (up to 5.5x);
* the static pipeline and Fifer are ~25x and ~72x faster than the
  serial OOO core;
* Fifer beats the 4-core OOO multicore by gmean ~17x.

Absolute factors differ (scaled inputs, analytic OOO model); the
ordering Fifer > static > multicore > serial should hold per the paper.
"""

from bench_common import (ALL_APPS, app_inputs, emit, experiment, point,
                          prefetch)
from repro.harness import format_table, gmean
from repro.harness.run import SYSTEMS


def fig13_points():
    """The full Fig. 13 grid: every app x input x system."""
    return [point(app, code, system)
            for app in ALL_APPS
            for code in app_inputs(app)
            for system in SYSTEMS]


def _speedups(app: str):
    rows = []
    per_system = {system: [] for system in SYSTEMS}
    for code in app_inputs(app):
        cycles = {system: experiment(app, code, system).cycles
                  for system in SYSTEMS}
        base = cycles["multicore"]
        row = [code] + [f"{base / cycles[s]:.2f}" for s in SYSTEMS]
        for system in SYSTEMS:
            per_system[system].append(base / cycles[system])
        rows.append(row)
    rows.append(["gmean"] + [f"{gmean(per_system[s]):.2f}" for s in SYSTEMS])
    return rows, per_system


def run_fig13():
    prefetch(fig13_points())
    blocks = []
    fifer_all, static_all, serial_all = [], [], []
    for app in ALL_APPS:
        rows, per_system = _speedups(app)
        blocks.append(format_table(
            ["input"] + list(SYSTEMS), rows,
            title=f"Fig. 13 ({app}): speedup over the 4-core OOO multicore"))
        fifer_all += per_system["fifer"]
        static_all += per_system["static"]
        serial_all += per_system["serial"]
    fifer_vs_static = gmean(f / s for f, s in zip(fifer_all, static_all))
    fifer_vs_serial = gmean(f / s for f, s in zip(fifer_all, serial_all))
    static_vs_serial = gmean(s / x for s, x in zip(static_all, serial_all))
    summary = format_table(
        ["metric", "paper", "measured"],
        [["Fifer / static (gmean)", "2.8x", f"{fifer_vs_static:.2f}x"],
         ["Fifer / serial (gmean)", "72x", f"{fifer_vs_serial:.1f}x"],
         ["static / serial (gmean)", "25x", f"{static_vs_serial:.1f}x"],
         ["Fifer / multicore (gmean)", "17x", f"{gmean(fifer_all):.1f}x"]],
        title="Fig. 13 summary (paper vs. measured)")
    emit("fig13_performance", "\n\n".join(blocks + [summary]))
    return fifer_vs_static, gmean(fifer_all)


def test_fig13_performance(benchmark):
    fifer_vs_static, fifer_vs_multicore = benchmark.pedantic(
        run_fig13, rounds=1, iterations=1)
    # Shape assertions: who wins, in the paper's direction.
    assert fifer_vs_static > 1.3
    assert fifer_vs_multicore > 3.0

"""PE-count scaling study (paper Sec. 1/5.6).

The paper claims Fifer "scales well to large systems by combining
spatial and temporal pipelining": replicated temporal pipelines shard
work across PEs without shared-memory synchronization, and each PE
still load-balances its own stages. This benchmark sweeps the system
from 4 to 32 PEs on BFS and SpMM and reports throughput scaling for
both Fifer and the static pipeline.
"""

from bench_common import ALL_APPS, emit, experiment, point, prefetch
from repro.harness import format_table

PE_COUNTS = (4, 8, 16, 32)
_CASES = tuple((app, code) for app, code in (("bfs", "In"), ("spmm", "GE"))
               if app in ALL_APPS)


def run_scaling():
    prefetch(point(app, code, mode, n_pes=n_pes)
             for app, code in _CASES
             for mode in ("static", "fifer")
             for n_pes in PE_COUNTS)
    rows = []
    scaling = {}
    for app, code in _CASES:
        for mode in ("static", "fifer"):
            cycles = {n_pes: experiment(app, code, mode, n_pes=n_pes).cycles
                      for n_pes in PE_COUNTS}
            speedups = [cycles[PE_COUNTS[0]] / cycles[n] for n in PE_COUNTS]
            rows.append([f"{app}/{code}", mode]
                        + [f"{s:.2f}" for s in speedups])
            scaling[(app, mode)] = speedups
    table = format_table(
        ["app", "system"] + [f"{n} PEs" for n in PE_COUNTS], rows,
        title="PE-count scaling: speedup over the 4-PE configuration")
    emit("scaling", table)
    return scaling


def test_scaling(benchmark):
    scaling = benchmark.pedantic(run_scaling, rounds=1, iterations=1)
    for (app, mode), speedups in scaling.items():
        # More PEs never hurt, and 32 PEs provide real scaling.
        assert speedups[-1] > 1.5, (app, mode, speedups)
        assert (speedups == sorted(speedups)
                or speedups[-1] >= speedups[-2] * 0.9)

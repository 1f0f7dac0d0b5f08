"""Smoke test: every benchmark entry point runs end to end.

Runs each ``benchmarks/bench_*.py`` module's ``run_*`` function in a
subprocess at minimal scale (``REPRO_BENCH_SCALE=0.25``, two apps, one
input each, results redirected to a temp dir) and checks it writes its
``results/<name>.txt`` block — and, for the simulation benchmarks, run
manifests under ``results/manifests/``.

Marked ``slow``: excluded from the default `pytest` run (see
``addopts`` in pyproject.toml); run with ``pytest -m slow`` or
``pytest -m ""``. CI runs it in a dedicated job.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

_REPO = Path(__file__).resolve().parent.parent

# (module, entry point, emit name, writes manifests?). Benches that
# simulate through bench_common's prefetch/experiment leave manifests;
# table1 (analytic), telemetry_overhead (self-timed System runs), and
# engine_speedup (timed sweeps, provenance would skew timing) do not.
_BENCHES = [
    ("bench_autosplit", "run_autosplit", "autosplit", False),
    ("bench_drm_ablation", "run_drm_ablation", "drm_ablation", True),
    ("bench_engine_speedup", "run_engine_speedup", "engine_speedup", False),
    ("bench_fig13_performance", "run_fig13", "fig13_performance", True),
    ("bench_fig14_cycle_breakdown", "run_fig14", "fig14_cycle_breakdown",
     True),
    ("bench_fig15_energy", "run_fig15", "fig15_energy", True),
    ("bench_fig16_queue_sweep", "run_fig16", "fig16_queue_sweep", True),
    ("bench_fig17_merged_stages", "run_fig17", "fig17_merged_stages", True),
    ("bench_fine_grained_estimate", "run_fine_grained",
     "fine_grained_estimate", True),
    ("bench_scaling", "run_scaling", "scaling", True),
    ("bench_scheduler_policy", "run_scheduler_policy", "scheduler_policy",
     True),
    ("bench_simd_ablation", "run_simd_ablation", "simd_ablation", True),
    ("bench_table1_area", "run_table1", "table1_area", False),
    ("bench_table5_residence", "run_table5", "table5_residence", True),
    ("bench_telemetry_overhead", "run_overhead", "telemetry_overhead",
     False),
    ("bench_zero_cost_reconfig", "run_zero_cost", "zero_cost_reconfig",
     True),
]


def test_every_bench_module_is_covered():
    """The smoke list must track benchmarks/ — fail on new bench files."""
    modules = {path.stem for path in (_REPO / "benchmarks").glob("bench_*.py")}
    modules.discard("bench_common")
    assert modules == {module for module, _, _, _ in _BENCHES}


@pytest.mark.slow
@pytest.mark.parametrize("module,entry,name,manifests", _BENCHES,
                         ids=[b[0] for b in _BENCHES])
def test_bench_smoke(module, entry, name, manifests, tmp_path):
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": os.pathsep.join(
            [str(_REPO / "src"), str(_REPO / "benchmarks")]),
        "REPRO_BENCH_SCALE": "0.25",
        "REPRO_BENCH_APPS": "bfs,spmm",
        "REPRO_BENCH_INPUTS": "1",
        "REPRO_BENCH_RESULTS_DIR": str(tmp_path),
    })
    proc = subprocess.run(
        [sys.executable, "-c", f"from {module} import {entry}; {entry}()"],
        cwd=_REPO, env=env, capture_output=True, text=True, timeout=1200)
    assert proc.returncode == 0, (
        f"{module}.{entry}() failed:\n{proc.stdout}\n{proc.stderr}")
    out = tmp_path / f"{name}.txt"
    assert out.exists(), f"{module} wrote no {name}.txt"
    assert out.read_text().strip()
    written = list((tmp_path / "manifests").glob("*.json")) \
        if (tmp_path / "manifests").exists() else []
    if manifests:
        assert written, f"{module} wrote no run manifests"
        assert any(p.name == "sweep.json" for p in written)
    else:
        assert not written

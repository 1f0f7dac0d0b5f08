"""Shared infrastructure for the paper-reproduction benchmarks.

Every benchmark regenerates one table or figure of the paper's
evaluation (Sec. 8). Results are printed and also written to
``benchmarks/results/<name>.txt`` so they survive pytest's output
capture. Runs are cached within a session so benchmarks that share
experiments (e.g., Fig. 13/14/15) do not repeat simulations, and each
``run_*`` entry point prefetches its full experiment grid through
:func:`repro.harness.run_sweep` so points fan out across cores.

Environment knobs:

* ``REPRO_BENCH_SCALE``   — multiplies the per-input default scales
  (raise for higher-fidelity, slower runs; lower for smoke tests).
* ``REPRO_BENCH_WORKERS`` — process-pool width for prefetched sweeps
  (default: one worker per CPU; ``1`` forces inline execution).
* ``REPRO_BENCH_ENGINE``  — simulation engine: ``fast`` (default) or
  ``naive`` (``repro.core.ENGINES``); anything else is rejected at
  import so a typo cannot silently fall back.
* ``REPRO_BENCH_APPS``    — comma-separated app filter (e.g.
  ``bfs,spmm``) applied to ``ALL_APPS``/``REPRESENTATIVE``.
* ``REPRO_BENCH_INPUTS``  — keep only the first N inputs per app.
* ``REPRO_BENCH_RESULTS_DIR`` — override the results directory
  (the benchmark smoke test points this at a temp dir).
"""

from __future__ import annotations

import os
import pathlib

from repro.config import SystemConfig
from repro.core import ENGINES
from repro.env import env_choice, env_float, env_int
from repro.harness import SweepPoint, prepare_input, run_sweep
from repro.harness.run import APP_INPUTS, default_scale

# Knobs are validated by repro.env at import, so a typo'd value fails
# fast with an error naming the knob and its allowed values.
SCALE_MULT = env_float("REPRO_BENCH_SCALE", 1.0, minimum=0.0)
ENGINE = env_choice("REPRO_BENCH_ENGINE", "fast", ENGINES)
WORKERS = env_int("REPRO_BENCH_WORKERS", None, minimum=1)
RESULTS_DIR = pathlib.Path(
    os.environ.get("REPRO_BENCH_RESULTS_DIR")
    or pathlib.Path(__file__).resolve().parent / "results")
# Every benchmark experiment leaves a schema-versioned run manifest
# next to its results/*.txt so figures carry provenance and runs are
# diffable with `python -m repro report benchmarks/results/manifests`.
MANIFEST_DIR = RESULTS_DIR / "manifests"

ALL_APPS = ("bfs", "cc", "prd", "radii", "spmm", "silo")
_APPS_FILTER = os.environ.get("REPRO_BENCH_APPS")
if _APPS_FILTER:
    _selected = tuple(a.strip() for a in _APPS_FILTER.split(",") if a.strip())
    ALL_APPS = tuple(a for a in ALL_APPS if a in _selected) or ALL_APPS
# One representative input per app for the expensive sweeps.
REPRESENTATIVE = {app: code for app, code in
                  (("bfs", "In"), ("cc", "Hu"), ("prd", "Ci"),
                   ("radii", "Dy"), ("spmm", "FS"), ("silo", "YC"))
                  if app in ALL_APPS}
_INPUTS_LIMIT = env_int("REPRO_BENCH_INPUTS", 0, minimum=0)


def app_inputs(app: str):
    codes = APP_INPUTS[app]
    return codes[:_INPUTS_LIMIT] if _INPUTS_LIMIT else codes


def prepared(app: str, code: str):
    return prepare_input(app, code,
                         scale=default_scale(app, code) * SCALE_MULT)


def _config(queue_scale: float = 1.0, double_buffered: bool = True,
            zero_cost: bool = False, policy: str = "most-work",
            n_pes=None, max_simd_replication="default",
            drm_max_outstanding=None, drm_issue_width=None) -> SystemConfig:
    config = SystemConfig()
    overrides = dict(
        queue_mem_bytes=max(256, int(config.queue_mem_bytes * queue_scale)),
        double_buffered=double_buffered,
        zero_cost_reconfig=zero_cost,
        scheduler_policy=policy,
    )
    if n_pes is not None:
        overrides["n_pes"] = n_pes
    if max_simd_replication != "default":
        overrides["max_simd_replication"] = max_simd_replication
    if drm_max_outstanding is not None:
        overrides["drm_max_outstanding"] = drm_max_outstanding
    if drm_issue_width is not None:
        overrides["drm_issue_width"] = drm_issue_width
    return config.replace(**overrides)


def point(app: str, code: str, system: str, variant: str = "decoupled",
          **config_kwargs) -> SweepPoint:
    """Coordinates of one benchmark experiment (hashable cache key)."""
    return SweepPoint(app, code, system, variant=variant,
                      scale=default_scale(app, code) * SCALE_MULT,
                      engine=ENGINE, config=_config(**config_kwargs))


_CACHE: dict = {}


def prefetch(points) -> None:
    """Run (and cache) every uncached point, fanned across workers.

    Benchmarks call this with their full experiment grid up front so
    the points run on the process pool; subsequent ``experiment()``
    calls are cache hits.
    """
    missing = list(dict.fromkeys(p for p in points if p not in _CACHE))
    if not missing:
        return
    results = run_sweep(missing, workers=WORKERS, manifest_dir=MANIFEST_DIR)
    _CACHE.update(zip(missing, results))


def experiment(app: str, code: str, system: str, variant: str = "decoupled",
               **config_kwargs):
    """One cached experiment; see :func:`_config` for the config knobs."""
    pt = point(app, code, system, variant=variant, **config_kwargs)
    prefetch([pt])
    return _CACHE[pt]


def emit(name: str, text: str) -> None:
    """Print a result block and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n{text}\n")

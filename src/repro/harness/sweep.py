"""Process-pool sweep runner: fan experiment points across cores.

A sweep is an ordered list of :class:`SweepPoint` coordinates.
``run_sweep`` executes them — inline for ``workers<=1``, else on a
``ProcessPoolExecutor`` — and returns the ``ExperimentResult`` list in
input order regardless of completion order. Results are deterministic
by construction: every point is fully described by its coordinates
(config, seed, scale, engine), workers share nothing, and the parent
process writes all manifests itself in input order so per-point
manifest names (which carry collision suffixes) never depend on
completion order. A merged ``sweep.json`` manifest, stripped of
volatile keys (wall time, timestamps), is byte-identical across
repeats and across worker counts — the seed-determinism property test
locks this down.

The figure benchmarks (``bench_fig13``–``17``, ``bench_scaling``) use
this to regenerate their result grids in parallel.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Optional, Sequence

from repro.config import SystemConfig
from repro.harness.run import (ExperimentResult, default_scale, prepare_input,
                               run_experiment)
from repro.stats.manifest import (MANIFEST_SCHEMA_VERSION, build_manifest,
                                  strip_volatile, write_manifest)


@dataclass(frozen=True)
class SweepPoint:
    """One experiment of a sweep: keyword coordinates for
    :func:`run_experiment`. Frozen and hashable (``SystemConfig`` is a
    frozen dataclass) so benchmark helpers can memoize on it."""

    app: str
    input_code: str
    system: str
    variant: str = "decoupled"
    scale: Optional[float] = None
    seed: int = 1
    engine: str = "fast"
    config: Optional[SystemConfig] = None
    max_cycles: float = 2e9
    check: bool = True
    profile: bool = False

    @property
    def label(self) -> str:
        return (f"{self.app}/{self.input_code}/{self.system}/{self.variant}"
                f"/seed{self.seed}")


@lru_cache(maxsize=32)
def _prepared_cached(app: str, code: str, scale: float, seed: int):
    """Per-process input cache: points that share an input (e.g. the
    four systems of a Fig. 13 column) prepare it once per worker."""
    return prepare_input(app, code, scale=scale, seed=seed)


def run_point(point: SweepPoint) -> ExperimentResult:
    """Execute one point (in a worker process or inline)."""
    scale = (point.scale if point.scale is not None
             else default_scale(point.app, point.input_code))
    prepared = _prepared_cached(point.app, point.input_code, scale,
                                point.seed)
    return run_experiment(point.app, point.input_code, point.system,
                          prepared=prepared, variant=point.variant,
                          config=point.config, scale=scale, seed=point.seed,
                          max_cycles=point.max_cycles, check=point.check,
                          engine=point.engine, profile=point.profile)


def merge_sweep_manifests(manifests: Sequence[dict]) -> dict:
    """Combine per-point manifests into one deterministic document.

    Volatile keys (timestamps, wall time) are stripped from every
    point, so the merged manifest of a given sweep is byte-identical
    across repeats and across ``workers=1`` vs ``workers=N``.
    """
    return {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "kind": "sweep",
        "n_points": len(manifests),
        "points": [strip_volatile(m) for m in manifests],
    }


def run_sweep(points: Sequence[SweepPoint], workers: Optional[int] = None,
              manifest_dir=None) -> list:
    """Run every point and return results in input order.

    ``workers=None`` uses ``os.cpu_count()``; ``workers<=1`` (or a
    single point) runs inline with no pool. With ``manifest_dir`` set,
    the parent writes one manifest per point in input order plus a
    merged ``sweep.json`` (overwritten, volatile keys stripped). The
    first point to raise abandons the sweep and re-raises.
    """
    points = list(points)
    if workers is None:
        workers = os.cpu_count() or 1
    if workers <= 1 or len(points) <= 1:
        results = [run_point(point) for point in points]
    else:
        with ProcessPoolExecutor(max_workers=min(workers,
                                                 len(points))) as pool:
            results = list(pool.map(run_point, points))
    if manifest_dir is not None:
        manifests = [build_manifest(result) for result in results]
        for manifest in manifests:
            write_manifest(manifest, manifest_dir)
        merged = merge_sweep_manifests(manifests)
        path = Path(manifest_dir) / "sweep.json"
        path.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")
    return results

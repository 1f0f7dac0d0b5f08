"""Run manifests: machine-readable provenance for every experiment.

A manifest is one JSON document capturing everything needed to
reproduce, audit, or diff a run: the (app, input, system, variant)
coordinates, scale and seed, the full ``SystemConfig``, the outcome
(cycles, CPI stack, cache/memory statistics, energy, wall time), and a
schema version so downstream tooling can evolve safely.

``run_experiment(..., manifest_dir=...)`` writes one automatically;
``python -m repro report DIR`` loads and tabulates them. Benchmark
figures produced by ``benchmarks/`` carry manifests next to their
``results/*.txt`` output.
"""

from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path
from typing import Optional

# v2 adds the optional "profile" key (wait-for blame matrix and
# critical-path attribution, repro.profiling); v1 manifests still load.
MANIFEST_SCHEMA_VERSION = 2

#: Keys that legitimately differ between two runs of the same
#: (config, seed) point: the wall-clock timestamp and host speed.
#: Everything else must be byte-identical (seed determinism).
VOLATILE_KEYS = ("created", "wall_time_s")


def strip_volatile(manifest: dict) -> dict:
    """Copy ``manifest`` without :data:`VOLATILE_KEYS`, for diffing."""
    return {k: v for k, v in manifest.items() if k not in VOLATILE_KEYS}


def canonical_json(document) -> str:
    """The one canonical text form of a JSON document.

    Sorted keys, two-space indent, trailing newline — the exact bytes
    :func:`write_manifest` produces and byte-identity checks compare.
    ``NaN`` and infinities are rejected: they round-trip ambiguously.
    """
    return json.dumps(document, indent=2, sort_keys=True,
                      allow_nan=False) + "\n"


def build_manifest(result, created: Optional[float] = None) -> dict:
    """Build a manifest dict from a harness ``ExperimentResult``.

    Works for both system families: CGRA runs (``SimulationResult``)
    contribute their config, merged counters, and residence statistics;
    OOO runs contribute instruction counts. ``created`` overrides the
    wall-clock timestamp (epoch seconds) for deterministic tests.
    """
    raw = result.raw
    manifest = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "created": time.strftime(
            "%Y-%m-%dT%H:%M:%S",
            time.gmtime(time.time() if created is None else created)),
        "app": result.app,
        "input": result.input_code,
        "system": result.system,
        "variant": result.variant,
        "scale": result.scale,
        "seed": result.seed,
        "engine": getattr(result, "engine", "fast"),
        "cycles": result.cycles,
        "wall_time_s": result.wall_time_s,
        "correct": result.correct,
        "energy": dict(result.energy),
        "cpi_stack": dict(raw.merged_cpi_stack()),
        "caches": {
            "l1": _aggregate_l1(raw.l1_stats),
            "llc": dict(raw.llc_stats),
            "memory": dict(raw.mem_stats),
        },
    }
    config = getattr(raw, "config", None)
    if dataclasses.is_dataclass(config):
        manifest["config"] = dataclasses.asdict(config)
    counters = getattr(raw, "counters", None)
    if counters is not None:
        manifest["counters"] = dict(counters.items())
        manifest["avg_residence_cycles"] = raw.avg_residence_cycles
        manifest["avg_reconfig_cycles"] = raw.avg_reconfig_cycles
    instructions = getattr(raw, "instructions", None)
    if instructions is not None:
        manifest["instructions"] = instructions
    profile = getattr(result, "profile", None)
    if profile is not None:
        manifest["profile"] = _profile_summary(profile)
    return manifest


def _profile_summary(profile) -> dict:
    """Deterministic, diffable digest of a ``RunProfile``.

    Carries the full blame matrix, its rolled-up waitee totals (what
    ``repro bench-diff`` thresholds), and the critical path's
    per-component attribution — not the raw span timelines, which are
    bulky and derivable by re-running with ``profile=True``.
    """
    path = profile.critical_path()
    return {
        "blame_matrix": profile.blame.as_dict(),
        "blame_rollup": profile.blame.rollup().waitee_totals(),
        "critical_path_attributed": path.attributed(),
        "critical_path_weight": path.total_weight(),
    }


def _aggregate_l1(l1_stats) -> dict:
    hits = sum(s.get("hits", 0) for s in l1_stats)
    misses = sum(s.get("misses", 0) for s in l1_stats)
    total = hits + misses
    return {"hits": hits, "misses": misses,
            "hit_rate": hits / total if total else 0.0,
            "n_caches": len(l1_stats)}


def write_manifest(manifest: dict, directory) -> Path:
    """Write ``manifest`` under ``directory`` with a collision-free name."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    stem = "-".join(str(manifest.get(k, "?")) for k in
                    ("app", "input", "system", "variant")) \
           + f"-seed{manifest.get('seed', 0)}"
    path = directory / f"{stem}.json"
    n = 1
    while path.exists():
        n += 1
        path = directory / f"{stem}-{n}.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def load_manifest(path) -> dict:
    """Load one manifest, validating its schema version."""
    try:
        manifest = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not a valid JSON manifest ({exc})")
    if not isinstance(manifest, dict):
        raise ValueError(f"{path}: manifest must be a JSON object")
    version = manifest.get("schema_version")
    if not isinstance(version, int) or version < 1:
        raise ValueError(f"{path}: missing/invalid manifest schema_version")
    if version > MANIFEST_SCHEMA_VERSION:
        raise ValueError(
            f"{path}: manifest schema v{version} is newer than supported "
            f"v{MANIFEST_SCHEMA_VERSION}")
    return manifest


def load_manifests(directory) -> list:
    """Load every ``*.json`` manifest under ``directory`` (sorted).

    Merged sweep documents (``kind == "sweep"``, written by
    :func:`repro.harness.sweep.run_sweep`) are skipped — their
    per-point manifests sit alongside them.
    """
    manifests = [load_manifest(path)
                 for path in sorted(Path(directory).glob("*.json"))]
    return [m for m in manifests if m.get("kind") != "sweep"]


def summarize_manifests(manifests) -> tuple:
    """Tabulate manifests for ``repro report``: ``(headers, rows)``.

    Speedup is relative to the slowest run of the same
    ``app/input`` pair, so homogeneous sweeps read as Fig. 13-style
    relative performance.
    """
    headers = ["run", "cycles", "speedup", "wall s", "issued", "queue",
               "reconfig", "idle", "l1 hit", "ok"]
    slowest: dict = {}
    for m in manifests:
        key = (m.get("app"), m.get("input"))
        slowest[key] = max(slowest.get(key, 0.0), m.get("cycles", 0.0))
    rows = []
    for m in manifests:
        stack = m.get("cpi_stack", {})
        total = sum(stack.values()) or 1.0
        base = slowest[(m.get("app"), m.get("input"))]
        label = (f"{m.get('app')}/{m.get('input')}/{m.get('system')}"
                 f"/{m.get('variant')}")
        rows.append([
            label,
            f"{m.get('cycles', 0.0):,.0f}",
            f"{base / m['cycles']:.2f}x" if m.get("cycles") else "-",
            f"{m.get('wall_time_s', 0.0):.2f}",
            f"{stack.get('issued', 0.0) / total:.1%}",
            f"{stack.get('queue', 0.0) / total:.1%}",
            f"{stack.get('reconfig', 0.0) / total:.1%}",
            f"{stack.get('idle', 0.0) / total:.1%}",
            f"{m.get('caches', {}).get('l1', {}).get('hit_rate', 0.0):.1%}",
            "yes" if m.get("correct") else "no",
        ])
    return headers, rows

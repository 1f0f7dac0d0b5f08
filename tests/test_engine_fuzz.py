"""Randomized differential testing of the simulation engines.

Hypothesis-style property fuzzing without the dependency: a seeded
generator draws random small :class:`SystemConfig` variations (queue
depths, PE counts, DRM issue/outstanding limits, memory latency and
bandwidth, quanta, scheduler policies, stage speed factors) crossed
with random dataset slices (app, input, scale, seed) and runs the same
experiment under both engines in :data:`repro.core.ENGINES` (``fast``,
which runs generated step-functions, and the interpreted ``naive``
reference; stage-speedup draws exercise fractional per-token costs
through the generated code). The property is the differential
contract of ``docs/performance.md``: both runs produce the
*identical* fingerprint — cycle count, per-PE counters, CPI stacks,
cache/memory statistics, per-queue totals, and functional results —
and interrupted runs (deadlock, timeout) raise byte-identical reports.

On a failing seed the harness shrinks the case (smaller scale, fewer
PEs, default knobs) while it still fails, then persists the minimal
case under ``tests/regressions/`` so the failure replays forever:
``test_persisted_regressions`` re-runs every stored case on every
collection, and the stored JSON is small enough to commit next to the
fix.

Budget knobs (used by the CI ``engine-fuzz`` job):

* ``REPRO_FUZZ_SEEDS`` — number of random cases (default 10).
* ``REPRO_FUZZ_BASE``  — first seed (default 0), so shards can split
  the space.
"""

from __future__ import annotations

import json
import os
import pathlib

import numpy as np
import pytest

from repro.config import MemoryConfig, SystemConfig
from repro.core import ENGINES
from repro.harness import prepare_input, run_experiment

REGRESSION_DIR = pathlib.Path(__file__).parent / "regressions"
SEED_BUDGET = int(os.environ.get("REPRO_FUZZ_SEEDS", "10"))
BASE_SEED = int(os.environ.get("REPRO_FUZZ_BASE", "0"))

# (app, input) pool: all six paper workloads plus SSSP.
_APPS = (("bfs", "Hu"), ("cc", "Ci"), ("prd", "Hu"), ("radii", "In"),
         ("sssp", "Hu"), ("spmm", "GE"), ("silo", "YC"))

# Base stage names per app, for stage_speedup draws (fractional factors
# produce non-integral cycle costs, stressing the engines' debt and
# bulk-charge arithmetic).
_STAGE_BASES = {
    "bfs": ("bfs.fetch", "bfs.enum", "bfs.update"),
    "cc": ("cc.fetch", "cc.enum", "cc.update"),
    "prd": ("prd.fetch", "prd.enum", "prd.update"),
    "radii": ("radii.fetch", "radii.enum", "radii.update"),
    "sssp": ("sssp.fetch", "sssp.enum", "sssp.update"),
    "spmm": ("spmm.stream_a", "spmm.intersect", "spmm.accumulate"),
    "silo": ("silo.traverse", "silo.leaf", "silo.query"),
}


def generate_case(rng) -> dict:
    """Draw one random experiment: dataset slice x system configuration."""
    app, code = _APPS[rng.randrange(len(_APPS))]
    config = {
        "n_pes": rng.choice([4, 8, 16]),
        "queue_mem_bytes": rng.choice([512, 1024, 4096, 16384]),
        "drm_max_outstanding": rng.choice([1, 2, 8, 16]),
        "drm_issue_width": rng.choice([1, 2, 4]),
        "memory": {"latency": rng.choice([20, 120, 400]),
                   "bandwidth_bytes_per_cycle": rng.choice([16.0, 128.0])},
        "llc_latency": rng.choice([20, 40]),
        "quantum": rng.choice([16, 33, 64, 100]),
        "deadlock_quanta": rng.choice([50, 200]),
        "scheduler_policy": rng.choice(["most-work", "round-robin"]),
        "double_buffered": rng.random() < 0.7,
        "zero_cost_reconfig": rng.random() < 0.2,
        "max_simd_replication": rng.choice([None, 1, 2]),
    }
    if rng.random() < 0.5:
        bases = _STAGE_BASES[app]
        config["stage_speedup"] = [
            [rng.choice(bases), rng.choice([0.6, 1.5, 1.7, 2.0, 3.0])]]
    return {
        "app": app,
        "code": code,
        "mode": rng.choice(["fifer", "static"]),
        "scale": rng.choice([0.02, 0.04, 0.06]),
        "seed": rng.choice([1, 2, 3]),
        "max_cycles": rng.choice([5_000, 20_000]),
        "config": config,
    }


def _build_config(spec: dict) -> SystemConfig:
    kwargs = dict(spec)
    if "memory" in kwargs:
        kwargs["memory"] = MemoryConfig(**kwargs["memory"])
    if "stage_speedup" in kwargs:
        kwargs["stage_speedup"] = tuple(
            (name, factor) for name, factor in kwargs["stage_speedup"])
    return SystemConfig(**kwargs)


def _canon(value):
    """Canonicalize a functional result for exact comparison."""
    if isinstance(value, dict):
        return tuple(sorted((k, _canon(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_canon(v) for v in value)
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    return value


def run_fingerprint(case: dict, engine: str, prepared=None):
    """Run one engine; return its complete observable fingerprint.

    A mid-flight exception *is* the fingerprint for truncated runs: the
    type name plus the full report (cycle count, per-stage blocked
    reasons, queue occupancies) must match byte for byte across
    engines.
    """
    if prepared is None:
        prepared = prepare_input(case["app"], case["code"],
                                 scale=case["scale"], seed=case["seed"])
    config = _build_config(case["config"])
    try:
        res = run_experiment(case["app"], case["code"], case["mode"],
                             prepared=prepared, config=config,
                             engine=engine, max_cycles=case["max_cycles"],
                             check=False)
    except Exception as exc:  # deadlock/timeout/config rejection
        return ("raise", type(exc).__name__, str(exc))
    raw = res.raw
    return (
        raw.cycles,
        tuple(_canon(c.as_dict()) for c in raw.pe_counters),
        tuple(_canon(s) for s in raw.cpi_stacks()),
        tuple(_canon(s) for s in raw.l1_stats),
        _canon(raw.llc_stats),
        _canon(raw.mem_stats),
        _canon(raw.result),
    )


def case_fails(case: dict) -> dict | None:
    """Run every engine; return {engine: fingerprint} on mismatch.

    Both fingerprints must be identical, including on truncated runs,
    where a generated step-function's ``stage.pending`` request must
    clamp exactly like the interpreter's.
    """
    prepared = prepare_input(case["app"], case["code"],
                             scale=case["scale"], seed=case["seed"])
    prints = {engine: run_fingerprint(case, engine, prepared=prepared)
              for engine in ENGINES}
    reference = prints["naive"]
    if all(fp == reference for fp in prints.values()):
        return None
    return prints


def shrink_case(case: dict) -> dict:
    """Greedily simplify a failing case while it still fails.

    Each step proposes a strictly simpler variant (smaller slice,
    fewer PEs, one knob back to its default); a variant is kept only
    if the engines still disagree on it.
    """
    default = SystemConfig()

    def variants(current):
        if current["scale"] > 0.02:
            yield {**current, "scale": 0.02}
        if current["config"].get("n_pes", 16) > 4:
            yield {**current,
                   "config": {**current["config"], "n_pes": 4}}
        if current["mode"] != "fifer":
            yield {**current, "mode": "fifer"}
        for knob in list(current["config"]):
            if knob == "n_pes":
                continue
            simpler = dict(current["config"])
            if knob in ("memory", "stage_speedup"):
                simpler.pop(knob)
            else:
                if simpler[knob] == getattr(default, knob):
                    continue
                simpler[knob] = getattr(default, knob)
            yield {**current, "config": simpler}

    current = case
    improved = True
    while improved:
        improved = False
        for candidate in variants(current):
            if case_fails(candidate) is not None:
                current = candidate
                improved = True
                break
    return current


def _persist_regression(seed: int, case: dict, prints: dict) -> pathlib.Path:
    REGRESSION_DIR.mkdir(exist_ok=True)
    path = REGRESSION_DIR / f"engine_fuzz_{seed}.json"
    mismatch = {engine: repr(fp)[:2000] for engine, fp in prints.items()}
    path.write_text(json.dumps(
        {"seed": seed, "case": case, "mismatch": mismatch}, indent=2)
        + "\n")
    return path


@pytest.mark.parametrize("seed", range(BASE_SEED, BASE_SEED + SEED_BUDGET))
def test_random_configs_engines_identical(seed):
    import random
    rng = random.Random(seed)
    case = generate_case(rng)
    prints = case_fails(case)
    if prints is None:
        return
    minimal = shrink_case(case)
    minimal_prints = case_fails(minimal) or prints
    path = _persist_regression(seed, minimal, minimal_prints)
    engines = sorted(minimal_prints)
    pytest.fail(
        f"engines disagree on seed {seed} (shrunk case persisted to "
        f"{path}):\n  case: {minimal}\n  " + "\n  ".join(
            f"{e}: {repr(minimal_prints[e])[:400]}" for e in engines))


def _persisted_cases():
    if not REGRESSION_DIR.is_dir():
        return []
    return sorted(REGRESSION_DIR.glob("engine_fuzz_*.json"))


@pytest.mark.parametrize(
    "path", _persisted_cases() or [None],
    ids=lambda p: p.name if p else "none")
def test_persisted_regressions(path):
    """Every previously failing (now fixed) case replays identically."""
    if path is None:
        pytest.skip("no persisted engine-fuzz regressions")
    case = json.loads(path.read_text())["case"]
    prints = case_fails(case)
    assert prints is None, (
        f"persisted regression {path.name} reproduces an engine "
        f"mismatch:\n" + "\n".join(
            f"{e}: {repr(fp)[:400]}" for e, fp in sorted(prints.items())))

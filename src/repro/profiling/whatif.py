"""Causal what-if estimation: virtual speedups, Coz-style.

``predict_speedup(profile, target, percent)`` answers "how many cycles
would the run take if ``target`` were ``percent``% faster?" without
re-simulating: a component that is k% faster does its critical-path
work in ``1/(1+k/100)`` of the time, so the predicted end-to-end cycle
count shrinks by that fraction of the cycles the critical path
attributes to the component. This is the virtual-speedup estimate of
Coz (Curtsinger & Berger, SOSP'15) transplanted from sampled callstacks
to the simulator's exact dependency chain.

``apply_whatif_config(config, target, percent)`` realizes the same
hypothesis as an actual :class:`~repro.config.SystemConfig` so the
prediction can be validated against a real re-simulation:

* a stage name (base or per-shard) becomes a ``stage_speedup`` entry,
* ``memory`` divides the main-memory latency,
* ``reconfig`` with 100% maps to ``zero_cost_reconfig`` (the idealized
  design of paper Sec. 8.3).

The tests require predictions within 15% of the re-simulated cycle
counts on small inputs (``tests/test_profiling.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import MemoryConfig, SystemConfig
from repro.profiling.topology import MEMORY, RECONFIG, base_name

#: Spellings accepted for the non-stage targets.
_MEMORY_NAMES = ("memory", "mem", MEMORY)
_RECONFIG_NAMES = ("reconfig", RECONFIG)


@dataclass
class WhatIfPrediction:
    """One virtual-speedup estimate (plus optional validation)."""

    target: str
    percent: float
    baseline_cycles: float
    predicted_cycles: float
    attributed_cycles: float     # critical-path cycles charged to target
    actual_cycles: float = field(default=float("nan"))

    @property
    def predicted_speedup(self) -> float:
        return (self.baseline_cycles / self.predicted_cycles
                if self.predicted_cycles else float("inf"))

    @property
    def error(self) -> float:
        """|predicted - actual| / actual (nan before validation)."""
        if self.actual_cycles != self.actual_cycles:  # nan
            return float("nan")
        if not self.actual_cycles:
            return float("inf")
        return (abs(self.predicted_cycles - self.actual_cycles)
                / self.actual_cycles)

    def as_dict(self) -> dict:
        record = {
            "target": self.target,
            "percent": self.percent,
            "baseline_cycles": self.baseline_cycles,
            "predicted_cycles": self.predicted_cycles,
            "attributed_cycles": self.attributed_cycles,
            "predicted_speedup": self.predicted_speedup,
        }
        if self.actual_cycles == self.actual_cycles:
            record["actual_cycles"] = self.actual_cycles
            record["error"] = self.error
        return record


def parse_whatif(spec: str) -> tuple:
    """Parse a ``TARGET=PERCENT`` CLI argument into ``(target, float)``.

    ``PERCENT`` is the virtual speedup in percent (``fetch=50`` means
    "the fetch stage is 50% faster").
    """
    target, sep, amount = spec.partition("=")
    if not sep or not target:
        raise ValueError(
            f"what-if spec {spec!r} must look like STAGE=PERCENT "
            f"(e.g. bfs.fetch=50, memory=100, reconfig=100)")
    try:
        percent = float(amount)
    except ValueError:
        raise ValueError(f"what-if spec {spec!r}: {amount!r} is not a number")
    if percent <= 0:
        raise ValueError(f"what-if spec {spec!r}: percent must be > 0")
    return target.strip(), percent


def whatif_targets(profile) -> tuple:
    """What a what-if on ``profile``'s run can name: ``memory``,
    ``reconfig``, and the base name of each of its stages and DRMs."""
    names = {base_name(name)
             for name in profile.profiler.topology.components()}
    return ("memory", "reconfig", *sorted(names))


def _attributed(profile, target: str) -> float:
    """Critical-path cycles charged to ``target`` (stage names match on
    their base form, so ``bfs.fetch`` covers every shard)."""
    attributed = profile.critical_path().attributed()
    if target in _MEMORY_NAMES:
        return attributed.get(MEMORY, 0.0)
    if target in _RECONFIG_NAMES:
        return attributed.get(RECONFIG, 0.0)
    return attributed.get(base_name(target), 0.0)


def predict_speedup(profile, target: str,
                    percent: float) -> WhatIfPrediction:
    """Virtual speedup: shrink the target's critical-path share.

    Raises :class:`ValueError` when ``target`` names nothing in the
    run (see :func:`whatif_targets`).

    A component sped up by ``percent``% finishes its serialized work in
    ``1/(1 + percent/100)`` of the original time, so the saved cycles
    are ``attributed * (1 - 1/(1+p))``, clamped to the attribution.
    """
    if percent <= 0:
        raise ValueError(f"percent must be > 0, got {percent}")
    targets = whatif_targets(profile)
    if (target not in _MEMORY_NAMES + _RECONFIG_NAMES
            and base_name(target) not in targets):
        raise ValueError(
            f"what-if target {target!r} is not memory, reconfig, or a "
            f"stage or DRM of this run; choose from {', '.join(targets)}")
    factor = 1.0 + percent / 100.0
    attributed = _attributed(profile, target)
    saved = attributed * (1.0 - 1.0 / factor)
    predicted = max(0.0, profile.cycles - saved)
    return WhatIfPrediction(target=target, percent=percent,
                            baseline_cycles=profile.cycles,
                            predicted_cycles=predicted,
                            attributed_cycles=attributed)


def apply_whatif_config(config: SystemConfig, target: str,
                        percent: float) -> SystemConfig:
    """Realize the what-if hypothesis as a concrete SystemConfig."""
    if percent <= 0:
        raise ValueError(f"percent must be > 0, got {percent}")
    factor = 1.0 + percent / 100.0
    if target in _MEMORY_NAMES:
        memory = config.memory
        return config.replace(memory=MemoryConfig(
            latency=max(1, round(memory.latency / factor)),
            bandwidth_bytes_per_cycle=memory.bandwidth_bytes_per_cycle))
    if target in _RECONFIG_NAMES:
        if abs(percent - 100.0) > 1e-9:
            raise ValueError(
                "reconfig what-ifs support only percent=100 "
                "(zero-cost reconfiguration, paper Sec. 8.3)")
        return config.replace(zero_cost_reconfig=True)
    return config.replace(
        stage_speedup=config.stage_speedup + ((target, factor),))


def validate_prediction(prediction: WhatIfPrediction, app: str,
                        input_code: str, system: str = "fifer",
                        config: SystemConfig = None,
                        **run_kwargs) -> WhatIfPrediction:
    """Re-simulate the what-if config and attach the actual cycles.

    ``run_kwargs`` pass through to :func:`repro.harness.run.
    run_experiment` (scale, seed, engine, prepared, ...). Returns the
    same prediction object, with ``actual_cycles`` filled in.
    """
    from repro.harness.run import run_experiment
    modified = apply_whatif_config(config or SystemConfig(),
                                   prediction.target, prediction.percent)
    result = run_experiment(app, input_code, system, config=modified,
                            **run_kwargs)
    prediction.actual_cycles = float(result.cycles)
    return prediction

"""Profiling: wait-for attribution, critical paths, causal what-ifs.

The package turns the telemetry event stream into three artifacts:

* a **blame matrix** (:mod:`~repro.profiling.attribution`) charging
  every stalled PE cycle to the component it waited on, reconciled
  exactly against the Fig. 14 CPI stacks;
* a **critical path** (:mod:`~repro.profiling.critical_path`): the
  longest dependency chain through the run, exportable as ranked
  segments, JSON, or folded flamegraph stacks;
* **what-if estimates** (:mod:`~repro.profiling.whatif`): Coz-style
  virtual speedups predicting the end-to-end effect of making one
  stage, queue neighborhood, or subsystem k% faster — validatable by
  re-simulating a modified :class:`~repro.config.SystemConfig`.

:mod:`~repro.profiling.history` adds the benchmark regression
observatory diffing run manifests against committed baselines.

Entry points: ``run_experiment(..., profile=True)`` attaches everything
and returns the profile on the result; ``python -m repro profile`` and
``python -m repro bench-diff`` are the CLI verbs.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.profiling.attribution import WaitForProfiler

_EXPORTS = {
    "repro.profiling.attribution": ("BlameMatrix", "RunProfile",
                                    "WaitForProfiler"),
    "repro.profiling.critical_path": ("CriticalPath", "PathSegment",
                                      "extract_critical_path"),
    "repro.profiling.history": ("DiffFinding", "DiffReport", "bench_diff",
                                "DEFAULT_CYCLE_TOL", "DEFAULT_BLAME_TOL",
                                "DEFAULT_WALL_RATIO"),
    "repro.profiling.topology": ("Topology", "base_name"),
    "repro.profiling.whatif": ("WhatIfPrediction", "apply_whatif_config",
                               "parse_whatif", "predict_speedup",
                               "validate_prediction"),
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "BlameMatrix", "RunProfile", "WaitForProfiler",
    "CriticalPath", "PathSegment", "extract_critical_path",
    "DiffFinding", "DiffReport", "bench_diff",
    "DEFAULT_CYCLE_TOL", "DEFAULT_BLAME_TOL", "DEFAULT_WALL_RATIO",
    "Topology", "base_name",
    "WhatIfPrediction", "apply_whatif_config", "parse_whatif",
    "predict_speedup", "validate_prediction",
    "attach_profiler",
]


def attach_profiler(system, bus=None) -> "WaitForProfiler":
    """Wire a :class:`WaitForProfiler` onto a built ``System``.

    Reuses the system's attached :class:`~repro.stats.telemetry.
    EventBus` (or ``bus``) when present, else attaches a fresh one. The
    profiler subscribes kind-filtered, so per-token queue/cache events
    are never constructed on its behalf. After ``system.run(...)``
    returns ``result``, call ``profiler.finalize(result.pe_counters,
    result.cycles)`` (or pass the live PE counters of a truncated run).
    """
    from repro.profiling.attribution import WaitForProfiler
    from repro.profiling.topology import Topology
    from repro.stats.telemetry import EventBus
    if bus is None:
        bus = system.telemetry or EventBus()
    if system.telemetry is not bus:
        system.attach_telemetry(bus)
    topology = Topology.from_program(system.program, system.config)
    profiler = WaitForProfiler(topology)
    profiler.drms = [drm for pe in system.pes for drm in pe.drms]
    bus.subscribe(profiler, kinds=WaitForProfiler.KINDS)
    return profiler

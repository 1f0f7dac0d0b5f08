"""Experiment harness: runs (app, input, system) combinations and
formats the paper's tables and figures."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.harness.run": ("ExperimentResult", "GRAPH_APPS", "APP_INPUTS",
                          "SYSTEMS", "analyze_workload",
                          "build_cgra_program", "prepare_input",
                          "resolve_config", "run_experiment",
                          "simulate_cgra", "speedup_table"),
    "repro.harness.format": ("format_table", "gmean"),
    "repro.harness.sweep": ("SweepPoint", "merge_sweep_manifests",
                            "run_point", "run_sweep"),
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "ExperimentResult", "GRAPH_APPS", "APP_INPUTS", "SYSTEMS",
    "analyze_workload", "build_cgra_program", "prepare_input",
    "resolve_config", "run_experiment", "simulate_cgra", "speedup_table",
    "format_table", "gmean",
    "SweepPoint", "merge_sweep_manifests", "run_point", "run_sweep",
]

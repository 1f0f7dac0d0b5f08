"""Experiment harness: runs (app, input, system) combinations and
formats the paper's tables and figures."""

from repro.harness.run import (ExperimentResult, GRAPH_APPS, APP_INPUTS,
                               SYSTEMS, analyze_workload, build_cgra_program,
                               prepare_input, resolve_config, run_experiment,
                               simulate_cgra, speedup_table)
from repro.harness.format import format_table, gmean
from repro.harness.sweep import (SweepPoint, merge_sweep_manifests,
                                 run_point, run_sweep)

__all__ = [
    "ExperimentResult", "GRAPH_APPS", "APP_INPUTS", "SYSTEMS",
    "analyze_workload", "build_cgra_program", "prepare_input",
    "resolve_config", "run_experiment", "simulate_cgra", "speedup_table",
    "format_table", "gmean",
    "SweepPoint", "merge_sweep_manifests", "run_point", "run_sweep",
]

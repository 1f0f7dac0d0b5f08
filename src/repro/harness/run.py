"""Run one (app, input, system) experiment end to end.

``run_experiment`` prepares the synthetic input, builds the program for
the requested system, simulates it, verifies the functional result
against the golden reference, and attaches the energy breakdown. The
four evaluated systems (paper Sec. 7.1) are:

* ``serial``    — 1 OOO core,
* ``multicore`` — 4 OOO cores (the Fig. 13 normalization baseline),
* ``static``    — the 16-PE static spatial pipeline,
* ``fifer``     — 16-PE Fifer with dynamic temporal pipelining.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

from repro.config import OOOConfig, SystemConfig
from repro.workloads import get_workload

# Workloads, input generators, the OOO kernels, the energy model, the
# simulator and numpy are imported where an app and a system need them,
# so that a command loads only what it runs (docs/performance.md, "Cold
# start").

GRAPH_APPS = ("bfs", "cc", "prd", "radii", "sssp")
SYSTEMS = ("serial", "multicore", "static", "fifer")

APP_INPUTS = {
    "bfs": ("Hu", "Dy", "Ci", "In", "Rd"),
    "cc": ("Hu", "Dy", "Ci", "In", "Rd"),
    "prd": ("Hu", "Dy", "Ci", "In", "Rd"),
    "radii": ("Hu", "Dy", "Ci", "In", "Rd"),
    "sssp": ("Hu", "Dy", "Ci", "In", "Rd"),
    "spmm": ("FS", "Gr", "GE", "EM", "FD", "St"),
    "silo": ("YC",),
}

# Default input scales keep pure-Python simulation times tractable while
# preserving each input's character (see DESIGN.md, substitutions).
# Low-degree, high-diameter inputs (Dy, Rd) need more vertices before
# per-iteration costs amortize, so they default to larger scales.
DEFAULT_SCALE = 0.35
INPUT_SCALES = {
    ("bfs", "Dy"): 1.0,
    ("bfs", "Rd"): 1.0,
    ("cc", "Dy"): 0.6,
    ("cc", "Rd"): 0.5,
    ("prd", "Dy"): 0.6,
    ("prd", "Rd"): 0.5,
    ("radii", "Dy"): 0.6,
    ("radii", "Rd"): 0.5,
    ("sssp", "Dy"): 0.6,
    ("sssp", "Rd"): 0.5,
}
# The paper samples a subset of iterations for PRD and Radii (Sec. 7.2).
PRD_MAX_ITERATIONS = 8
RADII_MAX_ITERATIONS = 8
SILO_RECORDS = 20_000
SILO_OPS = 2_000
SPMM_SAMPLE = 48
RADII_SOURCES = 64


def default_scale(app: str, code: str) -> float:
    return INPUT_SCALES.get((app, code), DEFAULT_SCALE)


def check_scale_seed(scale: Optional[float] = None,
                     seed: Optional[int] = None) -> None:
    """Reject input coordinates the generators cannot honour.

    ``scale`` must be finite and positive and ``seed`` non-negative;
    ``None`` skips that field. Raises :class:`ValueError` naming the
    offending field.
    """
    if scale is not None and not (math.isfinite(scale) and scale > 0):
        raise ValueError(f"scale must be finite and positive, got {scale}")
    if seed is not None and seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")


def check_input(app: str, code: str,
                scale: Optional[float] = None) -> None:
    """Reject an app or input code outside :data:`APP_INPUTS`, and a
    ``scale`` the generators cannot honour: one that is not finite and
    positive (:func:`check_scale_seed`), or at which a graph input
    would have no vertex (:func:`repro.datasets.tables.graph_size`).
    ``None`` skips the scale.

    Raises :class:`ValueError` naming the offending value."""
    if app not in APP_INPUTS:
        raise ValueError(f"unknown app {app!r}; choose from "
                         f"{', '.join(sorted(APP_INPUTS))}")
    if code not in APP_INPUTS[app]:
        raise ValueError(f"unknown input {code!r} for {app}; choose from "
                         f"{', '.join(APP_INPUTS[app])}")
    if scale is None:
        return
    check_scale_seed(scale)
    if app in GRAPH_APPS:
        from repro.datasets.tables import graph_size
        graph_size(code, scale)


@dataclass
class PreparedInput:
    app: str
    code: str
    data: object            # graph / matrix / (tree, ops)
    golden: object          # reference result (lazily compared)


@dataclass
class ExperimentResult:
    app: str
    input_code: str
    system: str
    variant: str
    cycles: float
    correct: bool
    energy: dict
    raw: object
    scale: Optional[float] = None
    seed: int = 1
    wall_time_s: float = 0.0
    engine: str = "fast"
    # Wait-for profile (repro.profiling.RunProfile) when the run was
    # made with profile=True; None otherwise.
    profile: Optional[object] = None

    @property
    def label(self) -> str:
        return f"{self.app}/{self.input_code}/{self.system}"

    def to_manifest(self) -> dict:
        """Schema-versioned provenance record (see repro.stats.manifest)."""
        from repro.stats.manifest import build_manifest
        return build_manifest(self)


def prepare_input(app: str, code: str, scale: Optional[float] = None,
                  seed: int = 1) -> PreparedInput:
    """Generate the synthetic input and its golden reference result.

    Raises :class:`ValueError` for an app or input code outside
    :data:`APP_INPUTS` (see :func:`check_input`), and naming the field
    for a scale or seed the generators cannot honour (see
    :func:`check_scale_seed`) or a scale at which a graph input would
    have no vertex (see :func:`repro.datasets.tables.graph_size`)."""
    check_input(app, code)
    if scale is None:
        scale = default_scale(app, code)
    check_scale_seed(scale, seed)
    if app in GRAPH_APPS:
        from repro.datasets.graphs import make_graph
        graph = make_graph(code, scale=scale, seed=seed)
        module = get_workload(app)
        golden = {
            "bfs": lambda: module.bfs_reference(graph, 0),
            "cc": lambda: module.cc_reference(graph),
            "prd": lambda: module.prd_reference(
                graph, max_iterations=PRD_MAX_ITERATIONS),
            "radii": lambda: module.radii_reference(
                graph, k=RADII_SOURCES,
                max_iterations=RADII_MAX_ITERATIONS),
            "sssp": lambda: module.sssp_reference(graph, 0),
        }[app]()
        return PreparedInput(app, code, graph, golden)
    if app == "spmm":
        from repro.datasets.matrices import make_matrix
        spmm = get_workload(app)
        matrix = make_matrix(code, scale=scale * 4, seed=seed)
        rows, cols = spmm.sample_rows_cols(matrix, SPMM_SAMPLE, SPMM_SAMPLE)
        golden = spmm.spmm_reference(matrix, rows, cols)
        return PreparedInput(app, code, (matrix, rows, cols), golden)
    if app == "silo":
        import numpy as np
        from repro.datasets.btree import BPlusTree
        from repro.datasets.ycsb import zipfian_keys
        keys = np.arange(SILO_RECORDS, dtype=np.int64) * 3 + 1
        values = keys * 7
        tree = BPlusTree(keys, values, fanout=8)
        ops = keys[zipfian_keys(SILO_RECORDS, SILO_OPS, seed=seed)].copy()
        ops[::10] += 1  # some misses
        golden = get_workload(app).silo_reference(tree, ops)
        return PreparedInput(app, code, (tree, ops), golden)
    raise ValueError(f"unknown app {app!r}")


def resolve_config(app: str,
                   base: Optional[SystemConfig] = None) -> SystemConfig:
    """Resolve the effective :class:`SystemConfig` for one app.

    Pure: the same (app, base) always yields the same config. Part of
    the experiment pipeline's cacheable phase decomposition
    (prepare → compile → simulate → verify)."""
    config = base or SystemConfig()
    if app == "silo":
        config = get_workload(app).recommended_config(config)
    return config


def build_cgra_program(prepared: PreparedInput, config: SystemConfig,
                       mode: str, variant: str):
    """Compile phase: build the (program, workload) for a CGRA system.

    Pure function of its arguments — repeated compiles of the same
    prepared input and config produce equivalent programs, which is
    what lets the process's memos (stage-DFG mappings, compiled
    step-functions) reuse products across runs."""
    app, data = prepared.app, prepared.data
    module = get_workload(app)
    if app in GRAPH_APPS:
        if app == "prd":
            return module.build(data, config, mode, variant,
                                max_iterations=PRD_MAX_ITERATIONS)
        if app == "radii":
            return module.build(data, config, mode, variant,
                                max_iterations=RADII_MAX_ITERATIONS)
        return module.build(data, config, mode, variant)
    if app == "spmm":
        matrix, rows, cols = data
        n_stages = 4 if variant == "decoupled" else 1
        from repro.workloads.common import shards_for_mode
        n_shards = shards_for_mode(config, mode, n_stages)
        workload = module.SpMMWorkload(matrix, n_shards, rows, cols)
        return workload.build_program(config, mode, variant), workload
    if app == "silo":
        tree, ops = data
        return module.build(tree, ops, config, mode, variant)
    raise ValueError(app)


def simulate_cgra(program, config: SystemConfig, mode: str,
                  engine: str = "fast", max_cycles: float = 2e9,
                  telemetry=None, sanitize: bool = False,
                  profile: bool = False):
    """Simulate phase: instantiate and run one compiled program.

    Returns ``(raw, run_profile)`` where ``raw`` is the
    :class:`~repro.core.system.SimulationResult` and ``run_profile``
    the wait-for profile (or ``None``). Deterministic given its
    inputs; the verify/manifest phases build on the result."""
    from repro.core import System
    simulator = System(config, program, mode=mode, telemetry=telemetry)
    sanitizer = None
    profiler = None
    run_profile = None
    if profile:
        from repro.profiling import attach_profiler
        profiler = attach_profiler(simulator, bus=telemetry)
    if sanitize:
        from repro.analysis import SimulationSanitizer
        sanitizer = SimulationSanitizer().arm(simulator)
    try:
        raw = simulator.run(max_cycles=max_cycles, engine=engine)
    finally:
        if sanitizer is not None:
            sanitizer.disarm()
    if profiler is not None:
        run_profile = profiler.finalize(raw.pe_counters, raw.cycles)
    return raw, run_profile


def _ooo_kernel(prepared: PreparedInput, n_cores: int):
    from repro.baselines import kernels
    app, data = prepared.app, prepared.data
    if app == "bfs":
        return kernels.bfs_kernel(data, 0, n_cores)
    if app == "cc":
        return kernels.cc_kernel(data, n_cores)
    if app == "sssp":
        return kernels.sssp_kernel(data, 0, n_cores)
    if app == "prd":
        n = data.n_vertices
        prd = get_workload(app)
        return kernels.prd_kernel(data, n_cores, prd.DAMPING,
                                  prd.EPSILON_FRACTION / n,
                                  max_iterations=PRD_MAX_ITERATIONS)
    if app == "radii":
        sources = get_workload(app)._sample_sources(data.n_vertices,
                                                    RADII_SOURCES, 7)
        return kernels.radii_kernel(data, sources, n_cores,
                                    max_iterations=RADII_MAX_ITERATIONS)
    if app == "spmm":
        matrix, rows, cols = data
        return kernels.spmm_kernel(matrix, rows, cols, n_cores)
    if app == "silo":
        tree, ops = data
        return kernels.silo_kernel(tree, ops, n_cores)
    raise ValueError(app)


def _check(app: str, result, golden) -> bool:
    import numpy as np
    if app == "prd":
        n = len(golden)
        return np.allclose(result, golden, atol=2.0 / n, rtol=1e-6)
    if app == "spmm":
        if set(result) != set(golden):
            return False
        return all(np.isclose(result[k], golden[k]) for k in golden)
    if app == "silo":
        return tuple(result) == tuple(golden)
    return np.array_equal(result, golden)


def analyze_workload(app: str, input_code: str, system: str = "fifer",
                     prepared: Optional[PreparedInput] = None,
                     variant: str = "decoupled",
                     config: Optional[SystemConfig] = None,
                     scale: Optional[float] = None, seed: int = 1):
    """Statically analyze one workload's compiled program.

    Builds the program exactly as :func:`run_experiment` would (same
    input preparation, same config adjustments) and runs the
    :mod:`repro.analysis` pass suite over the artifacts without
    instantiating a :class:`~repro.core.system.System`. Returns an
    :class:`~repro.analysis.report.AnalysisReport`.
    """
    from repro.analysis import analyze_program
    if system not in ("static", "fifer"):
        raise ValueError(
            f"system {system!r} has no CGRA program to analyze; "
            f"choose static or fifer")
    if scale is None and prepared is None:
        scale = default_scale(app, input_code)
    if prepared is None:
        prepared = prepare_input(app, input_code, scale=scale, seed=seed)
    sys_config = resolve_config(app, config)
    program, _workload = build_cgra_program(
        prepared, sys_config, system, variant)
    return analyze_program(program, sys_config, mode=system)


def run_experiment(app: str, input_code: str, system: str,
                   prepared: Optional[PreparedInput] = None,
                   variant: str = "decoupled",
                   config: Optional[SystemConfig] = None,
                   ooo_config: Optional[OOOConfig] = None,
                   scale: Optional[float] = None, seed: int = 1,
                   max_cycles: float = 2e9,
                   check: bool = True,
                   telemetry=None,
                   manifest_dir=None,
                   engine: str = "fast",
                   sanitize: bool = False,
                   profile: bool = False,
                   codegen: Optional[bool] = None) -> ExperimentResult:
    """Run one experiment; see module docstring for the system names.

    ``telemetry`` is an optional :class:`repro.stats.telemetry.EventBus`
    attached to the simulated system for the duration of the run (CGRA
    systems only; the analytic OOO model publishes no events). With
    ``manifest_dir`` set, a schema-versioned JSON run manifest (config,
    seed, cycles, CPI stack, cache/memory stats, energy, wall time) is
    written there; ``python -m repro report DIR`` tabulates them.
    ``engine`` selects the CGRA simulation loop (``fast`` or ``naive``;
    see :data:`repro.core.ENGINES`); the analytic OOO model ignores it.
    ``sanitize`` arms a :class:`repro.analysis.SimulationSanitizer` on
    CGRA runs: per-quantum token/credit-conservation and clock checks
    that keep the run bit-identical (see ``docs/analysis.md``).
    ``profile`` arms the wait-for profiler (:mod:`repro.profiling`) on
    CGRA runs — blame matrix, critical path, what-if inputs — exposed
    as ``result.profile`` and, with ``manifest_dir``, summarized into
    the run manifest. ``codegen`` is accepted and selects nothing (see
    :meth:`repro.core.System.run`); it goes once the repository
    benchmark (perfbench/) stops passing it.
    """
    from repro.core import ENGINES
    if system not in SYSTEMS:
        raise ValueError(f"unknown system {system!r}; choose from {SYSTEMS}")
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; choose from {ENGINES}")
    if scale is None and prepared is None:
        scale = default_scale(app, input_code)
    if prepared is None:
        prepared = prepare_input(app, input_code, scale=scale, seed=seed)
    if profile and system in ("serial", "multicore"):
        raise ValueError(
            f"profile=True needs a CGRA system with an event stream; "
            f"{system!r} is an analytic OOO model")
    from repro.energy import EnergyModel
    energy_model = EnergyModel()
    run_profile = None
    t_start = time.perf_counter()
    if system in ("serial", "multicore"):
        from repro.baselines import run_ooo
        n_cores = 1 if system == "serial" else 4
        kernel = _ooo_kernel(prepared, n_cores)
        raw = run_ooo(kernel, n_cores, ooo_config)
        energy = energy_model.ooo_energy(raw).as_dict()
        result = raw.result
    else:
        sys_config = resolve_config(app, config)
        program, _workload = build_cgra_program(
            prepared, sys_config, system, variant)
        raw, run_profile = simulate_cgra(
            program, sys_config, system, engine=engine,
            max_cycles=max_cycles, telemetry=telemetry,
            sanitize=sanitize, profile=profile)
        energy = energy_model.cgra_energy(raw).as_dict()
        result = raw.result
    wall_time_s = time.perf_counter() - t_start
    correct = _check(app, result, prepared.golden) if check else True
    if check and not correct:
        raise AssertionError(
            f"{app}/{input_code}/{system}/{variant}: functional result "
            f"does not match the golden reference")
    experiment = ExperimentResult(app, input_code, system, variant,
                                  float(raw.cycles), correct, energy, raw,
                                  scale=scale, seed=seed,
                                  wall_time_s=wall_time_s, engine=engine,
                                  profile=run_profile)
    if manifest_dir is not None:
        from repro.stats.manifest import write_manifest
        write_manifest(experiment.to_manifest(), manifest_dir)
    return experiment


def speedup_table(results: dict, baseline_system: str = "multicore"):
    """Turn {system: ExperimentResult} into {system: speedup}."""
    base = results[baseline_system].cycles
    return {system: base / r.cycles for system, r in results.items()}

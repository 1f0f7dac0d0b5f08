"""Fifer reproduction: dynamic temporal pipelining for irregular
applications on coarse-grain reconfigurable arrays.

This package reproduces *Fifer: Practical Acceleration of Irregular
Applications on Reconfigurable Architectures* (Nguyen & Sanchez,
MICRO 2021): a cycle-level model of a multi-PE CGRA system in which
pipeline stages of irregular applications are time-multiplexed onto
processing elements with fast, double-buffered reconfiguration.

Quick start::

    from repro import SystemConfig, System
    from repro.datasets.graphs import make_graph
    from repro.workloads import bfs

    config = SystemConfig()
    graph = make_graph("Hu")
    program, workload = bfs.build(graph, config, mode="fifer")
    result = System(config, program, mode="fifer").run()
    print(result.cycles, result.result)  # cycles, distances array

Higher-level experiments (all four evaluated systems, verified against
golden references, with energy breakdowns) go through
:func:`repro.harness.run_experiment`.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.config": ("CacheConfig", "FabricConfig", "MemoryConfig",
                     "OOOConfig", "SystemConfig", "DEFAULT_CONFIG"),
    "repro.core": ("System", "SimulationResult", "DeadlockError",
                   "Program", "PEProgram", "StageSpec", "StageContext",
                   "DRM", "DRMSpec", "STOP_VALUE"),
    "repro.baselines": ("run_ooo", "OOOResult"),
    "repro.energy": ("EnergyModel",),
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__version__ = "1.0.0"

__all__ = [
    "CacheConfig", "FabricConfig", "MemoryConfig", "OOOConfig",
    "SystemConfig", "DEFAULT_CONFIG",
    "System", "SimulationResult", "DeadlockError",
    "Program", "PEProgram", "StageSpec", "StageContext",
    "DRM", "DRMSpec", "STOP_VALUE",
    "run_ooo", "OOOResult", "EnergyModel",
    "__version__",
]

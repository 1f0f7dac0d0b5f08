"""The Fifer architecture: PEs, scheduler, reconfiguration, DRMs, system.

This package implements the paper's primary contribution (Sec. 5):
time-multiplexing pipeline stages onto CGRA-based processing elements
with dynamic scheduling, rapid double-buffered reconfiguration, intra-PE
queues, decoupled reference machines, and control values.
"""

from repro.core.stage import StageSpec, StageContext, StageInstance, STOP_VALUE
from repro.core.drm import DRM, DRMSpec
from repro.core.scheduler import (make_scheduler, MostWorkScheduler,
                                  RoundRobinScheduler)
from repro.core.reconfig import ReconfigurationModel
from repro.core.pe import ProcessingElement
from repro.core.program import Program, PEProgram
from repro.core.system import (System, DeadlockError, SimulationResult,
                               SimulationTimeout, ENGINES)

__all__ = [
    "StageSpec", "StageContext", "StageInstance", "STOP_VALUE",
    "DRM", "DRMSpec",
    "make_scheduler", "MostWorkScheduler", "RoundRobinScheduler",
    "ReconfigurationModel", "ProcessingElement",
    "Program", "PEProgram",
    "System", "DeadlockError", "SimulationResult", "SimulationTimeout",
    "ENGINES",
]

"""DFG-to-Python source-generation backend (closure codegen).

Compiles each decoupled graph-pipeline stage to a flat specialized
step-function — straight-line Python with the request protocol and
SIMD cost model inlined and queues/counters bound as locals — selected
by ``System.run(..., codegen=True)`` or ``REPRO_CODEGEN=1``. Stages
codegen cannot express fall back to their coroutine, which every
``engine="fast"`` run drives with the one generic step-function shape,
:data:`INTERP` (the request protocol inlined).

DRMs compile the same way, one step-function per :class:`DrmShape`,
bound on every ``engine="fast"`` run. The ``naive`` engine keeps
``PE._execute`` and the ``DRM.run`` ladder as the oracles of both.
"""

from repro.codegen.emit import (CODEGEN_VERSION, INTERP, ROLES, DrmShape,
                                StageShape, drm_source, stage_source)
from repro.codegen.runtime import (bind_stage, bind_system, drm_shape,
                                   emitted_count, source_for)

__all__ = [
    "CODEGEN_VERSION",
    "ROLES",
    "INTERP",
    "StageShape",
    "DrmShape",
    "stage_source",
    "drm_source",
    "source_for",
    "bind_stage",
    "bind_system",
    "drm_shape",
    "emitted_count",
]

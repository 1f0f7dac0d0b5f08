"""DFG-to-Python source-generation backend (closure codegen).

Compiles each decoupled graph-pipeline stage to a flat specialized
step-function — straight-line Python with the request protocol and
SIMD cost model inlined and queues/counters bound as locals — selected
by ``System.run(..., codegen=True)`` or ``REPRO_CODEGEN=1``. Stages
codegen cannot express fall back to the interpreted coroutine path.

DRMs compile the same way, one step-function per :class:`DrmShape`,
bound on every ``engine="fast"`` run; the ``naive`` engine keeps the
interpreted ``DRM.run`` ladder as their oracle.
"""

from repro.codegen.emit import (CODEGEN_VERSION, ROLES, DrmShape, StageShape,
                                drm_source, stage_source)
from repro.codegen.runtime import (bind_drms, bind_stage, bind_system,
                                   drm_shape, emitted_count, source_for)

__all__ = [
    "CODEGEN_VERSION",
    "ROLES",
    "StageShape",
    "DrmShape",
    "stage_source",
    "drm_source",
    "source_for",
    "bind_stage",
    "bind_system",
    "bind_drms",
    "drm_shape",
    "emitted_count",
]

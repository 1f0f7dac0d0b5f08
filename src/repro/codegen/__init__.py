"""Python source-generation backend (closure codegen).

Every ``engine="fast"`` run drives each stage's coroutine with the one
generic step-function shape, :data:`INTERP`: PE._execute's request loop
with the request protocol and SIMD cost model inlined. DRMs compile
the same way, one step-function per :class:`DrmShape`. The ``naive``
engine keeps ``PE._execute`` and the ``DRM.run`` ladder as the oracles
of both.
"""

from repro.codegen.emit import (INTERP, DrmShape, StageShape, drm_source,
                                stage_source)
from repro.codegen.runtime import (bind_system, drm_shape, emitted_count,
                                   source_for)

__all__ = [
    "INTERP",
    "StageShape",
    "DrmShape",
    "stage_source",
    "drm_source",
    "source_for",
    "bind_system",
    "drm_shape",
    "emitted_count",
]

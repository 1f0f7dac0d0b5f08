"""Step-functions for the fast engine.

Every ``engine="fast"`` run drives each stage's coroutine with the one
hand-written request loop, :func:`make_interp_step`: PE._execute's
loop with the request protocol and SIMD cost model inlined. DRMs run
a step-function generated per :class:`DrmShape`. The ``naive`` engine
keeps ``PE._execute`` and the ``DRM.run`` ladder as the oracles of
both.
"""

from repro.codegen.emit import DrmShape, drm_source
from repro.codegen.interp import make_interp_step
from repro.codegen.runtime import bind_system, drm_shape, emitted_count

__all__ = [
    "DrmShape",
    "drm_source",
    "make_interp_step",
    "bind_system",
    "drm_shape",
    "emitted_count",
]

"""Content addressing and the in-process memo of compiled artifacts.

Fifer's compile path (annotated kernel → split plan → per-stage DFGs →
fabric mappings, plus generated step-function source) is deterministic
and pure. This package provides:

* :mod:`repro.cache.content` — the content-addressing primitives
  (kernel fingerprints, mapping keys); ``repro advise --apply`` prints
  kernel fingerprints;
* :mod:`repro.cache.artifacts` — the process-wide
  :class:`ArtifactCache`, which memoizes fabric mappings in memory
  with per-kind hit/miss counters.
"""

from __future__ import annotations

from repro.cache.artifacts import (ArtifactCache, configure_artifact_cache,
                                   get_artifact_cache)
from repro.cache.content import (callable_fingerprint, kernel_fingerprint,
                                 mapping_key, sha256_text)

__all__ = [
    "ArtifactCache", "configure_artifact_cache", "get_artifact_cache",
    "callable_fingerprint", "kernel_fingerprint", "mapping_key",
    "sha256_text",
]

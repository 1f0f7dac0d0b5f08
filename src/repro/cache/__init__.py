"""Content-addressed cache for compiled artifacts.

Fifer's compile path (annotated kernel → split plan → per-stage DFGs →
fabric mappings, plus generated step-function source) is deterministic
and pure, so its costly products — fabric mappings and generated
source — are reused once keyed by content. This package provides:

* :mod:`repro.cache.content` — the content-addressing primitives
  (code version, kernel fingerprints, mapping keys); ``repro advise
  --apply`` prints kernel fingerprints;
* :mod:`repro.cache.artifacts` — the two-layer (memory + disk)
  :class:`ArtifactCache` with per-kind hit/miss counters, rooted at
  ``REPRO_CACHE_DIR`` or ``~/.cache/repro``.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.cache.artifacts import (ArtifactCache, configure_artifact_cache,
                                   get_artifact_cache)
from repro.cache.content import (callable_fingerprint, code_version,
                                 kernel_fingerprint, mapping_key,
                                 sha256_text)


def default_cache_root() -> Path:
    """``REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    root = os.environ.get("REPRO_CACHE_DIR")
    if root:
        return Path(root)
    return Path.home() / ".cache" / "repro"


__all__ = [
    "ArtifactCache", "configure_artifact_cache", "get_artifact_cache",
    "callable_fingerprint", "code_version", "kernel_fingerprint",
    "mapping_key", "sha256_text",
    "default_cache_root",
]

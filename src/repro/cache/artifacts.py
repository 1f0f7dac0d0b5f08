"""Content-addressed cache of compiled artifacts.

The compile path — kernel source → split plan → per-stage DFGs →
fabric mappings, plus the generated step-function source — is
deterministic and pure, so its costly products can be reused once they
are keyed by content (:mod:`repro.cache.content`). The
:class:`ArtifactCache` layers two stores:

* an **in-memory** map serving every repeat compile within a process
  (a sweep or benchmark compiles each kernel once per worker);
* an optional **on-disk** store under ``<root>/artifacts/<code>/``
  serving repeat compiles across processes (CLI invocations,
  benchmark reruns). Entries are namespaced by :func:`code_version`,
  so a source change invalidates everything below it; ``gc()`` prunes
  the stale namespaces.

Artifact kinds:

========== ======================== ======================================
kind       persisted as             payload
========== ======================== ======================================
mapping    pickle                   :class:`repro.cgra.mapper.Mapping`
                                    keyed by DFG asm + fabric geometry
codegen    JSON                     generated step-function source
                                    keyed by the stage or DRM shape
                                    (:mod:`repro.codegen.emit`)
========== ======================== ======================================

Split plans and compile descriptions are not cached: analyzing a kernel
and describing it cost less than fingerprinting it for a lookup.
Per-kind hit/miss/store counters make cache behavior assertable: the
cache tests prove a repeat mapping performs no placement by watching
them.
"""

from __future__ import annotations

import json
import os
import pickle
import shutil
import tempfile
from pathlib import Path
from typing import Optional

from repro.cache.content import code_version

#: Kinds persisted to disk and their serialization format.
_DISK_KINDS = {"mapping": "pickle", "codegen": "json"}
_EXT = {"json": ".json", "pickle": ".pkl"}


class ArtifactCache:
    """Two-layer (memory + optional disk) content-addressed store."""

    def __init__(self, root=None):
        self.root = Path(root) if root is not None else None
        self._memory: dict = {}
        self.counters: dict = {}

    # -- bookkeeping ----------------------------------------------------

    def _count(self, name: str) -> None:
        self.counters[name] = self.counters.get(name, 0) + 1

    def _artifact_dir(self) -> Optional[Path]:
        if self.root is None:
            return None
        return self.root / "artifacts" / code_version()[:16]

    def _disk_path(self, kind: str, key: str) -> Optional[Path]:
        fmt = _DISK_KINDS.get(kind)
        base = self._artifact_dir()
        if fmt is None or base is None:
            return None
        return base / kind / key[:2] / f"{key}{_EXT[fmt]}"

    # -- the store ------------------------------------------------------

    def get(self, kind: str, key: str):
        """Return the cached artifact or ``None`` (counted per kind)."""
        value = self._memory.get((kind, key))
        if value is not None:
            self._count(f"{kind}.hit")
            return value
        path = self._disk_path(kind, key)
        if path is not None and path.exists():
            value = self._load(kind, path)
            if value is not None:
                self._memory[(kind, key)] = value
                self._count(f"{kind}.hit")
                self._count(f"{kind}.disk_hit")
                return value
        self._count(f"{kind}.miss")
        return None

    def put(self, kind: str, key: str, value) -> None:
        """Store an artifact in memory and (when applicable) on disk."""
        self._memory[(kind, key)] = value
        self._count(f"{kind}.store")
        path = self._disk_path(kind, key)
        if path is None:
            return
        fmt = _DISK_KINDS[kind]
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=str(path.parent),
                                       prefix=".tmp-", suffix=_EXT[fmt])
            try:
                with os.fdopen(fd, "wb") as fh:
                    if fmt == "json":
                        fh.write(json.dumps(value, sort_keys=True)
                                 .encode("utf-8"))
                    else:
                        pickle.dump(value, fh,
                                    protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except (OSError, pickle.PicklingError, TypeError, ValueError):
            # The disk layer is an accelerator, never a correctness
            # dependency; a write failure leaves the memory layer valid.
            self._count(f"{kind}.disk_write_error")

    def _load(self, kind: str, path: Path):
        try:
            data = path.read_bytes()
            if _DISK_KINDS[kind] == "json":
                return json.loads(data.decode("utf-8"))
            return pickle.loads(data)
        except Exception:
            # Corrupt/foreign entry: drop it and treat as a miss.
            self._count(f"{kind}.disk_read_error")
            try:
                path.unlink()
            except OSError:
                pass
            return None

    # -- introspection & maintenance ------------------------------------

    def stats(self) -> dict:
        """Deterministic summary for ``repro cache stats``."""
        disk = {"entries": 0, "bytes": 0, "stale_versions": 0}
        if self.root is not None:
            artifacts = self.root / "artifacts"
            current = self._artifact_dir()
            if artifacts.is_dir():
                for version_dir in artifacts.iterdir():
                    if not version_dir.is_dir():
                        continue
                    if current is not None and version_dir != current:
                        disk["stale_versions"] += 1
                        continue
                    for path in version_dir.rglob("*"):
                        if path.is_file():
                            disk["entries"] += 1
                            disk["bytes"] += path.stat().st_size
        return {
            "root": str(self.root) if self.root is not None else None,
            "code_version": code_version()[:16],
            "memory_entries": len(self._memory),
            "counters": dict(sorted(self.counters.items())),
            "disk": disk,
        }

    def gc(self, all_versions: bool = False) -> dict:
        """Prune on-disk artifacts.

        Default: remove artifact namespaces of *other* code versions
        (their entries can never hit again from this checkout). With
        ``all_versions=True`` the whole artifact store is removed.
        Returns ``{"removed_dirs": n, "removed_bytes": b}``.
        """
        removed = {"removed_dirs": 0, "removed_bytes": 0}
        if self.root is None:
            return removed
        artifacts = self.root / "artifacts"
        if not artifacts.is_dir():
            return removed
        current = self._artifact_dir()
        for version_dir in sorted(artifacts.iterdir()):
            if not version_dir.is_dir():
                continue
            if not all_versions and version_dir == current:
                continue
            removed["removed_bytes"] += sum(
                p.stat().st_size for p in version_dir.rglob("*")
                if p.is_file())
            shutil.rmtree(version_dir, ignore_errors=True)
            removed["removed_dirs"] += 1
        return removed


# -- the process-global cache ----------------------------------------------

_GLOBAL: Optional[ArtifactCache] = None


def get_artifact_cache() -> ArtifactCache:
    """The process-wide artifact cache.

    Memory-only by default; set ``REPRO_CACHE_DIR`` (or call
    :func:`configure_artifact_cache`) to attach the on-disk layer.
    """
    global _GLOBAL
    if _GLOBAL is None:
        _GLOBAL = ArtifactCache(root=os.environ.get("REPRO_CACHE_DIR")
                                or None)
    return _GLOBAL


def configure_artifact_cache(root) -> ArtifactCache:
    """Point the process-global cache at ``root`` (e.g. ``--cache-dir``).

    Replaces the global instance; in-memory contents of the previous
    instance are dropped (they remain correct but re-warm on demand).
    """
    global _GLOBAL
    _GLOBAL = ArtifactCache(root=root)
    return _GLOBAL

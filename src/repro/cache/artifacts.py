"""The in-process memo of compiled artifacts.

Mapping a stage's DFG onto the fabric is deterministic and pure, so
:func:`repro.cgra.map_dfg_cached` keeps each mapping, keyed by content
(:func:`repro.cache.content.mapping_key`), for the life of the process:
a build maps each stage once however many shards replicate it, and a
sweep or benchmark maps it once per worker. Generated
step-functions have their own memo in :mod:`repro.codegen.runtime`.

Nothing is kept on disk: reading a mapping back from a file cost about
as much as mapping the stage again, and a cold command ran no faster
with a warm store (docs/performance.md, "Compile-side memos").

Per-kind hit/miss/store counters make reuse assertable: the cache tests
prove a repeat mapping performs no placement by watching them.
"""

from __future__ import annotations

from typing import Optional


class ArtifactCache:
    """In-memory memo with per-kind hit/miss/store counters."""

    def __init__(self):
        self._memory: dict = {}
        self.counters: dict = {}

    def _count(self, name: str) -> None:
        self.counters[name] = self.counters.get(name, 0) + 1

    def get(self, kind: str, key):
        """Return the memoized artifact or ``None`` (counted per kind)."""
        value = self._memory.get((kind, key))
        self._count(f"{kind}.miss" if value is None else f"{kind}.hit")
        return value

    def put(self, kind: str, key, value) -> None:
        """Memoize an artifact for the rest of the process."""
        self._memory[(kind, key)] = value
        self._count(f"{kind}.store")


# -- the process-global memo -----------------------------------------------

_GLOBAL: Optional[ArtifactCache] = None


def get_artifact_cache() -> ArtifactCache:
    """The process-wide artifact memo."""
    global _GLOBAL
    if _GLOBAL is None:
        _GLOBAL = ArtifactCache()
    return _GLOBAL


def configure_artifact_cache(root=None) -> ArtifactCache:
    """Replace the process-wide memo with an empty one, as a fresh
    process starts with. ``root`` must be ``None``: there is no on-disk
    layer to point it at."""
    global _GLOBAL
    if root is not None:
        raise ValueError(f"the artifact cache is in-memory only; "
                         f"got root={root!r}")
    _GLOBAL = ArtifactCache()
    return _GLOBAL

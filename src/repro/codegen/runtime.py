"""Compile, cache, and bind generated step-functions.

Three layers keep warm paths free of source generation:

1. the process-global :class:`~repro.cache.artifacts.ArtifactCache`
   stores generated *source text* under the ``codegen`` kind (JSON on
   disk, ``code_version``-namespaced) — shared by sweep workers and
   CLI runs via ``REPRO_CACHE_DIR``;
2. a process-local map caches the executed module's ``make_step``
   factory per shape key, so repeat binds skip parsing and ``exec``;
3. binding itself (one ``make_step`` call) is per stage-instance and
   cheap — it resolves queues and hook methods into closure locals.

``emitted_count()`` exposes how many times source was actually
generated, so tests can prove a warm run performs zero generation.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.cache.artifacts import ArtifactCache, get_artifact_cache
from repro.codegen.emit import StageShape, stage_source

#: Process-local factory cache: shape key -> the generated module's
#: make_step function (compile + exec happen once per shape).
_FACTORY: dict = {}

#: How many times stage_source() actually ran in this process.
_EMITTED = 0


def emitted_count() -> int:
    """Number of source-generation events in this process (test hook)."""
    return _EMITTED


def source_for(shape: StageShape,
               cache: Optional[ArtifactCache] = None) -> str:
    """The generated source for ``shape``, via the artifact cache.

    A hit (memory or disk) returns the cached text without invoking the
    emitter; a miss generates, stores, and counts one emission.
    """
    global _EMITTED
    if cache is None:
        cache = get_artifact_cache()
    key = shape.key()
    entry = cache.get("codegen", key)
    if entry is not None:
        return entry["source"]
    source = stage_source(shape)
    _EMITTED += 1
    cache.put("codegen", key, {
        "source": source,
        "role": shape.role,
        "simple_edges": shape.simple_edges,
        "trivial_vp": shape.trivial_vp,
    })
    return source


def _factory_for(shape: StageShape,
                 cache: Optional[ArtifactCache] = None) -> Callable:
    key = shape.key()
    factory = _FACTORY.get(key)
    if factory is None:
        source = source_for(shape, cache)
        code = compile(source, f"<repro.codegen:{shape.role}>", "exec")
        namespace: dict = {}
        exec(code, namespace)
        factory = namespace["make_step"]
        _FACTORY[key] = factory
    return factory


def bind_stage(pe, stage, cache: Optional[ArtifactCache] = None) -> bool:
    """Attach a specialized step-function to ``stage`` on ``pe``.

    Returns False (leaving the interpreted coroutine path in charge)
    when the stage carries no codegen descriptor or when the
    descriptor's queue contract disagrees with the stage's DFG — the
    defensive fallback the tentpole requires rather than a hard error.
    """
    cg = getattr(stage.spec, "codegen", None)
    if cg is None:
        return False
    shape, bindings = cg
    consumed, produced = stage.spec.dfg.queue_signature()
    if (bindings.get("consumed") != consumed
            or bindings.get("produced") != produced):
        return False
    stage.step_fn = _factory_for(shape, cache)(pe, stage, bindings)
    return True


def bind_system(system, cache: Optional[ArtifactCache] = None):
    """Bind step-functions across all PEs; returns (bound, fallback)."""
    if cache is None:
        cache = get_artifact_cache()
    bound = fallback = 0
    for pe in system.pes:
        for stage in pe.stages:
            if bind_stage(pe, stage, cache):
                bound += 1
            else:
                fallback += 1
    return bound, fallback

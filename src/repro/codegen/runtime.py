"""Bind step-functions, and compile the generated DRM ones.

Two layers keep warm paths free of source generation:

1. a process-local memo, :data:`_FACTORY`, holds the executed module's
   ``make_step`` factory per :class:`~repro.codegen.emit.DrmShape`, so
   each shape is generated, compiled and ``exec``'d once per process;
2. binding itself (one factory call) is per stage-instance or DRM and
   cheap — it resolves queues, caches and constants into closure
   locals. The PE, stage or DRM is an argument of every call
   (``step(pe, stage, budget)``, ``step(drm, budget)``), so no
   step-function holds its owner and a finished System is freed by
   reference counting.

On every ``engine="fast"`` run, every stage binds the hand-written
request loop of :mod:`repro.codegen.interp` and every DRM its shape's
generated step-function. ``emitted_count()`` exposes how many times
DRM source was actually generated, so tests can prove a warm run
performs zero generation.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.codegen.emit import DrmShape, drm_source
from repro.codegen.interp import make_interp_step

#: Process-local memo of compiled code: shape -> the generated module's
#: make_step function (generation, compile and exec happen once per
#: shape).
_FACTORY: dict = {}

#: How many times _factory_for generated a shape's source in this
#: process.
_EMITTED = 0


def emitted_count() -> int:
    """Number of source-generation events in this process (test hook)."""
    return _EMITTED


def _factory_for(shape: DrmShape) -> Callable:
    global _EMITTED
    factory = _FACTORY.get(shape)
    if factory is None:
        source = drm_source(shape)
        _EMITTED += 1
        code = compile(source, f"<repro.codegen:{shape.name}>", "exec")
        namespace: dict = {}
        exec(code, namespace)
        factory = namespace["make_step"]
        _FACTORY[shape] = factory
    return factory


def bind_system(system, fast: bool) -> None:
    """Bind step-functions across all PEs.

    With ``fast`` (the fast engine), every stage gets the request loop
    of :func:`~repro.codegen.interp.make_interp_step` over its
    coroutine and every DRM with a shape its generated step-function;
    without it they keep ``PE._execute`` and ``DRM.run``, the
    interpreted oracles the naive engine runs.
    """
    for pe in system.pes:
        for stage in pe.stages:
            stage.step_fn = make_interp_step(pe, stage) if fast else None
        for drm in pe.drms:
            shape = drm_shape(drm) if fast else None
            drm.step_fn = None if shape is None else _factory_for(shape)(drm)


def drm_shape(drm) -> Optional[DrmShape]:
    """The :class:`DrmShape` ``drm`` compiles to, or None to keep the
    interpreted ladder: a routed scan, route targets that mix credited
    and uncredited queues, and a credited target that does not list
    the DRM as a producer (the ladder then raises can_enq's
    KeyError)."""
    spec = drm.spec
    routed = spec.route is not None
    if routed and spec.mode == "scan":
        return None
    credited = {q._credits is not None for q in drm._target_queues}
    if len(credited) != 1:
        return None
    credited_out = credited.pop()
    if credited_out and any(drm.producer_key not in q._credits
                            for q in drm._target_queues):
        return None
    credited_in = drm.in_q._credits is not None
    if spec.mode == "scan":
        return DrmShape("scan", credited_out=credited_out,
                        credited_in=credited_in)
    return DrmShape("deref", spec.width, spec.payload, routed, credited_out,
                    credited_in)

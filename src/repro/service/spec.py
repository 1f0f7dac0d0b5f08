"""Experiment specs: the service's wire format and cache identity.

A *spec* is a JSON object naming one experiment in the same shape as
:class:`~repro.harness.sweep.SweepPoint` / the keyword arguments of
:func:`~repro.harness.run.run_experiment`::

    {"app": "bfs", "input_code": "Hu", "system": "fifer",
     "variant": "decoupled", "seed": 1, "engine": "fast",
     "config": {"n_pes": 8}}

:func:`canonicalize_spec` validates a raw spec and normalizes it to a
*canonical* form where every defaultable field is resolved to its
concrete value — ``scale`` to the app/input default, ``config``
expanded to the full :class:`~repro.config.SystemConfig` field dict —
so any two specs describing the same experiment canonicalize to the
same document and therefore share one cache key. :func:`spec_key`
hashes the canonical spec together with the code version and the
dataset digest (:mod:`repro.cache.content`), making the result cache
self-invalidating across code or generator changes.
"""

from __future__ import annotations

import dataclasses

from repro.config import CacheConfig, FabricConfig, MemoryConfig, SystemConfig
from repro.harness.run import (APP_INPUTS, SYSTEMS, check_scale_seed,
                               default_scale)
from repro.harness.sweep import SweepPoint
from repro.stats.manifest import manifest_key


class SpecError(ValueError):
    """A submitted spec is malformed; the message says which field."""


#: Fields a raw spec may carry (SweepPoint coordinates).
SPEC_FIELDS = ("app", "input_code", "system", "variant", "scale", "seed",
               "engine", "max_cycles", "check", "config")

_NESTED_CONFIG = {"fabric": FabricConfig, "l1": CacheConfig,
                  "memory": MemoryConfig}


def config_from_dict(overrides) -> SystemConfig:
    """Build a :class:`SystemConfig` from a (possibly partial) dict.

    Accepts both sparse overrides (``{"n_pes": 8}``) and the full
    ``dataclasses.asdict`` form a canonical spec carries — including
    after a JSON round-trip, so nested sections arrive as dicts and
    ``stage_speedup`` as a list of lists.
    """
    if isinstance(overrides, SystemConfig):
        return overrides
    if not overrides:
        return SystemConfig()
    if not isinstance(overrides, dict):
        raise SpecError(f"config must be an object, got "
                        f"{type(overrides).__name__}")
    valid = {f.name: f for f in dataclasses.fields(SystemConfig)}
    kwargs = {}
    for name, value in overrides.items():
        if name not in valid:
            raise SpecError(
                f"unknown config field {name!r} (valid: "
                f"{', '.join(sorted(valid))})")
        if name in _NESTED_CONFIG and isinstance(value, dict):
            try:
                value = _NESTED_CONFIG[name](**value)
            except TypeError as exc:
                raise SpecError(f"config.{name}: {exc}") from None
        elif name == "stage_speedup":
            try:
                value = tuple((str(n), float(f)) for n, f in value)
            except (TypeError, ValueError) as exc:
                raise SpecError(
                    f"config.stage_speedup must be [[name, factor], ...]: "
                    f"{exc}") from None
        kwargs[name] = value
    try:
        return SystemConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"invalid config: {exc}") from None


def canonicalize_spec(raw: dict) -> dict:
    """Validate ``raw`` and return the canonical spec document.

    The canonical form is deterministic and fully resolved: it is what
    :func:`spec_key` hashes and what the server hands to the pool
    worker, so every downstream consumer sees the same experiment no
    matter how sparsely the client wrote it.
    """
    if not isinstance(raw, dict):
        raise SpecError(f"spec must be a JSON object, got "
                        f"{type(raw).__name__}")
    unknown = sorted(set(raw) - set(SPEC_FIELDS))
    if unknown:
        raise SpecError(f"unknown spec field(s): {', '.join(unknown)} "
                        f"(valid: {', '.join(SPEC_FIELDS)})")
    for required in ("app", "input_code", "system"):
        if required not in raw:
            raise SpecError(f"spec is missing required field {required!r}")
    app = str(raw["app"])
    if app not in APP_INPUTS:
        raise SpecError(f"unknown app {app!r} (have: "
                        f"{', '.join(sorted(APP_INPUTS))})")
    input_code = str(raw["input_code"])
    if input_code not in APP_INPUTS[app]:
        raise SpecError(f"unknown input {input_code!r} for app {app!r} "
                        f"(have: {', '.join(APP_INPUTS[app])})")
    system = str(raw["system"])
    if system not in SYSTEMS:
        raise SpecError(f"unknown system {system!r} (have: "
                        f"{', '.join(SYSTEMS)})")
    from repro.core import ENGINES
    engine = str(raw.get("engine", "fast"))
    if engine not in ENGINES:
        raise SpecError(f"unknown engine {engine!r} (have: "
                        f"{', '.join(sorted(ENGINES))})")
    try:
        scale = (float(raw["scale"]) if raw.get("scale") is not None
                 else default_scale(app, input_code))
        seed = int(raw.get("seed", 1))
        max_cycles = float(raw.get("max_cycles", 2e9))
        check_scale_seed(scale, seed)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"invalid numeric spec field: {exc}") from None
    config = config_from_dict(raw.get("config"))
    return {
        "app": app,
        "input_code": input_code,
        "system": system,
        "variant": str(raw.get("variant", "decoupled")),
        "scale": scale,
        "seed": seed,
        "engine": engine,
        "max_cycles": max_cycles,
        "check": bool(raw.get("check", True)),
        "config": dataclasses.asdict(config),
    }


def spec_key(canonical: dict) -> str:
    """Result-cache key of one canonical spec.

    Folds in the code version (any source change invalidates every
    cached result) and the dataset digest (generator code + input
    coordinates) so a stale result can never be served — invalidation
    by construction, no TTLs.
    """
    from repro.cache import code_version, dataset_digest
    extra = {
        "code": code_version(),
        "dataset": dataset_digest(canonical["app"], canonical["input_code"],
                                  canonical["scale"], canonical["seed"]),
    }
    return manifest_key(canonical, extra=extra)


def spec_point(canonical: dict) -> SweepPoint:
    """The :class:`SweepPoint` a canonical spec describes."""
    return SweepPoint(
        app=canonical["app"], input_code=canonical["input_code"],
        system=canonical["system"], variant=canonical["variant"],
        scale=canonical["scale"], seed=canonical["seed"],
        engine=canonical["engine"], config=config_from_dict(
            canonical["config"]),
        max_cycles=canonical["max_cycles"], check=canonical["check"])

"""Validated environment-variable knobs.

The benchmarks' ``REPRO_BENCH_*`` knobs (benchmarks/bench_common.py)
funnel through these helpers so a typo'd value fails fast with an
error naming the knob and its allowed values, instead of each call
site hand-rolling (and subtly diverging on) its own parse-and-check.
"""

from __future__ import annotations

import os
from typing import Iterable, Optional


class EnvKnobError(ValueError):
    """An environment knob is set to a value outside its domain."""


def env_choice(name: str, default: str, choices: Iterable[str]) -> str:
    """Read ``name`` restricted to ``choices`` (default when unset)."""
    choices = tuple(choices)
    raw = os.environ.get(name)
    if raw is None:
        return default
    if raw not in choices:
        raise EnvKnobError(
            f"{name}={raw!r} is not a valid choice; choose from {choices}")
    return raw


def env_float(name: str, default: float,
              minimum: Optional[float] = None) -> float:
    """Read a float knob, optionally bounded below."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = float(raw)
    except ValueError:
        raise EnvKnobError(
            f"{name}={raw!r} is not a number") from None
    if minimum is not None and value < minimum:
        raise EnvKnobError(
            f"{name}={raw!r} is out of range; must be >= {minimum}")
    return value


def env_int(name: str, default: Optional[int],
            minimum: Optional[int] = None) -> Optional[int]:
    """Read an integer knob, optionally bounded below."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise EnvKnobError(
            f"{name}={raw!r} is not an integer") from None
    if minimum is not None and value < minimum:
        raise EnvKnobError(
            f"{name}={raw!r} is out of range; must be >= {minimum}")
    return value

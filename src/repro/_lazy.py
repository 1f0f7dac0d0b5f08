"""Lazy re-exports for package ``__init__`` modules (PEP 562).

A package that re-exports its submodules' names by importing them loads
every submodule, whatever its importer uses. With
``__getattr__, __dir__ = lazy_exports(__name__, {module: names})`` it
imports a submodule only when one of that submodule's names is first
read from the package.

The pitfall: importing a submodule binds it on its package under its
own name. A lazily exported name equal to a submodule's name (the
function ``repro.stats.cpi_stack`` of the module of that name) would
read as the module once anything imported that submodule, so such a
name must be bound eagerly in the ``__init__``; the import system then
leaves it alone.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Mapping, Sequence


def lazy_exports(package: str, exports: Mapping[str, Sequence[str]]
                 ) -> tuple[Callable[[str], object], Callable[[], list]]:
    """Return the ``(__getattr__, __dir__)`` pair for ``package``.

    ``exports`` maps each defining module to the names the package
    re-exports from it. A name is imported on first access and then
    bound on the package, so later reads never reach the hook; any
    other name raises :class:`AttributeError`.
    """
    origin = {name: module for module, names in exports.items()
              for name in names}

    def __getattr__(name: str) -> object:
        try:
            module = origin[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return __getattr__, __dir__

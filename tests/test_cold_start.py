"""Cold start: each ``python -m repro`` verb imports only what it runs.

The test process has long since imported the whole package, so every
check here runs one function of this module in a fresh interpreter
(:func:`_fresh`) and inspects what that interpreter loaded.
"""

import contextlib
import importlib
import io
import json
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
HISTORY = HERE.parent / "benchmarks" / "results" / "history"

#: Packages whose ``__init__`` re-exports through ``repro._lazy``.
LAZY_PACKAGES = ("repro", "repro.harness", "repro.stats", "repro.analysis",
                 "repro.profiling", "repro.datasets")

#: The simulator core: it makes no array, so it must not import numpy.
CORE_PACKAGES = ("repro.core", "repro.codegen", "repro.memory",
                 "repro.queues", "repro.stats", "repro.cgra", "repro.ir",
                 "repro.energy", "repro.cache")

#: Commands that generate no input, with their exit status: numpy loads
#: only where arrays are made, so none of them may load it. ``{history}``
#: is the committed manifest directory.
ARRAY_FREE = (
    ((), None),  # ``import repro.cli`` alone
    (("inputs",), 0),
    (("--help",), 0),
    (("report", "{history}"), 0),
    (("bench-diff", "{history}", "{history}"), 0),
    (("run", "bfs", "FS"), 2),                     # an input bfs lacks
    (("run", "bfs", "Hu", "--scale", "0.0001"), 2),  # a graph of no vertex
)

#: What ``import repro.cli`` must leave unloaded, whatever the verb.
NOT_AT_IMPORT = ("repro.core", "repro.frontend", "repro.analysis",
                 "repro.profiling", "repro.baselines", "repro.harness.sweep",
                 "repro.stats.telemetry", "repro.stats.trace")


def _fresh(function, *args):
    """Return ``function(*args)``, run in a fresh interpreter."""
    code = (f"import json, sys; sys.path.insert(0, {str(HERE)!r}); "
            f"import {Path(__file__).stem} as m; "
            f"print(json.dumps(m.{function.__name__}(*{args!r})))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _loaded() -> list:
    return sorted(name for name in sys.modules if name.startswith("repro"))


def _under(modules, package: str) -> list:
    return [m for m in modules
            if m == package or m.startswith(package + ".")]


# -- run in the fresh interpreter -------------------------------------------

def loaded_by_import() -> list:
    import repro.cli  # noqa: F401
    return _loaded()


def loaded_by_command(argv) -> list:
    from repro.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    return _loaded()


def exit_and_numpy(argv) -> list:
    """``[exit status, numpy loaded?]`` after ``import repro.cli`` and,
    for a non-empty ``argv``, that command."""
    from repro.cli import main
    status = None
    if argv:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                status = main(argv)
            except SystemExit as exc:
                status = exc.code
    return [status, "numpy" in sys.modules]


def numpy_after_import(packages) -> bool:
    for package in packages:
        importlib.import_module(package)
    return "numpy" in sys.modules


def export_problems(package: str, preload: bool) -> list:
    """Check every name of ``package.__all__``: it resolves to the
    object its defining module holds, is no module, and is listed by
    ``dir()``. With ``preload``, every submodule is imported first, as
    the shadowing pitfall of ``repro._lazy`` needs."""
    pkg = importlib.import_module(package)
    submodules = {info.name for info in pkgutil.iter_modules(pkg.__path__)
                  if info.name != "__main__"}
    if preload:
        for name in sorted(submodules):
            importlib.import_module(f"{package}.{name}")
    origin = {name: module for module, names in pkg._EXPORTS.items()
              for name in names}
    problems = []
    for name in pkg.__all__:
        value = getattr(pkg, name)
        module = origin.get(name)
        if module is None and name in submodules:
            module = f"{package}.{name}"  # bound eagerly
        if isinstance(value, types.ModuleType):
            problems.append(f"{name} is a module")
        elif module is not None and value is not getattr(
                importlib.import_module(module), name):
            problems.append(f"{name} differs from {module}.{name}")
        if name not in dir(pkg):
            problems.append(f"{name} missing from dir()")
    if hasattr(pkg, "no_such_name"):  # AttributeError reads as False
        problems.append("an unknown name resolves")
    return problems


# -- the tests --------------------------------------------------------------

def test_import_cli_loads_no_machinery():
    loaded = _fresh(loaded_by_import)
    for package in NOT_AT_IMPORT:
        assert not _under(loaded, package), package
    assert not [m for m in loaded if m.startswith("repro.workloads.")]


@pytest.mark.parametrize("argv,status", ARRAY_FREE,
                         ids=[" ".join(argv) or "import" for argv, _ in
                              ARRAY_FREE])
def test_array_free_commands_load_no_numpy(argv, status):
    argv = [arg.format(history=HISTORY) for arg in argv]
    assert _fresh(exit_and_numpy, argv) == [status, False]


def test_simulator_core_imports_no_numpy():
    assert _fresh(numpy_after_import, CORE_PACKAGES) is False


def test_spmm_run_loads_neither_frontend_nor_analysis():
    loaded = _fresh(loaded_by_command,
                    ["run", "spmm", "FS", "--scale", "0.1"])
    assert "repro.workloads.spmm" in loaded
    assert not _under(loaded, "repro.frontend")
    assert not _under(loaded, "repro.analysis")


def test_lint_loads_no_codegen():
    loaded = _fresh(loaded_by_command, ["lint", "bfs"])
    assert "repro.workloads.bfs" in loaded
    assert not _under(loaded, "repro.codegen")


@pytest.mark.parametrize("preload", (False, True),
                         ids=("lazy", "submodules-first"))
@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_exports_resolve(package, preload):
    # "submodules-first" covers the shadowing pitfall: repro.stats
    # exports the function cpi_stack of the submodule of that name,
    # which repro.core imports.
    assert _fresh(export_problems, package, preload) == []


def test_parser_constants_match_their_definitions():
    from repro import cli
    from repro.core import ENGINES
    from repro.frontend import FRONTEND_KERNELS
    from repro.profiling import history
    assert cli.ENGINES == ENGINES
    assert cli.KERNELS == tuple(sorted(FRONTEND_KERNELS))
    assert (cli.DEFAULT_CYCLE_TOL, cli.DEFAULT_BLAME_TOL,
            cli.DEFAULT_WALL_RATIO) == (history.DEFAULT_CYCLE_TOL,
                                        history.DEFAULT_BLAME_TOL,
                                        history.DEFAULT_WALL_RATIO)

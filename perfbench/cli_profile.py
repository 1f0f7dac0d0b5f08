"""Run ``python -m repro ARGV`` under cProfile and write its layer totals.

    python3 perfbench/cli_profile.py OUT.json ARGV...

worker.py starts the ``cli-cold`` children of a traced round this way
instead of ``python -m cProfile -o FILE -m repro``. That writes pstats
data, which keys functions by (file, line, name) and so drops one of
two nested comprehensions on one line; this writes the totals of
``worker.layer_totals``, summed over every code object. The exit status
is the command's.
"""

from __future__ import annotations

import cProfile
import json
import runpy
import sys

from worker import layer_totals


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    sys.argv = ["repro", *argv]
    profiler = cProfile.Profile()
    status = 0
    profiler.enable()
    try:
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        status = exc.code
    finally:
        profiler.disable()
    with open(out, "w") as fh:
        json.dump(layer_totals(profiler), fh)
    return status


if __name__ == "__main__":
    sys.exit(main())

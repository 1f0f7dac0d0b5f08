"""Benchmark entry point: time one workload of the Fifer reproduction.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. Workloads are ``sim`` and
``cli-cold`` (see README.md). The seed feeds the program's input
generators. Seed 1 is the default seed, and seed 2 is held out for
confirming later claims.

With ``--trace 0`` the run reports the end-to-end metrics. The work is
done by ``worker.py`` in a fresh interpreter, which runs rounds of the
workload's operations for ``--seconds``, and at least two whole rounds:

* ``wall_s`` is the seconds one round of operations takes, the sum over
  operations of each one's mean time;
* ``setup_s`` is the median, over seven fresh interpreters, of the time
  from interpreter start to the first timed operation. Three set-up
  probes run before the measuring worker and three after it;
* ``peak_rss_mb`` is the peak resident memory of the measuring process,
  or of its largest ``python -m repro`` child for ``cli-cold``.

The host's speed drifts by tens of percent over minutes, so both times
are scaled to a reference speed: each process times a fixed
pure-Python loop (``worker.reference_loop``), before every operation
and after its set-up, and its times are multiplied by the loop's
reference time over its median measured time. Every process of a run
is pinned to one CPU, so that the loops and the operations, ``python
-m repro`` children included, run where they are compared.

With ``--trace 1`` the run reports the per-layer metrics. Two workers,
started with different hash seeds, each make one untraced round and
one cProfile round. Their exact counts must agree.

The program's environment knobs (``REPRO_*``) and
``PYTHONDONTWRITEBYTECODE`` are removed from every child's environment.
The last line on stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("sim", "cli-cold")
DEFAULT_SEED = 1
HELD_OUT_SEED = 2
#: Set-up probes started before the measuring worker, and again after
#: it; setup_s is the median of their set-up times and the measuring
#: worker's.
SETUP_PROBES = 3
#: Hash seeds of the two traced workers, so that work depending on
#: set or dict order would show up as differing counts.
TRACE_HASH_SEEDS = ("1", "2")
#: A run must end within 180 s; leave room to report.
RUN_BUDGET_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def program_env(extra=None) -> dict:
    # Bytecode caching stays on, as for a user: the first interpreter
    # in a checkout writes __pycache__, and the rest load it.
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")
           and key != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update(extra or {})
    return env


def stop(proc: subprocess.Popen) -> None:
    """Stop a worker that is still running and wait for it. It gets
    SIGTERM first, so that it stops its own children."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def start_worker(mode: str, args, work: Path, deadline: float,
                 extra_env=None) -> dict:
    """Run worker.py to completion in a fresh interpreter."""
    work.mkdir(exist_ok=True)
    env = program_env(extra_env)
    started = time.monotonic()
    command = [sys.executable, str(WORKER), mode,
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--work-dir", str(work),
               "--started", repr(started)]
    with subprocess.Popen(command, cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, text=True) as proc:
        try:
            stdout, _ = proc.communicate(
                timeout=max(1.0, deadline - started))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} worker did not finish in "
                             f"time") from None
        finally:
            stop(proc)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited with status "
                         f"{proc.returncode}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        raise BenchError(f"{mode} worker printed no result") from None


def end_to_end(args, work: Path, deadline: float) -> dict:
    def probes() -> list:
        return [start_worker("setup", args, work, deadline)
                for _ in range(SETUP_PROBES)]

    setups = probes()
    report = start_worker("measure", args, work, deadline)
    setups += [report] + probes()
    host_setups = ", ".join(f"{s['host_setup_s']:.3f}" for s in setups)
    print(f"{args.workload}: {report['operations']} operation(s) in "
          f"{report['measured_s']:.1f} s; host seconds per round "
          f"{report['host_wall_s']:.3f}; host set-up times {host_setups} s",
          file=sys.stderr)
    return {"attempted": report["attempted"], "failed": report["failed"],
            "consistent": True,
            "metrics": {"wall_s": report["wall_s"],
                        "setup_s": statistics.median(
                            s["setup_s"] for s in setups),
                        "peak_rss_mb": report["peak_rss_mb"]}}


def per_layer(args, work: Path, deadline: float) -> dict:
    runs = [start_worker("trace", args, work / f"trace-{seed}", deadline,
                         {"PYTHONHASHSEED": seed})
            for seed in TRACE_HASH_SEEDS]
    first, second = runs
    differing = sorted(
        name for name in set(first["exact"]) | set(second["exact"])
        if first["exact"].get(name) != second["exact"].get(name))
    for name in differing:
        print(f"perfbench: determinism check FAILED: {name} is "
              f"{first['exact'].get(name)} then "
              f"{second['exact'].get(name)}", file=sys.stderr)
    # Times are averaged over the two traced workers; exact counts are
    # reported once, after checking that they agree.
    metrics = {name: (value + second["metrics"][name]) / 2
               for name, value in first["metrics"].items()}
    metrics.update(first["exact"])
    return {"attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "consistent": not differing, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Time one workload of the Fifer reproduction.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; seed "
                             f"{HELD_OUT_SEED} is held out for confirming "
                             f"claims)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measure at least this long (default: "
                             "run_seconds in BENCHMARK.json); the traced "
                             "run ignores it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S
    # SIGTERM exits through SystemExit, so that every `finally` runs and
    # stops the worker.
    signal.signal(signal.SIGTERM,
                  lambda signum, frame: sys.exit(128 + signum))
    # Every process started from here inherits the CPU.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no src/repro package next to perfbench/; run "
              "from the root of a full checkout", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = declared["run_seconds"]
    units = {m["name"]: m["unit"] for m in
             declared["per_layer" if args.trace else "end_to_end"]}

    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        run = (per_layer if args.trace else end_to_end)(args, work, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = run["metrics"]
    if set(metrics) != set(units):
        print(f"perfbench: reported metrics differ from BENCHMARK.json: "
              f"{sorted(set(metrics) ^ set(units))}", file=sys.stderr)
        return 1
    for name in sorted(metrics):
        print(f"{name:<28} {metrics[name]:>16.6g} {units[name]}")
    print(f"{'operations attempted':<28} {run['attempted']:>16d}")
    print(f"{'operations failed':<28} {run['failed']:>16d}")
    print(json.dumps({
        "correct": run["failed"] == 0 and run["consistent"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in sorted(metrics.items())},
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one benchmark workload inside this interpreter.

``perfbench/run.py`` starts this script in a fresh process, with
``PYTHONPATH`` pointing at the checkout's ``src/`` and the program's
environment knobs (``REPRO_*``) removed. It has three modes:

* ``setup``: import the program and generate every input of the
  workload with its golden reference, then report when that finished.
  This is a set-up probe.
* ``measure``: set up, then run rounds of the workload's operations
  for ``--seconds``, and at least two whole rounds. Tracing is off.
* ``trace``: set up, then run one untraced round and one traced round,
  calling the harness phases one at a time. Reports phase times,
  per-layer cProfile self time and call counts, and simulator counters.
  ``cli-cold`` profiles its children instead, and replays its ``run``
  points in this process for the phase times and counters.

``setup`` and ``measure`` also time ``reference_loop``, and report
their times at a reference speed of the host as well as unscaled.

Every operation's result is checked. In-process operations go through
the harness golden check, and ``run`` commands must print "verified
against the reference". Simulated cycles must equal the naive-engine
references in ``references.json`` when the seed has recorded
references. A failed operation is counted and the run goes on.

The last line on stdout is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import json
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references.json"

OOO_SYSTEMS = ("serial", "multicore")
SYSTEMS = OOO_SYSTEMS + ("static", "fifer")
#: ``repro trace``'s default queue-occupancy sampling period.
TRACE_SAMPLE_PERIOD = 512
CLI_TIMEOUT_S = 120
#: Every measured run includes the cold first round and a warm one.
MIN_ROUNDS = 2
#: Iterations of ``reference_loop``, and the seconds it takes at the
#: reference speed (about that of a 2-vCPU Xeon host when its other
#: tenants are quiet). Reported times are scaled to that speed.
REFERENCE_ITERATIONS = 10_000
REFERENCE_S = 0.0014
#: Reference loops a set-up probe times after its set-up.
PROBE_LOOPS = 5


@dataclass(frozen=True)
class Op:
    """One timed operation: an experiment point or one CLI command.

    ``kind`` is ``experiment`` (``run_experiment``), ``profile`` (the
    ``repro profile`` configuration), ``jsonl`` (the ``repro trace
    --format jsonl`` configuration) or ``cli`` (a fresh ``python -m
    repro`` process running ``argv``). ``codegen`` runs the stages as
    generated step-functions instead of interpreted coroutines.
    """

    kind: str
    app: str
    code: str = ""
    system: str = ""
    argv: tuple = ()
    codegen: bool = False

    @property
    def key(self) -> str:
        """The point's key in ``references.json``."""
        return f"{self.app}/{self.code}/{self.system}"

    @property
    def label(self) -> str:
        if self.kind == "cli":
            return "repro " + " ".join(self.argv)
        codegen = ", codegen" if self.codegen else ""
        return f"{self.key} ({self.kind}{codegen})"

    @property
    def simulates(self) -> bool:
        return self.kind != "cli" or self.argv[0] == "run"


@dataclass(frozen=True)
class Workload:
    ops: tuple
    manifests: bool = False

    @property
    def in_process(self) -> bool:
        return self.ops[0].kind != "cli"

    @property
    def inputs(self) -> list:
        """The (app, input) pairs to prepare, in first-use order."""
        pairs = [(op.app, op.code) for op in self.ops if op.simulates]
        return list(dict.fromkeys(pairs))


def _points(pairs, systems, codegen=False) -> tuple:
    return tuple(Op("experiment", app, code, system, codegen=codegen)
                 for app, code in pairs for system in systems)


def _cli(*argv) -> Op:
    if argv[0] != "run":
        return Op("cli", argv[1], argv=argv)
    system = argv[argv.index("--system") + 1] if "--system" in argv \
        else "fifer"
    return Op("cli", argv[1], argv[2], system, argv)


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "sim": Workload(
        # A slice of the Fig. 13 grid with interpreted stage bodies,
        _points((("bfs", "In"), ("cc", "Hu"), ("radii", "Rd"),
                 ("spmm", "FS"), ("silo", "YC")), SYSTEMS)
        # graph pipelines as generated step-functions (SSSP is the
        # frontend-lowered one),
        + _points((("bfs", "Ci"), ("prd", "Hu"), ("sssp", "In")),
                  ("static", "fifer"), codegen=True)
        # and the `repro profile` and `repro trace --format jsonl`
        # configurations.
        + (Op("profile", "bfs", "In", "fifer"),
           Op("profile", "spmm", "FS", "fifer"),
           Op("jsonl", "silo", "YC", "fifer")),
        manifests=True),
    "cli-cold": Workload((
        _cli("run", "bfs", "Hu"),
        _cli("run", "cc", "Hu", "--system", "static"),
        _cli("run", "sssp", "Hu"),
        _cli("run", "spmm", "FS"),
        _cli("run", "silo", "YC"),
        _cli("run", "prd", "Hu", "--system", "multicore"),
        _cli("compile", "sssp"),
        _cli("lint", "bfs"),
    )),
}

# -- per-layer attribution of cProfile statistics ---------------------------

LAYERS = ("core.system", "core.pe", "core.drm", "stage.interp",
          "stage.codegen", "queues", "memory", "stats", "profiling",
          "baselines", "import", "other")
#: Module path (relative to src/repro/) prefix -> layer. First match wins.
MODULE_LAYERS = (
    ("core/system.py", "core.system"),
    ("core/events.py", "core.system"),
    ("core/pe.py", "core.pe"),
    ("core/scheduler.py", "core.pe"),
    ("core/reconfig.py", "core.pe"),
    ("core/drm.py", "core.drm"),
    ("core/stage.py", "stage.interp"),
    ("workloads/", "stage.interp"),
    ("frontend/lower.py", "stage.interp"),
    ("codegen/", "stage.codegen"),
    ("queues/", "queues"),
    ("memory/", "memory"),
    ("stats/", "stats"),
    ("profiling/", "profiling"),
    ("baselines/", "baselines"),
)
PACKAGE_DIR = str(SRC / "repro") + os.sep


def layer_of(filename: str) -> str:
    """The layer a profiled function's source file belongs to."""
    if filename.startswith("<repro.codegen:"):
        return "stage.codegen"  # generated step-functions
    if filename.startswith("<frozen importlib"):
        return "import"
    if filename.startswith(PACKAGE_DIR):
        module = filename[len(PACKAGE_DIR):].replace(os.sep, "/")
        for prefix, layer in MODULE_LAYERS:
            if module.startswith(prefix):
                return layer
    return "other"


def layer_totals(profiler) -> dict:
    """Sum a ``cProfile.Profile``'s self time and calls by layer.

    Reads the raw entries, one per code object. pstats keys functions by
    (file, line, name), and nested comprehensions on one line share that
    key, so pstats keeps one of them, depending on memory layout. C
    builtins have no source file: their time and calls go to the layer
    of each caller.
    """
    totals = {layer: [0.0, 0] for layer in LAYERS}
    for entry in profiler.getstats():
        if isinstance(entry.code, str):
            continue  # a builtin, counted under each caller below
        total = totals[layer_of(entry.code.co_filename)]
        total[0] += entry.inlinetime
        total[1] += entry.callcount
        for call in entry.calls or ():
            if isinstance(call.code, str):
                total[0] += call.inlinetime
                total[1] += call.callcount
    return totals


# -- the host's speed -------------------------------------------------------


class _Cell:
    __slots__ = ("value",)


_CELL = _Cell()
_CELL.value = 0
_TABLE = dict.fromkeys(range(61), 0)


def reference_loop() -> float:
    """Time a fixed pure-Python loop; return its seconds.

    The loop does dict, attribute and small-integer work, as the
    simulator does, and allocates no object the garbage collector
    tracks, so the program's heap cannot slow it down. Nothing in the
    program runs in it, so only the host's speed moves its time.
    """
    table, cell = _TABLE, _CELL
    start = time.perf_counter()
    for i in range(REFERENCE_ITERATIONS):
        k = i % 61
        table[k] = (table[k] + cell.value) & 0xFFFF
        cell.value = (cell.value + i) & 0xFFFF
    return time.perf_counter() - start


def speed_scale(loop_seconds) -> float:
    """The factor that scales host seconds to the reference speed: the
    reference loop's time over its median time in ``loop_seconds``."""
    return REFERENCE_S / statistics.median(loop_seconds)


# -- helpers ----------------------------------------------------------------


class OpFailed(Exception):
    """An operation ran but its output is wrong."""


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def load_references(seed: int):
    """Recorded naive-engine cycles for ``seed``, or None."""
    with open(REFERENCES) as fh:
        table = json.load(fh)["seeds"].get(str(seed))
    if table is None:
        log(f"seed {seed} has no recorded reference cycles; the cycle "
            f"check is skipped (golden checks still apply)")
    return table


def import_program():
    """Import what the in-process workloads call (part of set-up)."""
    from repro.cache import configure_artifact_cache, get_artifact_cache
    from repro.codegen import emitted_count
    from repro.core import System
    from repro.energy import EnergyModel
    from repro.harness import (ExperimentResult, build_cgra_program,
                               prepare_input, resolve_config,
                               run_experiment)
    # The golden comparison run_experiment(check=True) applies.
    from repro.harness.run import _check as golden_check
    from repro.stats.manifest import build_manifest, write_manifest
    from repro.stats.telemetry import EventBus, JsonlSink, PeriodicSampler
    return SimpleNamespace(**locals())


@contextlib.contextmanager
def profiled(profiler):
    if profiler is None:
        yield
        return
    profiler.enable()
    try:
        yield
    finally:
        profiler.disable()


class Context:
    """What the operations of one run share."""

    def __init__(self, name: str, seed: int, work: Path):
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.api = None
        self.inputs: dict = {}
        self.prepare_s = 0.0
        self.references = None
        self.manifest_dir = None
        self.jsonl_path = work / "trace.jsonl"

    def setup(self) -> None:
        """Import the program and generate the inputs, or for
        ``cli-cold`` run one untimed ``python -m repro inputs``."""
        if not self.workload.in_process:
            run_cli(("inputs",), self)
            return
        self.api = import_program()
        start = time.perf_counter()
        for app, code in self.workload.inputs:
            self.inputs[app, code] = self.api.prepare_input(
                app, code, seed=self.seed)
        self.prepare_s = time.perf_counter() - start

    def new_round(self, index: int) -> None:
        if self.workload.manifests:
            self.manifest_dir = self.work / f"manifests-{index}"

    def end_round(self) -> None:
        if self.manifest_dir is not None:
            shutil.rmtree(self.manifest_dir, ignore_errors=True)
        with contextlib.suppress(FileNotFoundError):
            self.jsonl_path.unlink()

    def check_cycles(self, op: Op, cycles) -> None:
        """Compare simulated cycles with the recorded reference."""
        if self.references is None:
            return
        if op.key not in self.references:
            raise OpFailed(f"no reference cycles for {op.key}")
        expected = self.references[op.key]
        if isinstance(cycles, str):  # as `repro run` prints them
            expected = f"{expected:,.0f}"
        if cycles != expected:
            raise OpFailed(f"{cycles} simulated cycles, the naive engine "
                           f"reference is {expected}")


# -- the operations, untraced ----------------------------------------------


def run_cli(argv: tuple, ctx: Context, profile_path=None) -> str:
    """Run ``python -m repro ARGV`` to completion; return its stdout.

    With ``profile_path`` the child runs under cProfile through
    ``cli_profile.py``, which writes its layer totals there."""
    if argv[0] in ("run", "lint"):
        argv = (*argv, "--seed", str(ctx.seed))
    if profile_path is None:
        command = [sys.executable, "-m", "repro", *argv]
    else:
        command = [sys.executable, str(HERE / "cli_profile.py"),
                   str(profile_path), *argv]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=CLI_TIMEOUT_S)
    if proc.returncode != 0:
        raise OpFailed(f"exit status {proc.returncode}: "
                       f"{proc.stderr.strip()[-400:]}")
    return proc.stdout


VERIFIED = re.compile(r": ([\d,]+) cycles \(verified against the reference\)")


def cli_cycles(op: Op, stdout: str):
    """The cycles a ``run`` command printed with its verification."""
    if not op.simulates:
        return None
    match = VERIFIED.search(stdout)
    if match is None:
        raise OpFailed("no 'verified against the reference' line")
    return match.group(1)


def open_jsonl_trace(bus, ctx: Context):
    """Subscribe an unfiltered JSONL sink (plus ``repro trace``'s
    sampler) writing to the run's scratch file; returns the sink."""
    api = ctx.api
    sink = bus.subscribe(api.JsonlSink(open(ctx.jsonl_path, "w")))
    bus.add_sampler(api.PeriodicSampler(TRACE_SAMPLE_PERIOD))
    return sink


def close_jsonl_trace(bus, sink) -> None:
    bus.close()
    sink.stream.close()
    if sink.n_events == 0 or sink.n_events != bus.seq:
        raise OpFailed(f"JSONL sink wrote {sink.n_events} of {bus.seq} "
                       f"events")


def check_critical_path(run_profile, cycles: float) -> None:
    weight = run_profile.critical_path().total_weight()
    if abs(weight - cycles) > 1e-6 * max(cycles, 1.0):
        raise OpFailed(f"critical path weighs {weight}, run took {cycles}")


def run_op(op: Op, ctx: Context):
    """One operation as a user runs it; returns its simulated cycles."""
    if op.kind == "cli":
        return cli_cycles(op, run_cli(op.argv, ctx))
    api = ctx.api
    common = dict(prepared=ctx.inputs[op.app, op.code], seed=ctx.seed)
    if op.kind == "experiment":
        result = api.run_experiment(op.app, op.code, op.system,
                                    codegen=op.codegen,
                                    manifest_dir=ctx.manifest_dir, **common)
    elif op.kind == "profile":
        result = api.run_experiment(op.app, op.code, op.system,
                                    profile=True, **common)
        check_critical_path(result.profile, result.cycles)
    else:  # jsonl
        bus = api.EventBus()
        sink = open_jsonl_trace(bus, ctx)
        try:
            result = api.run_experiment(op.app, op.code, op.system,
                                        telemetry=bus, **common)
        finally:
            close_jsonl_trace(bus, sink)
    return result.cycles


# -- the operations, phase by phase (trace mode) ----------------------------


#: Simulator counters summed over a round; they must repeat exactly.
COUNTS = ("sim.cycles", "sim.pe_issued", "sim.reconfigs", "sim.drm_loads",
          "sim.queue_tokens", "sim.l1_accesses", "sim.llc_accesses",
          "sim.dram_accesses", "engine.quanta", "engine.pe_quanta",
          "codegen.bound", "codegen.fallback", "telemetry.events")


class Tally:
    """Phase seconds and exact counts summed over one round."""

    def __init__(self):
        self.seconds: Counter = Counter()
        self.counts: Counter = Counter(dict.fromkeys(COUNTS, 0))
        self.cache: Counter = Counter()  # artifact-cache hits and misses
        self.wall = 0.0

    def count_memory(self, raw) -> None:
        self.counts["sim.cycles"] += raw.cycles
        self.counts["sim.l1_accesses"] += sum(
            s["hits"] + s["misses"] for s in raw.l1_stats)
        self.counts["sim.llc_accesses"] += (raw.llc_stats.get("hits", 0)
                                           + raw.llc_stats.get("misses", 0))
        self.counts["sim.dram_accesses"] += (raw.mem_stats.get("reads", 0)
                                            + raw.mem_stats.get("writes", 0))

    def count_system(self, system, raw) -> None:
        counts = self.counts
        counts["sim.pe_issued"] += sum(c["issued"] for c in raw.pe_counters)
        counts["sim.reconfigs"] += sum(c["reconfig_events"]
                                       for c in raw.pe_counters)
        counts["sim.drm_loads"] += sum(drm.loads for pe in system.pes
                                       for drm in pe.drms)
        counts["sim.queue_tokens"] += sum(q.total_enqueued
                                          for q in system.queues.values())
        stats = raw.engine_stats
        counts["engine.quanta"] += stats.get("quanta", 0)
        counts["engine.pe_quanta"] += stats.get("pe_quanta", 0)
        counts["codegen.bound"] += stats.get("codegen_stages", 0)
        counts["codegen.fallback"] += stats.get("codegen_fallback", 0)
        if system.telemetry is not None:
            counts["telemetry.events"] += system.telemetry.seq
        self.count_memory(raw)


def phased_op(op: Op, ctx: Context, tally: Tally, profiler=None) -> float:
    """Run one in-process operation one harness phase at a time.

    Mirrors ``run_experiment`` (and the profile/JSONL configurations)
    with a clock around each phase; ``profiler`` (a ``cProfile.Profile``)
    is enabled only around the simulation.
    """
    api = ctx.api
    prepared = ctx.inputs[op.app, op.code]
    seconds = tally.seconds
    clock = time.perf_counter
    if op.system in OOO_SYSTEMS:
        start = clock()
        with profiled(profiler):
            result = api.run_experiment(op.app, op.code, op.system,
                                        prepared=prepared, seed=ctx.seed)
        seconds["baselines.ooo_s"] += clock() - start
        tally.count_memory(result.raw)
        if ctx.manifest_dir is not None:
            start = clock()
            api.write_manifest(result.to_manifest(), ctx.manifest_dir)
            seconds["harness.manifest_s"] += clock() - start
        return result.cycles

    config = api.resolve_config(op.app)
    start = clock()
    program, _workload = api.build_cgra_program(prepared, config, op.system,
                                                "decoupled")
    built = clock()
    bus = api.EventBus() if op.kind == "jsonl" else None
    system = api.System(config, program, mode=op.system, telemetry=bus)
    mapped = clock()
    with profiled(profiler):
        if op.kind == "profile":
            from repro.profiling import attach_profiler
            waitfor = attach_profiler(system)
        elif op.kind == "jsonl":
            sink = open_jsonl_trace(bus, ctx)
        try:
            raw = system.run(max_cycles=2e9, codegen=op.codegen)
            if op.kind == "profile":
                run_profile = waitfor.finalize(raw.pe_counters, raw.cycles)
                check_critical_path(run_profile, raw.cycles)
        finally:
            if op.kind == "jsonl":
                close_jsonl_trace(bus, sink)
    simulated = clock()
    if not api.golden_check(op.app, raw.result, prepared.golden):
        raise OpFailed("functional result does not match the golden "
                       "reference")
    verified = clock()
    seconds["workloads.build_s"] += built - start
    seconds["cgra.map_s"] += mapped - built
    seconds["core.run_s"] += simulated - mapped
    seconds["harness.verify_s"] += verified - simulated
    tally.count_system(system, raw)
    if op.kind == "experiment" and ctx.manifest_dir is not None:
        energy = api.EnergyModel().cgra_energy(raw).as_dict()
        result = api.ExperimentResult(
            op.app, op.code, op.system, "decoupled", float(raw.cycles), True,
            energy, raw, seed=ctx.seed, wall_time_s=simulated - mapped)
        api.write_manifest(api.build_manifest(result), ctx.manifest_dir)
        seconds["harness.manifest_s"] += clock() - verified
    return raw.cycles


# -- rounds -----------------------------------------------------------------


class Outcome:
    """Operations attempted and failed, and the cycles each point gave."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.cycles: dict = {}  # point key -> cycles as `repro run` prints

    def attempt(self, op: Op, ctx: Context, call) -> float:
        """Time ``call()``, check its cycles; return the seconds taken."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            cycles = call()
        except Exception:  # a failed operation never aborts the run
            elapsed = time.perf_counter() - start
            self.failed += 1
            log(f"FAILED {op.label}:\n{traceback.format_exc()}")
            return elapsed
        elapsed = time.perf_counter() - start
        if op.simulates:
            try:
                ctx.check_cycles(op, cycles)
                self.check_repeat(op, cycles)
            except OpFailed as exc:
                self.failed += 1
                log(f"FAILED {op.label}: {exc}")
        return elapsed

    def check_repeat(self, op: Op, cycles) -> None:
        """Every operation on the same point must simulate the same
        cycles: across rounds, configurations and processes."""
        shown = cycles if isinstance(cycles, str) else f"{cycles:,.0f}"
        first = self.cycles.setdefault(op.key, shown)
        if shown != first:
            raise OpFailed(f"{shown} simulated cycles, {first} earlier in "
                           f"this run")


def measure(ctx: Context, seconds: float, outcome: Outcome) -> dict:
    """Run the workload's operations in rounds for ``seconds``, and at
    least ``MIN_ROUNDS`` whole rounds.

    The run stops after the operation during which ``seconds`` ran out,
    so a round may end early. ``host_wall_s`` is the sum over operations
    of the mean time each took: the time one round of operations takes.
    ``wall_s`` is that time at the reference speed, scaled by the
    reference loops run before every operation.
    """
    ops = ctx.workload.ops
    times: list = [[] for _ in ops]
    loops = []  # a reference loop before every operation
    rounds = 0  # whole rounds done
    start = time.perf_counter()

    def over() -> bool:
        return rounds >= MIN_ROUNDS and time.perf_counter() - start >= seconds

    while not over():
        ctx.new_round(rounds)
        for op, samples in zip(ops, times):
            loops.append(reference_loop())
            samples.append(outcome.attempt(op, ctx,
                                           lambda op=op: run_op(op, ctx)))
            if over():
                break
        ctx.end_round()
        rounds += 1
    usage = resource.getrusage(resource.RUSAGE_SELF if ctx.workload
                               .in_process else resource.RUSAGE_CHILDREN)
    wall_s = sum(statistics.fmean(t) for t in times)
    return {"wall_s": wall_s * speed_scale(loops), "host_wall_s": wall_s,
            "measured_s": sum(map(sum, times)),
            "operations": sum(map(len, times)),
            "peak_rss_mb": usage.ru_maxrss / 1024.0}


def import_seconds(ctx: Context, samples: int = 3) -> float:
    """Median time a fresh interpreter takes to ``import repro.cli``."""
    code = ("import time; t = time.perf_counter(); import repro.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(samples):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, text=True, check=True,
                              timeout=CLI_TIMEOUT_S)
        times.append(float(proc.stdout))
    return statistics.median(times)


def cache_counts(api) -> Counter:
    counters = api.get_artifact_cache().counters
    return Counter({"hit": sum(v for k, v in counters.items()
                               if k.endswith(".hit")),
                    "miss": sum(v for k, v in counters.items()
                                if k.endswith(".miss"))})


def hit_ratio(counts: Counter) -> float:
    lookups = counts["hit"] + counts["miss"]
    return counts["hit"] / lookups if lookups else 0.0


def phased_round(ctx: Context, ops, outcome: Outcome, index: int,
                 profiler=None, fresh_cache: bool = False) -> Tally:
    tally = Tally()
    ctx.new_round(index)
    for op in ops:
        if fresh_cache:  # what a fresh `python -m repro` process has
            ctx.api.configure_artifact_cache(None)
        before = cache_counts(ctx.api)
        tally.wall += outcome.attempt(
            op, ctx, lambda op=op: phased_op(op, ctx, tally, profiler))
        tally.cache += cache_counts(ctx.api) - before
    ctx.end_round()
    return tally


def cli_round(ctx: Context, outcome: Outcome, profiles=None) -> float:
    """Run every command once; with ``profiles`` (a directory) each
    child runs under cProfile. Returns the busy seconds."""
    busy = 0.0
    for i, op in enumerate(ctx.workload.ops):
        path = None if profiles is None else profiles / f"{i}.json"
        busy += outcome.attempt(
            op, ctx, lambda op=op, path=path:
            cli_cycles(op, run_cli(op.argv, ctx, path)))
    return busy


def trace_in_process(ctx: Context, outcome: Outcome):
    untraced = phased_round(ctx, ctx.workload.ops, outcome, 0)
    profiler = cProfile.Profile()
    traced = phased_round(ctx, ctx.workload.ops, outcome, 1, profiler)
    if traced.counts != untraced.counts:
        outcome.failed += 1
        log("FAILED traced counters differ from untraced: " + ", ".join(
            sorted(name for name in COUNTS
                   if traced.counts[name] != untraced.counts[name])))
    return (untraced, layer_totals(profiler), traced.wall / untraced.wall,
            ctx.prepare_s)


def trace_cli(ctx: Context, outcome: Outcome):
    untraced_wall = cli_round(ctx, outcome)
    profiles = ctx.work / "profiles"
    profiles.mkdir()
    traced_wall = cli_round(ctx, outcome, profiles)
    layers = {layer: [0.0, 0] for layer in LAYERS}
    for path in sorted(profiles.glob("*.json")):
        for layer, (self_s, calls) in json.loads(path.read_text()).items():
            layers[layer][0] += self_s
            layers[layer][1] += calls
    # The children print only their cycles. Replay the `run` points
    # here, each with a fresh artifact cache as a new process has, for
    # the phase times and simulator counters; Outcome checks that the
    # replay simulates the cycles the children printed.
    ctx.api = import_program()
    runs = [op for op in ctx.workload.ops if op.simulates]
    start = time.perf_counter()
    for op in runs:
        ctx.inputs[op.app, op.code] = ctx.api.prepare_input(
            op.app, op.code, seed=ctx.seed)
    prepare_s = time.perf_counter() - start
    replay = phased_round(ctx, runs, outcome, 0, fresh_cache=True)
    return replay, layers, traced_wall / untraced_wall, prepare_s


def trace(ctx: Context, outcome: Outcome) -> dict:
    """Per-layer metrics, and the exact counts that the determinism
    self-check in run.py compares between two workers."""
    phases, layers, overhead, prepare_s = (
        trace_in_process if ctx.workload.in_process else trace_cli)(
            ctx, outcome)
    metrics = {"cli.import_s": import_seconds(ctx),
               "datasets.prepare_s": prepare_s,
               "cache.hit_ratio": hit_ratio(phases.cache),
               "trace.overhead": overhead}
    for name in ("workloads.build_s", "cgra.map_s", "core.run_s",
                 "baselines.ooo_s", "harness.verify_s",
                 "harness.manifest_s"):
        metrics[name] = phases.seconds[name]
    pe_quanta = phases.counts["engine.pe_quanta"]
    metrics["core.us_per_pe_quantum"] = (
        1e6 * phases.seconds["core.run_s"] / pe_quanta if pe_quanta else 0.0)
    exact = dict(phases.counts)
    # Source generations in this process; all happen in the first round.
    exact["codegen.emitted"] = ctx.api.emitted_count()
    for layer, (self_s, calls) in layers.items():
        metrics[f"{layer}.self_s"] = self_s
        exact[f"{layer}.calls"] = calls
    return {"metrics": metrics, "exact": exact}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", choices=("setup", "measure", "trace"))
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--started", type=float, required=True,
                        help="time.monotonic() just before this process "
                             "was started")
    args = parser.parse_args(argv)
    # run.py stops this process with SIGTERM; exiting through SystemExit
    # lets subprocess.run stop a running `python -m repro` child.
    signal.signal(signal.SIGTERM,
                  lambda signum, frame: sys.exit(128 + signum))

    ctx = Context(args.workload, args.seed, args.work_dir)
    ctx.setup()
    setup_s = time.monotonic() - args.started
    loops = [reference_loop() for _ in range(PROBE_LOOPS)]
    report = {"setup_s": setup_s * speed_scale(loops),
              "host_setup_s": setup_s}
    if args.mode != "setup":
        ctx.references = load_references(args.seed)
    outcome = Outcome()
    if args.mode == "measure":
        report.update(measure(ctx, args.seconds, outcome))
    elif args.mode == "trace":
        report.update(trace(ctx, outcome))
    report.update(attempted=outcome.attempted, failed=outcome.failed)
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run APP INPUT [--system ...] [--variant ...] [--scale ...]`` —
  run one experiment, verify it, and print cycles, the CPI stack, and
  the energy breakdown.
* ``compare APP INPUT`` — run all four evaluated systems on one input
  and print a speedup chart (a one-input slice of Fig. 13).
* ``inputs`` — list the apps, their inputs, and the paper datasets the
  synthetic generators stand in for.
* ``trace APP INPUT [--format gantt|chrome|jsonl] [--out FILE]`` — run
  Fifer with full telemetry. ``gantt`` prints the ASCII per-PE stage
  timeline; ``chrome`` emits Chrome trace-event JSON (open it in
  https://ui.perfetto.dev — one track per PE, one counter track per
  queue); ``jsonl`` streams every structured event as JSON lines.
* ``compile WORKLOAD [--stage N] [--json]`` — run the decoupling
  front-end on an annotated kernel and print the generated stage list,
  the inter-stage queue graph, and per-stage pseudo-assembly (the
  dialect :mod:`repro.ir.asmparse` parses). ``--stage N`` narrows the
  output to one stage; ``--json`` emits the machine-readable
  description.
* ``stats APP INPUT [--json]`` — run one experiment and print its full
  statistics (CPI stack, cache/memory, residence); ``--json`` emits the
  machine-readable run manifest instead.
* ``lint APP [INPUT] [--json] [--suggest]`` — statically verify a
  workload's compiled pipeline (queue/deadlock analysis, DFG dataflow
  passes; see ``docs/analysis.md``) without simulating it. ``lint
  all`` verifies every registered workload; exits non-zero on any
  error finding (including builds that fail outright), zero when the
  certificate is issued — with or without assumptions. ``--suggest``
  appends info findings from the auto-decoupling analyzer.
* ``advise KERNEL [--json] [--apply]`` — run the auto-decoupling
  analyzer on an annotated kernel: build the whole-kernel dependence
  graph, detect patterns, rank candidate cut points with the
  queue-width cost model, and report whether the inferred split
  matches the hand markings. ``--apply`` rebuilds the kernel with the
  inferred markings, lowers it through the existing pipeline, and
  emits the verification manifest (kernel fingerprints, compile
  description digests, deadlock certificate). ``advise all`` covers
  every registered kernel.
* ``report DIR [DIR ...]`` — load run manifests (written by
  ``run_experiment(..., manifest_dir=...)`` or ``stats --manifest-dir``)
  and tabulate cycles, CPI shares, and relative speedups across runs.
* ``profile APP INPUT [--what-if TARGET=PCT] [--format text|json|
  folded]`` — run with the wait-for profiler armed and print the blame
  matrix, the critical path, and Coz-style what-if estimates;
  ``--validate`` re-simulates each what-if config to report prediction
  error. ``folded`` emits flamegraph.pl/speedscope folded stacks.
* ``bench-diff BASELINE CURRENT`` — regression observatory: compare
  manifest directories and flag cycle/blame/wall-time drifts beyond
  thresholds (exit 1 on failures). Committed baselines live under
  ``benchmarks/results/history/``.
* ``cache stats|gc [--cache-dir DIR]`` — inspect or prune the
  compiled-artifact cache (``docs/performance.md``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import NoReturn

from repro.config import SystemConfig
from repro.harness.format import format_table
from repro.harness.run import (APP_INPUTS, SYSTEMS, build_cgra_program,
                               check_input, check_scale_seed,
                               prepare_input, resolve_config,
                               run_experiment, speedup_table)

# Each verb imports the machinery it runs, so that a command loads only
# what it uses (docs/performance.md, "Cold start"). For the same reason
# the parser's choices and defaults are stated here rather than imported
# from the simulator, the front-end and the profiler;
# tests/test_cold_start.py checks each against its definition.
ENGINES = ("fast", "naive")                 # repro.core.ENGINES
KERNELS = ("bfs", "cc", "sssp")             # repro.frontend.FRONTEND_KERNELS
DEFAULT_CYCLE_TOL = 0.001                   # repro.profiling.history
DEFAULT_BLAME_TOL = 0.05
DEFAULT_WALL_RATIO = 2.0


def _checked(convert, field: str):
    """argparse type: ``convert`` the text, then apply
    :func:`check_scale_seed` to it as ``field`` (exit 2 on failure)."""
    def parse(text: str):
        try:
            value = convert(text)
            check_scale_seed(**{field: value})
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value
    return parse


def _count(text: str) -> int:
    """argparse type: an integer of at least 1 (exit 2 otherwise)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _period(text: str) -> float:
    """argparse type: a positive number of cycles (exit 2 otherwise)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}") from None
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _fail(verb: str, message: str) -> NoReturn:
    """Exit 2 with one argparse-style ``repro VERB: error:`` line."""
    print(f"repro {verb}: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _open_out(verb: str, path):
    """``--out FILE`` opened for writing (stdout without one); called
    before the run, so a bad path fails before simulating."""
    if path is None:
        return sys.stdout
    try:
        return open(path, "w")
    except OSError as exc:
        _fail(verb, f"cannot write {path}: {exc}")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("app", choices=sorted(APP_INPUTS))
    parser.add_argument("input", metavar="INPUT",
                        help="input code (see `inputs`)")
    parser.add_argument("--scale", type=_checked(float, "scale"),
                        default=None,
                        help="input scale factor (default: per-input)")
    parser.add_argument("--seed", type=_checked(int, "seed"), default=1)
    parser.add_argument("--engine", choices=ENGINES, default="fast",
                        help="simulation loop: fast (skips blocked spans, "
                             "default) or naive (per-cycle reference)")


def _check_input(verb: str, app: str, code: str) -> None:
    """Exit 2 through :func:`_fail` for an input code ``app`` lacks."""
    try:
        check_input(app, code)
    except ValueError as exc:
        _fail(verb, str(exc))


def cmd_run(args) -> int:
    _check_input("run", args.app, args.input)
    result = run_experiment(args.app, args.input, args.system,
                            variant=args.variant, scale=args.scale,
                            seed=args.seed, engine=args.engine,
                            sanitize=args.sanitize)
    sanitized = " [sanitized]" if args.sanitize else ""
    print(f"{args.app}/{args.input} on {args.system} ({args.variant}): "
          f"{result.cycles:,.0f} cycles (verified against the "
          f"reference){sanitized}")
    raw = result.raw
    stack = raw.merged_cpi_stack()
    total = sum(stack.values())
    rows = [[bucket, f"{value:,.0f}", f"{value / total:.1%}"]
            for bucket, value in stack.items()]
    print()
    print(format_table(["bucket", "cycles", "share"], rows,
                       title="cycle breakdown (all contexts)"))
    print()
    rows = [[bucket, f"{joules * 1e6:.2f}"]
            for bucket, joules in result.energy.items()]
    print(format_table(["bucket", "energy (uJ)"], rows,
                       title="energy breakdown"))
    if args.system == "fifer":
        print(f"\navg residence {raw.avg_residence_cycles:.0f} cycles, "
              f"avg reconfiguration {raw.avg_reconfig_cycles:.1f} cycles")
    return 0


def cmd_compare(args) -> int:
    from repro.harness.report import bar_chart
    from repro.harness.sweep import SweepPoint, run_sweep
    _check_input("compare", args.app, args.input)
    points = [SweepPoint(args.app, args.input, system, scale=args.scale,
                         seed=args.seed, engine=args.engine)
              for system in SYSTEMS]
    results = dict(zip(SYSTEMS, run_sweep(points, workers=args.workers)))
    speedups = speedup_table(results)
    print(bar_chart(speedups,
                    title=f"{args.app}/{args.input}: speedup over the "
                          f"4-core OOO multicore"))
    return 0


def cmd_inputs(args) -> int:
    from repro.datasets.graphs import TABLE3_GRAPHS
    from repro.datasets.matrices import TABLE4_MATRICES
    rows = []
    for app, codes in APP_INPUTS.items():
        for code in codes:
            if code in TABLE3_GRAPHS:
                paper = TABLE3_GRAPHS[code]["paper"]
            elif code in TABLE4_MATRICES:
                paper = TABLE4_MATRICES[code]["paper"]
            else:
                paper = "YCSB-C zipfian lookups over a B+tree"
            rows.append([app, code, paper])
    print(format_table(["app", "input", "stands in for (paper Table 3/4)"],
                       rows))
    return 0


def _traceable_system(args):
    from repro.core import System
    prepared = prepare_input(args.app, args.input, scale=args.scale,
                             seed=args.seed)
    config = resolve_config(args.app, SystemConfig())
    program, _ = build_cgra_program(prepared, config, "fifer", "decoupled")
    return System(config, program, mode="fifer")


def _gantt_trace(system, args, out):
    """Run under an activation tracer; write the ASCII chart and the
    resident-cycle share table to ``out``."""
    from repro.stats.trace import ActivationTracer
    with ActivationTracer().attach(system) as tracer:
        result = system.run(engine=args.engine)
    print(f"{args.app}/{args.input} on Fifer: {result.cycles:,.0f} "
          f"cycles, {len(tracer.events)} activations\n", file=out)
    print(tracer.gantt(result.cycles, max_pes=args.pes), file=out)
    shares = tracer.stage_cycle_share(result.cycles)
    total = sum(shares.values())
    print("\nresident-cycle share by stage:", file=out)
    for stage, share in sorted(shares.items(), key=lambda kv: -kv[1])[:12]:
        print(f"  {stage:<24} {share / total:6.1%}", file=out)
    return result


def _event_trace(system, args, out):
    """Run with telemetry attached; write the chrome or jsonl trace to
    ``out``."""
    from repro.stats.telemetry import (EventBus, JsonlSink, PeriodicSampler,
                                       RecordingSink, chrome_trace)
    bus = EventBus()
    system.attach_telemetry(bus)
    sampler = bus.add_sampler(PeriodicSampler(args.sample_period))
    if args.format == "jsonl":
        bus.subscribe(JsonlSink(out))
        result = system.run(engine=args.engine)
    else:  # chrome
        sink = bus.subscribe(RecordingSink(
            kinds=("stage.activate", "reconfig.begin")))
        result = system.run(engine=args.engine)
        json.dump(chrome_trace(sink.events, result.cycles,
                               samples=sampler.samples,
                               process_name=f"{args.app}/{args.input}"),
                  out, sort_keys=True)
        out.write("\n")
    bus.close()
    return result


def cmd_trace(args) -> int:
    _check_input("trace", args.app, args.input)
    system = _traceable_system(args)
    out = _open_out("trace", args.out)
    try:
        write = _gantt_trace if args.format == "gantt" else _event_trace
        result = write(system, args, out)
    finally:
        if args.out:
            out.close()
    if args.out:
        print(f"{args.app}/{args.input} on Fifer: {result.cycles:,.0f} "
              f"cycles; {args.format} trace written to {args.out}",
              file=sys.stderr)
    return 0


def cmd_compile(args) -> int:
    from repro.frontend import get_frontend
    pipeline = get_frontend(args.workload)
    description = pipeline.describe()
    stages = description["stages"]
    if args.stage is not None and not 0 <= args.stage < len(stages):
        raise SystemExit(
            f"no stage {args.stage}; {args.workload} has "
            f"{len(stages)} stages (0..{len(stages) - 1})")
    if args.json:
        payload = (stages[args.stage] if args.stage is not None
                   else description)
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    if args.stage is not None:
        stage = stages[args.stage]
        print(f"{stage['name']} — {stage['role']} "
              f"({stage['compute_ops']} ops, depth {stage['depth']})")
        for drm in stage["drms"]:
            print(f"  uses {drm}")
        print()
        print(stage["asm"], end="")
        return 0
    split = description["split"]
    print(f"{args.workload}: {description['doc']}")
    print(f"  owner-routed array: {split['owner_array']}; "
          f"vertex fetch {split['vertex_fetch_words']} word(s), "
          f"edge fetch {split['edge_fetch_words']} word(s)")
    print(f"  payload across edge cut: "
          f"{split['payload_across_edge_cut'] or '(none)'}; "
          f"across cross-shard hop: "
          f"{split['payload_across_hop'] or '(none)'}")
    print(f"  feed-forward: {description['feed_forward']}; "
          f"uses epoch: {split['uses_epoch']}; "
          f"dedup pushes: {split['dedup_pushes']}")
    print()
    rows = [[str(s["index"]), s["name"], s["role"],
             ", ".join(s["drms"]) or "-", str(s["compute_ops"]),
             str(s["depth"])] for s in stages]
    print(format_table(["#", "stage", "role", "DRMs", "ops", "depth"],
                       rows, title="generated stages (one replica shown; "
                                   "replicated per shard)"))
    print()
    rows = [[e["queue"], f"{e['src']} -> {e['dst']}", str(e["words"]),
             ("control" if e["control"]
              else "cross-shard" if e["cross_shard"] else "data")]
            for e in description["queues"]]
    print(format_table(["queue", "channel", "words", "kind"], rows,
                       title="inter-stage queue graph"))
    for stage in stages:
        print(f"\n; stage {stage['index']}: {stage['name']} "
              f"({stage['role']})")
        print(stage["asm"], end="")
    return 0


def _suggest_findings(app: str):
    """Info findings from the auto-decoupling analyzer (``--suggest``)."""
    from repro.analysis.autosplit import AutosplitError, advise_kernel
    from repro.analysis.report import Finding
    from repro.frontend import FRONTEND_KERNELS
    if app not in FRONTEND_KERNELS:
        return [Finding(
            "info", "autosplit.advise", app,
            f"{app}: no annotated kernel registered; the auto-decoupling "
            f"analyzer only advises front-end kernels "
            f"({', '.join(sorted(FRONTEND_KERNELS))})")]
    try:
        advice = advise_kernel(FRONTEND_KERNELS[app]())
    except AutosplitError as exc:
        return [Finding("warning", "autosplit.advise", app, str(exc))]
    top = advice.candidates[0]
    verdict = ("matches the hand-marked split"
               if advice.matches_hand_marked
               else "DIFFERS from the hand-marked split")
    return [Finding(
        "info", "autosplit.advise", app,
        f"{app}: inferred {len(advice.candidates)} cut point(s) from "
        f"{len(advice.patterns)} dependence pattern(s); top-ranked "
        f"{top.label} ({top.role}, score {top.score:.0f}); decision "
        f"{verdict} — see `repro advise {app}`")]


def cmd_lint(args) -> int:
    from repro.analysis.report import AnalysisReport, Finding
    from repro.harness.run import analyze_workload, default_scale
    if args.app == "all":
        if args.input is not None:
            raise SystemExit("lint all takes no INPUT argument")
        targets = [(app, APP_INPUTS[app][0]) for app in sorted(APP_INPUTS)]
    else:
        code = args.input or APP_INPUTS[args.app][0]
        _check_input("lint", args.app, code)
        targets = [(args.app, code)]
    reports = []
    for app, code in targets:
        scale = args.scale
        if scale is None:
            # The pipeline topology is scale-independent; lint at a
            # small scale so input generation stays fast.
            scale = min(default_scale(app, code), 0.2)
        try:
            report = analyze_workload(
                app, code, system=args.system, variant=args.variant,
                scale=scale, seed=args.seed)
        except Exception as exc:
            # Exit-code contract: a workload that cannot even build is
            # an error finding (exit 1), not a traceback — certificates
            # with assumptions stay exit 0.
            report = AnalysisReport(program=f"{app}/{code}",
                                    mode=args.system)
            report.findings.append(Finding(
                "error", "lint.build", f"{app}/{code}",
                f"{type(exc).__name__}: {exc}"))
        if args.suggest:
            report.extend(_suggest_findings(app))
        reports.append(report)
    if args.json:
        payload = [r.as_dict() for r in reports]
        print(json.dumps(payload[0] if len(payload) == 1 else payload,
                         indent=2, sort_keys=True))
    else:
        for report in reports:
            print(report.render())
    return 0 if all(r.ok for r in reports) else 1


def cmd_advise(args) -> int:
    from repro.analysis.autosplit import (AutosplitError, advise_kernel,
                                          apply_and_verify)
    from repro.frontend import FRONTEND_KERNELS
    names = (sorted(FRONTEND_KERNELS) if args.kernel == "all"
             else [args.kernel])
    documents, ok = [], True
    for name in names:
        kernel = FRONTEND_KERNELS[name]()
        try:
            if args.apply:
                manifest = apply_and_verify(kernel)
                good = (manifest["advice"]["matches_hand_marked"]
                        is not False
                        and manifest["fingerprints"]["equal"]
                        and manifest["describe"]["equal"]
                        and manifest["lint"]["ok"])
                documents.append(manifest)
            else:
                advice = advise_kernel(kernel)
                good = advice.matches_hand_marked is not False
                documents.append(advice.as_dict())
        except AutosplitError as exc:
            documents.append({"kernel": name, "error": str(exc)})
            good = False
        ok = ok and good
    if args.json:
        print(json.dumps(documents[0] if len(documents) == 1
                         else documents, indent=2, sort_keys=True))
        return 0 if ok else 1
    for i, document in enumerate(documents):
        if i:
            print()
        if "error" in document:
            print(f"{document['kernel']}: ERROR {document['error']}")
            continue
        if not args.apply:
            kernel = FRONTEND_KERNELS[document["kernel"]]()
            print(advise_kernel(kernel).render())
            continue
        advice = document["advice"]
        print(f"{document['kernel']}: auto-split applied and verified")
        print(f"  decision matches hand-marked: "
              f"{advice['matches_hand_marked']}")
        print(f"  kernel fingerprints equal: "
              f"{document['fingerprints']['equal']}")
        print(f"  compile descriptions equal: "
              f"{document['describe']['equal']}")
        print(f"  deadlock certificate: "
              f"{'issued' if document['lint']['certified'] else 'NOT ISSUED'}"
              f" ({len(document['lint']['errors'])} error(s))")
        rows = [[s["stage"], str(s["nodes"]), str(s["dependence_edges"]),
                 str(s["reg_carried_edges"]), str(s["max_fanout"]),
                 str(s["longest_chain"])]
                for s in document["stage_dataflow"]]
        print()
        print(format_table(
            ["stage", "nodes", "dep edges", "reg-carried", "max fanout",
             "longest chain"], rows,
            title="auto-split stage dataflow (DFG dependence queries)"))
    return 0 if ok else 1


def cmd_stats(args) -> int:
    from repro.stats.manifest import build_manifest
    _check_input("stats", args.app, args.input)
    if args.manifest_dir is not None:
        # Fail before simulating, not after the run.
        try:
            Path(args.manifest_dir).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            _fail("stats", f"cannot write {args.manifest_dir}: {exc}")
    result = run_experiment(args.app, args.input, args.system,
                            variant=args.variant, scale=args.scale,
                            seed=args.seed, engine=args.engine,
                            manifest_dir=args.manifest_dir,
                            sanitize=args.sanitize)
    manifest = build_manifest(result)
    if args.json:
        print(json.dumps(manifest, indent=2, sort_keys=True))
        return 0
    print(f"{result.label} ({result.variant}): {result.cycles:,.0f} cycles "
          f"in {result.wall_time_s:.2f}s wall time")
    stack = manifest["cpi_stack"]
    total = sum(stack.values()) or 1.0
    rows = [[bucket, f"{value:,.0f}", f"{value / total:.1%}"]
            for bucket, value in stack.items()]
    print()
    print(format_table(["bucket", "cycles", "share"], rows,
                       title="cycle breakdown (all contexts)"))
    caches = manifest["caches"]
    rows = [["l1 (aggregate)", f"{caches['l1']['hits']:,}",
             f"{caches['l1']['misses']:,}",
             f"{caches['l1']['hit_rate']:.1%}"],
            ["llc", f"{caches['llc'].get('hits', 0):,}",
             f"{caches['llc'].get('misses', 0):,}",
             f"{caches['llc'].get('hit_rate', 0.0):.1%}"]]
    print()
    print(format_table(["cache", "hits", "misses", "hit rate"], rows,
                       title="memory hierarchy"))
    mem = caches["memory"]
    print(f"\nmain memory: {mem.get('reads', 0):,} reads, "
          f"{mem.get('writes', 0):,} writes, "
          f"{mem.get('bytes', 0):,} bytes")
    if "avg_residence_cycles" in manifest:
        print(f"avg residence {manifest['avg_residence_cycles']:.0f} cycles, "
              f"avg reconfiguration {manifest['avg_reconfig_cycles']:.1f} "
              f"cycles")
    return 0


def cmd_profile(args) -> int:
    from repro.profiling import parse_whatif, predict_speedup
    _check_input("profile", args.app, args.input)
    try:
        whatifs = [parse_whatif(spec) for spec in args.what_if]
    except ValueError as exc:
        raise SystemExit(str(exc))
    out = _open_out("profile", args.out)
    try:
        result = run_experiment(args.app, args.input, args.system,
                                variant=args.variant, scale=args.scale,
                                seed=args.seed, engine=args.engine,
                                profile=True)
        profile = result.profile
        try:
            predictions = [predict_speedup(profile, target, percent)
                           for target, percent in whatifs]
        except ValueError as exc:
            _fail("profile", str(exc))
        if args.validate:
            from repro.profiling import validate_prediction
            for prediction in predictions:
                validate_prediction(prediction, args.app, args.input,
                                    args.system, variant=args.variant,
                                    scale=args.scale, seed=args.seed,
                                    engine=args.engine)
        if args.format == "folded":
            out.write(profile.critical_path().folded())
        elif args.format == "json":
            document = profile.as_dict()
            if predictions:
                document["what_if"] = [p.as_dict() for p in predictions]
            json.dump(document, out, indent=2, sort_keys=True)
            out.write("\n")
        else:
            _print_profile_text(args, result, predictions, out)
    finally:
        if args.out:
            out.close()
    if args.out:
        print(f"{args.app}/{args.input}: {args.format} profile written "
              f"to {args.out}", file=sys.stderr)
    return 0


def _print_profile_text(args, result, predictions, out) -> None:
    profile = result.profile
    print(f"{args.app}/{args.input} on {args.system} ({args.variant}): "
          f"{result.cycles:,.0f} cycles, {profile.profiler.n_events:,} "
          f"profiler events", file=out)
    rollup = profile.blame.rollup().waitee_totals()
    total = sum(rollup.values()) or 1.0
    rows = [[waitee, f"{cycles:,.0f}", f"{cycles / total:.1%}"]
            for waitee, cycles in rollup.items()]
    print(file=out)
    print(format_table(["waited on", "cycles", "share"], rows,
                       title="blame matrix (all PEs, stalled cycles by "
                             "culprit)"), file=out)
    path = profile.critical_path()
    rows = [[f"pe{seg.pe}", seg.kind, seg.name or "-",
             f"{seg.cycles:,.0f}"]
            for seg in path.ranked()[:args.top] if seg.cycles > 0]
    print(file=out)
    print(format_table(["pe", "kind", "component", "cycles"], rows,
                       title=f"critical path (top {args.top} of "
                             f"{len(path.ranked())} merged segments, "
                             f"weight {path.total_weight():,.0f})"),
          file=out)
    if predictions:
        rows = []
        for p in predictions:
            row = [p.target, f"{p.percent:.0f}%",
                   f"{p.predicted_cycles:,.0f}",
                   f"{p.predicted_speedup:.3f}x"]
            if p.actual_cycles == p.actual_cycles:  # validated
                row += [f"{p.actual_cycles:,.0f}", f"{p.error:.1%}"]
            else:
                row += ["-", "-"]
            rows.append(row)
        print(file=out)
        print(format_table(["target", "speedup", "predicted cycles",
                            "predicted", "actual cycles", "error"], rows,
                           title="what-if estimates (Coz-style virtual "
                                 "speedups)"), file=out)


def cmd_bench_diff(args) -> int:
    from repro.profiling import bench_diff
    try:
        report = bench_diff(args.baseline, args.current,
                            cycle_tol=args.cycle_tol,
                            blame_tol=args.blame_tol,
                            wall_ratio=args.wall_ratio)
    except ValueError as exc:
        raise SystemExit(str(exc))
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return 0 if report.ok else 1


def cmd_cache(args) -> int:
    from repro.cache import ArtifactCache, default_cache_root
    root = Path(args.cache_dir) if args.cache_dir else default_cache_root()
    # The verb inspects the on-disk store under the root it prints, not
    # the process cache, which is memory-only unless REPRO_CACHE_DIR is
    # set.
    cache = ArtifactCache(root)
    if args.action == "stats":
        artifacts = cache.stats()
    else:  # gc
        artifacts = cache.gc(all_versions=args.all)
    document = {"root": str(root), "artifacts": artifacts}
    print(json.dumps(document, indent=2, sort_keys=True))
    return 0


def cmd_report(args) -> int:
    from repro.stats.manifest import load_manifests, summarize_manifests
    manifests = []
    try:
        for directory in args.dirs:
            manifests.extend(load_manifests(directory))
    except ValueError as exc:
        raise SystemExit(str(exc))
    if not manifests:
        raise SystemExit(f"no manifests found under {', '.join(args.dirs)}")
    headers, rows = summarize_manifests(manifests)
    print(format_table(headers, rows,
                       title=f"run manifests ({len(manifests)} runs)"))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fifer (MICRO 2021) reproduction: run the simulated "
                    "systems from the command line.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment")
    _add_common(p_run)
    p_run.add_argument("--system", choices=SYSTEMS, default="fifer")
    p_run.add_argument("--variant", choices=("decoupled", "merged"),
                       default="decoupled")
    p_run.add_argument("--sanitize", action="store_true",
                       help="arm the simulation sanitizer (per-quantum "
                            "token/credit conservation checks; "
                            "bit-identical results)")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="all four systems on one input")
    _add_common(p_cmp)
    p_cmp.add_argument("--workers", type=int, default=None, metavar="N",
                       help="run the four systems on a process pool "
                            "(default: one worker per CPU)")
    p_cmp.set_defaults(func=cmd_compare)

    p_inputs = sub.add_parser("inputs", help="list apps and inputs")
    p_inputs.set_defaults(func=cmd_inputs)

    p_trace = sub.add_parser(
        "trace", help="Fifer execution trace (ASCII, Perfetto, or JSONL)")
    _add_common(p_trace)
    p_trace.add_argument("--pes", type=_count, default=8,
                         help="PEs to show in the Gantt chart")
    p_trace.add_argument("--format", choices=("gantt", "chrome", "jsonl"),
                         default="gantt",
                         help="gantt: ASCII chart; chrome: Perfetto-loadable "
                              "trace-event JSON; jsonl: raw event stream")
    p_trace.add_argument("--out", default=None, metavar="FILE",
                         help="write the chart or trace here "
                              "(default: stdout)")
    p_trace.add_argument("--sample-period", type=_period, default=512,
                         metavar="CYCLES",
                         help="queue-occupancy sampling period "
                              "(default: 512)")
    p_trace.set_defaults(func=cmd_trace)

    p_compile = sub.add_parser(
        "compile", help="split an annotated kernel into its stage pipeline")
    p_compile.add_argument("workload", choices=KERNELS)
    p_compile.add_argument("--stage", type=int, default=None, metavar="N",
                           help="show only stage N (0-based)")
    p_compile.add_argument("--json", action="store_true",
                           help="emit the machine-readable description")
    p_compile.set_defaults(func=cmd_compile)

    p_stats = sub.add_parser(
        "stats", help="full statistics for one run (tables or JSON)")
    _add_common(p_stats)
    p_stats.add_argument("--system", choices=SYSTEMS, default="fifer")
    p_stats.add_argument("--variant", choices=("decoupled", "merged"),
                         default="decoupled")
    p_stats.add_argument("--json", action="store_true",
                         help="emit the machine-readable run manifest")
    p_stats.add_argument("--manifest-dir", default=None, metavar="DIR",
                         help="also write the manifest under DIR")
    p_stats.add_argument("--sanitize", action="store_true",
                         help="arm the simulation sanitizer during the run")
    p_stats.set_defaults(func=cmd_stats)

    p_lint = sub.add_parser(
        "lint", help="statically verify a workload's compiled pipeline")
    p_lint.add_argument("app", choices=sorted(APP_INPUTS) + ["all"],
                        help="workload to verify, or 'all'")
    p_lint.add_argument("input", nargs="?", default=None, metavar="INPUT",
                        help="input code (default: the app's first input)")
    p_lint.add_argument("--system", choices=("static", "fifer"),
                        default="fifer")
    p_lint.add_argument("--variant", choices=("decoupled", "merged"),
                        default="decoupled")
    p_lint.add_argument("--scale", type=_checked(float, "scale"),
                        default=None,
                        help="input scale (default: small; the pipeline "
                             "topology does not depend on it)")
    p_lint.add_argument("--seed", type=_checked(int, "seed"), default=1)
    p_lint.add_argument("--json", action="store_true",
                        help="emit machine-readable findings and the "
                             "deadlock-freedom certificate")
    p_lint.add_argument("--suggest", action="store_true",
                        help="append info findings from the "
                             "auto-decoupling analyzer (inferred cut "
                             "points; see `repro advise`)")
    p_lint.set_defaults(func=cmd_lint)

    p_advise = sub.add_parser(
        "advise",
        help="infer load-split points from the whole-kernel dependence "
             "graph (auto-decoupling analyzer)")
    p_advise.add_argument("kernel",
                          choices=KERNELS + ("all",),
                          help="annotated kernel to analyze, or 'all'")
    p_advise.add_argument("--apply", action="store_true",
                          help="apply the top-ranked split, lower it "
                               "through the existing pipeline, and emit "
                               "the verification manifest (fingerprints, "
                               "describe digests, deadlock certificate)")
    p_advise.add_argument("--json", action="store_true",
                          help="emit the machine-readable advice or "
                               "apply manifest")
    p_advise.set_defaults(func=cmd_advise)

    p_profile = sub.add_parser(
        "profile", help="wait-for blame matrix, critical path, what-ifs")
    _add_common(p_profile)
    p_profile.add_argument("--system", choices=("static", "fifer"),
                           default="fifer")
    p_profile.add_argument("--variant", choices=("decoupled", "merged"),
                           default="decoupled")
    p_profile.add_argument("--what-if", action="append", default=[],
                           metavar="TARGET=PCT",
                           help="virtual-speedup estimate: a stage/DRM "
                                "base name, 'memory', or 'reconfig', and "
                                "the speedup in percent (repeatable, e.g. "
                                "--what-if bfs.fetch=50 --what-if "
                                "memory=100)")
    p_profile.add_argument("--validate", action="store_true",
                           help="re-simulate each what-if config and "
                                "report the prediction error")
    p_profile.add_argument("--format", choices=("text", "json", "folded"),
                           default="text",
                           help="text: tables; json: full profile "
                                "document; folded: flamegraph.pl/"
                                "speedscope folded stacks")
    p_profile.add_argument("--top", type=_count, default=12, metavar="N",
                           help="critical-path segments to show (text)")
    p_profile.add_argument("--out", default=None, metavar="FILE",
                           help="write output here (default: stdout)")
    p_profile.set_defaults(func=cmd_profile)

    p_diff = sub.add_parser(
        "bench-diff", help="diff manifest dirs against a baseline")
    p_diff.add_argument("baseline", metavar="BASELINE",
                        help="baseline manifest directory (e.g. "
                             "benchmarks/results/history/baseline)")
    p_diff.add_argument("current", metavar="CURRENT",
                        help="freshly produced manifest directory")
    p_diff.add_argument("--cycle-tol", type=float,
                        default=DEFAULT_CYCLE_TOL, metavar="FRAC",
                        help="relative cycle drift that fails the diff "
                             f"(default {DEFAULT_CYCLE_TOL})")
    p_diff.add_argument("--blame-tol", type=float,
                        default=DEFAULT_BLAME_TOL, metavar="FRAC",
                        help="absolute blame-share drift that fails the "
                             f"diff (default {DEFAULT_BLAME_TOL})")
    p_diff.add_argument("--wall-ratio", type=float,
                        default=DEFAULT_WALL_RATIO, metavar="X",
                        help="wall-time ratio that warns (host-dependent; "
                             f"default {DEFAULT_WALL_RATIO})")
    p_diff.add_argument("--json", action="store_true",
                        help="emit machine-readable findings")
    p_diff.set_defaults(func=cmd_bench_diff)

    p_cache = sub.add_parser(
        "cache", help="inspect or prune the compiled-artifact cache")
    p_cache.add_argument("action", choices=("stats", "gc"))
    p_cache.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="cache root (default: $REPRO_CACHE_DIR or "
                              "~/.cache/repro)")
    p_cache.add_argument("--all", action="store_true",
                         help="gc: also drop current-version compiled "
                              "artifacts, not just stale versions")
    p_cache.set_defaults(func=cmd_cache)

    p_report = sub.add_parser(
        "report", help="tabulate run manifests across runs")
    p_report.add_argument("dirs", nargs="+", metavar="DIR",
                          help="directories containing *.json manifests")
    p_report.set_defaults(func=cmd_report)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # stdout's reader went away (e.g. `repro cache stats | head`);
        # detach so the interpreter's shutdown flush cannot re-raise.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests for activation tracing, ASCII reporting, and the CLI."""

import json

import pytest

from repro.config import SystemConfig
from repro.core import System
from repro.cli import main as cli_main
from repro.datasets.graphs import power_law_graph
from repro.harness.report import bar_chart, speedup_bars, stacked_bars
from repro.stats.trace import ActivationTracer
from repro.workloads import bfs


@pytest.fixture(scope="module")
def traced_run():
    config = SystemConfig()
    graph = power_law_graph(300, 6.0, seed=21)
    program, _ = bfs.build(graph, config, "fifer")
    system = System(config, program, mode="fifer")
    tracer = ActivationTracer().attach(system)
    result = system.run()
    return tracer, result


class TestActivationTracer:
    def test_events_match_reconfig_counter(self, traced_run):
        tracer, result = traced_run
        # One trace event per activation (== reconfiguration events).
        assert len(tracer.events) == result.counters["reconfig_events"]

    def test_timelines_are_ordered(self, traced_run):
        tracer, result = traced_run
        for timeline in tracer.per_pe().values():
            starts = [event.start for event in timeline]
            assert starts == sorted(starts)

    def test_residences_cover_each_pe(self, traced_run):
        tracer, result = traced_run
        spans = tracer.residences(result.cycles)
        assert all(duration >= 0 for _, _, _, duration in spans)
        pes = {pe for pe, _, _, _ in spans}
        assert len(pes) == 16

    def test_stage_shares_sum_sensibly(self, traced_run):
        tracer, result = traced_run
        shares = tracer.stage_cycle_share(result.cycles)
        # Every stage of every shard appears: 4 stages x 16 shards.
        assert len(shares) == 64
        assert sum(shares.values()) <= result.cycles * 16 + 1e-6

    def test_gantt_renders(self, traced_run):
        tracer, result = traced_run
        chart = tracer.gantt(result.cycles, width=40, max_pes=4)
        lines = chart.splitlines()
        assert len(lines) == 5  # 4 PEs + legend
        assert lines[0].startswith("PE0")
        assert "legend:" in lines[-1]


class TestReport:
    def test_bar_chart(self):
        chart = bar_chart({"a": 1.0, "bb": 2.0}, width=10, title="T")
        lines = chart.splitlines()
        assert lines[0] == "T"
        assert "##########" in lines[2]  # the max bar fills the width
        assert "2.00x" in lines[2]

    def test_bar_chart_rejects_empty(self):
        with pytest.raises(ValueError):
            bar_chart({})
        with pytest.raises(ValueError):
            bar_chart({"a": 0.0})

    def test_stacked_bars(self):
        stacks = {"S": {"x": 3.0, "y": 1.0}, "F": {"x": 1.0, "y": 1.0}}
        chart = stacked_bars(stacks, ("x", "y"), width=8)
        assert "legend:" in chart
        assert "#" in chart and "=" in chart

    def test_speedup_bars(self):
        chart = speedup_bars({"Hu": {"a": 1.0, "b": 2.0}}, ("a", "b"))
        assert "[Hu]" in chart


class TestCLI:
    def test_inputs_command(self, capsys):
        assert cli_main(["inputs"]) == 0
        out = capsys.readouterr().out
        assert "coAuthorsDBLP" in out
        assert "YCSB-C" in out

    def test_run_command(self, capsys):
        assert cli_main(["run", "bfs", "Hu", "--scale", "0.12",
                         "--system", "fifer"]) == 0
        out = capsys.readouterr().out
        assert "verified" in out
        assert "cycle breakdown" in out
        assert "energy breakdown" in out

    def test_compare_command(self, capsys):
        assert cli_main(["compare", "bfs", "Hu", "--scale", "0.12"]) == 0
        out = capsys.readouterr().out
        for system in ("serial", "multicore", "static", "fifer"):
            assert system in out

    def test_trace_command(self, capsys):
        assert cli_main(["trace", "bfs", "Hu", "--scale", "0.12",
                         "--pes", "2"]) == 0
        out = capsys.readouterr().out
        assert "PE0" in out and "legend:" in out

    def test_trace_gantt_out(self, tmp_path, capsys):
        """``--out`` holds the default gantt chart and its share table;
        stdout stays empty."""
        out = tmp_path / "gantt.txt"
        assert cli_main(["trace", "bfs", "Hu", "--scale", "0.12",
                         "--pes", "2", "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "gantt trace written" in captured.err
        chart = out.read_text()
        assert "PE0" in chart and "legend:" in chart
        assert "resident-cycle share by stage:" in chart

    def test_trace_chrome_format(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert cli_main(["trace", "bfs", "Hu", "--scale", "0.12",
                         "--format", "chrome", "--out", str(out)]) == 0
        assert "trace written" in capsys.readouterr().err
        trace = json.loads(out.read_text())
        events = trace["traceEvents"]
        pe_tracks = {e["tid"] for e in events if e["ph"] == "X"}
        assert len(pe_tracks) >= 1
        counter_tracks = {e["name"] for e in events if e["ph"] == "C"}
        assert counter_tracks and all(n.startswith("queue ")
                                      for n in counter_tracks)

    def test_trace_jsonl_format(self, capsys):
        assert cli_main(["trace", "bfs", "Hu", "--scale", "0.12",
                         "--format", "jsonl"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) > 100
        record = json.loads(lines[0])
        assert {"cycle", "seq", "kind", "source"} <= set(record)

    def test_stats_command(self, capsys):
        assert cli_main(["stats", "bfs", "Hu", "--scale", "0.12"]) == 0
        out = capsys.readouterr().out
        assert "cycle breakdown" in out
        assert "memory hierarchy" in out
        assert "avg residence" in out

    def test_stats_json_and_report(self, tmp_path, capsys):
        manifest_dir = tmp_path / "manifests"
        assert cli_main(["stats", "bfs", "Hu", "--scale", "0.12", "--json",
                         "--manifest-dir", str(manifest_dir)]) == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["app"] == "bfs" and manifest["cycles"] > 0
        assert cli_main(["stats", "bfs", "Hu", "--scale", "0.12",
                         "--system", "static",
                         "--manifest-dir", str(manifest_dir)]) == 0
        capsys.readouterr()
        assert cli_main(["report", str(manifest_dir)]) == 0
        out = capsys.readouterr().out
        assert "2 runs" in out
        assert "bfs/Hu/fifer/decoupled" in out
        assert "bfs/Hu/static/decoupled" in out

    def test_report_rejects_empty_dir(self, tmp_path):
        with pytest.raises(SystemExit):
            cli_main(["report", str(tmp_path)])

    def test_compile_stage_out_of_range_rejected(self):
        with pytest.raises(SystemExit, match="no stage 7"):
            cli_main(["compile", "bfs", "--stage", "7"])

    def test_unknown_input_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["run", "bfs", "XX"])

    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["run", "sorting", "Hu"])

    #: Malformed input coordinates as (argv, field, value). Every argv
    #: exits 2 with one ``repro`` error line and no traceback, and
    #: ``prepare_input`` rejects the same value with a ValueError.
    BAD_SCALE_SEED = [
        (["run", "bfs", "Hu", "--scale", "0"], "scale", 0.0),
        (["run", "bfs", "Hu", "--scale", "-1"], "scale", -1.0),
        (["run", "bfs", "Hu", "--scale", "nan"], "scale", float("nan")),
        (["run", "bfs", "Hu", "--scale", "inf"], "scale", float("inf")),
        (["run", "bfs", "Hu", "--seed", "-1"], "seed", -1),
        (["compare", "bfs", "Hu", "--scale", "0"], "scale", 0.0),
        (["lint", "bfs", "--scale", "0"], "scale", 0.0),
        (["run", "silo", "YC", "--scale", "-1"], "scale", -1.0),
    ]

    @pytest.mark.parametrize("argv,field,value", BAD_SCALE_SEED,
                             ids=[" ".join(case[0])
                                  for case in BAD_SCALE_SEED])
    def test_bad_scale_seed_rejected(self, argv, field, value, capsys):
        from repro.harness import APP_INPUTS, prepare_input
        with pytest.raises(SystemExit) as excinfo:
            cli_main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines()
                  if line.startswith("repro")]
        assert len(errors) == 1 and field in errors[0], err
        assert "Traceback" not in err
        app = argv[1]
        with pytest.raises(ValueError, match=field):
            prepare_input(app, APP_INPUTS[app][0], **{field: value})

    #: Other bad input as (argv, text the one error line must contain).
    #: Each exits 2 with one ``repro`` error line and no traceback,
    #: instead of a wrong answer or a traceback after the run.
    BAD_INPUT = [
        (["run", "bfs", "FS"], "unknown input 'FS' for bfs; choose from"),
        (["run", "silo", "Hu"], "unknown input 'Hu' for silo; choose from"),
        (["stats", "spmm", "Hu"], "unknown input 'Hu' for spmm"),
        (["lint", "cc", "YC"], "unknown input 'YC' for cc"),
        (["profile", "bfs", "Hu", "--scale", "0.1", "--what-if",
          "nosuch=50"], "choose from memory, reconfig, bfs."),
        (["profile", "bfs", "Hu", "--scale", "0.1", "--top", "-1"],
         "--top: must be at least 1"),
        (["trace", "bfs", "Hu", "--scale", "0.1", "--pes", "0"],
         "--pes: must be at least 1"),
        (["stats", "bfs", "Hu", "--scale", "0.1", "--manifest-dir",
          "{file}/manifests"], "cannot write"),
        (["profile", "spmm", "FS", "--scale", "0.1", "--out",
          "{file}/x.txt"], "cannot write"),
        (["trace", "spmm", "FS", "--scale", "0.1", "--format", "jsonl",
          "--out", "{file}/x.jsonl"], "cannot write"),
        (["trace", "spmm", "FS", "--scale", "0.1", "--format", "gantt",
          "--out", "{file}/x.txt"], "cannot write"),
        (["trace", "spmm", "FS", "--scale", "0.1", "--format", "jsonl",
          "--sample-period", "0"], "--sample-period: must be positive"),
        (["trace", "spmm", "FS", "--scale", "0.1", "--sample-period", "0",
          "--format", "gantt"], "--sample-period: must be positive"),
    ]

    @pytest.mark.parametrize("argv,message", BAD_INPUT,
                             ids=[" ".join(case[0][:1] + case[0][-2:])
                                  for case in BAD_INPUT])
    def test_bad_input_rejected(self, argv, message, tmp_path, capsys):
        # A plain file where the manifest directory's parent should be.
        blocker = tmp_path / "file"
        blocker.write_text("")
        argv = [arg.format(file=blocker) for arg in argv]
        with pytest.raises(SystemExit) as excinfo:
            cli_main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines()
                  if line.startswith("repro")]
        assert len(errors) == 1 and message in errors[0], err
        assert "Traceback" not in err

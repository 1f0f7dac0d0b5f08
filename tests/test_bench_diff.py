"""Benchmark regression observatory: bench-diff severity semantics.

Synthetic manifest pairs pin down exactly what fails a diff (cycle
drift, blame-share drift), what only warns (wall time, shrunk
coverage), and what is merely informational (new runs) — the contract
CI's bench-regression job relies on to gate merges without flaking on
host-speed noise.
"""

import json

import pytest

from repro.profiling import (DEFAULT_BLAME_TOL, DEFAULT_CYCLE_TOL,
                             DEFAULT_WALL_RATIO, bench_diff)
from repro.profiling.history import diff_manifests, manifest_key
from repro.stats.manifest import MANIFEST_SCHEMA_VERSION


def make_manifest(app="bfs", code="Hu", engine="fast", cycles=3712.0,
                  wall=1.0, blame=None):
    """Minimal manifest with the keys bench-diff reads."""
    manifest = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "app": app,
        "input": code,
        "system": "fifer",
        "variant": "decoupled",
        "seed": 1,
        "engine": engine,
        "cycles": cycles,
        "wall_time_s": wall,
    }
    if blame is not None:
        manifest["profile"] = {"blame_rollup": dict(blame)}
    return manifest


def write_dir(tmp_path, name, manifests):
    directory = tmp_path / name
    directory.mkdir()
    for i, manifest in enumerate(manifests):
        (directory / f"m{i}.json").write_text(json.dumps(manifest))
    return directory


BLAME = {"bfs.fetch": 600.0, "(memory)": 300.0, "(idle)": 100.0}


class TestDiffManifests:
    def test_identical_runs_are_clean(self):
        manifest = make_manifest(blame=BLAME)
        assert diff_manifests(manifest, dict(manifest)) == []

    def test_cycle_drift_fails(self):
        base = make_manifest(cycles=1000.0)
        drift = 2 * DEFAULT_CYCLE_TOL
        findings = diff_manifests(base,
                                  make_manifest(cycles=1000.0 * (1 + drift)))
        assert [f.severity for f in findings] == ["fail"]
        assert findings[0].kind == "cycles"
        assert "slower" in findings[0].message

    def test_cycle_speedup_also_fails(self):
        # Faster is still drift: cycles are deterministic, so any move
        # is a behavior change the baseline must be updated to bless.
        base = make_manifest(cycles=1000.0)
        findings = diff_manifests(base, make_manifest(cycles=900.0))
        assert [f.kind for f in findings] == ["cycles"]
        assert "faster" in findings[0].message

    def test_drift_within_tolerance_passes(self):
        base = make_manifest(cycles=1000.0)
        assert diff_manifests(
            base,
            make_manifest(cycles=1000.0 * (1 + DEFAULT_CYCLE_TOL / 2))) == []

    def test_blame_share_drift_fails(self):
        base = make_manifest(blame=BLAME)
        shifted = dict(BLAME)
        # Move well over DEFAULT_BLAME_TOL of total share from the
        # fetch stage onto memory, with total cycles unchanged.
        moved = sum(BLAME.values()) * (2 * DEFAULT_BLAME_TOL)
        shifted["bfs.fetch"] -= moved
        shifted["(memory)"] += moved
        findings = diff_manifests(base, make_manifest(blame=shifted))
        assert {f.severity for f in findings} == {"fail"}
        assert {f.kind for f in findings} == {"blame"}
        assert {"bfs.fetch", "(memory)"} \
            == {f.message.split(":")[0] for f in findings}

    def test_blame_skipped_without_profiles(self):
        # A cycle-identical pair where only one side was profiled must
        # not fail: there is nothing to compare shares against.
        assert diff_manifests(make_manifest(blame=BLAME),
                              make_manifest()) == []

    def test_wall_time_only_warns(self):
        base = make_manifest(wall=1.0)
        findings = diff_manifests(
            base, make_manifest(wall=2 * DEFAULT_WALL_RATIO))
        assert [(f.severity, f.kind) for f in findings] \
            == [("warn", "wall_time")]

    def test_custom_tolerances(self):
        base = make_manifest(cycles=1000.0)
        current = make_manifest(cycles=1100.0)
        assert diff_manifests(base, current, cycle_tol=0.2) == []
        assert len(diff_manifests(base, current, cycle_tol=0.01)) == 1


class TestBenchDiff:
    def test_clean_directories_report_ok(self, tmp_path):
        manifests = [make_manifest(code=code, blame=BLAME)
                     for code in ("Hu", "In")]
        baseline = write_dir(tmp_path, "baseline", manifests)
        current = write_dir(tmp_path, "current", manifests)
        report = bench_diff(baseline, current)
        assert report.ok
        assert report.n_compared == 2
        assert report.findings == []
        assert "2 run(s) compared, 0 failure(s)" in report.render()

    def test_regression_fails_report(self, tmp_path):
        baseline = write_dir(tmp_path, "baseline",
                             [make_manifest(cycles=1000.0)])
        current = write_dir(tmp_path, "current",
                            [make_manifest(cycles=1200.0)])
        report = bench_diff(baseline, current)
        assert not report.ok
        assert "REGRESSIONS DETECTED" in report.render()
        assert report.as_dict()["findings"][0]["kind"] == "cycles"

    def test_missing_run_warns(self, tmp_path):
        baseline = write_dir(tmp_path, "baseline",
                             [make_manifest(code="Hu"),
                              make_manifest(code="In")])
        current = write_dir(tmp_path, "current", [make_manifest(code="Hu")])
        report = bench_diff(baseline, current)
        assert report.ok, "shrunk coverage must warn, not fail"
        assert [(f.severity, f.kind) for f in report.findings] \
            == [("warn", "missing")]
        assert report.n_compared == 1

    def test_new_run_is_informational(self, tmp_path):
        baseline = write_dir(tmp_path, "baseline", [make_manifest()])
        current = write_dir(tmp_path, "current",
                            [make_manifest(), make_manifest(engine="naive")])
        report = bench_diff(baseline, current)
        assert report.ok
        assert [(f.severity, f.kind) for f in report.findings] \
            == [("info", "new")]

    def test_empty_baseline_raises(self, tmp_path):
        baseline = write_dir(tmp_path, "baseline", [])
        current = write_dir(tmp_path, "current", [make_manifest()])
        with pytest.raises(ValueError, match="no baseline manifests"):
            bench_diff(baseline, current)

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(ValueError, match="not a directory"):
            bench_diff(tmp_path / "nope", tmp_path / "nope")


class TestCommittedBaselines:
    """The committed history manifests must stay self-consistent."""

    def test_history_diffs_clean_against_itself(self, tmp_path):
        from pathlib import Path
        history = Path(__file__).resolve().parent.parent \
            / "benchmarks" / "results" / "history"
        report = bench_diff(history, history)
        assert report.ok
        assert report.findings == []
        assert report.n_compared == 12   # 6 apps x 2 engines

    def test_history_covers_all_engines_with_profiles(self):
        from pathlib import Path
        from repro.stats.manifest import load_manifests
        history = Path(__file__).resolve().parent.parent \
            / "benchmarks" / "results" / "history"
        manifests = load_manifests(history)
        keys = {manifest_key(m) for m in manifests}
        assert len(keys) == len(manifests)
        engines = {m["engine"] for m in manifests}
        assert engines == {"fast", "naive"}
        for manifest in manifests:
            assert manifest["profile"]["blame_rollup"], \
                f"{manifest['app']}: baseline was not profiled"

"""Tests for the telemetry subsystem: event bus, sampler, exporters,
run manifests, and the CPI-stack invariant."""

import io
import json
import math

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.core import DeadlockError, System
from repro.core.system import SimulationTimeout
from repro.datasets.graphs import power_law_graph
from repro.harness import run_experiment
from repro.stats.counters import Counters
from repro.stats.cpi_stack import CPI_BUCKETS, cpi_stack, merge_stacks
from repro.stats.manifest import (MANIFEST_SCHEMA_VERSION, build_manifest,
                                  canonical_json, load_manifest,
                                  load_manifests, summarize_manifests,
                                  write_manifest)
from repro.stats.telemetry import (EventBus, JsonlSink, PeriodicSampler,
                                   RecordingSink, TelemetryEvent,
                                   chrome_trace)
from repro.stats.trace import ActivationTracer
from repro.workloads import bfs


def _build_system(n=300, seed=21):
    config = SystemConfig()
    graph = power_law_graph(n, 6.0, seed=seed)
    program, _ = bfs.build(graph, config, "fifer")
    return System(config, program, mode="fifer")


@pytest.fixture(scope="module")
def telemetry_run():
    system = _build_system()
    bus = EventBus()
    system.attach_telemetry(bus)
    sink = bus.subscribe(RecordingSink())
    sampler = bus.add_sampler(PeriodicSampler(256))
    result = system.run()
    return system, bus, sink, sampler, result


class TestEventBus:
    def test_sequence_is_strictly_increasing(self, telemetry_run):
        _, _, sink, _, _ = telemetry_run
        seqs = [e.seq for e in sink.events]
        assert all(b > a for a, b in zip(seqs, seqs[1:]))

    def test_all_layers_publish(self, telemetry_run):
        _, _, sink, _, _ = telemetry_run
        kinds = {e.kind for e in sink.events}
        for expected in ("stage.activate", "stage.deactivate",
                         "reconfig.begin", "reconfig.end", "sched.switch",
                         "pe.stall", "queue.enq", "queue.deq", "cache.miss",
                         "mem.issue", "mem.complete", "sample"):
            assert expected in kinds, f"no {expected} events published"

    def test_per_pe_event_cycles_are_ordered(self, telemetry_run):
        _, _, sink, _, _ = telemetry_run
        per_pe = {}
        for event in sink.events:
            if event.kind == "stage.activate":
                per_pe.setdefault(event.data["pe"], []).append(event.cycle)
        assert len(per_pe) == 16
        for cycles in per_pe.values():
            assert cycles == sorted(cycles)

    def test_activations_match_reconfig_counter(self, telemetry_run):
        _, _, sink, _, result = telemetry_run
        activations = [e for e in sink.events if e.kind == "stage.activate"]
        assert len(activations) == result.counters["reconfig_events"]

    def test_mem_complete_after_issue(self, telemetry_run):
        _, _, sink, _, _ = telemetry_run
        issues = [e for e in sink.events if e.kind == "mem.issue"]
        completes = [e for e in sink.events if e.kind == "mem.complete"]
        assert len(issues) == len(completes) > 0
        for issue, complete in zip(issues, completes):
            assert complete.cycle >= issue.cycle + 1

    def test_unsubscribed_bus_publishes_nothing(self):
        bus = EventBus()
        sink = RecordingSink()
        bus.subscribe(sink)
        bus.unsubscribe(sink)
        bus.emit("queue.enq", "queue:x", occupancy=1)
        assert sink.events == []
        assert not bus.active

    def test_filtered_recording_sink(self):
        bus = EventBus()
        sink = bus.subscribe(RecordingSink(kinds=("a",)))
        bus.emit("a", "s")
        bus.emit("b", "s")
        assert [e.kind for e in sink.events] == ["a"]


class TestZeroCostDisabled:
    def test_probes_default_to_none(self):
        system = _build_system(n=120, seed=3)
        assert all(pe.probe is None for pe in system.pes)
        assert all(q.probe is None for q in system.queues.values())
        assert system.llc.probe is None and system.memory.probe is None

    def test_detach_restores_uninstrumented_state(self):
        system = _build_system(n=120, seed=3)
        system.attach_telemetry(EventBus())
        assert all(pe.probe is not None for pe in system.pes)
        system.detach_telemetry()
        assert system.telemetry is None
        assert all(pe.probe is None for pe in system.pes)
        assert all(pe.l1.probe is None for pe in system.pes)
        assert all(drm.probe is None
                   for pe in system.pes for drm in pe.drms)
        assert all(q.probe is None for q in system.queues.values())
        assert system.llc.probe is None and system.memory.probe is None


class _FakeQueue:
    def __init__(self, words):
        self.occupancy_words = words


class _FakePE:
    state = "stage"

    def __init__(self):
        self.counters = Counters()


class _FakeSystem:
    def __init__(self):
        self.cycle = 0.0
        self.queues = {"q": _FakeQueue(3)}
        self.pes = [_FakePE()]


class TestSampler:
    def test_period_math_quantum_smaller_than_period(self, telemetry_run):
        _, _, _, sampler, result = telemetry_run
        # One sample per due point k*period, recorded at the first
        # quantum boundary at or after it.
        expected = math.floor(result.cycles / sampler.period) + 1
        assert len(sampler.samples) == expected
        cycles = [s["cycle"] for s in sampler.samples]
        assert cycles == sorted(cycles)
        assert len(set(cycles)) == len(cycles)

    def test_period_smaller_than_quantum_samples_once_per_tick(self):
        sampler = PeriodicSampler(1)
        fake = _FakeSystem()
        for cycle in (64.0, 128.0, 192.0):
            fake.cycle = cycle
            sampler.maybe_sample(fake)
        assert [s["cycle"] for s in sampler.samples] == [64.0, 128.0, 192.0]

    def test_skipped_due_points_collapse(self):
        sampler = PeriodicSampler(10)
        fake = _FakeSystem()
        fake.cycle = 95.0   # due points 0..90 all collapse into one sample
        sampler.maybe_sample(fake)
        fake.cycle = 96.0   # next due point is 100 -> no sample yet
        sampler.maybe_sample(fake)
        assert len(sampler.samples) == 1
        fake.cycle = 100.0
        sampler.maybe_sample(fake)
        assert len(sampler.samples) == 2

    def test_rejects_nonpositive_period(self):
        with pytest.raises(ValueError):
            PeriodicSampler(0)

    def test_sample_contents(self, telemetry_run):
        system, _, _, sampler, result = telemetry_run
        sample = sampler.samples[-1]
        assert set(sample["queues"]) == set(system.queues)
        assert all(v >= 0 for v in sample["queues"].values())
        assert len(sample["pe_state"]) == 16
        assert len(sample["cpi"]) == 16
        for stack in sample["cpi"]:
            assert set(stack) == set(CPI_BUCKETS)
            assert sum(stack.values()) == pytest.approx(sample["cycle"])

    def test_time_resolved_cpi_is_monotonic(self, telemetry_run):
        _, _, _, sampler, _ = telemetry_run
        # Cumulative issued cycles never decrease between samples.
        issued = [sum(stack["issued"] for stack in s["cpi"])
                  for s in sampler.samples]
        assert all(b >= a - 1e-9 for a, b in zip(issued, issued[1:]))


class TestChromeTrace:
    def test_schema_and_tracks(self, telemetry_run):
        _, _, sink, sampler, result = telemetry_run
        trace = chrome_trace(sink.events, result.cycles,
                             samples=sampler.samples)
        json.dumps(trace)  # must be serializable
        events = trace["traceEvents"]
        slices = [e for e in events if e["ph"] == "X"]
        assert slices, "no stage slices"
        for entry in slices:
            assert entry["ts"] >= 0 and entry["dur"] >= 0
            assert entry["ts"] + entry["dur"] <= result.cycles + 1e-6
            assert {"name", "cat", "pid", "tid"} <= set(entry)
        # One track per active PE, named via thread_name metadata.
        tids = {e["tid"] for e in slices}
        assert len(tids) == 16
        names = {e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        assert names == {f"PE {pe}" for pe in tids}
        # One counter track per queue seen by the sampler.
        counter_names = {e["name"] for e in events if e["ph"] == "C"}
        sampled_queues = set(sampler.samples[0]["queues"])
        assert counter_names == {f"queue {q}" for q in sampled_queues}

    def test_truncated_trace_clamps_spans(self):
        events = [
            TelemetryEvent(0.0, 0, "reconfig.begin", "pe0",
                           {"pe": 0, "stage": "a", "period": 10.0}),
            TelemetryEvent(10.0, 1, "stage.activate", "pe0",
                           {"pe": 0, "stage": "a", "reconfig_cycles": 10.0}),
        ]
        trace = chrome_trace(events, 5.0)
        for entry in trace["traceEvents"]:
            if entry["ph"] == "X":
                assert entry["dur"] >= 0
                assert entry["ts"] + entry["dur"] <= 5.0 + 1e-9


class TestJsonlSink:
    def test_streams_valid_json_lines(self):
        system = _build_system(n=120, seed=3)
        bus = EventBus()
        system.attach_telemetry(bus)
        stream = io.StringIO()
        sink = bus.subscribe(JsonlSink(stream))
        system.run()
        lines = stream.getvalue().splitlines()
        assert len(lines) == sink.n_events > 0
        records = [json.loads(line) for line in lines]
        for record in records:
            assert {"cycle", "seq", "kind", "source"} <= set(record)
        seqs = [r["seq"] for r in records]
        assert seqs == sorted(seqs)

    def test_formatter_matches_json_dumps_on_a_traced_run(self,
                                                          telemetry_run):
        """Every event of a sampled run, ``sample`` payloads included,
        formats exactly as ``json.dumps(..., sort_keys=True)``."""
        _, _, recording, _, _ = telemetry_run
        sink = JsonlSink(io.StringIO())
        kinds = set()
        for event in recording.events:
            assert sink.format(event) == json.dumps(event.as_dict(),
                                                    sort_keys=True)
            kinds.add(event.kind)
        assert {"sample", "queue.enq", "pe.stall", "drm.blocked"} <= kinds

    @pytest.mark.parametrize("data", [
        {"x": float("nan")}, {"x": float("inf"), "y": -float("inf")},
        {"q": 'a "quoted" \\ back\\slash\n'},
        {"text": "na\u00efve \u2603 \U0001f600", "n\u00e4me": 1},
        {"none": None, "yes": True, "no": False, "zero": -0.0},
        {"big": 10 ** 30, "small": 5e-324, "exp": 1e22},
        {"queues": {"b": 1, "a": [1.5, None]}, "cpi": [{"idle": 2.0}]},
        {"v": np.float64(0.1)},
        {"cycle": 7.0, "other": 1},  # shadows a base key
    ])
    def test_formatter_matches_json_dumps_on_synthetic_events(self, data):
        sink = JsonlSink(io.StringIO())
        for cycle in (12.5, float("nan")):
            event = TelemetryEvent(cycle, 4, "kind\u00e9", "src", data)
            # Twice: the second call reuses the cached layout.
            for _ in range(2):
                assert sink.format(event) == json.dumps(event.as_dict(),
                                                        sort_keys=True)

    @pytest.mark.parametrize("data", [{"v": np.int64(3)},
                                      {3: "non-str key"}])
    def test_formatter_raises_like_json_dumps(self, data):
        event = TelemetryEvent(1.0, 0, "k", "s", data)
        with pytest.raises(TypeError):
            json.dumps(event.as_dict(), sort_keys=True)
        with pytest.raises(TypeError):
            JsonlSink(io.StringIO()).format(event)


class TestActivationTracerSink:
    def test_detach_stops_recording(self):
        system = _build_system(n=120, seed=3)
        tracer = ActivationTracer().attach(system)
        assert system.telemetry is not None  # attach created a bus
        system.run()
        recorded = len(tracer.events)
        assert recorded > 0
        tracer.detach()
        system.telemetry.emit("stage.activate", "pe0", cycle=0.0, pe=0,
                              stage="x", reconfig_cycles=0.0)
        assert len(tracer.events) == recorded

    def test_context_manager_detaches(self):
        system = _build_system(n=120, seed=3)
        with ActivationTracer().attach(system) as tracer:
            system.run()
        assert tracer.events
        assert tracer not in system.telemetry.sinks

    def test_attach_joins_existing_bus(self):
        system = _build_system(n=120, seed=3)
        bus = EventBus()
        system.attach_telemetry(bus)
        tracer = ActivationTracer().attach(system)
        assert system.telemetry is bus and tracer in bus.sinks

    def test_residences_clamp_truncated_traces(self):
        tracer = ActivationTracer()
        tracer.record(0, "a", 0.0, 0.0)
        tracer.record(0, "b", 100.0, 0.0)  # starts after the cut-off
        spans = tracer.residences(50.0)
        assert [(s[1], s[2], s[3]) for s in spans] == [
            ("a", 0.0, 50.0), ("b", 50.0, 0.0)]

    def test_gantt_clamps_truncated_traces(self):
        tracer = ActivationTracer()
        tracer.record(0, "a", 0.0, 0.0)
        tracer.record(0, "b", 100.0, 0.0)
        chart = tracer.gantt(50.0, width=20, max_pes=1)
        row = chart.splitlines()[0]
        assert row == f"PE0  |{'A' * 20}|"


class TestCountersHelpers:
    def test_total_and_items(self):
        counters = Counters()
        counters.add("b", 2.0)
        counters.add("a", 1.0)
        assert counters.total() == pytest.approx(3.0)
        assert counters.items() == [("a", 1.0), ("b", 2.0)]

    def test_scaled_preserves_zero_semantics(self):
        counters = Counters()
        counters.add("x", 4.0)
        scaled = counters.scaled(0.5)
        assert scaled["x"] == pytest.approx(2.0)
        assert scaled["missing"] == 0.0
        assert counters["x"] == pytest.approx(4.0)  # original untouched


class TestCPIStackInvariant:
    def test_buckets_sum_to_total_cycles(self, telemetry_run):
        _, _, _, _, result = telemetry_run
        for stack in result.cpi_stacks():
            assert sum(stack.values()) == pytest.approx(result.cycles)
        merged = result.merged_cpi_stack()
        assert sum(merged.values()) == pytest.approx(result.cycles * 16)

    def test_unattributed_cycles_charge_to_idle(self):
        counters = Counters()
        counters.add("issued", 5.0)
        counters.add("reconfig", 2.0)
        stack = cpi_stack(counters, 10.0)
        assert stack["idle"] == pytest.approx(3.0)
        assert sum(stack.values()) == pytest.approx(10.0)

    def test_merge_stacks_keeps_buckets(self):
        stacks = [{"issued": 1.0}, {"idle": 2.0}]
        merged = merge_stacks(stacks)
        assert set(merged) == set(CPI_BUCKETS)
        assert sum(merged.values()) == pytest.approx(3.0)


class TestManifests:
    @pytest.fixture(scope="class")
    def manifest_dir(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("manifests")
        for seed in (1, 2):
            run_experiment("bfs", "Hu", "fifer", scale=0.12, seed=seed,
                           manifest_dir=directory)
        return directory

    def test_round_trip(self, manifest_dir):
        manifests = load_manifests(manifest_dir)
        assert len(manifests) == 2
        for manifest in manifests:
            assert manifest["schema_version"] == MANIFEST_SCHEMA_VERSION
            assert manifest["app"] == "bfs" and manifest["input"] == "Hu"
            assert manifest["cycles"] > 0
            assert manifest["wall_time_s"] > 0
            assert manifest["config"]["n_pes"] == 16
            assert sum(manifest["cpi_stack"].values()) == pytest.approx(
                manifest["cycles"] * 16)
            assert manifest["caches"]["l1"]["hits"] > 0
        assert {m["seed"] for m in manifests} == {1, 2}

    def test_collision_free_filenames(self, manifest_dir, tmp_path):
        manifest = load_manifests(manifest_dir)[0]
        first = write_manifest(manifest, tmp_path)
        second = write_manifest(manifest, tmp_path)
        assert first != second
        assert load_manifest(second) == manifest

    def test_written_bytes_are_canonical(self, manifest_dir, tmp_path):
        manifest = load_manifests(manifest_dir)[0]
        path = write_manifest(manifest, tmp_path)
        assert path.read_text() == canonical_json(manifest)
        # A non-finite value fails before any file is written.
        with pytest.raises(ValueError):
            write_manifest(dict(manifest, cycles=float("nan")),
                           tmp_path / "bad")
        assert not (tmp_path / "bad").exists()

    def test_newer_schema_rejected(self, tmp_path):
        path = tmp_path / "future.json"
        path.write_text(json.dumps(
            {"schema_version": MANIFEST_SCHEMA_VERSION + 1}))
        with pytest.raises(ValueError):
            load_manifest(path)
        path.write_text(json.dumps({"cycles": 1.0}))
        with pytest.raises(ValueError):
            load_manifest(path)

    def test_summarize_tabulates_all_runs(self, manifest_dir):
        manifests = load_manifests(manifest_dir)
        headers, rows = summarize_manifests(manifests)
        assert len(rows) == 2
        assert all(len(row) == len(headers) for row in rows)
        assert rows[0][0] == "bfs/Hu/fifer/decoupled"

    def test_ooo_manifest(self):
        result = run_experiment("bfs", "Hu", "multicore", scale=0.12)
        manifest = build_manifest(result)
        assert manifest["system"] == "multicore"
        assert manifest["instructions"] > 0
        assert "config" not in manifest  # analytic model has no SystemConfig

    def test_canonical_json_shape(self):
        text = canonical_json({"b": 1, "a": [1.5, True, None]})
        assert text == ('{\n  "a": [\n    1.5,\n    true,\n    null\n  ],\n'
                        '  "b": 1\n}\n')
        with pytest.raises(ValueError):
            canonical_json({"x": float("inf")})

    def test_run_experiment_accepts_telemetry(self):
        bus = EventBus()
        sink = bus.subscribe(RecordingSink(kinds=("stage.activate",)))
        run_experiment("bfs", "Hu", "fifer", scale=0.12, telemetry=bus)
        assert sink.events


class TestTruncatedRuns:
    """Sampler series and trace export survive runs that die early.

    Long irregular runs are exactly where one needs the telemetry, and
    exactly where deadlocks and timeouts strike mid-quantum — so the
    sampler's series must stay well-formed, the exporters must clamp to
    the actual end cycle, and the fast engine's fast-forward must
    produce the same sampled series the naive engine would.
    """

    def _truncated(self, max_cycles=512):
        system = _build_system(n=120, seed=5)
        bus = EventBus()
        system.attach_telemetry(bus)
        sink = bus.subscribe(RecordingSink())
        sampler = bus.add_sampler(PeriodicSampler(128))
        with pytest.raises(SimulationTimeout):
            system.run(max_cycles=max_cycles)
        return system, sink, sampler

    def test_timeout_sampler_series_well_formed(self):
        system, _, sampler = self._truncated()
        assert sampler.samples, "no samples before the timeout"
        cycles = [s["cycle"] for s in sampler.samples]
        assert cycles == sorted(set(cycles))
        assert cycles[-1] <= system.cycle
        for sample in sampler.samples:
            assert len(sample["pe_state"]) == 16
            assert len(sample["cpi"]) == 16

    def test_post_mortem_sample_captures_final_state(self):
        # After catching the exception, one explicit sample() gives the
        # at-death snapshot regardless of the period.
        system, _, sampler = self._truncated()
        record = sampler.sample(system)
        assert record["cycle"] == system.cycle
        assert sampler.samples[-1] is record

    def test_timeout_trace_clamps_to_end_cycle(self):
        system, sink, sampler = self._truncated()
        doc = chrome_trace(sink.events, system.cycle,
                           samples=sampler.samples)
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert slices, "truncated run exported no slices"
        for event in slices:
            assert event["ts"] >= 0.0
            assert event["ts"] + event["dur"] <= system.cycle + 1e-9
        assert doc["otherData"]["end_cycle"] == system.cycle
        json.dumps(doc)  # must serialize cleanly

    def test_jsonl_lines_complete_on_truncation(self):
        system = _build_system(n=120, seed=5)
        bus = EventBus()
        system.attach_telemetry(bus)
        stream = io.StringIO()
        sink = bus.subscribe(JsonlSink(stream, kinds=("stage.activate",
                                                      "pe.stall")))
        with pytest.raises(SimulationTimeout):
            system.run(max_cycles=512)
        sink.close()
        lines = stream.getvalue().splitlines()
        assert len(lines) == sink.n_events > 0
        for line in lines:
            event = json.loads(line)
            assert event["cycle"] <= system.cycle

    def _deadlocked(self, engine):
        from tests.test_error_reports import _CONFIG, _stuck_program
        system = System(_CONFIG, _stuck_program(), mode="fifer")
        bus = EventBus()
        system.attach_telemetry(bus)
        sink = bus.subscribe(RecordingSink(kinds=("stage.activate",
                                                  "reconfig.begin")))
        sampler = bus.add_sampler(PeriodicSampler(256))
        with pytest.raises(DeadlockError):
            system.run(engine=engine)
        return system, sink, sampler

    def test_deadlock_sampler_series_well_formed(self):
        system, sink, sampler = self._deadlocked("fast")
        cycles = [s["cycle"] for s in sampler.samples]
        assert cycles == sorted(set(cycles))
        assert cycles[-1] <= system.cycle
        doc = chrome_trace(sink.events, system.cycle,
                           samples=sampler.samples)
        for event in doc["traceEvents"]:
            if event["ph"] == "X":
                assert event["ts"] + event["dur"] <= system.cycle + 1e-9

    def test_deadlock_sampled_series_engine_identical(self):
        # The fast engine's fast-forward ticks every quantum boundary
        # when samplers are attached, so the recorded series must match
        # the naive engine's cycle for cycle.
        fast_sys, _, fast_sampler = self._deadlocked("fast")
        naive_sys, _, naive_sampler = self._deadlocked("naive")
        assert fast_sys.cycle == naive_sys.cycle
        assert fast_sampler.samples == naive_sampler.samples

"""The experiment service: spec identity, caching, dedup, byte-identity.

The load-bearing contract: the canonical manifest bytes for a spec are
identical whether the result was

* computed by the server's pool worker,
* replayed from the content-addressed result store, or
* computed locally through ``run_experiment`` (the CLI path),

for every engine. A violation would mean cached results silently
diverge from fresh ones — so the differential tests here compare exact
bytes, not parsed structures. The in-flight dedup test pins the other
acceptance criterion: two concurrent submissions of one uncached spec
run exactly one simulation.
"""

import asyncio
import json
import threading

import pytest

from repro.harness.sweep import run_point
from repro.service import (ExperimentServer, ServiceClient, ServiceError,
                           SpecError, canonicalize_spec, spec_key,
                           spec_point)
from repro.service.store import ResultStore
from repro.stats.manifest import canonical_json, strip_volatile

_SCALE = 0.05


def _spec(app="bfs", code="Hu", engine="fast", **kw):
    return {"app": app, "input_code": code, "system": "fifer",
            "scale": _SCALE, "engine": engine, **kw}


def _local_bytes(spec: dict) -> bytes:
    """The CLI-path bytes: run locally, strip volatiles, canonicalize."""
    result = run_point(spec_point(canonicalize_spec(spec)))
    return canonical_json(strip_volatile(result.to_manifest())).encode()


# -- spec canonicalization (no server) -------------------------------------


class TestSpec:
    def test_defaults_are_resolved(self):
        canonical = canonicalize_spec(
            {"app": "bfs", "input_code": "Hu", "system": "fifer"})
        assert canonical["scale"] == pytest.approx(0.35)
        assert canonical["variant"] == "decoupled"
        assert canonical["seed"] == 1
        assert canonical["engine"] == "fast"
        assert canonical["config"]["n_pes"] == 16

    def test_equivalent_specs_share_a_key(self):
        sparse = {"app": "bfs", "input_code": "Dy", "system": "fifer"}
        explicit = {"app": "bfs", "input_code": "Dy", "system": "fifer",
                    "variant": "decoupled", "scale": 1.0, "seed": 1,
                    "engine": "fast", "check": True, "config": {}}
        assert (spec_key(canonicalize_spec(sparse))
                == spec_key(canonicalize_spec(explicit)))

    def test_key_survives_json_roundtrip(self):
        canonical = canonicalize_spec(_spec(config={"n_pes": 8}))
        roundtripped = json.loads(json.dumps(canonical))
        assert spec_key(canonical) == spec_key(roundtripped)
        # and re-canonicalizing the canonical form is a fixed point
        assert canonicalize_spec(roundtripped) == canonical

    def test_distinct_coordinates_distinct_keys(self):
        base = spec_key(canonicalize_spec(_spec()))
        for change in ({"app": "cc"}, {"code": "Dy"}, {"seed": 2},
                       {"engine": "naive"}, {"config": {"n_pes": 8}}):
            app = change.pop("app", "bfs")
            code = change.pop("code", "Hu")
            other = spec_key(canonicalize_spec(
                _spec(app=app, code=code, **change)))
            assert other != base

    def test_rejects_malformed(self):
        for bad in (
                [],  # not an object
                {"app": "bfs", "input_code": "Hu"},  # missing system
                {"app": "nope", "input_code": "Hu", "system": "fifer"},
                {"app": "bfs", "input_code": "FS", "system": "fifer"},
                {"app": "bfs", "input_code": "Hu", "system": "gpu"},
                {"app": "bfs", "input_code": "Hu", "system": "fifer",
                 "engine": "warp"},
                {"app": "bfs", "input_code": "Hu", "system": "fifer",
                 "scale": -1},
                {"app": "bfs", "input_code": "Hu", "system": "fifer",
                 "turbo": True},
                {"app": "bfs", "input_code": "Hu", "system": "fifer",
                 "config": {"n_pes": -4}},
                {"app": "bfs", "input_code": "Hu", "system": "fifer",
                 "config": {"warp_speed": 9}},
        ):
            with pytest.raises(SpecError):
                canonicalize_spec(bad)

    def test_spec_point_roundtrips_config(self):
        canonical = canonicalize_spec(_spec(config={
            "n_pes": 8, "stage_speedup": [["bfs.fetch", 2.0]],
            "l1": {"size_bytes": 16384, "ways": 4, "latency": 4}}))
        point = spec_point(canonical)
        assert point.config.n_pes == 8
        assert point.config.stage_speedup == (("bfs.fetch", 2.0),)
        assert point.config.l1.size_bytes == 16384
        assert point.scale == pytest.approx(_SCALE)


# -- the result store (no server) ------------------------------------------


class TestResultStore:
    def test_roundtrip_bytes(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "ab" * 32
        assert store.get(key) is None
        data = store.put(key, {"cycles": 1.0, "wall_time_s": 9.9,
                               "created": "now"})
        assert store.get(key) == data
        # volatile keys were stripped before storing
        assert b"wall_time_s" not in data and b"created" not in data
        assert key in store
        assert store.counters == {"hits": 1, "misses": 1, "stores": 1}

    def test_corrupt_entry_is_dropped(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "cd" * 32
        store.put(key, {"cycles": 1.0})
        store.path_for(key).write_bytes(b"{broken")
        assert store.get(key) is None
        assert key not in store

    def test_rejects_malformed_keys(self, tmp_path):
        store = ResultStore(tmp_path)
        for bad in ("", "../../etc/passwd", "ABCD", "xy" * 32):
            with pytest.raises(ValueError):
                store.path_for(bad)

    def test_stats_and_gc(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("ab" * 32, {"cycles": 1.0})
        store.put("cd" * 32, {"cycles": 2.0})
        stats = store.stats()
        assert stats["entries"] == 2 and stats["bytes"] > 0
        removed = store.gc()
        assert removed["removed"] == 2
        assert store.stats()["entries"] == 0


# -- a live server ---------------------------------------------------------


class _ServerHarness:
    """ExperimentServer on a background event-loop thread."""

    def __init__(self, cache_root, workers=2):
        self.server = ExperimentServer(cache_root=cache_root, port=0,
                                       workers=workers)
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()
        asyncio.run_coroutine_threadsafe(self.server.start(),
                                         self.loop).result(timeout=30)
        self.client = ServiceClient(port=self.server.port, timeout=300)

    def _run(self):
        asyncio.set_event_loop(self.loop)
        self.loop.run_forever()

    def close(self):
        asyncio.run_coroutine_threadsafe(self.server.stop(),
                                         self.loop).result(timeout=30)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10)
        self.loop.close()


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    harness = _ServerHarness(tmp_path_factory.mktemp("service-cache"))
    yield harness
    harness.close()
    from repro.cache import configure_artifact_cache
    configure_artifact_cache(None)  # undo the server's global cache


class TestServiceEndpoints:
    def test_health(self, service):
        health = service.client.health()
        assert health["status"] == "ok"
        assert health["workers"] == 2

    def test_unknown_route_is_404(self, service):
        with pytest.raises(ServiceError) as exc:
            service.client._request_json("GET", "/nope")
        assert exc.value.status == 404

    def test_wrong_method_is_405(self, service):
        with pytest.raises(ServiceError) as exc:
            service.client._request_json("GET", "/submit")
        assert exc.value.status == 405

    def test_malformed_spec_is_400(self, service):
        for bad in ({"app": "bfs"},  # missing fields
                    {"app": "nope", "input_code": "Hu", "system": "fifer"},
                    {"app": "bfs", "input_code": "Hu", "system": "fifer",
                     "config": {"warp_speed": 9}}):
            with pytest.raises(ServiceError) as exc:
                service.client.submit(bad)
            assert exc.value.status == 400
        # a non-JSON body is also a 400, not a hang or disconnect
        status, document = next(iter(
            service.client._request_lines("POST", "/submit", b"not json")))
        assert status == 400 and "error" in document

    def test_cache_stats_shape(self, service):
        stats = service.client.cache_stats()
        assert set(stats) == {"results", "artifacts", "server"}
        assert "simulations" in stats["server"]


@pytest.mark.parametrize("app,engine", [
    ("bfs", "fast"), ("bfs", "naive"),
    ("sssp", "fast"), ("sssp", "naive"),
])
def test_differential_byte_identity(service, app, engine):
    """cold (server-computed) == warm (cache replay) == local CLI path."""
    spec = _spec(app=app, engine=engine)
    cold = service.client.submit(spec)
    warm = service.client.submit(spec)
    assert not cold.served_from_cache
    assert warm.served_from_cache
    assert cold.manifest_bytes == warm.manifest_bytes
    assert cold.manifest_bytes == _local_bytes(spec)
    # a replayed result did no simulation work
    assert warm.engine_stats is None and warm.wall_time_s is None
    # the stored bytes are exactly what both submissions saw
    assert service.server.store.get(warm.key) == warm.manifest_bytes
    # the manifest records the engine that produced it
    assert cold.manifest["engine"] == engine


def test_cold_submission_streams_phases(service):
    spec = _spec(app="cc", code="In")
    outcome = service.client.submit(spec)
    assert not outcome.served_from_cache
    assert outcome.phases == ["preparing", "compiling", "simulating",
                              "verifying"]
    assert outcome.engine_stats and outcome.engine_stats["quanta"] > 0
    assert outcome.wall_time_s > 0
    # warm replay skips the phases entirely: queued -> done
    replay = service.client.submit(spec)
    assert replay.phases == []
    assert [e["event"] for e in replay.events] == ["queued", "done"]


def test_concurrent_identical_specs_share_one_simulation(service):
    spec = _spec(app="cc", engine="fast", seed=5)
    sims_before = service.client.cache_stats()["server"]["simulations"]
    first_queued = threading.Event()
    outcomes = {}

    def submit_first():
        outcomes["first"] = service.client.submit(
            spec, on_event=lambda e: (e["event"] == "queued"
                                      and first_queued.set()))

    worker = threading.Thread(target=submit_first)
    worker.start()
    # enter the race only once the first submission holds the job slot
    assert first_queued.wait(timeout=60)
    outcomes["second"] = service.client.submit(spec)
    worker.join(timeout=300)

    stats = service.client.cache_stats()["server"]
    assert stats["simulations"] == sims_before + 1
    assert (outcomes["first"].manifest_bytes
            == outcomes["second"].manifest_bytes)
    second_queued = outcomes["second"].events[0]
    # the second either joined the in-flight job or (if the first
    # finished inside the race window) replayed its stored result —
    # both mean zero extra simulations
    assert (second_queued.get("deduped")
            or outcomes["second"].served_from_cache)


def test_failing_run_reports_structured_error(service):
    spec = _spec(variant="bogus", seed=7)
    with pytest.raises(ServiceError) as exc:
        service.client.submit(spec)
    detail = exc.value.detail
    assert detail["event"] == "error"
    assert detail["error_type"] == "ValueError"
    assert detail["traceback"]
    errors = service.client.cache_stats()["server"]["errors"]
    assert errors >= 1
    # a failed run must not poison the cache: nothing stored
    key = spec_key(canonicalize_spec(spec))
    assert service.server.store.get(key) is None


def test_cache_gc_clears_results(service):
    spec = _spec(seed=11)
    service.client.submit(spec)
    assert service.client.cache_stats()["results"]["entries"] > 0
    removed = service.client.cache_gc()
    assert removed["results"]["removed"] >= 1
    assert service.client.cache_stats()["results"]["entries"] == 0
    # the next submission recomputes and re-stores
    outcome = service.client.submit(spec)
    assert not outcome.served_from_cache
    assert outcome.manifest_bytes == _local_bytes(spec)

"""Golden suite: the BFS and CC pipelines built from their kernels.

BFS and CC are defined only as annotated kernels
(:mod:`repro.frontend.kernels`). They were ported from hand-written
pipelines, whose outputs are frozen below, recorded while both
definitions existed and were proven equal:

* per kernel, digests of the pipeline's structure on ``_demo_graph()``
  with two shards — per-stage DFG pseudo-assembly (S0–S3 and the merged
  stage), queue specs, DRM spec fields and the address-space layout;
* per run case, the cycle count plus a digest of every run statistic —
  per-PE counters, CPI stacks, L1/LLC/memory statistics and the result
  array — on the Hu input at scale 0.08.

The pipelines built from the kernels must reproduce every recorded
value. SSSP exists only as a kernel and is validated against its golden
serial reference instead.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.core import ENGINES
from repro.frontend import get_frontend
from repro.frontend.lower import _demo_graph
from repro.harness import prepare_input, run_experiment
from repro.harness.run import APP_INPUTS

_N_SHARDS = 2
_PARITY_SCALE = 0.08

#: Structural digests of the retired hand-written pipelines.
_STRUCTURE_GOLDEN = {
    "bfs": {
        "dfgs":
            "05c4a89741a187d0bb875405f103fc1918edba28af8111d4eac708df446f4bde",
        "queues":
            "3aad6b97653ff5881162318efbd7a46ead2ab9c75b3efd5203c3ee4ea9118886",
        "drms":
            "16f833934b71d74fdf7bbffa7314dda6c2ccfaef1bce46c496759fae6ffa5002",
        "layout":
            "d97d79ea18ea422570d451466928b9f61cb348b0d1c93d053e53805af5ba97d8",
    },
    "cc": {
        "dfgs":
            "d5dd29861d4139f6983c1b7ef47df7456514e2846868e8898f59e391956dd190",
        "queues":
            "80e13feeedfceb6d096b280ac18da6d532c165959156d8e9b1c28d88ef00db0a",
        "drms":
            "6c4d788aecf3f9fd0b539d4b81510a20aca7dd3273db5c9d89c67e5ee7ae0a57",
        "layout":
            "dbe53ce0e40c99b369481e2ee73e12b1be300267efbe7fb0b78fb196c39d273c",
    },
}

#: (kernel, system, variant, engine) -> (cycles, run-stats digest) of
#: the retired hand-written pipelines.
_RUN_GOLDEN = {
    ("bfs", "fifer", "decoupled", "fast"): (
        3136.0,
        "6203843bfe6ba1783dbfb2d88ce4f4f103080532146ecbef6f78e8fe16a690ea"),
    ("bfs", "fifer", "merged", "fast"): (
        7808.0,
        "18994489e8aed25f35e9f04275193645d822ba64d014e73891347f72434fc61e"),
    ("bfs", "static", "decoupled", "fast"): (
        3008.0,
        "dd37540293d7cdd9a1018e3a3e3e5a4b3e6dc5a914c75e402ef7cb11c8bdde10"),
    ("bfs", "static", "merged", "fast"): (
        11520.0,
        "224abe1e2fed63613c7dfc070a085a9063a0a3a1fb208c31f20c4976cadf27c8"),
    ("bfs", "fifer", "decoupled", "naive"): (
        3136.0,
        "6203843bfe6ba1783dbfb2d88ce4f4f103080532146ecbef6f78e8fe16a690ea"),
    ("cc", "fifer", "decoupled", "fast"): (
        3200.0,
        "1b5fba206be579997356a0c2e30e5b80713db6954377b1d3becb8c8a447de23e"),
    ("cc", "fifer", "merged", "fast"): (
        6144.0,
        "8ef3e5ce24dd4b86aa881ca49997358ee3ec72fe55b52d0006a1ae702479c352"),
    ("cc", "static", "decoupled", "fast"): (
        2496.0,
        "6cd8655827e76c3550b826ea5dba7c28dd884d679313661660ef57c913b1f9f6"),
    ("cc", "static", "merged", "fast"): (
        9024.0,
        "d0c2c55df7fd4cf83a6b7c6e3e17bd0b999c1a295e0e56c61d4158335df92447"),
    ("cc", "fifer", "decoupled", "naive"): (
        3200.0,
        "1b5fba206be579997356a0c2e30e5b80713db6954377b1d3becb8c8a447de23e"),
}


def _digest(document) -> str:
    text = json.dumps(document, sort_keys=True, allow_nan=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _structure(workload) -> dict:
    """Structural digests of one workload instance, by part."""
    shards = range(_N_SHARDS)
    builders = ("_s0_dfg", "_s1_dfg", "_s2_dfg", "_s3_dfg", "_merged_dfg")
    dfgs = [getattr(workload, builder)(shard).pseudo_assembly()
            for builder in builders for shard in shards]
    queues = [[group, qs.name, qs.entry_words, qs.weight,
               list(qs.producers), qs.control_only]
              for shard in shards
              for group, specs in workload._shard_queue_specs(shard).items()
              for qs in specs]
    # DRMSpec carries a route closure, so digest it field by field.
    drms = [[group, drm.name, drm.mode, drm.in_queue, drm.out_queue,
             list(drm.route_targets), drm.width, drm.payload]
            for shard in shards
            for group, specs in workload._shard_drm_specs(shard).items()
            for drm in specs]
    layout = [[r.name, r.base, r.size] for r in workload.space.regions()]
    return {"dfgs": _digest(dfgs), "queues": _digest(queues),
            "drms": _digest(drms), "layout": _digest(layout)}


def _run_stats(raw):
    return {
        "cycles": raw.cycles,
        "counters": [c.as_dict() for c in raw.pe_counters],
        "cpi": raw.cpi_stacks(),
        "l1": raw.l1_stats,
        "llc": raw.llc_stats,
        "mem": raw.mem_stats,
    }


def _run_record(raw) -> tuple:
    """(cycles, digest of the run statistics and the result array)."""
    stats = _run_stats(raw)
    stats["result"] = np.asarray(raw.result).tolist()
    return raw.cycles, _digest(stats)


def _workload(name):
    return get_frontend(name).workload(_demo_graph(), _N_SHARDS)


# -- structural goldens ----------------------------------------------------

@pytest.mark.parametrize("name", sorted(_STRUCTURE_GOLDEN))
def test_stage_dfgs_identical(name):
    assert _structure(_workload(name))["dfgs"] == \
        _STRUCTURE_GOLDEN[name]["dfgs"]


@pytest.mark.parametrize("name", sorted(_STRUCTURE_GOLDEN))
def test_queue_specs_identical(name):
    assert _structure(_workload(name))["queues"] == \
        _STRUCTURE_GOLDEN[name]["queues"]


@pytest.mark.parametrize("name", sorted(_STRUCTURE_GOLDEN))
def test_drm_specs_identical(name):
    assert _structure(_workload(name))["drms"] == \
        _STRUCTURE_GOLDEN[name]["drms"]


@pytest.mark.parametrize("name", sorted(_STRUCTURE_GOLDEN))
def test_address_space_layout_identical(name):
    assert _structure(_workload(name))["layout"] == \
        _STRUCTURE_GOLDEN[name]["layout"]


# -- run goldens -----------------------------------------------------------

@pytest.fixture(scope="module")
def parity_inputs():
    return {name: prepare_input(name, "Hu", scale=_PARITY_SCALE)
            for name in ("bfs", "cc", "sssp")}


def _check_golden(name, system, variant, engine, parity_inputs):
    prepared = parity_inputs[name]
    res = run_experiment(name, "Hu", system, prepared=prepared,
                         variant=variant, engine=engine)
    assert res.correct
    assert _run_record(res.raw) == _RUN_GOLDEN[name, system, variant,
                                                engine]


@pytest.mark.parametrize("name", sorted(_STRUCTURE_GOLDEN))
def test_generated_runs_bit_identical_quick(name, parity_inputs):
    """Non-slow guard: one system/variant pair stays in the default run."""
    _check_golden(name, "fifer", "decoupled", "fast", parity_inputs)


@pytest.mark.slow
@pytest.mark.parametrize("system,variant", [("fifer", "merged"),
                                            ("static", "decoupled"),
                                            ("static", "merged")])
@pytest.mark.parametrize("name", sorted(_STRUCTURE_GOLDEN))
def test_generated_runs_bit_identical(name, system, variant, parity_inputs):
    _check_golden(name, system, variant, "fast", parity_inputs)


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(_STRUCTURE_GOLDEN))
def test_generated_engines_identical(name, parity_inputs):
    _check_golden(name, "fifer", "decoupled", "naive", parity_inputs)


# -- the frontend-only workload (SSSP) ------------------------------------

def test_sssp_matches_golden(parity_inputs):
    prepared = parity_inputs["sssp"]
    res = run_experiment("sssp", "Hu", "fifer", prepared=prepared)
    assert res.correct


@pytest.mark.slow
@pytest.mark.parametrize("code", APP_INPUTS["sssp"])
def test_sssp_all_inputs(code):
    res = run_experiment("sssp", code, "fifer", scale=0.08)
    assert res.correct


@pytest.mark.slow
@pytest.mark.parametrize("system,variant", [
    ("static", "decoupled"),
    ("fifer", "merged"),
    ("serial", "decoupled"),
    ("multicore", "decoupled"),
])
def test_sssp_cross_system(system, variant, parity_inputs):
    res = run_experiment("sssp", "Hu", system,
                         prepared=parity_inputs["sssp"], variant=variant)
    assert res.correct


@pytest.mark.slow
def test_sssp_engines_identical(parity_inputs):
    prepared = parity_inputs["sssp"]
    runs = {engine: run_experiment("sssp", "Hu", "fifer", prepared=prepared,
                                   engine=engine).raw
            for engine in ENGINES}
    assert _run_stats(runs["fast"]) == _run_stats(runs["naive"])
    assert np.array_equal(runs["fast"].result, runs["naive"].result)

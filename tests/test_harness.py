"""Tests for the experiment harness and configuration plumbing."""

import dataclasses

import numpy as np
import pytest

from repro.config import SystemConfig, FabricConfig
from repro.harness import prepare_input, run_experiment, speedup_table
from repro.harness.run import APP_INPUTS, default_scale, _check


class TestConfig:
    def test_defaults_match_table2(self):
        config = SystemConfig()
        assert config.n_pes == 16
        assert config.l1.size_bytes == 32 * 1024
        assert config.l1.ways == 8 and config.l1.latency == 4
        assert config.llc_per_pe_bytes == 512 * 1024
        assert config.llc_latency == 40
        assert config.memory.latency == 120
        assert config.queue_mem_bytes == 16 * 1024
        assert config.max_queues_per_pe == 16

    def test_fabric_matches_paper(self):
        fabric = FabricConfig()
        assert fabric.cols * fabric.rows == 80       # 16x5 FUs
        assert fabric.fma_units == 4
        assert fabric.config_chunks == 6             # ~360 B / 64 B
        assert fabric.activation_cycles == 2

    def test_replace_is_pure(self):
        base = SystemConfig()
        other = base.replace(queue_mem_bytes=4096)
        assert other.queue_mem_bytes == 4096
        assert base.queue_mem_bytes == 16 * 1024
        assert dataclasses.is_dataclass(other)

    def test_llc_aggregate(self):
        config = SystemConfig()
        assert config.llc.size_bytes == 16 * 512 * 1024


class TestHarnessPlumbing:
    def test_registered_inputs(self):
        assert set(APP_INPUTS) == {"bfs", "cc", "prd", "radii", "sssp",
                                   "spmm", "silo"}
        assert all(len(v) >= 1 for v in APP_INPUTS.values())

    def test_default_scales(self):
        # Low-degree, high-diameter inputs get larger scales.
        assert default_scale("bfs", "Dy") > default_scale("bfs", "Hu")
        assert default_scale("spmm", "FS") == default_scale("spmm", "St")

    def test_unknown_app_rejected(self):
        with pytest.raises(ValueError):
            prepare_input("sorting", "Hu")

    @pytest.mark.parametrize("app,code", [("bfs", "FS"), ("spmm", "Hu"),
                                          ("silo", "Hu")])
    def test_unknown_input_rejected(self, app, code):
        message = (f"unknown input {code!r} for {app}; choose from "
                   f"{', '.join(APP_INPUTS[app])}")
        with pytest.raises(ValueError) as excinfo:
            prepare_input(app, code)
        assert str(excinfo.value) == message
        # Before any simulation, so no result carries the bad label.
        with pytest.raises(ValueError, match="unknown input"):
            run_experiment(app, code, "serial")

    @pytest.mark.parametrize("app,code,scale", [
        ("bfs", "Hu", 0.0001),      # power law: int(3000 * scale) == 0
        ("cc", "In", 0.0002),
        ("cc", "Dy", 0.0001),       # uniform
        ("sssp", "Ci", 0.0001),
        ("cc", "Rd", 0.00009),      # grid: int(100 * scale ** 0.5) == 0
    ])
    def test_scale_without_a_vertex_rejected(self, app, code, scale):
        message = (f"scale must give input {code} at least one vertex, "
                   f"got {scale}")
        with pytest.raises(ValueError) as excinfo:
            prepare_input(app, code, scale=scale)
        assert str(excinfo.value) == message
        with pytest.raises(ValueError, match="at least one vertex"):
            run_experiment(app, code, "serial", scale=scale)

    @pytest.mark.parametrize("app,code,scale", [("bfs", "Hu", 0.0005),
                                                ("radii", "Rd", 0.0001)])
    def test_one_vertex_scale_still_runs(self, app, code, scale):
        assert prepare_input(app, code, scale=scale).data.n_vertices == 1
        assert run_experiment(app, code, "fifer", scale=scale).correct

    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError):
            run_experiment("bfs", "Hu", "tpu")

    def test_speedup_table(self):
        class R:
            def __init__(self, cycles):
                self.cycles = cycles

        table = speedup_table({"multicore": R(100.0), "fifer": R(25.0)})
        assert table["fifer"] == pytest.approx(4.0)
        assert table["multicore"] == pytest.approx(1.0)

    def test_check_exact_for_int_apps(self):
        golden = np.array([1, 2, 3])
        assert _check("bfs", np.array([1, 2, 3]), golden)
        assert not _check("bfs", np.array([1, 2, 4]), golden)

    def test_check_tolerant_for_prd(self):
        # PRD tolerance scales as ~1/n (threshold-crossing wiggle room).
        golden = np.full(200, 0.005)
        assert _check("prd", golden + 1e-9, golden)
        assert not _check("prd", golden + 1.0, golden)

    def test_check_spmm_requires_same_coordinates(self):
        golden = {(0, 1): 2.0}
        assert _check("spmm", {(0, 1): 2.0}, golden)
        assert not _check("spmm", {(0, 2): 2.0}, golden)
        assert not _check("spmm", {}, golden)

    def test_mismatch_raises(self, monkeypatch):
        prepared = prepare_input("bfs", "Hu", scale=0.1)
        poisoned = dataclasses.replace(
            prepared, golden=prepared.golden + 1)
        with pytest.raises(AssertionError):
            run_experiment("bfs", "Hu", "fifer", prepared=poisoned)

    def test_ooo_config_override(self):
        from repro.config import OOOConfig
        prepared = prepare_input("bfs", "Hu", scale=0.1)
        fast = run_experiment("bfs", "Hu", "serial", prepared=prepared,
                              ooo_config=OOOConfig(effective_ipc=6.0))
        slow = run_experiment("bfs", "Hu", "serial", prepared=prepared,
                              ooo_config=OOOConfig(effective_ipc=0.5))
        assert fast.cycles < slow.cycles

    def test_silo_config_gets_4kb_queues(self):
        prepared = prepare_input("silo", "YC")
        result = run_experiment("silo", "YC", "fifer", prepared=prepared)
        assert result.raw.config.queue_mem_bytes == 4 * 1024

"""Unit tests for GraphPipelineWorkload internals (fringe buffers,
barrier stepping, scan ranges, program assembly)."""

import pytest

from repro.config import SystemConfig
from repro.datasets.graphs import power_law_graph
from repro.frontend import get_frontend
from repro.workloads.common import shard_of


@pytest.fixture
def workload():
    graph = power_law_graph(100, 4.0, seed=40)
    return get_frontend("bfs").workload(graph, 4)


class TestFringeBuffers:
    def test_initial_fringe_recorded(self, workload):
        shard = shard_of(0, 4)
        assert workload._write_count[shard] == 1
        assert workload._fringe_arrays[shard][0][0] == 0

    def test_append_returns_written_address(self, workload):
        addr = workload._append_touched(1, 17)
        slot = 1 if 1 == shard_of(0, 4) else 0
        assert addr == workload._fringe_refs[1][0].addr(slot)
        written = workload._write_count[1] - 1
        assert workload._fringe_arrays[1][0][written] == 17

    def test_barrier_swaps_buffers(self, workload):
        before = list(workload._write_half)
        directives = workload.barrier_step(0)
        assert directives is not None
        # Every shard's write half flipped; counts reset.
        assert workload._write_half == [h ^ 1 for h in before]
        assert workload._write_count == [0] * 4
        # The dispatched (count, half) points at the data written before.
        shard = shard_of(0, 4)
        count, half = directives[shard]
        assert count == 1 and half == before[shard]

    def test_barrier_returns_none_when_empty(self, workload):
        workload.barrier_step(0)       # consumes the initial fringe
        assert workload.barrier_step(1) is None

    def test_iteration_cap(self):
        graph = power_law_graph(100, 4.0, seed=41)
        workload = get_frontend("bfs").workload(graph, 4)
        workload.max_iterations = 1
        assert workload.barrier_step(0) is not None
        workload._append_touched(0, 5)  # pretend S3 found work
        assert workload.barrier_step(1) is None  # capped

    def test_scan_range_covers_count_words(self, workload):
        base, end = workload.fringe_scan_range(2, 0, 7)
        assert base == workload._fringe_refs[2][0].addr(0)
        assert end - base == 7 * 8


class TestProgramAssembly:
    def test_fifer_layout_one_pipeline_per_pe(self, workload):
        config = SystemConfig(n_pes=4)
        program = workload.build_program(config, "fifer")
        assert program.n_pes == 4
        for pe_program in program.pe_programs:
            assert len(pe_program.stage_specs) == 4
            assert len(pe_program.drm_specs) == 4
            assert len(pe_program.queue_specs) == 9

    def test_static_layout_one_stage_per_pe(self):
        graph = power_law_graph(100, 4.0, seed=42)
        workload = get_frontend("bfs").workload(graph, 4)
        config = SystemConfig(n_pes=16)
        program = workload.build_program(config, "static")
        assert program.n_pes == 16
        for pe_program in program.pe_programs:
            assert len(pe_program.stage_specs) == 1
        # 4 shards x 4 stages; shard ids repeat every 4 PEs.
        shards = [p.shard for p in program.pe_programs]
        assert shards == [s for s in range(4) for _ in range(4)]

    def test_shard_mismatch_rejected(self, workload):
        config = SystemConfig(n_pes=16)
        with pytest.raises(ValueError):
            workload.build_program(config, "fifer")  # built for 4 shards

    def test_queue_names_globally_unique(self, workload):
        config = SystemConfig(n_pes=4)
        program = workload.build_program(config, "fifer")
        names = [spec.name for pe in program.pe_programs
                 for spec in pe.queue_specs]
        assert len(names) == len(set(names))

    def test_inbox_producers_cover_all_shards(self, workload):
        config = SystemConfig(n_pes=4)
        program = workload.build_program(config, "fifer")
        inbox = next(spec for pe in program.pe_programs
                     for spec in pe.queue_specs
                     if spec.name == "bfs.inbox@0")
        assert len(inbox.producers) == 4
        assert all("drm_val" in p for p in inbox.producers)

    def test_dfgs_reference_real_queue_names(self, workload):
        config = SystemConfig(n_pes=4)
        program = workload.build_program(config, "fifer")
        declared = {spec.name for pe in program.pe_programs
                    for spec in pe.queue_specs}
        for pe_program in program.pe_programs:
            for stage in pe_program.stage_specs:
                for queue in stage.dfg.input_queues():
                    assert queue in declared, queue

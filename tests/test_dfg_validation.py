"""Hardened structural validation of stage dataflow graphs.

Locks down the checks the front-end's lowering pass relies on: strict
``validate`` rejects dangling nodes, ``set_reg_input`` rejects
multiply-driven registers, and :func:`repro.ir.dfg.check_queue_wiring`
rejects ENQ/DEQ queue-name mismatches — each with an error naming the
offending node and stage. Finally, every stage DFG of every workload
(hand-written PRD and Radii, and the generated BFS, CC and SSSP;
decoupled and merged) must pass the strict checks.
"""

import pytest

from repro.frontend import FRONTEND_KERNELS, get_frontend
from repro.frontend.lower import _demo_graph
from repro.ir import DFGBuilder
from repro.ir.dfg import DFGError, check_queue_wiring
from repro.workloads.prdelta import PRDeltaWorkload
from repro.workloads.radii import RadiiWorkload


# -- strict validate: dangling nodes ---------------------------------------

def _dangling_graph():
    b = DFGBuilder("stage.x")
    v = b.deq("in")
    one = b.const(1)
    b.add(v, one)             # result never consumed
    b.enq("out", v)
    return b


def test_strict_validate_rejects_dangling_node():
    with pytest.raises(DFGError, match="dangling node") as exc:
        _dangling_graph().finish(strict=True)
    message = str(exc.value)
    assert "stage.x" in message       # names the stage
    assert "add" in message           # names the node


def test_default_validate_allows_dangling_node():
    dfg = _dangling_graph().finish()
    assert dfg.n_compute_ops == 2


def test_strict_validate_allows_sink_kinds():
    # Comparisons, CTRL, stores, and written-only registers are
    # legitimate sinks even under strict validation.
    b = DFGBuilder("stage.sinks")
    v = b.deq("in")
    b.lt(v, b.const(0))
    b.ctrl(v)
    b.store(b.lea(b.const(0x100), v), v)
    reg = b.reg("carry")
    b.set_reg(reg, v)
    b.finish(strict=True)


def test_validate_rejects_empty_graph():
    with pytest.raises(DFGError, match="empty"):
        DFGBuilder("stage.empty").finish()


# -- multiply-driven registers ---------------------------------------------

def test_multiply_driven_register_rejected():
    b = DFGBuilder("stage.reg")
    reg = b.reg("count")
    one = b.const(1)
    nxt = b.add(reg, one)
    b.set_reg(reg, nxt)
    with pytest.raises(DFGError, match="multiply driven") as exc:
        b.set_reg(reg, one)
    message = str(exc.value)
    assert "stage.reg" in message
    assert "count" in message


def test_set_reg_input_rejects_non_reg():
    b = DFGBuilder("stage.reg2")
    one = b.const(1)
    two = b.const(2)
    with pytest.raises(DFGError, match="not a REG node"):
        b.set_reg(one, two)


# -- queue wiring ----------------------------------------------------------

def _stage(name, in_queue, out_queue):
    b = DFGBuilder(name)
    v = b.deq(in_queue)
    b.enq(out_queue, v)
    return b.finish()


def test_wiring_rejects_undeclared_enq():
    stage = _stage("stage.a", "in", "typo_out")
    with pytest.raises(DFGError, match="undeclared queue") as exc:
        check_queue_wiring([stage], declared={"in"}, external={"in"})
    message = str(exc.value)
    assert "stage.a" in message
    assert "typo_out" in message


def test_wiring_rejects_undeclared_deq():
    stage = _stage("stage.b", "typo_in", "out")
    with pytest.raises(DFGError, match="undeclared queue") as exc:
        check_queue_wiring([stage], declared={"out"}, external={"out"})
    assert "typo_in" in str(exc.value)


def test_wiring_rejects_queue_nobody_produces():
    stage = _stage("stage.c", "orphan", "out")
    with pytest.raises(DFGError,
                       match="which no stage or DRM produces") as exc:
        check_queue_wiring([stage], declared={"orphan", "out"},
                           external={"out"})
    message = str(exc.value)
    assert "stage.c" in message
    assert "orphan" in message


def test_wiring_rejects_queue_nobody_consumes():
    stage = _stage("stage.d", "in", "dead_end")
    with pytest.raises(DFGError,
                       match="which no stage or DRM consumes") as exc:
        check_queue_wiring([stage], declared={"in", "dead_end"},
                           external={"in"})
    assert "dead_end" in str(exc.value)


def test_wiring_accepts_drm_and_external_endpoints():
    stage = _stage("stage.e", "from_drm", "to_drm")
    check_queue_wiring([stage], declared={"from_drm", "to_drm"},
                       drm_consumed={"to_drm"}, drm_produced={"from_drm"})
    chain = [_stage("stage.f", "iter", "hop"),
             _stage("stage.g", "hop", "barrier")]
    check_queue_wiring(chain, declared={"iter", "hop", "barrier"},
                       external={"iter", "barrier"})


# -- every workload stage passes strict validation -------------------------

_WORKLOADS = {
    "bfs": lambda g: get_frontend("bfs").workload(g, 2),
    "cc": lambda g: get_frontend("cc").workload(g, 2),
    "prd": lambda g: PRDeltaWorkload(g, 2),
    "radii": lambda g: RadiiWorkload(g, 2),
    "sssp": lambda g: get_frontend("sssp").workload(g, 2),
}


@pytest.mark.parametrize("name", sorted(_WORKLOADS))
def test_all_stage_dfgs_strictly_valid(name):
    workload = _WORKLOADS[name](_demo_graph())
    for builder in ("_s0_dfg", "_s1_dfg", "_s2_dfg", "_s3_dfg",
                    "_merged_dfg"):
        for shard in range(2):
            dfg = getattr(workload, builder)(shard)
            dfg.validate(strict=True)


@pytest.mark.parametrize("name", sorted(FRONTEND_KERNELS))
def test_generated_programs_pass_wiring_check(name):
    # FrontendWorkload.build_program runs check_queue_wiring itself;
    # building for both variants exercises it on real programs.
    from repro.config import SystemConfig
    pipeline = get_frontend(name)
    for variant in ("decoupled", "merged"):
        program, _ = pipeline.build(_demo_graph(), SystemConfig(), "fifer",
                                    variant)
        assert program.pe_programs

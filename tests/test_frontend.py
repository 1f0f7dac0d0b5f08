"""Unit tests for the decoupling front-end (paper Sec. 4).

Covers the three front-end layers in isolation: the kernel-description
DSL (:mod:`repro.frontend.kernel`), the split analysis with its
liveness-derived calling convention (:mod:`repro.frontend.split`), and
the pipeline linter (:mod:`repro.frontend.lint`). The *lowered*
pipelines are checked end to end against the recorded outputs of the
retired hand-written ones in ``test_frontend_parity.py``.
"""

import numpy as np
import pytest

from repro.frontend import (FRONTEND_KERNELS, FrontendError, GraphKernel,
                            PipelineLintError, analyze, compile_kernel,
                            get_frontend)
from repro.frontend.kernels import bfs_kernel, cc_kernel, sssp_kernel
from repro.frontend.lint import (check_feed_forward, compute_edgy,
                                 compute_levels)
from repro.frontend.lower import _demo_graph
from repro.frontend.split import QueueEdge


def _zeros(graph, params):
    return np.zeros(graph.n_vertices, dtype=np.int64)


def _edge_ones(graph, params):
    return np.ones(max(1, graph.n_edges), dtype=np.int64)


def _toy_kernel(name="toy"):
    """A legal BFS-shaped kernel used as the mutation base below."""
    k = GraphKernel(name)
    dist = k.state("dist", init=_zeros, output=True)
    v = k.vertex()
    start = k.load(k.offsets, v)
    end = k.load(k.offsets, v + 1)
    with k.edges(start, end) as e:
        ngh = k.load(k.neighbors, e)
        dv = k.load(dist, ngh, owner=True)
        with k.when(dv < 0):
            k.store(dist, ngh, k.epoch())
            k.push(ngh)
    return k


# -- kernel DSL ------------------------------------------------------------

class TestKernelDSL:
    def test_toy_kernel_analyzes(self):
        plan = analyze(_toy_kernel())
        assert plan.vertex_fetch_words == 0
        assert plan.edge_fetch_words == 1
        assert plan.uses_epoch

    def test_value_bool_raises(self):
        k = GraphKernel("k")
        v = k.vertex()
        with pytest.raises(FrontendError, match=r"when"):
            if v < 1:
                pass

    def test_values_are_not_hashable(self):
        k = GraphKernel("k")
        with pytest.raises(TypeError):
            {k.vertex(): 1}

    def test_eq_builds_expression(self):
        k = GraphKernel("k")
        expr = k.vertex() == 3
        assert expr.op == "eq"

    def test_reverse_operand_sugar(self):
        k = GraphKernel("k")
        v = k.vertex()
        assert (1 + v).op == "add"
        assert (10 - v).op == "sub"
        assert (v > 2).op == "lt"          # swapped lt
        assert (v > 2).args[0].attr == 2

    def test_cross_kernel_values_rejected(self):
        a, b = GraphKernel("a"), GraphKernel("b")
        with pytest.raises(FrontendError, match="belongs to kernel"):
            a.vertex() + b.vertex()

    def test_non_number_mixing_rejected(self):
        k = GraphKernel("k")
        with pytest.raises(FrontendError, match="cannot mix"):
            k.vertex() + "three"

    def test_state_requires_init(self):
        k = GraphKernel("k")
        with pytest.raises(FrontendError, match="init"):
            k.state("x")

    def test_duplicate_state_rejected(self):
        k = GraphKernel("k")
        k.state("x", init=_zeros)
        with pytest.raises(FrontendError, match="declared twice"):
            k.state("x", init=_zeros)

    def test_builtin_shadowing_rejected(self):
        k = GraphKernel("k")
        with pytest.raises(FrontendError, match="built-in"):
            k.state("offsets", init=_zeros)

    def test_unknown_state_size_rejected(self):
        k = GraphKernel("k")
        with pytest.raises(FrontendError, match="unknown size"):
            k.state("x", size="bytes", init=_zeros)

    def test_start_from_validates(self):
        k = GraphKernel("k")
        with pytest.raises(FrontendError, match="no such param"):
            k.start_from("source", "missing")
        with pytest.raises(FrontendError, match="fringe kind"):
            k.start_from("everything")

    def test_owner_load_requires_mutable_ref(self):
        k = GraphKernel("k")
        weights = k.state("w", size="edges", mutable=False, init=_edge_ones)
        with pytest.raises(FrontendError, match="mutable"):
            k.load(weights, k.vertex(), owner=True)

    def test_only_one_edge_loop(self):
        k = _toy_kernel()
        with pytest.raises(FrontendError, match="one edge loop"):
            with k.edges(k.const(0), k.const(1)):
                pass

    def test_push_requires_value(self):
        k = GraphKernel("k")
        with pytest.raises(FrontendError, match="push"):
            k.push(3)

    def test_load_requires_ref(self):
        k = GraphKernel("k")
        with pytest.raises(FrontendError, match="not a declared ref"):
            k.load("dist", k.vertex())

    def test_get_ref(self):
        k = _toy_kernel()
        assert k.get_ref("offsets") is k.offsets
        assert k.get_ref("dist").name == "dist"
        with pytest.raises(KeyError):
            k.get_ref("nope")


# -- level / edge-dependence analysis --------------------------------------

class TestAnalysis:
    def test_levels_match_skeleton_cuts(self):
        k = _toy_kernel()
        level = compute_levels(k)
        plan = analyze(k)
        assert level[plan.bounds[0].vid] == 1
        assert level[plan.route_load.vid] == 2
        assert level[plan.owner_load.vid] == 3
        assert level[k._vertex.vid] == 0

    def test_edgy_reachability(self):
        k = _toy_kernel()
        edgy = compute_edgy(k)
        plan = analyze(k)
        assert edgy[k._edge_var.vid]
        assert edgy[plan.route_load.vid]
        assert not edgy[k._vertex.vid]
        assert not edgy[plan.bounds[0].vid]

    def test_bfs_plan_shape(self):
        plan = analyze(bfs_kernel())
        assert plan.p0 is None
        assert plan.s2_value is None
        assert plan.uses_epoch
        assert not plan.needs_dedup
        assert plan.owner_load.attr.ref.name == "distances"

    def test_cc_plan_shape(self):
        plan = analyze(cc_kernel())
        assert plan.p0 is not None
        assert plan.s2_value is None
        assert plan.s3_payload is plan.p0
        assert plan.needs_dedup
        assert plan.vertex_fetch_words == 1

    def test_sssp_plan_shape(self):
        plan = analyze(sssp_kernel())
        assert plan.p0 is not None
        assert plan.s2_value is not None
        assert plan.s3_payload is plan.s2_value
        assert plan.edge_fetch_words == 2
        assert plan.owner_load.attr.ref.name == "dist"


# -- split/lint rejections -------------------------------------------------

class TestRejections:
    def test_illegal_back_edge_named(self):
        """A store to an array an earlier stage reads must be rejected,
        naming both the store and the conflicting load (required by the
        acceptance criteria)."""
        k = GraphKernel("backedge")
        vals = k.state("vals", init=_zeros)
        dist = k.state("dist", init=_zeros, output=True)
        v = k.vertex()
        x = k.load(vals, v)
        start = k.load(k.offsets, v)
        end = k.load(k.offsets, v + 1)
        with k.edges(start, end) as e:
            ngh = k.load(k.neighbors, e)
            dv = k.load(dist, ngh, owner=True)
            with k.when(dv < x):
                k.store(vals, ngh, x)
                k.push(ngh)
        with pytest.raises(PipelineLintError,
                           match=r"illegal back-edge") as exc:
            analyze(k)
        message = str(exc.value)
        assert "store#0(vals)" in message
        assert "load(vals)" in message
        assert "S0/S1" in message

    def test_edge_escape_named(self):
        """A value defined inside the edge loop used outside it is not
        live across its cut (required by the acceptance criteria)."""
        k = GraphKernel("escape")
        dist = k.state("dist", init=_zeros, output=True)
        v = k.vertex()
        start = k.load(k.offsets, v)
        end = k.load(k.offsets, v + 1)
        with k.edges(start, end) as e:
            ngh = k.load(k.neighbors, e)
            dv = k.load(dist, ngh, owner=True)
            with k.when(dv < 0):
                k.store(dist, ngh, 0)
                k.push(ngh)
        k.store(dist, v, ngh)  # edge-loop value escaping the loop
        with pytest.raises(PipelineLintError,
                           match="not live across its cut") as exc:
            analyze(k)
        assert "load(neighbors)" in str(exc.value)

    def test_s3_liveness_rejects_unrouted_value(self):
        """An update-stage expression may only use what crosses the
        cross-shard hop (routed neighbor id + one payload word)."""
        k = GraphKernel("hop")
        vals = k.state("vals", init=_zeros)
        weights = k.state("w", size="edges", mutable=False, init=_edge_ones)
        dist = k.state("dist", init=_zeros, output=True)
        v = k.vertex()
        label = k.load(vals, v)
        start = k.load(k.offsets, v)
        end = k.load(k.offsets, v + 1)
        with k.edges(start, end) as e:
            ngh = k.load(k.neighbors, e)
            w = k.load(weights, e)
            cand = label + w            # the hop payload
            dv = k.load(dist, ngh, owner=True)
            with k.when(cand < dv):
                k.store(dist, ngh, label)   # label itself did not cross
                k.push(ngh)
        with pytest.raises(PipelineLintError,
                           match="not live across the cross-shard hop"):
            analyze(k)

    def test_no_loads_rejected(self):
        k = GraphKernel("empty")
        dist = k.state("dist", init=_zeros)
        k.store(dist, k.vertex(), 0)
        with pytest.raises(FrontendError, match="no long-latency loads"):
            analyze(k)

    def test_no_edge_loop_rejected(self):
        k = GraphKernel("noloop")
        dist = k.state("dist", init=_zeros)
        k.load(dist, k.vertex())
        with pytest.raises(FrontendError, match="no edges"):
            analyze(k)

    def test_no_owner_load_rejected(self):
        k = GraphKernel("noowner")
        dist = k.state("dist", init=_zeros)
        v = k.vertex()
        start = k.load(k.offsets, v)
        end = k.load(k.offsets, v + 1)
        with k.edges(start, end) as e:
            ngh = k.load(k.neighbors, e)
            k.store(dist, ngh, 0)
        with pytest.raises(FrontendError, match="no owner load"):
            analyze(k)

    def test_two_owner_loads_rejected(self):
        k = GraphKernel("twoowner")
        dist = k.state("dist", init=_zeros)
        v = k.vertex()
        start = k.load(k.offsets, v)
        end = k.load(k.offsets, v + 1)
        with k.edges(start, end) as e:
            ngh = k.load(k.neighbors, e)
            k.load(dist, ngh, owner=True)
            k.load(dist, ngh, owner=True)
            k.store(dist, ngh, 0)
        with pytest.raises(FrontendError, match="one owner-routed load"):
            analyze(k)

    def test_bad_edge_bounds_rejected(self):
        k = GraphKernel("bounds")
        dist = k.state("dist", init=_zeros)
        v = k.vertex()
        start = k.load(k.offsets, v)
        end = k.load(k.offsets, v + 2)     # not offsets[v + 1]
        with k.edges(start, end) as e:
            ngh = k.load(k.neighbors, e)
            dv = k.load(dist, ngh, owner=True)
            with k.when(dv < 0):
                k.store(dist, ngh, 0)
        with pytest.raises(FrontendError, match=r"offsets\[vertex\(\) \+ 1\]"):
            analyze(k)

    def test_vertex_fetch_inside_loop_rejected(self):
        k = GraphKernel("hoist")
        vals = k.state("vals", init=_zeros)
        dist = k.state("dist", init=_zeros, output=True)
        v = k.vertex()
        start = k.load(k.offsets, v)
        end = k.load(k.offsets, v + 1)
        with k.edges(start, end) as e:
            ngh = k.load(k.neighbors, e)
            x = k.load(vals, v)            # vertex fetch issued per edge
            dv = k.load(dist, ngh, owner=True)
            with k.when(x < dv):
                k.store(dist, ngh, x)
                k.push(ngh)
        with pytest.raises(FrontendError, match="hoist it out"):
            analyze(k)

    def test_indirect_edge_extra_rejected(self):
        k = GraphKernel("indirect")
        weights = k.state("w", size="edges", mutable=False, init=_edge_ones)
        dist = k.state("dist", init=_zeros, output=True)
        v = k.vertex()
        start = k.load(k.offsets, v)
        end = k.load(k.offsets, v + 1)
        with k.edges(start, end) as e:
            ngh = k.load(k.neighbors, e)
            w = k.load(weights, e + 0)     # not indexed directly by e
            dv = k.load(dist, ngh, owner=True)
            with k.when(w < dv):
                k.store(dist, ngh, w)
                k.push(ngh)
        with pytest.raises(FrontendError, match="indexed directly"):
            analyze(k)

    def test_too_deep_load_rejected(self):
        k = GraphKernel("deep")
        vals = k.state("vals", init=_zeros)
        dist = k.state("dist", init=_zeros, output=True)
        v = k.vertex()
        start = k.load(k.offsets, v)
        end = k.load(k.offsets, v + 1)
        with k.edges(start, end) as e:
            ngh = k.load(k.neighbors, e)
            dv = k.load(dist, ngh, owner=True)
            x = k.load(vals, dv)           # depth 4: indexed by fetched value
            with k.when(x < 0):
                k.store(dist, ngh, 0)
        with pytest.raises(FrontendError, match="cut depth 4"):
            analyze(k)

    def test_two_payload_candidates_rejected(self):
        k = GraphKernel("twopay")
        va = k.state("va", init=_zeros)
        vb = k.state("vb", init=_zeros)
        dist = k.state("dist", init=_zeros, output=True)
        v = k.vertex()
        a = k.load(va, v)
        b = k.load(vb, v)
        start = k.load(k.offsets, v)
        end = k.load(k.offsets, v + 1)
        with k.edges(start, end) as e:
            ngh = k.load(k.neighbors, e)
            dv = k.load(dist, ngh, owner=True)
            with k.when(b < dv):
                k.store(dist, ngh, a)
                k.push(ngh)
        with pytest.raises(FrontendError, match="fold them into a single"):
            analyze(k)

    def test_nested_when_rejected(self):
        k = GraphKernel("nested")
        dist = k.state("dist", init=_zeros, output=True)
        v = k.vertex()
        start = k.load(k.offsets, v)
        end = k.load(k.offsets, v + 1)
        with k.edges(start, end) as e:
            ngh = k.load(k.neighbors, e)
            dv = k.load(dist, ngh, owner=True)
            with k.when(dv < 0):
                with k.when(dv < -1):
                    k.store(dist, ngh, 0)
        with pytest.raises(FrontendError, match="nested when"):
            analyze(k)

    def test_mixed_predication_rejected(self):
        k = GraphKernel("mixed")
        dist = k.state("dist", init=_zeros, output=True)
        v = k.vertex()
        start = k.load(k.offsets, v)
        end = k.load(k.offsets, v + 1)
        with k.edges(start, end) as e:
            ngh = k.load(k.neighbors, e)
            dv = k.load(dist, ngh, owner=True)
            with k.when(dv < 0):
                k.store(dist, ngh, 0)
            k.push(ngh)                    # unpredicated
        with pytest.raises(FrontendError, match="predicated differently"):
            analyze(k)

    def test_vertex_context_side_effect_rejected(self):
        k = GraphKernel("vctx")
        dist = k.state("dist", init=_zeros, output=True)
        v = k.vertex()
        k.store(dist, v, 7)                # outside the edge loop
        start = k.load(k.offsets, v)
        end = k.load(k.offsets, v + 1)
        with k.edges(start, end) as e:
            ngh = k.load(k.neighbors, e)
            dv = k.load(dist, ngh, owner=True)
            with k.when(dv < 0):
                k.store(dist, ngh, 0)
        with pytest.raises(FrontendError, match="vertex-context"):
            analyze(k)

    def test_store_without_route_index_rejected(self):
        k = GraphKernel("badidx")
        dist = k.state("dist", init=_zeros, output=True)
        v = k.vertex()
        start = k.load(k.offsets, v)
        end = k.load(k.offsets, v + 1)
        with k.edges(start, end) as e:
            ngh = k.load(k.neighbors, e)
            dv = k.load(dist, ngh, owner=True)
            with k.when(dv < 0):
                k.store(dist, v, 0)        # not the routed neighbor
        with pytest.raises(FrontendError, match="owner-routed vertex"):
            analyze(k)

    def test_push_of_non_route_rejected(self):
        k = GraphKernel("badpush")
        dist = k.state("dist", init=_zeros, output=True)
        v = k.vertex()
        start = k.load(k.offsets, v)
        end = k.load(k.offsets, v + 1)
        with k.edges(start, end) as e:
            ngh = k.load(k.neighbors, e)
            dv = k.load(dist, ngh, owner=True)
            with k.when(dv < 0):
                k.store(dist, ngh, 0)
                k.push(v)                  # not the routed neighbor
        with pytest.raises(FrontendError, match="routed neighbor id"):
            analyze(k)

    def test_update_without_store_rejected(self):
        k = GraphKernel("nostore")
        dist = k.state("dist", init=_zeros, output=True)
        v = k.vertex()
        start = k.load(k.offsets, v)
        end = k.load(k.offsets, v + 1)
        with k.edges(start, end) as e:
            ngh = k.load(k.neighbors, e)
            dv = k.load(dist, ngh, owner=True)
            with k.when(dv < 0):
                k.push(ngh)
        with pytest.raises(FrontendError, match="at least one store"):
            analyze(k)


# -- feed-forward proof ----------------------------------------------------

class TestFeedForward:
    def test_generated_queue_graphs_pass(self):
        for factory in FRONTEND_KERNELS.values():
            plan = analyze(factory())
            check_feed_forward(plan.kernel.name, plan.queue_graph())

    def test_backwards_data_edge_rejected(self):
        bad = QueueEdge("loop", "S2:fetch", "S1:enum", 2, 1, 1)
        with pytest.raises(PipelineLintError, match="flows backwards"):
            check_feed_forward("k", [bad])

    def test_stray_control_edge_rejected(self):
        bad = QueueEdge("loop", "S3:update", "S0:fringe", 3, 0, 1,
                        control=True)
        with pytest.raises(PipelineLintError, match="control core"):
            check_feed_forward("k", [bad])


# -- compiled-pipeline handle ----------------------------------------------

class TestCompiledPipeline:
    def test_describe_structure(self):
        for name in FRONTEND_KERNELS:
            desc = get_frontend(name).describe()
            assert desc["kernel"] == name
            assert desc["feed_forward"] is True
            assert len(desc["stages"]) == 4
            assert len(desc["queues"]) == 10
            for stage in desc["stages"]:
                assert stage["compute_ops"] > 0
                assert stage["asm"].strip()
            widths = {q["queue"]: q["words"] for q in desc["queues"]}
            split = desc["split"]
            assert widths["off_out"] == 3 + split["vertex_fetch_words"]
            assert widths["ngh_out"] == 1 + split["edge_fetch_words"]

    def test_describe_split_invariants(self):
        bfs = get_frontend("bfs").describe()["split"]
        assert (bfs["vertex_fetch_words"], bfs["edge_fetch_words"]) == (0, 1)
        assert bfs["owner_array"] == "distances"
        assert bfs["payload_across_hop"] is None
        cc = get_frontend("cc").describe()["split"]
        assert (cc["vertex_fetch_words"], cc["edge_fetch_words"]) == (1, 1)
        assert cc["dedup_pushes"]
        sssp = get_frontend("sssp").describe()["split"]
        assert (sssp["vertex_fetch_words"],
                sssp["edge_fetch_words"]) == (1, 2)
        assert sssp["owner_array"] == "dist"
        assert sssp["payload_across_hop"] is not None

    def test_get_frontend_caches_and_rejects_unknown(self):
        assert get_frontend("bfs") is get_frontend("bfs")
        with pytest.raises(KeyError):
            get_frontend("apsp")

    def test_unknown_param_rejected(self):
        with pytest.raises(FrontendError, match="no parameter"):
            get_frontend("bfs").workload(_demo_graph(), 1, fanout=3)

    def test_bad_init_shape_rejected(self):
        k = GraphKernel("badshape")
        k.state("dist",
                init=lambda g, p: np.zeros(g.n_vertices + 5, dtype=np.int64),
                output=True)
        dist = k.refs[0]
        v = k.vertex()
        start = k.load(k.offsets, v)
        end = k.load(k.offsets, v + 1)
        with k.edges(start, end) as e:
            ngh = k.load(k.neighbors, e)
            dv = k.load(dist, ngh, owner=True)
            with k.when(dv < 0):
                k.store(dist, ngh, 0)
                k.push(ngh)
        pipeline = compile_kernel(k)
        with pytest.raises(FrontendError, match="shape"):
            pipeline.workload(_demo_graph(), 1)

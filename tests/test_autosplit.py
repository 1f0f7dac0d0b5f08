"""Auto-decoupling analyzer suite (ISSUE 10).

The acceptance bar: for every registered kernel, the analyzer's
top-ranked split — inferred from a dependence graph with every
annotation stripped — equals the hand-marked split, and applying it
lowers through the unchanged pipeline to a *bit-identical* artifact
(equal kernel fingerprints, equal compile descriptions, identical
simulated runs on both engines) that passes the deadlock certifier.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.autosplit import (AutosplitError, SplitCostModel,
                                      advise_kernel, apply_and_verify,
                                      apply_split, detect_patterns,
                                      infer_split)
from repro.analysis.depgraph import (build_dependence_graph, clone_kernel,
                                     strip_annotations)
from repro.cache import kernel_fingerprint
from repro.config import SystemConfig
from repro.core import ENGINES, System
from repro.frontend import FrontendError, analyze, compile_kernel
from repro.frontend.kernel import GraphKernel
from repro.frontend.kernels import FRONTEND_KERNELS
from repro.frontend.lower import _demo_graph

_settings = settings(max_examples=16, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


# -- dependence graph ------------------------------------------------------

def test_bfs_dependence_graph_accesses():
    dg = build_dependence_graph(FRONTEND_KERNELS["bfs"]())
    by_ref = {}
    for access in dg.loads():
        by_ref.setdefault(access.ref, []).append(access)
    # Two affine CSR-bound loads at depth 1.
    assert [(a.index_class, a.depth) for a in by_ref["offsets"]] == \
        [("affine", 1), ("affine", 1)]
    # The neighbor enumeration streams an affine range at depth 2.
    (ngh,) = by_ref["neighbors"]
    assert (ngh.index_class, ngh.depth) == ("affine", 2)
    # The routed value fetch is indirect, at depth 3, on a mutable ref.
    (dv,) = by_ref["distances"]
    assert (dv.index_class, dv.depth, dv.mutable_ref) == ("indirect", 3, True)
    # The store writes the same array at the same indirect index.
    (store,) = dg.stores()
    assert (store.ref, store.index_class) == ("distances", "indirect")


def test_bfs_dependence_edge_kinds():
    dg = build_dependence_graph(FRONTEND_KERNELS["bfs"]())
    kinds = {e.dep for e in dg.edges}
    assert kinds == {"data", "control", "memory", "loop"}
    # The store's RAW edge into the guard load is memory-carried.
    (dv,) = [a for a in dg.loads() if a.ref == "distances"]
    (store,) = dg.stores()
    raw = [e for e in dg.edges_of("memory")
           if e.src == store.node and e.dst == dv.node]
    assert raw and raw[0].carried
    # The push feeds the next iteration's fringe: the loop-carried edge.
    (loop,) = dg.edges_of("loop")
    assert loop.carried and loop.detail == "next-iteration fringe"
    # Both update statements are guarded by the when() predicate.
    assert len(dg.edges_of("control")) == 2


def test_indirect_chains_thread_through_edge_loop():
    dg = build_dependence_graph(FRONTEND_KERNELS["bfs"]())
    chains = dg.indirect_chains()
    refs = [[dg.value(n).attr.ref.name for n in chain] for chain in chains]
    # offsets -> neighbors -> distances, once per CSR bound.
    assert refs == [["offsets", "neighbors", "distances"]] * 2


def test_sssp_graph_classifies_edge_state_affine():
    dg = build_dependence_graph(FRONTEND_KERNELS["sssp"]())
    (w,) = [a for a in dg.loads() if a.ref == "weights"]
    assert (w.index_class, w.depth, w.in_edge_loop) == ("affine", 2, True)


def test_as_dict_round_trips_to_json():
    import json
    dg = build_dependence_graph(FRONTEND_KERNELS["cc"]())
    document = json.loads(json.dumps(dg.as_dict(), sort_keys=True))
    assert document["kernel"] == "cc"
    assert len(document["accesses"]) == len(dg.accesses)


# -- kernel cloning --------------------------------------------------------

@pytest.mark.parametrize("name", sorted(FRONTEND_KERNELS))
def test_clone_preserves_fingerprint(name):
    kernel = FRONTEND_KERNELS[name]()
    assert kernel_fingerprint(clone_kernel(kernel)) == \
        kernel_fingerprint(kernel)


@pytest.mark.parametrize("name", sorted(FRONTEND_KERNELS))
def test_strip_removes_every_marking(name):
    stripped = strip_annotations(FRONTEND_KERNELS[name]())
    loads = [v for v in stripped.values if v.op == "load"]
    assert loads and all(not v.attr.marked and not v.attr.owner
                         for v in loads)
    assert stripped.unmarked_accesses() == loads


def test_stripped_kernel_refuses_to_compile():
    stripped = strip_annotations(FRONTEND_KERNELS["bfs"]())
    with pytest.raises(FrontendError, match="repro advise"):
        compile_kernel(stripped)


# -- inference: parity with the hand-marked kernels (satellite d) ----------

@pytest.mark.parametrize("name", sorted(FRONTEND_KERNELS))
def test_top_ranked_split_matches_hand_marked(name):
    kernel = FRONTEND_KERNELS[name]()
    advice = advise_kernel(kernel)
    assert advice.matches_hand_marked is True
    # The top-ranked candidate is the owner-routed deep fetch, exactly
    # the access the author marked owner=True.
    top = advice.candidates[0]
    assert top.role == "owner-fetch" and top.owner
    (hand_owner,) = [v for v in kernel.values
                     if v.op == "load" and v.attr.owner]
    assert top.node == f"v{hand_owner.vid}"


@pytest.mark.parametrize("name", sorted(FRONTEND_KERNELS))
def test_inference_is_annotation_free(name):
    kernel = FRONTEND_KERNELS[name]()
    on_marked = infer_split(kernel)
    on_stripped = infer_split(strip_annotations(kernel))
    assert on_marked.decision == on_stripped.decision
    assert on_marked.owner_node == on_stripped.owner_node
    assert [c.node for c in on_marked.candidates] == \
        [c.node for c in on_stripped.candidates]


@pytest.mark.parametrize("name", sorted(FRONTEND_KERNELS))
def test_detectors_fire_on_every_kernel(name):
    dg = build_dependence_graph(FRONTEND_KERNELS[name]())
    kinds = {m.kind for m in detect_patterns(dg)}
    assert {"indirect-load-chain", "owner-write-conflict",
            "reduction"} <= kinds


def test_cost_model_prefers_indirect_deep_fetch():
    model = SplitCostModel(SystemConfig())
    advice = infer_split(strip_annotations(FRONTEND_KERNELS["bfs"]()))
    scores = {c.role: c.score for c in advice.candidates}
    assert scores["owner-fetch"] > scores["edge-enumerate"] > \
        scores["csr-bounds"]
    # Indirect accesses price at main-memory latency, affine at LLC.
    config = SystemConfig()
    assert model.latency(advice_access(advice, "owner-fetch")) == \
        config.memory.latency
    assert model.latency(advice_access(advice, "csr-bounds")) == \
        config.llc_latency


def advice_access(advice, role):
    """The depgraph Access behind the first candidate with ``role``."""
    from repro.analysis.depgraph import Access
    cand = next(c for c in advice.candidates if c.role == role)
    return Access(node=cand.node, ref=cand.ref, mode="load",
                  index_class=cand.index_class, depth=cand.depth,
                  owner=cand.owner, marked=True,
                  in_edge_loop=cand.depth >= 2, mutable_ref=True)


def test_no_store_means_no_owner_candidate():
    k = GraphKernel("readonly")
    vals = k.state("vals", init=lambda g, p: np.zeros(g.n_vertices,
                                                      dtype=np.int64))
    k.start_from("all")
    v = k.vertex()
    start = k.access(k.offsets, v)
    end = k.access(k.offsets, v + 1)
    with k.edges(start, end) as e:
        ngh = k.access(k.neighbors, e)
        k.access(vals, ngh)
    with pytest.raises(AutosplitError, match="owner-write conflict"):
        infer_split(k)


def test_no_accesses_means_nothing_to_decouple():
    k = GraphKernel("empty")
    with pytest.raises(AutosplitError, match="nothing to decouple"):
        infer_split(k)


# -- application: bit-identity (the tentpole's acceptance bar) -------------

@pytest.mark.parametrize("name", sorted(FRONTEND_KERNELS))
def test_apply_reproduces_hand_marked_fingerprint(name):
    kernel = FRONTEND_KERNELS[name]()
    stripped = strip_annotations(kernel)
    applied = apply_split(stripped, infer_split(stripped))
    assert kernel_fingerprint(applied) == kernel_fingerprint(kernel)


@pytest.mark.parametrize("name", sorted(FRONTEND_KERNELS))
def test_apply_and_verify_manifest(name):
    manifest = apply_and_verify(FRONTEND_KERNELS[name]())
    assert manifest["advice"]["matches_hand_marked"] is True
    assert manifest["fingerprints"]["equal"]
    assert manifest["describe"]["equal"]
    assert manifest["lint"]["ok"] and manifest["lint"]["certified"]
    assert [s["stage"] for s in manifest["stage_dataflow"]] == \
        ["S0:fringe", "S1:enum", "S2:fetch", "S3:update"]
    assert all(s["dependence_edges"] > 0 and s["longest_chain"] > 0
               for s in manifest["stage_dataflow"])


@pytest.mark.parametrize("name", sorted(FRONTEND_KERNELS))
def test_apply_and_verify_analyzes_both_kernels(name, monkeypatch):
    """The hand-marked description comes from its own split analysis.

    The two kernels have equal fingerprints, so a plan looked up by
    fingerprint would describe the hand-marked kernel with the
    auto-split plan and ``describe.equal`` would compare a plan with
    itself."""
    from repro.frontend import lower
    analyzed = []

    def recording_analyze(kernel):
        analyzed.append(kernel)
        return analyze(kernel)

    monkeypatch.setattr(lower, "analyze", recording_analyze)
    kernel = FRONTEND_KERNELS[name]()
    manifest = apply_and_verify(kernel)
    assert len(analyzed) == 2
    assert sum(k is kernel for k in analyzed) == 1
    assert manifest["describe"]["equal"]


def _run(kernel, engine):
    config = SystemConfig()
    program, _ = compile_kernel(kernel).build(
        _demo_graph(), config, "fifer", "decoupled")
    return System(config, program, mode="fifer").run(engine=engine)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", sorted(FRONTEND_KERNELS))
def test_auto_split_runs_bit_identical(name, engine):
    kernel = FRONTEND_KERNELS[name]()
    stripped = strip_annotations(kernel)
    applied = apply_split(stripped, infer_split(stripped))
    hand = _run(kernel, engine)
    auto = _run(applied, engine)
    assert auto.cycles == hand.cycles
    assert auto.cpi_stacks() == hand.cpi_stacks()
    assert np.array_equal(auto.result, hand.result)


def test_unannotated_kernel_end_to_end():
    """A kernel written with access() only — no author decisions at all —
    infers, applies, and compiles to the hand-marked BFS artifact."""
    hand = FRONTEND_KERNELS["bfs"]()

    k = GraphKernel("bfs", doc="BFS: distance in hops from a source")
    k.param("source", 0)
    dist = k.state("distances", init=hand.refs[0].init, output=True)
    k.start_from("source", "source")
    v = k.vertex()
    start = k.access(k.offsets, v)
    end = k.access(k.offsets, v + 1)
    with k.edges(start, end) as e:
        ngh = k.access(k.neighbors, e)
        dv = k.access(dist, ngh)
        with k.when(dv < 0):
            k.store(dist, ngh, k.epoch())
            k.push(ngh)

    with pytest.raises(FrontendError):
        compile_kernel(k)
    applied = apply_split(k, infer_split(k))
    assert kernel_fingerprint(applied) == kernel_fingerprint(hand)
    compile_kernel(applied)  # splits and lints


# -- property test: inference across the kernel design space --------------

def _init_val(graph, params):
    val = np.full(graph.n_vertices, 1 << 40, dtype=np.int64)
    val[int(params["source"])] = 0
    return val


def _init_w(graph, params):
    return np.ones(max(1, graph.n_edges), dtype=np.int64)


def _variant_kernel(use_vertex_state, use_edge_weights, dedup,
                    marked=True):
    """A supported-envelope kernel variant (sssp/cc/bfs-shaped)."""
    k = GraphKernel("variant")
    k.param("source", 0)
    val = k.state("val", init=_init_val, output=True)
    wref = (k.state("wts", size="edges", mutable=False, init=_init_w)
            if use_edge_weights else None)
    k.start_from("source", "source")

    def get(ref, index, owner=False):
        return (k.load(ref, index, owner=owner) if marked
                else k.access(ref, index))

    v = k.vertex()
    mine = get(val, v) if use_vertex_state else None
    start = get(k.offsets, v)
    end = get(k.offsets, v + 1)
    if use_vertex_state and not use_edge_weights:
        cand = mine + 1
    elif not use_vertex_state and not use_edge_weights:
        cand = k.epoch() + 1
    with k.edges(start, end) as e:
        ngh = get(k.neighbors, e)
        if use_edge_weights:
            w = get(wref, e)
            cand = (mine + w) if use_vertex_state else (w + 1)
        cur = get(val, ngh, owner=True)
        with k.when(cand < cur):
            k.store(val, ngh, cand)
            k.push(ngh, dedup=dedup)
    return k


@given(use_vertex_state=st.booleans(), use_edge_weights=st.booleans(),
       dedup=st.booleans())
@_settings
def test_inferred_split_matches_across_design_space(
        use_vertex_state, use_edge_weights, dedup):
    hand = _variant_kernel(use_vertex_state, use_edge_weights, dedup)
    unmarked = _variant_kernel(use_vertex_state, use_edge_weights, dedup,
                               marked=False)
    advice = infer_split(unmarked)
    applied = apply_split(unmarked, advice)
    assert kernel_fingerprint(applied) == kernel_fingerprint(hand)
    # The applied artifact passes split analysis and lint.
    compile_kernel(applied)
    # And the advice matches the hand markings directly.
    assert advise_kernel(hand).matches_hand_marked is True


# -- CLI -------------------------------------------------------------------

def test_cli_advise_json(capsys):
    import json
    from repro.cli import main
    assert main(["advise", "bfs", "--json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["kernel"] == "bfs"
    assert document["matches_hand_marked"] is True
    assert document["candidates"][0]["role"] == "owner-fetch"


def test_cli_advise_all_text(capsys):
    from repro.cli import main
    assert main(["advise", "all"]) == 0
    out = capsys.readouterr().out
    for name in FRONTEND_KERNELS:
        assert f"{name}:" in out
    assert "matches the hand-marked split" in out


def test_cli_advise_apply(capsys):
    import json
    from repro.cli import main
    assert main(["advise", "sssp", "--apply", "--json"]) == 0
    manifest = json.loads(capsys.readouterr().out)
    assert manifest["fingerprints"]["equal"]
    assert manifest["lint"]["certified"]

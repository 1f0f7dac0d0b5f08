"""Auto-decoupling: infer load-split points from the dependence graph.

The annotated-kernel front-end (paper Sec. 4) trusts the author's
``load()`` markings. This module removes that trust: given a kernel
with *no* markings (every access written with
:meth:`~repro.frontend.kernel.GraphKernel.access`, or stripped with
:func:`~repro.analysis.depgraph.strip_annotations`), it

1. builds the whole-kernel dependence graph
   (:mod:`repro.analysis.depgraph`);
2. runs discopop-style pattern detectors over it — indirect-load
   chains, per-vertex maps, guarded reductions, owner-write conflicts —
   so every candidate cut point is identified structurally, not just
   the author-marked ones;
3. prices each candidate with a cost model fed by the front-end's own
   liveness-derived channel widths
   (:func:`repro.frontend.split.channel_widths`) and the memory-model
   latencies, and ranks them;
4. applies the top-ranked decision by rebuilding the kernel with the
   inferred markings (:func:`apply_split`) and lowering it through the
   *unchanged* existing pipeline — so the result is provably
   bit-identical to hand annotation whenever the decisions agree
   (:func:`apply_and_verify` checks kernel fingerprints, compile
   descriptions, and the deadlock certificate).

Exactness argument: the decision space is small and the skeleton is
rigid. Every array access is a latency boundary the 4-stage skeleton
*must* decouple (the split analysis rejects any unmarked residue), so
"which accesses to cut" has exactly one feasible answer — all of
them — and the only real choice is *which* access is owner-routed.
The owner-write-conflict detector pins that choice: the store that
writes a mutable array at an indirectly-loaded index can only execute
on the index's owner shard, so the load feeding the update of the same
array at the same index must be the routed one. The cost model agrees
(that load sits at the deepest cut, behind the most main-memory
latency per edge), so ranking and feasibility coincide — which is why
the inferred decision reproduces the hand markings exactly on every
registered kernel, a property the test suite asserts.

Everything here imports the front-end lazily: ``repro.frontend``
imports :mod:`repro.analysis.graph` during its own initialization, so
a module-level back-import would see a partially-initialized package.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.depgraph import (Access, DependenceGraph,
                                     _index_loads, build_dependence_graph,
                                     clone_kernel, strip_annotations)

#: Candidate roles, from shallowest to deepest cut.
ROLES = ("csr-bounds", "vertex-fetch", "edge-enumerate", "edge-fetch",
         "owner-fetch")

#: Detector kinds, in report order.
PATTERN_KINDS = ("indirect-load-chain", "vertex-map", "reduction",
                 "owner-write-conflict")


class AutosplitError(Exception):
    """The kernel's dependence graph defeats split inference."""


@dataclass(frozen=True)
class PatternMatch:
    """One detector hit: a named structure in the dependence graph."""

    kind: str           # one of PATTERN_KINDS
    nodes: tuple        # node keys, producer-first
    detail: str

    def as_dict(self) -> dict:
        return {"kind": self.kind, "nodes": list(self.nodes),
                "detail": self.detail}


@dataclass(frozen=True)
class CutCandidate:
    """One rankable cut point: an access the pipeline could split at."""

    node: str
    label: str
    ref: str
    index_class: str
    depth: int
    role: str           # one of ROLES
    owner: bool         # would this cut be owner-routed?
    score: float
    rationale: str

    def as_dict(self) -> dict:
        return {"node": self.node, "label": self.label, "ref": self.ref,
                "index_class": self.index_class, "depth": self.depth,
                "role": self.role, "owner": self.owner,
                "score": round(self.score, 3),
                "rationale": self.rationale}


class SplitCostModel:
    """Price a cut candidate: hidden latency minus queue occupancy.

    *Benefit*: the latency a decoupled stage hides — main-memory
    latency for indirect accesses (they miss), LLC latency for affine
    streams — times the trip weight (1 per vertex, ``avg_degree`` per
    edge-loop access).

    *Cost*: the words the cut's tokens occupy on the skeleton channel
    that carries them, taken from the front-end's liveness-derived
    :func:`~repro.frontend.split.channel_widths` — the *same* helper
    the split analysis uses to size the queues, so the analyzer and
    the compiler price a cut identically. The owner cut pays both the
    request (``val``) and the cross-shard routed (``inbox``) channels.
    """

    #: Which skeleton channel a cut at each role occupies.
    ROLE_CHANNELS = {
        "csr-bounds": ("off",),
        "vertex-fetch": ("off",),
        "edge-enumerate": ("ngh",),
        "edge-fetch": ("ngh",),
        "owner-fetch": ("val", "inbox"),
    }

    def __init__(self, config=None, avg_degree: float = 8.0):
        if config is None:
            from repro.config import SystemConfig
            config = SystemConfig()
        self.config = config
        self.avg_degree = float(avg_degree)

    def latency(self, access: Access) -> float:
        if access.index_class == "indirect":
            return float(self.config.memory.latency)
        return float(self.config.llc_latency)

    def trips(self, access: Access) -> float:
        return self.avg_degree if access.in_edge_loop else 1.0

    def queue_words(self, role: str, widths: dict) -> float:
        return float(sum(widths[ch] for ch in self.ROLE_CHANNELS[role]))

    def score(self, access: Access, role: str, widths: dict) -> float:
        return (self.latency(access) * self.trips(access)
                - self.queue_words(role, widths))


@dataclass
class SplitAdvice:
    """The analyzer's full answer for one kernel."""

    kernel: str
    patterns: list = field(default_factory=list)
    candidates: list = field(default_factory=list)   # ranked, best first
    decision: dict = field(default_factory=dict)     # vid -> {cut, owner}
    owner_node: Optional[str] = None
    hand_marked: Optional[dict] = None               # vid -> {cut, owner}
    matches_hand_marked: Optional[bool] = None
    notes: list = field(default_factory=list)

    def compare_to(self, kernel) -> None:
        """Record the hand markings of ``kernel`` and compare.

        ``kernel`` must be structurally identical to the analyzed one
        (e.g. its un-stripped original): value ids line up by
        construction of :func:`~repro.analysis.depgraph.clone_kernel`.
        """
        hand = {v.vid: {"cut": bool(v.attr.marked),
                        "owner": bool(v.attr.owner)}
                for v in kernel.values if v.op == "load"}
        if not any(entry["cut"] for entry in hand.values()):
            self.hand_marked = None
            self.matches_hand_marked = None
            return
        self.hand_marked = hand
        self.matches_hand_marked = self.decision == hand

    def as_dict(self) -> dict:
        return {
            "kernel": self.kernel,
            "patterns": [p.as_dict() for p in self.patterns],
            "candidates": [c.as_dict() for c in self.candidates],
            "decision": {str(vid): dict(entry)
                         for vid, entry in sorted(self.decision.items())},
            "owner_node": self.owner_node,
            "matches_hand_marked": self.matches_hand_marked,
            "notes": list(self.notes),
        }

    def render(self) -> str:
        lines = [f"{self.kernel}: {len(self.candidates)} candidate cut "
                 f"point(s), {len(self.patterns)} pattern match(es)"]
        for pattern in self.patterns:
            lines.append(f"  pattern {pattern.kind}: {pattern.detail}")
        for rank, cand in enumerate(self.candidates, start=1):
            owner = " [owner-routed]" if cand.owner else ""
            lines.append(
                f"  #{rank} {cand.label} — {cand.role}, "
                f"{cand.index_class}, depth {cand.depth}, "
                f"score {cand.score:.1f}{owner}")
            lines.append(f"      {cand.rationale}")
        if self.matches_hand_marked is not None:
            verdict = ("matches" if self.matches_hand_marked
                       else "DIFFERS FROM")
            lines.append(f"  decision {verdict} the hand-marked split")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


# -- pattern detectors -----------------------------------------------------

def _preds_load_of(dg: DependenceGraph, stmt, ref) -> Optional[str]:
    """A load of ``ref`` inside the statement's predicates, if any."""

    def find(expr):
        if expr.op == "load" and expr.attr.ref is ref:
            return expr
        if expr.op == "edge":
            return None
        for arg in expr.args:
            got = find(arg)
            if got is not None:
                return got
        return None

    for pred in stmt.preds:
        got = find(pred)
        if got is not None:
            return f"v{got.vid}"
    return None


def detect_patterns(dg: DependenceGraph) -> list:
    """Run every detector over the dependence graph."""
    matches: list = []

    for chain in dg.indirect_chains():
        labels = " -> ".join(dg.value(n).label for n in chain)
        matches.append(PatternMatch(
            "indirect-load-chain", tuple(chain),
            f"{len(chain)}-deep load chain ({labels}); every link is a "
            f"latency boundary a decoupled stage can hide"))

    vertex_maps = [a for a in dg.loads()
                   if a.depth == 1 and a.index_class == "affine"]
    if vertex_maps:
        matches.append(PatternMatch(
            "vertex-map", tuple(a.node for a in vertex_maps),
            f"{len(vertex_maps)} per-vertex affine fetch(es) "
            f"({', '.join(a.ref for a in vertex_maps)}); streamable at "
            f"the fringe stage"))

    for access in dg.stores():
        stmt = dg.statement(access.node)
        guard = _preds_load_of(dg, stmt, stmt.ref)
        if guard is not None:
            matches.append(PatternMatch(
                "reduction", (guard, access.node),
                f"store to {access.ref!r} guarded by a compare against "
                f"the current value ({dg.value(guard).label}): a "
                f"monotone reduction update, safe to re-check at the "
                f"owner"))

    for access in dg.stores():
        if access.index_class != "indirect" or not access.mutable_ref:
            continue
        stmt = dg.statement(access.node)
        feeders = [f"v{l.vid}" for l in _index_loads(stmt.index)]
        same_ref = [a for a in dg.loads()
                    if a.ref == access.ref
                    and dg.value(a.node).args[0].vid == stmt.index.vid]
        matches.append(PatternMatch(
            "owner-write-conflict",
            tuple(feeders + [a.node for a in same_ref] + [access.node]),
            f"{stmt.label} writes {access.ref!r} at an indirectly-loaded "
            f"index: the update must execute on the index's owner shard, "
            f"so the read of {access.ref!r} feeding it must be "
            f"owner-routed"))

    return matches


# -- inference -------------------------------------------------------------

def _role_of(dg: DependenceGraph, access: Access, owner_nodes: set) -> str:
    kernel = dg.kernel
    ref = dg.value(access.node).attr.ref
    if ref is kernel.offsets:
        return "csr-bounds"
    if ref is kernel.neighbors:
        return "edge-enumerate"
    if access.node in owner_nodes:
        return "owner-fetch"
    if access.depth <= 1:
        return "vertex-fetch"
    return "edge-fetch"


def infer_split(kernel, config=None,
                avg_degree: float = 8.0) -> SplitAdvice:
    """Infer the split decision for ``kernel`` from its dependence graph.

    Never reads the kernel's own ``marked``/``owner`` flags except to
    report the final comparison — inference on a hand-marked kernel
    and on its :func:`~repro.analysis.depgraph.strip_annotations` copy
    is identical by construction (the suite asserts it).
    """
    dg = build_dependence_graph(kernel)
    advice = SplitAdvice(kernel=kernel.name)
    advice.patterns = detect_patterns(dg)

    loads = dg.loads()
    if not loads:
        raise AutosplitError(
            f"kernel {kernel.name!r} performs no array accesses; there "
            f"is nothing to decouple")

    # The owner choice comes from the owner-write-conflict detector:
    # the load of the written array at the written index.
    owner_nodes: set = set()
    for match in advice.patterns:
        if match.kind != "owner-write-conflict":
            continue
        store_node = match.nodes[-1]
        for node in match.nodes[:-1]:
            access = dg.access_for(node)
            if (access is not None and access.mode == "load"
                    and access.ref == dg.access_for(store_node).ref):
                owner_nodes.add(node)
    if not owner_nodes:
        raise AutosplitError(
            f"kernel {kernel.name!r}: no owner-write conflict found — no "
            f"store writes a mutable array at an indirectly-loaded "
            f"index, so there is no cross-shard access to route")

    roles = {a.node: _role_of(dg, a, owner_nodes) for a in loads}
    n_vertex = sum(1 for a in loads if roles[a.node] == "vertex-fetch")
    n_edge = sum(1 for a in loads if roles[a.node] == "edge-fetch")

    from repro.frontend.split import channel_widths  # lazy: see module doc
    widths = channel_widths(n_vertex, 1 + n_edge)
    model = SplitCostModel(config, avg_degree=avg_degree)

    candidates = []
    for access in loads:
        role = roles[access.node]
        owner = access.node in owner_nodes
        score = model.score(access, role, widths)
        rationale = (
            f"hides {model.latency(access):.0f} cycles x "
            f"{model.trips(access):.0f} trip(s) for "
            f"{model.queue_words(role, widths):.0f} queue word(s) on "
            f"{'+'.join(model.ROLE_CHANNELS[role])}")
        candidates.append(CutCandidate(
            node=access.node, label=dg.value(access.node).label,
            ref=access.ref, index_class=access.index_class,
            depth=access.depth, role=role, owner=owner, score=score,
            rationale=rationale))
    candidates.sort(key=lambda c: (-c.score, c.node))
    advice.candidates = candidates

    # Decision: the skeleton requires every access decoupled (the split
    # analysis rejects unmarked residue), so every candidate is cut;
    # the top-ranked owner-fetch candidate is routed.
    owner_ranked = [c for c in candidates if c.role == "owner-fetch"]
    if len(owner_nodes) > 1:
        advice.notes.append(
            f"{len(owner_nodes)} owner candidates; picked the "
            f"top-ranked ({owner_ranked[0].label})")
    owner_node = owner_ranked[0].node
    advice.owner_node = owner_node
    advice.decision = {
        int(c.node[1:]): {"cut": True, "owner": c.node == owner_node}
        for c in candidates}
    advice.compare_to(kernel)
    return advice


def advise_kernel(kernel, config=None,
                  avg_degree: float = 8.0) -> SplitAdvice:
    """Strip ``kernel``'s markings, infer, compare against the original.

    The entry point behind ``repro advise``: inference provably runs on
    an annotation-free dependence graph, and the advice records whether
    the inferred decision reproduces the author's hand markings.
    """
    advice = infer_split(strip_annotations(kernel), config=config,
                         avg_degree=avg_degree)
    advice.compare_to(kernel)
    return advice


# -- application and the bit-identity proof --------------------------------

def apply_split(kernel, advice: Optional[SplitAdvice] = None,
                config=None):
    """Rebuild ``kernel`` with the (inferred) decision as markings."""
    if advice is None:
        advice = infer_split(kernel, config=config)
    return clone_kernel(
        kernel,
        owner_by_vid={vid: entry["owner"]
                      for vid, entry in advice.decision.items()},
        marked_by_vid={vid: entry["cut"]
                       for vid, entry in advice.decision.items()})


def apply_and_verify(kernel, config=None,
                     avg_degree: float = 8.0) -> dict:
    """Strip, infer, apply, lower — and prove equivalence end to end.

    Returns the ``--apply`` manifest: the inferred decision, the kernel
    fingerprints of the hand-marked original and the auto-split result
    (equal iff the decisions agree — the fingerprint covers every
    owner/marked flag), digests of both compile descriptions (stage
    DFGs, queue widths, per-stage assembly), the deadlock-certifier
    verdict on the auto-split pipeline, and a per-stage dataflow
    summary from the DFG dependence queries.
    """
    import json as _json

    from repro.cache import kernel_fingerprint, sha256_text
    from repro.config import SystemConfig
    from repro.frontend.lower import _demo_graph, compile_kernel

    if config is None:
        config = SystemConfig()

    advice = advise_kernel(kernel, config=config, avg_degree=avg_degree)
    applied = apply_split(strip_annotations(kernel), advice)

    fp_hand = kernel_fingerprint(kernel)
    fp_auto = kernel_fingerprint(applied)

    pipeline = compile_kernel(applied)
    description = pipeline.describe()
    hand_description = compile_kernel(kernel).describe()

    def digest(document: dict) -> str:
        return sha256_text(_json.dumps(document, sort_keys=True))

    from repro.analysis.verify import analyze_program
    program, workload = pipeline.build(_demo_graph(), config, "fifer",
                                       "decoupled")
    report = analyze_program(program, config, "fifer")

    builders = (("S0:fringe", workload._s0_dfg),
                ("S1:enum", workload._s1_dfg),
                ("S2:fetch", workload._s2_dfg),
                ("S3:update", workload._s3_dfg))
    stage_dataflow = []
    for name, builder in builders:
        dfg = builder(0)
        edges = list(dfg.iter_dependence_edges())
        stage_dataflow.append({
            "stage": name,
            "nodes": len(dfg.nodes),
            "dependence_edges": len(edges),
            "reg_carried_edges": sum(1 for _, _, kind in edges
                                     if kind == "reg-carried"),
            "max_fanout": max((len(v) for v in dfg.consumers().values()),
                              default=0),
            "longest_chain": dfg.longest_dependence_chain(),
        })

    return {
        "kernel": kernel.name,
        "advice": advice.as_dict(),
        "fingerprints": {
            "hand_marked": fp_hand,
            "auto_split": fp_auto,
            "equal": fp_hand == fp_auto,
        },
        "describe": {
            "hand_marked": digest(hand_description),
            "auto_split": digest(description),
            "equal": digest(hand_description) == digest(description),
        },
        "lint": {
            "ok": report.ok,
            "errors": [f.as_dict() for f in report.errors],
            "certified": report.certificate is not None,
        },
        "split": description["split"],
        "queues": description["queues"],
        "stage_dataflow": stage_dataflow,
    }

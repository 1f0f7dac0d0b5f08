"""Shared machinery for the four-stage graph pipelines.

Every graph workload uses the decoupled pipeline of paper Fig. 2(a)
(PRD and Radii subclass it by hand; BFS, CC and SSSP are generated
from kernels by :mod:`repro.frontend.lower`):

  S0 process fringe -> S1 enumerate neighbors -> S2 fetch values
     -> S3 update data / next fringe

with one DRM per long-latency load (Sec. 5.4):

* ``drm_fr``  — scanning mode over the shard's fringe buffer,
* ``drm_off`` — dereference of ``offsets[v]``/``offsets[v+1]`` plus any
  per-vertex state words the workload declares (labels, accumulators,
  visited masks) — the program is split at *every* long-latency load,
  so vertex state is fetched decoupled too,
* ``drm_ngh`` — dereference of ``neighbors[e]``,
* ``drm_val`` — dereference of the workload's destination-value array,
  *routed by owner shard* to implement the cross-PE hop between the
  third and fourth stages (Sec. 5.6).

Each pipeline is replicated per shard (vertices sharded by low id bits,
Sec. 5.6); iteration barriers use control values counted at S3 and a
control core that swaps fringe buffers (Sec. 5.5/5.6).

Per-workload hooks:

* ``vertex_fetch_addrs(v)`` — addresses of per-vertex state fetched by
  ``drm_off`` alongside the offsets (decoupled) or by coupled loads in
  the merged variant.
* ``vertex_process(ctx, shard, v, start, end)`` — vertex-side work
  (threshold filters, mask absorption, rank updates); returns the
  per-vertex payload ``p0``, or ``None`` to skip the vertex's edges.
  Runs on the owner shard at S1.
* ``s1_edge_payload(v, start, end, p0)`` — payload attached to each
  edge (pure; e.g. PageRank-Delta divides by the out-degree).
* ``edge_extra_addrs(e)`` / ``edge_extra_values(e)`` — extra per-edge
  words (``edge_fetch_words - 1`` of them) fetched by ``drm_ngh``
  alongside ``neighbors[e]`` (e.g. SSSP's edge weights).
* ``s2_payload(ngh, extras, p_edge)`` — combines the per-edge payload
  with the extra fetched words into the value sent across the
  cross-shard hop (pure; identity by default).
* ``s3_update(ctx, shard, ngh, value, p_edge)`` — destination-side
  update; calls ``push_touched`` to extend the next fringe.

The ``merged`` variant (Fig. 17) fuses S0+S1+S2 into one stage with
coupled loads, keeping only the most expensive indirection (``drm_val``)
decoupled.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.config import SystemConfig
from repro.core.drm import DRMSpec
from repro.core.program import PEProgram, Program
from repro.core.stage import STOP_VALUE, StageSpec
from repro.datasets.graphs import CSRGraph
from repro.ir import DFGBuilder
from repro.memory.address import AddressSpace
from repro.memory.memmap import MemoryMap
from repro.queues.queue import Queue
from repro.queues.queue_memory import QueueSpec

END_ITER = "__END_ITER__"


def shard_of(v: int, n_shards: int) -> int:
    """Owner shard of vertex ``v`` — low bits of the id (paper Sec. 5.6:
    "by examining bits of the neighbor id")."""
    return int(v) % n_shards


def shards_for_mode(config: SystemConfig, mode: str, n_stages: int) -> int:
    """How many pipeline replicas fit.

    Fifer time-multiplexes a whole pipeline per PE (16 shards); the
    static baseline pins one stage per PE (16/n_stages shards).
    """
    if mode == "fifer":
        return config.n_pes
    if config.n_pes % n_stages:
        raise ValueError(
            f"{config.n_pes} PEs not divisible by {n_stages} stages")
    return config.n_pes // n_stages


class GraphPipelineWorkload:
    """Base class: subclass and override the hooks, then ``build_program``."""

    name = "graph"
    # Number of per-vertex state words drm_off fetches with the offsets.
    vertex_fetch_words = 0
    # Words drm_ngh fetches per edge: neighbors[e] plus any extra
    # per-edge state (edge weights etc.).
    edge_fetch_words = 1
    # Optional cap on dispatched iterations (the paper samples a subset
    # of iterations for PageRank-Delta and Radii, Sec. 7.2).
    max_iterations: Optional[int] = None

    def __init__(self, graph: CSRGraph, n_shards: int):
        graph.validate()
        self.graph = graph
        self.n_shards = n_shards
        self.space = AddressSpace()
        self.memmap = MemoryMap()

        n = graph.n_vertices
        self.offsets_ref = self.space.alloc_array("offsets", n + 1)
        self.neighbors_ref = self.space.alloc_array(
            "neighbors", max(1, graph.n_edges))
        self.memmap.register(self.offsets_ref, graph.offsets)
        self.memmap.register(self.neighbors_ref, graph.neighbors)

        # Double-buffered per-shard fringe ("touched") buffers.
        per_shard = max(1, n)
        self._fringe_arrays = []
        self._fringe_refs = []
        for shard in range(n_shards):
            bufs, refs = [], []
            for half in range(2):
                array = np.zeros(per_shard, dtype=np.int64)
                ref = self.space.alloc_array(
                    f"fringe.{shard}.{half}", per_shard)
                self.memmap.register(ref, array)
                bufs.append(array)
                refs.append(ref)
            self._fringe_arrays.append(bufs)
            self._fringe_refs.append(refs)
        self._write_half = [0] * n_shards
        self._write_count = [0] * n_shards
        self.iterations_run = 0
        self.setup()
        for v in self.initial_fringe():
            self._append_touched(shard_of(v, n_shards), int(v))

    # -- hooks to override ---------------------------------------------------

    def setup(self) -> None:
        """Allocate and register workload state arrays."""
        raise NotImplementedError

    def value_addr(self, ngh: int) -> int:
        """Address fetched by ``drm_val`` for neighbor ``ngh``."""
        raise NotImplementedError

    def initial_fringe(self):
        """Iterable of initially active vertices."""
        raise NotImplementedError

    def vertex_fetch_addrs(self, v: int) -> tuple:
        """Addresses of per-vertex state (``vertex_fetch_words`` of them)."""
        raise NotImplementedError

    def vertex_process(self, ctx, shard: int, v: int, start: int, end: int):
        """Vertex-side work; yields requests; returns ``p0`` or ``None``."""
        raise NotImplementedError

    def s1_edge_payload(self, v: int, start: int, end: int, p0):
        return p0

    def edge_extra_addrs(self, e: int) -> tuple:
        """Addresses of extra per-edge words (``edge_fetch_words - 1``)."""
        return ()

    def edge_extra_values(self, e: int) -> tuple:
        """Values of the extra per-edge words (merged variant's loads)."""
        return ()

    def s2_payload(self, ngh: int, extras: tuple, p_edge):
        """Fold ``drm_ngh``'s extra fetched words into the hop payload."""
        return p_edge

    def s3_update(self, ctx, shard: int, ngh: int, value, p_edge):
        raise NotImplementedError

    def at_barrier(self, iteration: int) -> None:
        """Extra control-core work at each iteration boundary."""
        raise NotImplementedError

    def result(self):
        raise NotImplementedError

    def vertex_extra_ops(self, b: DFGBuilder, v_node):
        """Datapath ops of ``vertex_process`` (for the S1 mapping)."""
        raise NotImplementedError

    def s3_extra_ops(self, b: DFGBuilder, value_node, payload_node):
        """Datapath ops of ``s3_update`` (for the S3 mapping)."""
        raise NotImplementedError

    def s1_extra_edge_ops(self, b: DFGBuilder, e_next) -> tuple:
        """Address nodes of the extra per-edge fetches (S1 mapping)."""
        return ()

    def s2_extra_ops(self, b: DFGBuilder, ngh_node):
        """Datapath combining the hop payload at S2; ``None`` means the
        payload passes through untouched."""
        return None

    def merged_extra_ops(self, b: DFGBuilder, e_next, ngh_node, payload):
        """Merged-variant payload datapath (coupled extra edge loads)."""
        return payload

    # -- next-fringe management ----------------------------------------------

    def _append_touched(self, shard: int, v: int) -> int:
        """Functionally append ``v``; returns the written word's address."""
        half = self._write_half[shard]
        index = self._write_count[shard]
        self._fringe_arrays[shard][half][index] = v
        self._write_count[shard] += 1
        return self._fringe_refs[shard][half].addr(index)

    def push_touched(self, ctx, shard: int, v: int):
        """S3 helper: append ``v`` to the next fringe (one store)."""
        yield ("store", self._append_touched(shard, v))

    def barrier_step(self, iteration: int) -> Optional[list[tuple[int, int]]]:
        """Swap fringe buffers; returns per-shard (count, half) or None.

        ``iteration`` 0 is the kickoff (initial fringe dispatch), which
        runs before any processing, so ``at_barrier`` only fires between
        real iterations.
        """
        if iteration > 0:
            self.at_barrier(iteration)
        counts = list(self._write_count)
        if sum(counts) == 0:
            return None
        if (self.max_iterations is not None
                and self.iterations_run >= self.max_iterations):
            return None
        self.iterations_run += 1
        directives = []
        for shard in range(self.n_shards):
            read_half = self._write_half[shard]
            directives.append((counts[shard], read_half))
            self._write_half[shard] ^= 1
            self._write_count[shard] = 0
        return directives

    def fringe_scan_range(self, shard: int, half: int,
                          count: int) -> tuple[int, int]:
        base = self._fringe_refs[shard][half].addr(0)
        return base, base + count * 8

    # -- queue naming ---------------------------------------------------------

    def q(self, kind: str, shard: int) -> str:
        return f"{self.name}.{kind}@{shard}"

    def stage_name(self, stage: str, shard: int) -> str:
        return f"{self.name}.{stage}@{shard}"

    # -- stage semantics ------------------------------------------------------

    # The stage coroutines yield request tuples directly instead of
    # going through the ctx.* helper sub-generators, and hoist their
    # queue-name strings out of the per-token loops: both would
    # otherwise cost an allocation per simulated token.

    def _s0_semantics(self, shard: int):
        """Process fringe: stream vertices, generate offset/state addrs."""
        offsets = self.offsets_ref
        iter_q = self.q("iter", shard)
        off_in = self.q("off_in", shard)
        fr_in = self.q("fr_in", shard)
        fr_out = self.q("fr_out", shard)

        def run(ctx):
            while True:
                token = yield ("deq", iter_q)
                assert token.is_control
                if token.value == STOP_VALUE:
                    yield ("enq", off_in, STOP_VALUE, True)
                    return
                _, count, half = token.value
                if count:
                    scan = self.fringe_scan_range(shard, half, count)
                    yield ("enq", fr_in, scan, False)
                    for _ in range(count):
                        vtok = yield ("deq", fr_out)
                        v = int(vtok.value)
                        addrs = (offsets.addr(v), offsets.addr(v + 1),
                                 *self.vertex_fetch_addrs(v))
                        yield ("enq", off_in, (*addrs, v), False)
                yield ("enq", off_in, END_ITER, True)

        return run

    def _s1_semantics(self, shard: int):
        """Enumerate neighbors: vertex-side work, then per-edge addrs."""
        neighbors_addr = self.neighbors_ref.addr
        off_out = self.q("off_out", shard)
        ngh_in = self.q("ngh_in", shard)
        # Workloads with edge state take the general path; the common
        # single-word case keeps the tight per-edge loop.
        simple = self.edge_fetch_words == 1
        extra_addrs = self.edge_extra_addrs

        def run(ctx):
            while True:
                token = yield ("deq", off_out)
                if token.is_control:
                    yield ("enq", ngh_in, token.value, True)
                    if token.value == STOP_VALUE:
                        return
                    continue
                start, end = int(token.value[0]), int(token.value[1])
                v = int(token.value[-1])
                p0 = yield from self.vertex_process(ctx, shard, v, start, end)
                if p0 is None:
                    continue
                p_edge = self.s1_edge_payload(v, start, end, p0)
                if simple:
                    for e in range(start, end):
                        yield ("enq", ngh_in,
                               (neighbors_addr(e), p_edge), False)
                else:
                    for e in range(start, end):
                        yield ("enq", ngh_in,
                               (neighbors_addr(e), *extra_addrs(e), p_edge),
                               False)

        return run

    def _s2_semantics(self, shard: int):
        value_addr = self.value_addr
        ngh_out = self.q("ngh_out", shard)
        val_in = self.q("val_in", shard)
        simple = self.edge_fetch_words == 1
        s2_payload = self.s2_payload

        def run(ctx):
            while True:
                token = yield ("deq", ngh_out)
                if token.is_control:
                    yield ("enq", val_in, token.value, True)
                    if token.value == STOP_VALUE:
                        return
                    continue
                if simple:
                    ngh, p_edge = token.value
                    ngh = int(ngh)
                    yield ("enq", val_in,
                           (value_addr(ngh), ngh, p_edge), False)
                else:
                    parts = token.value
                    ngh = int(parts[0])
                    p_out = s2_payload(ngh, parts[1:-1], parts[-1])
                    yield ("enq", val_in,
                           (value_addr(ngh), ngh, p_out), False)

        return run

    def _s3_semantics(self, shard: int):
        n_shards = self.n_shards
        inbox = self.q("inbox", shard)
        barrier = f"{self.name}.barrier"

        def run(ctx):
            ends_left = n_shards
            stops_left = n_shards
            while True:
                token = yield ("deq", inbox)
                if token.is_control:
                    if token.value == STOP_VALUE:
                        stops_left -= 1
                        if stops_left == 0:
                            return
                    else:
                        ends_left -= 1
                        if ends_left == 0:
                            ends_left = n_shards
                            yield ("enq", barrier, ("done", shard), True)
                    continue
                value, ngh, p_edge = token.value
                yield from self.s3_update(ctx, shard, int(ngh), value, p_edge)

        return run

    # -- stage dataflow graphs ------------------------------------------------

    def _s0_dfg(self, shard: int):
        b = DFGBuilder(self.stage_name("fringe", shard))
        b.deq(self.q("iter", shard))
        v = b.deq(self.q("fr_out", shard))
        base = b.const(self.offsets_ref.base)
        addr_lo = b.lea(base, v)
        one = b.const(1)
        v1 = b.add(v, one)
        addr_hi = b.lea(base, v1)
        b.enq(self.q("off_in", shard), addr_lo)
        b.enq(self.q("off_in", shard), addr_hi)
        for i in range(self.vertex_fetch_words):
            extra = b.lea(b.const(i), v)
            b.enq(self.q("off_in", shard), extra)
        b.enq(self.q("off_in", shard), v)
        # Scan ranges for the fringe DRM.
        b.enq(self.q("fr_in", shard), v)
        return b.finish(strict=True)

    def _s1_dfg(self, shard: int):
        b = DFGBuilder(self.stage_name("enum", shard))
        token = b.deq(self.q("off_out", shard))
        payload = self.vertex_extra_ops(b, token)
        base = b.const(self.neighbors_ref.base)
        e = b.reg("e")
        one = b.const(1)
        e_next = b.add(e, one)
        b.set_reg(e, e_next)
        addr = b.lea(base, e_next)
        b.lt(e_next, token)  # end-of-edge-list test
        extras = self.s1_extra_edge_ops(b, e_next)
        b.enq(self.q("ngh_in", shard), addr)
        for extra in extras:
            b.enq(self.q("ngh_in", shard), extra)
        b.enq(self.q("ngh_in", shard), payload)
        return b.finish(strict=True)

    def _s2_dfg(self, shard: int):
        b = DFGBuilder(self.stage_name("fetch", shard))
        ngh = b.deq(self.q("ngh_out", shard))
        base = b.const(0)  # value-array base loaded as a constant register
        addr = b.lea(base, ngh)
        b.enq(self.q("val_in", shard), addr)
        b.enq(self.q("val_in", shard), ngh)
        combined = self.s2_extra_ops(b, ngh)
        if combined is not None:
            b.enq(self.q("val_in", shard), combined)
        return b.finish(strict=True)

    def _s3_dfg(self, shard: int):
        b = DFGBuilder(self.stage_name("update", shard))
        token = b.deq(self.q("inbox", shard))
        payload = b.ctrl(token)
        updated = self.s3_extra_ops(b, token, payload)
        fringe_base = b.const(self._fringe_refs[shard][0].base)
        slot = b.reg("next_count")
        one = b.const(1)
        slot_next = b.add(slot, one)
        b.set_reg(slot, slot_next)
        addr = b.lea(fringe_base, slot_next)
        b.store(addr, updated)
        return b.finish(strict=True)

    # -- program assembly -----------------------------------------------------

    def _shard_queue_specs(self, shard: int) -> dict:
        """All queues of one shard, keyed by placement group."""
        q = self.q
        off_words = 3 + self.vertex_fetch_words
        ngh_words = 1 + self.edge_fetch_words
        inbox_producers = tuple(
            f"{self.name}.drm_val@{s}" for s in range(self.n_shards))
        # Edge-carrying queues get larger static shares: they see ~deg
        # times the traffic of the vertex-side queues, and deeper
        # buffering there lengthens stage residences (fewer switches).
        return {
            "s0": [
                QueueSpec(q("iter", shard), weight=0.25, control_only=True),
                QueueSpec(q("fr_in", shard), entry_words=2, weight=0.5),
                QueueSpec(q("fr_out", shard), weight=0.5),
                QueueSpec(q("off_in", shard), entry_words=off_words),
            ],
            "s1": [QueueSpec(q("off_out", shard), entry_words=off_words),
                   QueueSpec(q("ngh_in", shard), entry_words=ngh_words,
                             weight=2.0)],
            "s2": [QueueSpec(q("ngh_out", shard), entry_words=ngh_words,
                             weight=2.0),
                   QueueSpec(q("val_in", shard), entry_words=3, weight=2.0)],
            "s3": [QueueSpec(q("inbox", shard), entry_words=3, weight=2.0,
                             producers=inbox_producers)],
        }

    def _route_fn(self):
        n_shards = self.n_shards
        inboxes = tuple(self.q("inbox", s) for s in range(n_shards))

        def route(values, payload):
            # payload = (ngh, p_edge); owner shard from the neighbor id.
            return inboxes[int(payload[0]) % n_shards]

        return route

    def _shard_drm_specs(self, shard: int) -> dict:
        q = self.q
        return {
            "s0": [
                DRMSpec(f"{self.name}.drm_fr@{shard}", "scan",
                        in_queue=q("fr_in", shard),
                        out_queue=q("fr_out", shard)),
                DRMSpec(f"{self.name}.drm_off@{shard}", "deref",
                        in_queue=q("off_in", shard),
                        out_queue=q("off_out", shard),
                        width=2 + self.vertex_fetch_words, payload=True),
            ],
            "s1": [DRMSpec(f"{self.name}.drm_ngh@{shard}", "deref",
                           in_queue=q("ngh_in", shard),
                           out_queue=q("ngh_out", shard),
                           width=self.edge_fetch_words, payload=True)],
            "s2": [DRMSpec(f"{self.name}.drm_val@{shard}", "deref",
                           in_queue=q("val_in", shard),
                           route=self._route_fn(),
                           route_targets=tuple(
                               q("inbox", s) for s in range(self.n_shards)),
                           width=1, payload=True)],
        }

    def _shard_stage_specs(self, shard: int) -> dict:
        return {
            "s0": StageSpec(self.stage_name("fringe", shard),
                            self._s0_dfg(shard), self._s0_semantics(shard)),
            "s1": StageSpec(self.stage_name("enum", shard),
                            self._s1_dfg(shard), self._s1_semantics(shard)),
            "s2": StageSpec(self.stage_name("fetch", shard),
                            self._s2_dfg(shard), self._s2_semantics(shard)),
            "s3": StageSpec(self.stage_name("update", shard),
                            self._s3_dfg(shard), self._s3_semantics(shard)),
        }

    def build_program(self, config: SystemConfig, mode: str,
                      variant: str = "decoupled") -> Program:
        if variant == "decoupled":
            return self._build_decoupled(config, mode)
        if variant == "merged":
            return self._build_merged(config, mode)
        raise ValueError(f"unknown variant {variant!r}")

    def _build_decoupled(self, config: SystemConfig, mode: str) -> Program:
        groups = ("s0", "s1", "s2", "s3")
        expected = shards_for_mode(config, mode, len(groups))
        if expected != self.n_shards:
            raise ValueError(
                f"workload built for {self.n_shards} shards; {mode} mode on "
                f"{config.n_pes} PEs needs {expected}")
        pe_programs = []
        for shard in range(self.n_shards):
            queue_specs = self._shard_queue_specs(shard)
            drm_specs = self._shard_drm_specs(shard)
            stage_specs = self._shard_stage_specs(shard)
            if mode == "fifer":
                pe_programs.append(PEProgram(
                    shard=shard,
                    queue_specs=[s for g in groups for s in queue_specs[g]],
                    stage_specs=[stage_specs[g] for g in groups],
                    drm_specs=[d for g in groups
                               for d in drm_specs.get(g, [])],
                ))
            else:
                for group in groups:
                    pe_programs.append(PEProgram(
                        shard=shard,
                        queue_specs=queue_specs[group],
                        stage_specs=[stage_specs[group]],
                        drm_specs=drm_specs.get(group, []),
                    ))
        return self._finish_program(pe_programs)

    # -- merged variant (Fig. 17) ---------------------------------------------

    def _merged_semantics(self, shard: int):
        """S0+S1+S2 fused: coupled loads for fringe/offsets/state/neighbors."""
        q = self.q
        graph = self.graph
        offsets = self.offsets_ref
        neighbors = self.neighbors_ref
        simple = self.edge_fetch_words == 1
        extra_addrs = self.edge_extra_addrs
        extra_values = self.edge_extra_values
        s2_payload = self.s2_payload

        def run(ctx):
            while True:
                token = yield from ctx.deq(q("iter", shard))
                assert token.is_control
                if token.value == STOP_VALUE:
                    yield from ctx.enq(q("val_in", shard), STOP_VALUE,
                                       is_control=True)
                    return
                _, count, half = token.value
                ref = self._fringe_refs[shard][half]
                array = self._fringe_arrays[shard][half]
                for index in range(count):
                    yield from ctx.load(ref.addr(index))
                    v = int(array[index])
                    yield from ctx.load(offsets.addr(v))
                    yield from ctx.load(offsets.addr(v + 1))
                    for addr in self.vertex_fetch_addrs(v):
                        yield from ctx.load(addr)
                    start = int(graph.offsets[v])
                    end = int(graph.offsets[v + 1])
                    p0 = yield from self.vertex_process(ctx, shard, v,
                                                        start, end)
                    if p0 is None:
                        continue
                    p_edge = self.s1_edge_payload(v, start, end, p0)
                    for e in range(start, end):
                        yield from ctx.load(neighbors.addr(e))
                        ngh = int(graph.neighbors[e])
                        if simple:
                            yield from ctx.enq(
                                q("val_in", shard),
                                (self.value_addr(ngh), ngh, p_edge))
                        else:
                            for addr in extra_addrs(e):
                                yield from ctx.load(addr)
                            yield from ctx.enq(
                                q("val_in", shard),
                                (self.value_addr(ngh), ngh,
                                 s2_payload(ngh, extra_values(e), p_edge)))
                yield from ctx.enq(q("val_in", shard), END_ITER,
                                   is_control=True)

        return run

    def _merged_dfg(self, shard: int):
        b = DFGBuilder(self.stage_name("merged", shard))
        b.deq(self.q("iter", shard))
        cursor = b.reg("cursor")
        one = b.const(1)
        nxt = b.add(cursor, one)
        b.set_reg(cursor, nxt)
        fringe = b.const(self._fringe_refs[shard][0].base)
        v = b.load(b.lea(fringe, nxt))
        payload = self.vertex_extra_ops(b, v)
        base = b.const(self.offsets_ref.base)
        start = b.load(b.lea(base, v))
        end = b.load(b.lea(base, b.add(v, one)))
        e = b.reg("e")
        e_next = b.add(e, one)
        b.set_reg(e, e_next)
        b.lt(e_next, end)
        nbase = b.const(self.neighbors_ref.base)
        ngh = b.load(b.lea(nbase, e_next))
        vaddr = b.lea(b.const(0), ngh)
        b.enq(self.q("val_in", shard), vaddr)
        b.enq(self.q("val_in", shard), ngh)
        b.enq(self.q("val_in", shard),
              self.merged_extra_ops(b, e_next, ngh, payload))
        b.lt(start, end)
        return b.finish(strict=True)

    def _build_merged(self, config: SystemConfig, mode: str) -> Program:
        groups = ("m", "s3")
        expected = shards_for_mode(config, mode, len(groups))
        if expected != self.n_shards:
            raise ValueError(
                f"workload built for {self.n_shards} shards; merged {mode} "
                f"on {config.n_pes} PEs needs {expected}")
        q = self.q
        pe_programs = []
        for shard in range(self.n_shards):
            inbox_producers = tuple(
                f"{self.name}.drm_val@{s}" for s in range(self.n_shards))
            merged_queues = [
                QueueSpec(q("iter", shard), control_only=True),
                QueueSpec(q("val_in", shard), entry_words=3),
            ]
            s3_queues = [QueueSpec(q("inbox", shard), entry_words=3,
                                   producers=inbox_producers)]
            merged_stage = StageSpec(self.stage_name("merged", shard),
                                     self._merged_dfg(shard),
                                     self._merged_semantics(shard))
            s3_stage = StageSpec(self.stage_name("update", shard),
                                 self._s3_dfg(shard),
                                 self._s3_semantics(shard))
            drm_val = DRMSpec(f"{self.name}.drm_val@{shard}", "deref",
                              in_queue=q("val_in", shard),
                              route=self._route_fn(),
                              route_targets=tuple(
                                  q("inbox", s)
                                  for s in range(self.n_shards)),
                              width=1, payload=True)
            if mode == "fifer":
                pe_programs.append(PEProgram(
                    shard=shard,
                    queue_specs=merged_queues + s3_queues,
                    stage_specs=[merged_stage, s3_stage],
                    drm_specs=[drm_val]))
            else:
                pe_programs.append(PEProgram(
                    shard=shard, queue_specs=merged_queues,
                    stage_specs=[merged_stage], drm_specs=[drm_val]))
                pe_programs.append(PEProgram(
                    shard=shard, queue_specs=s3_queues,
                    stage_specs=[s3_stage]))
        return self._finish_program(pe_programs)

    def _finish_program(self, pe_programs: list) -> Program:
        barrier = Queue(f"{self.name}.barrier",
                        capacity_words=4 * self.n_shards)
        coordinator = IterationCoordinator(self, barrier)
        return Program(
            name=self.name,
            pe_programs=pe_programs,
            address_space=self.space,
            memmap=self.memmap,
            external_queues={barrier.name: barrier},
            control_poll=coordinator.poll,
            control_poll_idle=coordinator.poll_idle,
            result_fn=self.result,
        )


class IterationCoordinator:
    """The control core's barrier logic (program init, iteration swap,
    teardown — paper Sec. 7.1)."""

    def __init__(self, workload: GraphPipelineWorkload, barrier: Queue):
        self.workload = workload
        self.barrier = barrier
        self.iteration = 0
        self._arrived: set = set()
        self._kicked = False

    def _dispatch(self, system) -> None:
        directives = self.workload.barrier_step(self.iteration)
        self.iteration += 1
        for shard in range(self.workload.n_shards):
            queue = system.resolve_queue(self.workload.q("iter", shard))
            if directives is None:
                queue.enq(STOP_VALUE, is_control=True)
            else:
                count, half = directives[shard]
                queue.enq(("iter", count, half), is_control=True)

    def poll(self, system) -> None:
        if not self._kicked:
            self._kicked = True
            self._dispatch(system)
            return
        while self.barrier.can_deq():
            token = self.barrier.deq()
            self._arrived.add(token.value[1])
        if len(self._arrived) == self.workload.n_shards:
            self._arrived.clear()
            self._dispatch(system)

    def poll_idle(self, system) -> bool:
        """Certify the next :meth:`poll` a no-op (fast-engine jumps).

        After the initial kick, a poll only acts when barrier tokens
        are waiting or every shard has already arrived; with neither
        true it drains nothing and dispatches nothing, and only a new
        barrier enqueue — queue activity — can change that.
        """
        return (self._kicked and not self.barrier.can_deq()
                and len(self._arrived) != self.workload.n_shards)

"""Silo: in-memory database B+tree lookups (paper Sec. 7.2, Fig. 12(b)).

Silo performs lookups against B+tree indexes. The pipeline traverses the
tree by examining the current node: an internal node is returned to the
traversal queue for another dereference — the *cycle* of Fig. 12(b) — and
a leaf node is searched for the value. Cycles are allowed because the
work is bounded: each internal node enqueues at most one additional node
on the cyclical path. Pipelining many lookups overlaps many memory
accesses at once.

Stages: query (stream keys) -> traverse internal node (self-cycle)
-> process leaf -> output. The traversal queue has two producers (the
query stage and the traversal stage itself), arbitrated with credits.

Organizing Silo this way enlarges its memory footprint, so the queue
memory is scaled down to 4 KB (paper Sec. 7.2) — apply
``recommended_config`` to the system configuration.
"""

from __future__ import annotations

import numpy as np

from repro.config import SystemConfig
from repro.core.drm import DRMSpec
from repro.core.program import PEProgram, Program
from repro.core.stage import STOP_VALUE, StageSpec
from repro.datasets.btree import BPlusTree
from repro.ir import DFGBuilder
from repro.memory.address import AddressSpace
from repro.memory.memmap import MemoryMap
from repro.queues.queue_memory import QueueSpec
from repro.workloads.common import shards_for_mode


def recommended_config(config: SystemConfig) -> SystemConfig:
    """Silo runs with the queue memory scaled to 4 KB (paper Sec. 7.2)."""
    return config.replace(queue_mem_bytes=4 * 1024)


def silo_reference(tree: BPlusTree, keys) -> tuple[int, int]:
    """Golden lookups; returns (found_count, checksum_of_found_values)."""
    found = 0
    checksum = 0
    for key in keys:
        value = tree.lookup(int(key))
        if value is not None:
            found += 1
            checksum = (checksum + int(value)) & 0xFFFFFFFFFFFF
    return found, checksum


class SiloWorkload:
    """Pipeline-parallel B+tree lookups."""

    name = "silo"

    def __init__(self, tree: BPlusTree, keys, n_shards: int):
        self.tree = tree
        self.n_shards = n_shards
        self.space = AddressSpace()
        self.memmap = MemoryMap()

        # The tree's nodes occupy one region; DRM reads resolve against a
        # zero array (the functional traversal uses the tree object).
        self.tree_ref = self.space.alloc_array(
            "btree_nodes", tree.total_bytes // 8)
        self.memmap.register(
            self.tree_ref, _ZeroArray(tree.total_bytes // 8))

        keys = np.asarray(keys, dtype=np.int64)
        # Operations are striped evenly across the PEs (paper Sec. 7.2).
        self.shard_keys = []
        self.key_refs = []
        for shard in range(n_shards):
            shard_keys = keys[shard::n_shards].copy()
            ref = self.space.alloc_array(f"keys.{shard}",
                                         max(1, len(shard_keys)))
            self.memmap.register(ref, shard_keys)
            self.shard_keys.append(shard_keys)
            self.key_refs.append(ref)
        self.found = [0] * n_shards
        self.checksum = [0] * n_shards
        # Per-shard bound on lookups in flight inside the traversal
        # cycle. The cycle of Fig. 12(b) deadlocks if new lookups can
        # saturate both the traversal queue and the node-fetch output
        # (the recirculating token then has nowhere to go), so the query
        # stage bounds admissions and the traversal stage returns a
        # credit as each lookup leaves for the leaf stage. Sized from
        # the carved queue capacities in ``_post_build``.
        self.lookup_window = [1] * n_shards

    def node_addr(self, node_id: int) -> int:
        return self.tree_ref.base + self.tree.node_offset(node_id)

    # -- naming -----------------------------------------------------------

    def q(self, kind: str, shard: int) -> str:
        return f"{self.name}.{kind}@{shard}"

    def stage_name(self, stage: str, shard: int) -> str:
        return f"{self.name}.{stage}@{shard}"

    # -- stage semantics ------------------------------------------------------

    def _query_semantics(self, shard: int):
        q = self.q
        keys = self.shard_keys[shard]
        ref = self.key_refs[shard]
        tree = self.tree

        def run(ctx):
            if len(keys):
                start = ref.addr(0)
                yield from ctx.enq(q("keys_in", shard),
                                   (start, start + len(keys) * 8))
            root_is_leaf = tree.depth == 1
            outstanding = 0
            for _ in range(len(keys)):
                token = yield from ctx.deq(q("keys_out", shard))
                key = int(token.value)
                addr = self.node_addr(tree.root_id)
                if root_is_leaf:
                    yield from ctx.enq(q("leaf_in", shard),
                                       (addr, key, tree.root_id))
                    continue
                if outstanding >= self.lookup_window[shard]:
                    yield from ctx.deq(q("credits", shard))
                    outstanding -= 1
                yield from ctx.enq(q("trav", shard),
                                   (addr, addr + 64, key, tree.root_id))
                outstanding += 1
            while outstanding > 0:
                yield from ctx.deq(q("credits", shard))
                outstanding -= 1
            yield from ctx.enq(q("trav", shard), STOP_VALUE, is_control=True)

        return run

    def _traverse_semantics(self, shard: int):
        q = self.q
        tree = self.tree
        root = tree.root_id

        def run(ctx):
            entered = 0
            exited = 0
            stop_seen = False
            while True:
                if stop_seen and entered == exited:
                    yield from ctx.enq(q("leaf_in", shard), STOP_VALUE,
                                       is_control=True)
                    return
                token = yield from ctx.deq(q("node_out", shard))
                if token.is_control:
                    assert token.value == STOP_VALUE
                    stop_seen = True
                    continue
                _, _, key, node_id = token.value
                if node_id == root:
                    entered += 1
                child, is_leaf = tree.step(int(node_id), int(key))
                yield from ctx.cycles(2)  # in-node binary search
                addr = self.node_addr(child)
                if is_leaf:
                    exited += 1
                    yield from ctx.enq(q("credits", shard), 1)
                    yield from ctx.enq(q("leaf_in", shard),
                                       (addr, key, child))
                else:
                    yield from ctx.enq(q("trav", shard),
                                       (addr, addr + 64, key, child))

        return run

    def _leaf_semantics(self, shard: int):
        q = self.q
        tree = self.tree

        def run(ctx):
            while True:
                token = yield from ctx.deq(q("leaf_out", shard))
                if token.is_control:
                    yield from ctx.enq(q("results", shard), token.value,
                                       is_control=True)
                    return
                _, key, leaf_id = token.value
                yield from ctx.cycles(2)  # in-leaf binary search
                value = tree.leaf_lookup(int(leaf_id), int(key))
                yield from ctx.enq(q("results", shard),
                                   (key, -1 if value is None else int(value)))

        return run

    def _output_semantics(self, shard: int):
        q = self.q

        def run(ctx):
            while True:
                token = yield from ctx.deq(q("results", shard))
                if token.is_control:
                    return
                _, value = token.value
                if value >= 0:
                    self.found[shard] += 1
                    self.checksum[shard] = (
                        self.checksum[shard] + value) & 0xFFFFFFFFFFFF

        return run

    # -- dataflow graphs ------------------------------------------------------

    def _query_dfg(self, shard: int):
        b = DFGBuilder(self.stage_name("query", shard))
        key = b.deq(self.q("keys_out", shard))
        b.deq(self.q("credits", shard))
        root = b.const(self.node_addr(self.tree.root_id))
        b.enq(self.q("trav", shard), root)
        b.enq(self.q("trav", shard), key)
        b.enq(self.q("keys_in", shard), key)
        return b.finish()

    def _traverse_dfg(self, shard: int):
        b = DFGBuilder(self.stage_name("traverse", shard))
        token = b.deq(self.q("node_out", shard))
        key = b.ctrl(token)
        found = b.lt(key, token)          # binary-search step
        mid = b.shr(b.add(token, key), b.const(1))
        child = b.sel(found, mid, token)
        base = b.const(0)
        addr = b.lea(base, child)
        b.enq(self.q("trav", shard), addr)
        b.enq(self.q("leaf_in", shard), addr)
        b.enq(self.q("leaf_in", shard), key)
        # Leaf exits return a window credit to the query stage (see
        # _traverse_semantics); declare the edge so the static channel
        # graph sees the credit queue's producer.
        b.enq(self.q("credits", shard), found)
        return b.finish()

    def _leaf_dfg(self, shard: int):
        b = DFGBuilder(self.stage_name("leaf", shard))
        token = b.deq(self.q("leaf_out", shard))
        key = b.ctrl(token)
        eq = b.eq(token, key)
        value = b.sel(eq, token, key)
        b.enq(self.q("results", shard), value)
        return b.finish()

    def _output_dfg(self, shard: int):
        b = DFGBuilder(self.stage_name("output", shard))
        token = b.deq(self.q("results", shard))
        count = b.reg("found")
        total = b.add(count, token)
        b.set_reg(count, total)
        return b.finish()

    # -- merged variant: traverse+leaf+output fused, coupled node loads -------

    def _merged_semantics(self, shard: int):
        q = self.q
        tree = self.tree

        def run(ctx):
            while True:
                token = yield from ctx.deq(q("trav", shard))
                if token.is_control:
                    return
                key = int(token.value)
                node_id = tree.root_id
                while not tree.nodes[node_id].is_leaf:
                    yield from ctx.load(self.node_addr(node_id))
                    yield from ctx.load(self.node_addr(node_id) + 64)
                    yield from ctx.cycles(2)
                    node_id, _ = tree.step(node_id, key)
                yield from ctx.load(self.node_addr(node_id))
                yield from ctx.cycles(2)
                value = tree.leaf_lookup(node_id, key)
                if value is not None:
                    self.found[shard] += 1
                    self.checksum[shard] = (
                        self.checksum[shard] + int(value)) & 0xFFFFFFFFFFFF

        return run

    def _merged_dfg(self, shard: int):
        b = DFGBuilder(self.stage_name("lookup", shard))
        key = b.deq(self.q("trav", shard))
        node = b.reg("node")
        base = b.const(0)
        w1 = b.load(b.lea(base, node))
        w2 = b.load(b.lea(b.const(1), node))
        found = b.lt(key, w1)
        child = b.sel(found, w1, w2)
        b.set_reg(node, child)
        b.eq(key, w2)
        return b.finish()

    def _merged_query_dfg(self, shard: int):
        b = DFGBuilder(self.stage_name("query", shard))
        key = b.deq(self.q("keys_out", shard))
        b.enq(self.q("trav", shard), key)
        b.enq(self.q("keys_in", shard), key)
        return b.finish()

    def _merged_query_semantics(self, shard: int):
        q = self.q
        keys = self.shard_keys[shard]
        ref = self.key_refs[shard]

        def run(ctx):
            if len(keys):
                start = ref.addr(0)
                yield from ctx.enq(q("keys_in", shard),
                                   (start, start + len(keys) * 8))
            for _ in range(len(keys)):
                token = yield from ctx.deq(q("keys_out", shard))
                yield from ctx.enq(q("trav", shard), int(token.value))
            yield from ctx.enq(q("trav", shard), STOP_VALUE, is_control=True)

        return run

    # -- program assembly -----------------------------------------------------

    def _shard_groups(self, shard: int):
        q = self.q
        trav_producers = (self.stage_name("query", shard),
                          self.stage_name("traverse", shard))
        queue_specs = {
            "sq": [QueueSpec(q("keys_in", shard), entry_words=2),
                   QueueSpec(q("keys_out", shard)),
                   QueueSpec(q("credits", shard))],
            "st": [QueueSpec(q("trav", shard), entry_words=4, weight=2.0,
                             producers=trav_producers),
                   QueueSpec(q("node_out", shard), entry_words=4,
                             weight=2.0)],
            "sl": [QueueSpec(q("leaf_in", shard), entry_words=3),
                   QueueSpec(q("leaf_out", shard), entry_words=3)],
            "so": [QueueSpec(q("results", shard), entry_words=2)],
        }
        drm_specs = {
            "sq": [DRMSpec(f"{self.name}.drm_keys@{shard}", "scan",
                           in_queue=q("keys_in", shard),
                           out_queue=q("keys_out", shard))],
            "st": [DRMSpec(f"{self.name}.drm_node@{shard}", "deref",
                           in_queue=q("trav", shard),
                           out_queue=q("node_out", shard),
                           width=2, payload=True)],
            "sl": [DRMSpec(f"{self.name}.drm_leaf@{shard}", "deref",
                           in_queue=q("leaf_in", shard),
                           out_queue=q("leaf_out", shard),
                           width=1, payload=True)],
        }
        stage_specs = {
            "sq": StageSpec(self.stage_name("query", shard),
                            self._query_dfg(shard),
                            self._query_semantics(shard)),
            "st": StageSpec(self.stage_name("traverse", shard),
                            self._traverse_dfg(shard),
                            self._traverse_semantics(shard)),
            "sl": StageSpec(self.stage_name("leaf", shard),
                            self._leaf_dfg(shard),
                            self._leaf_semantics(shard)),
            "so": StageSpec(self.stage_name("output", shard),
                            self._output_dfg(shard),
                            self._output_semantics(shard)),
        }
        return queue_specs, drm_specs, stage_specs

    def build_program(self, config: SystemConfig, mode: str,
                      variant: str = "decoupled") -> Program:
        if mode not in ("fifer", "static"):
            raise ValueError(f"unknown mode {mode!r}")
        pe_programs = []
        if variant == "decoupled":
            groups = ("sq", "st", "sl", "so")
            for shard in range(self.n_shards):
                queue_specs, drm_specs, stage_specs = self._shard_groups(shard)
                if mode == "fifer":
                    pe_programs.append(PEProgram(
                        shard=shard,
                        queue_specs=[s for g in groups
                                     for s in queue_specs[g]],
                        stage_specs=[stage_specs[g] for g in groups],
                        drm_specs=[d for g in groups
                                   for d in drm_specs.get(g, [])]))
                else:
                    for group in groups:
                        pe_programs.append(PEProgram(
                            shard=shard,
                            queue_specs=queue_specs[group],
                            stage_specs=[stage_specs[group]],
                            drm_specs=drm_specs.get(group, [])))
        elif variant == "merged":
            for shard in range(self.n_shards):
                q = self.q
                sq_queues = [QueueSpec(q("keys_in", shard), entry_words=2),
                             QueueSpec(q("keys_out", shard))]
                lookup_queues = [QueueSpec(q("trav", shard), weight=2.0)]
                sq = StageSpec(self.stage_name("query", shard),
                               self._merged_query_dfg(shard),
                               self._merged_query_semantics(shard))
                lookup = StageSpec(self.stage_name("lookup", shard),
                                   self._merged_dfg(shard),
                                   self._merged_semantics(shard))
                drm_keys = DRMSpec(f"{self.name}.drm_keys@{shard}", "scan",
                                   in_queue=q("keys_in", shard),
                                   out_queue=q("keys_out", shard))
                if mode == "fifer":
                    pe_programs.append(PEProgram(
                        shard=shard,
                        queue_specs=sq_queues + lookup_queues,
                        stage_specs=[sq, lookup], drm_specs=[drm_keys]))
                else:
                    pe_programs.append(PEProgram(
                        shard=shard, queue_specs=sq_queues,
                        stage_specs=[sq], drm_specs=[drm_keys]))
                    pe_programs.append(PEProgram(
                        shard=shard, queue_specs=lookup_queues,
                        stage_specs=[lookup]))
        else:
            raise ValueError(f"unknown variant {variant!r}")
        return Program(
            name=self.name,
            pe_programs=pe_programs,
            address_space=self.space,
            memmap=self.memmap,
            post_build=(self._post_build if variant == "decoupled" else None),
            result_fn=lambda: (sum(self.found),
                               sum(self.checksum) & 0xFFFFFFFFFFFF),
        )

    def _post_build(self, system) -> None:
        """Size each shard's lookup window from carved queue capacities.

        The deadlock in the traversal cycle requires the traversal
        stage's credit share of ``trav`` *and* the node-fetch output to
        be saturated simultaneously (plus one token in the stage's
        hands), so any window strictly below their combined capacity is
        safe; the credit-return queue must also never fill.
        """
        for shard in range(self.n_shards):
            node_out = system.resolve_queue(self.q("node_out", shard))
            trav = system.resolve_queue(self.q("trav", shard))
            credits = system.resolve_queue(self.q("credits", shard))
            node_out_entries = node_out.capacity_words // node_out.entry_words
            trav_share = (trav.capacity_words // 2) // trav.entry_words
            self.lookup_window[shard] = max(
                1, min(node_out_entries + trav_share,
                       credits.capacity_words) - 1)


class _ZeroArray:
    """Indexable all-zero stand-in for the tree's raw node words."""

    def __init__(self, n: int):
        self._n = n

    def __getitem__(self, index):
        if not 0 <= index < self._n:
            raise IndexError(index)
        return 0

    def __setitem__(self, index, value):
        raise TypeError("B+tree node words are read-only in simulation")

    def __len__(self):
        return self._n


def build(tree: BPlusTree, keys, config, mode: str,
          variant: str = "decoupled"):
    n_stages = 4 if variant == "decoupled" else 2
    workload = SiloWorkload(tree, keys,
                            shards_for_mode(config, mode, n_stages))
    return workload.build_program(config, mode, variant), workload

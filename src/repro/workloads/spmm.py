"""Sparse matrix-matrix multiplication, inner-product dataflow
(paper Sec. 7.2, Fig. 12(a)).

SpMM multiplies a CSR matrix A by a CSC matrix B one output element at a
time: C[i,j] is the inner product of row A_i and column B_j. In
compressed form only coordinates present in *both* lists contribute, so
the pipeline is:

  stream rows of A ──┐
                     ├─> merge-intersect ─> accumulate
  stream cols of B ──┘

The merge-intersect stage walks the two coordinate lists in tandem; when
one list ends it *directs the producer of the other to stop fetching
unneeded data* — the abort feedback that makes SpMM control-intensive
and reconfiguration-heavy on sparse inputs (paper Sec. 8.2).

Each shard owns a contiguous block of the sampled output rows; as in
the paper, a subset of rows and columns is multiplied to keep runs
tractable.
"""

from __future__ import annotations

import numpy as np

from repro.config import SystemConfig
from repro.core.drm import DRMSpec
from repro.core.program import PEProgram, Program
from repro.core.stage import STOP_VALUE, StageSpec
from repro.datasets.matrices import SparseMatrix
from repro.ir import DFGBuilder
from repro.memory.address import AddressSpace
from repro.memory.memmap import MemoryMap
from repro.queues.queue_memory import QueueSpec
from repro.workloads.common import shards_for_mode

END_LIST = "__END_LIST__"


def spmm_reference(matrix: SparseMatrix, rows, cols) -> dict:
    """Golden sampled inner-product SpMM: {(i, j): value}, non-zeros only.

    Accumulation follows ascending coordinate order — the same order the
    pipeline's merge-intersect uses — so results match bit-for-bit.
    """
    columns = []
    for j in cols:
        b_idx, b_val = matrix.col(j)
        columns.append((int(j), b_idx.tolist(), b_val.tolist()))
    out = {}
    for i in rows:
        a_idx, a_val = matrix.row(i)
        a_idx, a_val = a_idx.tolist(), a_val.tolist()
        n_a = len(a_idx)
        for j, b_idx, b_val in columns:
            n_b = len(b_idx)
            acc = 0.0
            pa = pb = 0
            while pa < n_a and pb < n_b:
                if a_idx[pa] == b_idx[pb]:
                    acc += a_val[pa] * b_val[pb]
                    pa += 1
                    pb += 1
                elif a_idx[pa] < b_idx[pb]:
                    pa += 1
                else:
                    pb += 1
            if acc != 0.0:
                out[(int(i), j)] = acc
    return out


def sample_rows_cols(matrix: SparseMatrix, n_rows: int, n_cols: int,
                     seed: int = 5):
    """Pick the sampled row/column subsets (sorted, without replacement)."""
    rng = np.random.default_rng(seed)
    rows = np.sort(rng.choice(matrix.n, size=min(n_rows, matrix.n),
                              replace=False))
    cols = np.sort(rng.choice(matrix.n, size=min(n_cols, matrix.n),
                              replace=False))
    return rows.astype(np.int64), cols.astype(np.int64)


class SpMMWorkload:
    """Pipeline-parallel inner-product SpMM."""

    name = "spmm"

    def __init__(self, matrix: SparseMatrix, n_shards: int, rows, cols):
        self.matrix = matrix
        self.n_shards = n_shards
        self.rows = np.asarray(rows, dtype=np.int64)
        self.cols = np.asarray(cols, dtype=np.int64)
        self.space = AddressSpace()
        self.memmap = MemoryMap()
        self.output: dict = {}

        self.row_ptr_ref = self.space.alloc_array("row_ptr", matrix.n + 1)
        self.row_idx_ref = self.space.alloc_array("row_idx",
                                                  max(1, matrix.nnz))
        self.row_val_ref = self.space.alloc_array("row_val",
                                                  max(1, matrix.nnz))
        self.col_ptr_ref = self.space.alloc_array("col_ptr", matrix.n + 1)
        self.col_idx_ref = self.space.alloc_array("col_idx",
                                                  max(1, matrix.nnz))
        self.col_val_ref = self.space.alloc_array("col_val",
                                                  max(1, matrix.nnz))
        self.out_ref = self.space.alloc_array(
            "c_out", max(1, len(self.rows) * len(self.cols)))
        for ref, array in ((self.row_ptr_ref, matrix.row_ptr),
                           (self.row_idx_ref, matrix.row_idx),
                           (self.row_val_ref, matrix.row_val),
                           (self.col_ptr_ref, matrix.col_ptr),
                           (self.col_idx_ref, matrix.col_idx),
                           (self.col_val_ref, matrix.col_val)):
            self.memmap.register(ref, array)
        self.memmap.register(self.out_ref,
                             np.zeros(self.out_ref.n_elems))

        # Contiguous blocks of sampled rows per shard (paper Sec. 7.2).
        bounds = np.linspace(0, len(self.rows), n_shards + 1).astype(int)
        self.shard_rows = [self.rows[bounds[s]:bounds[s + 1]]
                           for s in range(n_shards)]

    # -- naming ---------------------------------------------------------------

    def q(self, kind: str, shard: int) -> str:
        return f"{self.name}.{kind}@{shard}"

    def stage_name(self, stage: str, shard: int) -> str:
        return f"{self.name}.{stage}@{shard}"

    def _out_index(self, i: int, j: int) -> int:
        return (int(np.searchsorted(self.rows, i)) * len(self.cols)
                + int(np.searchsorted(self.cols, j)))

    # -- stage semantics ------------------------------------------------------

    def _pairs(self, shard: int):
        for i in self.shard_rows[shard]:
            for j in self.cols:
                yield int(i), int(j)

    # How many pairs a producer may stream ahead of the intersect
    # stage's pair-advance directives.
    PAIR_WINDOW = 4

    def _stream_semantics(self, shard: int, side: str):
        """SA/SB: stream one coordinate list per pair.

        Producers are paced by the merge-intersect stage: a ``NEXT``
        control value both advances the pair window and — when it
        arrives for the pair currently being streamed — aborts the rest
        of that list ("directs the producer to stop fetching unneeded
        data", paper Sec. 8.2).
        """
        q = self.q
        if side == "a":
            ptr, idx_ref = self.matrix.row_ptr, self.row_idx_ref
            in_q, next_q = q("a_in", shard), q("next_a", shard)
        else:
            ptr, idx_ref = self.matrix.col_ptr, self.col_idx_ref
            in_q, next_q = q("b_in", shard), q("next_b", shard)
        window = self.PAIR_WINDOW

        def run(ctx):
            if side == "a":
                pairs = self._pairs(shard)
            outstanding = 0
            while True:
                if side == "a":
                    pair = next(pairs, None)
                    if pair is None:
                        while outstanding > 0:
                            yield from ctx.deq(next_q)
                            outstanding -= 1
                        yield from ctx.enq(q("pair_b", shard), STOP_VALUE,
                                           is_control=True)
                        yield from ctx.enq(in_q, STOP_VALUE, is_control=True)
                        return
                    i, j = pair
                    yield from ctx.enq(q("pair_b", shard), ("PAIR", i, j),
                                       is_control=True)
                else:
                    token = yield from ctx.deq(q("pair_b", shard))
                    if token.value == STOP_VALUE:
                        while outstanding > 0:
                            yield from ctx.deq(next_q)
                            outstanding -= 1
                        yield from ctx.enq(in_q, STOP_VALUE, is_control=True)
                        return
                    _, i, j = token.value
                while outstanding >= window:
                    yield from ctx.deq(next_q)
                    outstanding -= 1
                yield from ctx.enq(in_q, ("PAIR", i, j), is_control=True)
                outstanding += 1
                key = i if side == "a" else j
                lo, hi = int(ptr[key]), int(ptr[key + 1])
                for pos in range(lo, hi):
                    advance = yield from ctx.try_deq(next_q)
                    if advance is not None:
                        outstanding -= 1
                        if advance.value[1:] == (i, j):
                            break  # abort the rest of this list
                    yield from ctx.enq(in_q, (idx_ref.addr(pos), pos))
                yield from ctx.enq(in_q, END_LIST, is_control=True)

        return run

    def _intersect_semantics(self, shard: int):
        q = self.q
        row_val, col_val = self.row_val_ref, self.col_val_ref

        def next_token(ctx, queue):
            token = yield from ctx.deq(queue)
            return token

        def run(ctx):
            a_out, b_out = q("a_out", shard), q("b_out", shard)
            next_a, next_b = q("next_a", shard), q("next_b", shard)
            vals_in = q("vals_in", shard)
            while True:
                atok = yield from ctx.deq(a_out)
                btok = yield from ctx.deq(b_out)
                if atok.value == STOP_VALUE:
                    assert btok.value == STOP_VALUE
                    yield from ctx.enq(vals_in, STOP_VALUE, is_control=True)
                    return
                assert atok.is_control and btok.is_control
                _, i, j = atok.value
                assert atok.value == btok.value, "pair misalignment"
                a = yield from next_token(ctx, a_out)
                b = yield from next_token(ctx, b_out)
                while not a.is_control and not b.is_control:
                    ca, pa = a.value
                    cb, pb = b.value
                    if ca == cb:
                        yield from ctx.enq(vals_in, (row_val.addr(int(pa)),
                                                     col_val.addr(int(pb))))
                        a = yield from next_token(ctx, a_out)
                        b = yield from next_token(ctx, b_out)
                    elif ca < cb:
                        a = yield from next_token(ctx, a_out)
                    else:
                        b = yield from next_token(ctx, b_out)
                # One side ended: direct the other producer to stop
                # fetching unneeded data (its NEXT doubles as the abort),
                # then drain what it already enqueued.
                if a.is_control and not b.is_control:
                    yield from ctx.enq(next_b, ("NEXT", i, j),
                                       is_control=True)
                    while not b.is_control:
                        b = yield from next_token(ctx, b_out)
                    yield from ctx.enq(next_a, ("NEXT", i, j),
                                       is_control=True)
                elif b.is_control and not a.is_control:
                    yield from ctx.enq(next_a, ("NEXT", i, j),
                                       is_control=True)
                    while not a.is_control:
                        a = yield from next_token(ctx, a_out)
                    yield from ctx.enq(next_b, ("NEXT", i, j),
                                       is_control=True)
                else:
                    yield from ctx.enq(next_a, ("NEXT", i, j),
                                       is_control=True)
                    yield from ctx.enq(next_b, ("NEXT", i, j),
                                       is_control=True)
                yield from ctx.enq(vals_in, ("PAIR_DONE", i, j),
                                   is_control=True)

        return run

    def _accumulate_semantics(self, shard: int):
        q = self.q

        def run(ctx):
            acc = 0.0
            while True:
                token = yield from ctx.deq(q("vals_out", shard))
                if token.is_control:
                    if token.value == STOP_VALUE:
                        return
                    _, i, j = token.value  # PAIR_DONE
                    if acc != 0.0:
                        self.output[(i, j)] = acc
                        yield from ctx.store(
                            self.out_ref.addr(self._out_index(i, j)))
                    acc = 0.0
                    continue
                a_val, b_val = token.value
                acc += float(a_val) * float(b_val)

        return run

    # -- stage dataflow graphs ------------------------------------------------

    def _stream_dfg(self, shard: int, side: str):
        b = DFGBuilder(self.stage_name(f"stream_{side}", shard))
        if side == "b":
            b.deq(self.q("pair_b", shard))
        b.deq(self.q(f"next_{side}", shard))
        base = b.const(0)
        pos = b.reg("pos")
        one = b.const(1)
        nxt = b.add(pos, one)
        b.set_reg(pos, nxt)
        addr = b.lea(base, nxt)
        b.lt(nxt, one)
        b.enq(self.q(f"{side}_in", shard), addr)
        b.enq(self.q(f"{side}_in", shard), nxt)
        if side == "a":
            # SA also forwards the pair stream to SB (see
            # _stream_semantics); declare the edge so the static channel
            # graph sees pair_b's producer.
            b.enq(self.q("pair_b", shard), nxt)
        return b.finish()

    def _intersect_dfg(self, shard: int):
        b = DFGBuilder(self.stage_name("intersect", shard))
        a = b.deq(self.q("a_out", shard))
        c = b.deq(self.q("b_out", shard))
        lt = b.lt(a, c)
        eq = b.eq(a, c)
        base_a = b.const(0)
        base_b = b.const(1)
        addr_a = b.lea(base_a, a)
        addr_b = b.lea(base_b, c)
        b.enq(self.q("vals_in", shard), addr_a)
        b.enq(self.q("vals_in", shard), addr_b)
        b.enq(self.q("next_a", shard), lt)
        b.enq(self.q("next_b", shard), eq)
        return b.finish()

    def _accumulate_dfg(self, shard: int):
        b = DFGBuilder(self.stage_name("accumulate", shard))
        token = b.deq(self.q("vals_out", shard))
        other = b.ctrl(token)
        acc = b.reg("acc")
        total = b.fma(token, other, acc)
        b.set_reg(acc, total)
        base = b.const(0)
        b.store(b.lea(base, token), total)
        return b.finish()

    # -- merged variant (Fig. 17): whole multiply in one stage ----------------

    def _merged_semantics(self, shard: int):
        matrix = self.matrix

        def run(ctx):
            for i, j in self._pairs(shard):
                a_lo, a_hi = int(matrix.row_ptr[i]), int(matrix.row_ptr[i + 1])
                b_lo, b_hi = int(matrix.col_ptr[j]), int(matrix.col_ptr[j + 1])
                acc = 0.0
                pa, pb = a_lo, b_lo
                while pa < a_hi and pb < b_hi:
                    yield from ctx.load(self.row_idx_ref.addr(pa))
                    yield from ctx.load(self.col_idx_ref.addr(pb))
                    yield from ctx.cycles(1)
                    ca, cb = int(matrix.row_idx[pa]), int(matrix.col_idx[pb])
                    if ca == cb:
                        yield from ctx.load(self.row_val_ref.addr(pa))
                        yield from ctx.load(self.col_val_ref.addr(pb))
                        acc += float(matrix.row_val[pa] * matrix.col_val[pb])
                        pa += 1
                        pb += 1
                    elif ca < cb:
                        pa += 1
                    else:
                        pb += 1
                if acc != 0.0:
                    self.output[(i, j)] = acc
                    yield from ctx.store(
                        self.out_ref.addr(self._out_index(i, j)))
            return
            yield  # pragma: no cover

        return run

    def _merged_dfg(self, shard: int):
        b = DFGBuilder(self.stage_name("merged", shard))
        base = b.const(0)
        pa = b.reg("pa")
        pb = b.reg("pb")
        one = b.const(1)
        ca = b.load(b.lea(base, pa))
        cb = b.load(b.lea(b.const(1), pb))
        eq = b.eq(ca, cb)
        lt = b.lt(ca, cb)
        pa_n = b.add(pa, b.or_(eq, lt))
        pb_n = b.add(pb, b.sub(one, lt))
        b.set_reg(pa, pa_n)
        b.set_reg(pb, pb_n)
        av = b.load(b.lea(b.const(2), pa_n))
        bv = b.load(b.lea(b.const(3), pb_n))
        acc = b.reg("acc")
        total = b.fma(av, bv, acc)
        b.set_reg(acc, total)
        b.store(b.lea(base, eq), total)
        return b.finish()

    # -- program assembly -----------------------------------------------------

    def _shard_groups(self, shard: int):
        q = self.q
        queue_specs = {
            "sa": [QueueSpec(q("next_a", shard)),
                   QueueSpec(q("a_in", shard), entry_words=2)],
            "sb": [QueueSpec(q("pair_b", shard)),
                   QueueSpec(q("next_b", shard)),
                   QueueSpec(q("b_in", shard), entry_words=2)],
            "sx": [QueueSpec(q("a_out", shard), entry_words=2),
                   QueueSpec(q("b_out", shard), entry_words=2),
                   QueueSpec(q("vals_in", shard), entry_words=2)],
            "sacc": [QueueSpec(q("vals_out", shard), entry_words=2)],
        }
        drm_specs = {
            "sa": [DRMSpec(f"{self.name}.drm_a@{shard}", "deref",
                           in_queue=q("a_in", shard),
                           out_queue=q("a_out", shard),
                           width=1, payload=True)],
            "sb": [DRMSpec(f"{self.name}.drm_b@{shard}", "deref",
                           in_queue=q("b_in", shard),
                           out_queue=q("b_out", shard),
                           width=1, payload=True)],
            "sx": [DRMSpec(f"{self.name}.drm_vals@{shard}", "deref",
                           in_queue=q("vals_in", shard),
                           out_queue=q("vals_out", shard),
                           width=2)],
        }
        stage_specs = {
            "sa": StageSpec(self.stage_name("stream_a", shard),
                            self._stream_dfg(shard, "a"),
                            self._stream_semantics(shard, "a")),
            "sb": StageSpec(self.stage_name("stream_b", shard),
                            self._stream_dfg(shard, "b"),
                            self._stream_semantics(shard, "b")),
            "sx": StageSpec(self.stage_name("intersect", shard),
                            self._intersect_dfg(shard),
                            self._intersect_semantics(shard)),
            "sacc": StageSpec(self.stage_name("accumulate", shard),
                              self._accumulate_dfg(shard),
                              self._accumulate_semantics(shard)),
        }
        return queue_specs, drm_specs, stage_specs

    def build_program(self, config: SystemConfig, mode: str,
                      variant: str = "decoupled") -> Program:
        if mode not in ("fifer", "static"):
            raise ValueError(f"unknown mode {mode!r}")
        pe_programs = []
        if variant == "merged":
            for shard in range(self.n_shards):
                pe_programs.append(PEProgram(
                    shard=shard,
                    queue_specs=[],
                    stage_specs=[StageSpec(self.stage_name("merged", shard),
                                           self._merged_dfg(shard),
                                           self._merged_semantics(shard))],
                ))
        elif variant == "decoupled":
            groups = ("sa", "sb", "sx", "sacc")
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
        else:
            raise ValueError(f"unknown variant {variant!r}")
        return Program(
            name=self.name,
            pe_programs=pe_programs,
            address_space=self.space,
            memmap=self.memmap,
            result_fn=lambda: dict(self.output),
        )


def build(matrix: SparseMatrix, config, mode: str,
          variant: str = "decoupled", n_rows: int = 48, n_cols: int = 48,
          seed: int = 5):
    """Build a sampled SpMM program (rows x cols output block)."""
    n_stages = 4 if variant == "decoupled" else 1
    n_shards = shards_for_mode(config, mode, n_stages)
    rows, cols = sample_rows_cols(matrix, n_rows, n_cols, seed)
    workload = SpMMWorkload(matrix, n_shards, rows, cols)
    return workload.build_program(config, mode, variant), workload

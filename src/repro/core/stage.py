"""Stage specifications and the coroutine execution protocol.

A stage's *semantics* are a Python generator that yields
micro-architectural requests; the PE engine satisfies each request,
charges its cycle cost, and resumes the generator with the result. The
stage's *timing shape* comes from its dataflow graph's mapping (pipeline
depth, SIMD replication factor, configuration size).

Request protocol (tuples yielded by the coroutine):

* ``("deq", queue_name)`` — dequeue one token; blocks while empty.
* ``("try_deq", queue_name)`` — dequeue if available, else ``None``.
* ``("enq", queue_name, value, is_control)`` — enqueue; blocks while
  full (or out of credits on a multi-producer queue).
* ``("load", addr)`` — coupled load: L1 hit latency is hidden in the
  pipeline; a miss stalls the PE (paper Sec. 5.4).
* ``("store", addr)`` — coupled store (write-allocate; misses stall).
* ``("cycles", n)`` — charge ``n`` explicit compute cycles.

Cycle cost of queue I/O follows the SIMD execution model of Sec. 5.6:
with replication factor R, data tokens cost 1/R cycle per dequeue or
enqueue — and dequeues and enqueues of the same element overlap in the
pipelined datapath, so the charged cost is the *max* of the two running
totals, not their sum. Control values are always handled serially and
cost a full cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Optional

from repro.ir.dfg import DataflowGraph

# Sentinel control value that terminates a pipeline (propagated downstream
# by every stage; see paper Sec. 5.5 "the end of the program").
STOP_VALUE = "__STOP__"


@dataclass(frozen=True)
class StageSpec:
    """Declaration of one pipeline stage.

    ``semantics`` is called with a :class:`StageContext` and must return
    the stage's coroutine. ``max_replication`` caps SIMD datapath
    replication (e.g., for stages with serial recurrences).
    """

    name: str
    dfg: DataflowGraph
    semantics: Callable[["StageContext"], Generator]
    max_replication: Optional[int] = None


class StageContext:
    """Facilities a stage coroutine uses to talk to the PE engine.

    The helper methods are sub-generators: stage code invokes them as
    ``value = yield from ctx.deq("q")``.
    """

    def __init__(self, pe_id: int, stage_name: str, shard: int, n_shards: int):
        self.pe_id = pe_id
        self.stage_name = stage_name
        self.shard = shard
        self.n_shards = n_shards

    @property
    def producer_key(self) -> str:
        """Identity used for credit accounting on multi-producer queues.

        Stage names are unique per shard by construction, so the name
        itself identifies the producer.
        """
        return self.stage_name

    # Each helper is a tiny generator so stage code composes with
    # ``yield from``; the engine only resumes a request once it is
    # satisfiable, so no retry loop is needed here.

    def deq(self, queue: str):
        token = yield ("deq", queue)
        return token

    def try_deq(self, queue: str):
        token = yield ("try_deq", queue)
        return token

    def enq(self, queue: str, value: Any, is_control: bool = False):
        yield ("enq", queue, value, is_control)

    def load(self, addr: int):
        yield ("load", addr)

    def store(self, addr: int):
        yield ("store", addr)

    def cycles(self, n: float):
        yield ("cycles", n)


@dataclass
class StageInstance:
    """One stage resident on one PE (one shard of the program)."""

    spec: StageSpec
    ctx: StageContext
    mapping: Any  # repro.cgra.mapper.Mapping
    config_addr: int  # where this stage's bitstream lives in memory
    # The stage coroutine, built on the first advance().
    gen: Optional[Generator] = field(default=None, repr=False)
    pending: Optional[tuple] = None
    started: bool = False
    done: bool = False
    # Running I/O totals for max-based SIMD cost accounting.
    work_deq: float = 0.0
    work_enq: float = 0.0
    # What-if datapath speed factor (SystemConfig.stage_speedup): divides
    # queue-I/O and explicit compute costs. The 1.0 default takes the
    # unscaled code paths so ordinary runs stay bit-identical.
    speed: float = 1.0
    # The request loop that replaces PE._execute on the fast engine
    # (repro.codegen.interp.make_interp_step, bound by
    # repro.codegen.runtime.bind_system), called as
    # step_fn(pe, stage, budget); None on the naive engine.
    step_fn: Optional[Callable[[Any, "StageInstance", float], float]] = (
        field(default=None, repr=False))

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def replication(self) -> int:
        return self.mapping.replication

    def io_cost(self, n_deq: int, n_enq: int, is_control: bool) -> float:
        """Charge queue I/O and return the marginal cycle cost."""
        wd = self.work_deq
        we = self.work_enq
        speed = self.speed
        if is_control:
            # Control values are handled one per cycle (Sec. 5.6).
            inc = 1.0 if speed == 1.0 else 1.0 / speed
            top = (wd if wd >= we else we) + inc
            self.work_deq = self.work_enq = top
            return inc
        before = wd if wd >= we else we
        r = self.mapping.replication
        if speed != 1.0:
            r = r * speed
        wd += n_deq / r
        we += n_enq / r
        self.work_deq = wd
        self.work_enq = we
        return (wd if wd >= we else we) - before

    def advance(self, result: Any) -> Optional[tuple]:
        """Resume the coroutine with ``result``; returns the next request
        (or ``None`` when the stage finishes)."""
        try:
            if not self.started:
                self.started = True
                self.gen = self.spec.semantics(self.ctx)
                self.pending = next(self.gen)
            else:
                self.pending = self.gen.send(result)
        except StopIteration:
            self.pending = None
            self.done = True
        return self.pending

    def first_request(self) -> Optional[tuple]:
        """Fetch the initial request if the coroutine has not started."""
        if not self.started and not self.done:
            return self.advance(None)
        return self.pending

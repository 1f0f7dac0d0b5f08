"""The request loop the fast engine binds to every stage.

``make_interp_step(pe, stage)`` returns ``step(pe, stage, budget)``:
``PE._execute``'s loop over the stage's coroutine with the request
protocol of ``PE._try_perform``, the ``Queue.deq`` / ``Queue.enq``
transfers, ``StageInstance.io_cost`` and the L1-hit path of
``Cache.access`` written out, and counters, cost constants and the L1
bound as locals. The rare requests (``try_deq``, ``cycles``, and
unknown ones, which raise there) take ``pe._try_perform``; none of
them blocks.

Each arm replicates the code it replaces (comments name the
originals): the same float operations in the same order, counter keys
created in the same order, the same probe guards, credit bookkeeping
and zero-cost livelock guard, and the budget checked before
satisfiability. State stays where the interpreter keeps it, in the
coroutine and ``stage.pending``, so schedulers, deadlock reports and
quiescence checks see the same state. ``PE._execute`` is the oracle
(tests/test_interp_codegen.py).

The PE and the stage are arguments of every call. The closure holds
only per-run constants, never an owner or a bound method of one, so a
finished run is freed by reference counting alone (docs/performance.md,
"Object lifetimes"; tests/test_lifetimes.py).
"""

from __future__ import annotations

from repro.core.pe import StageLivelockError
from repro.queues.queue import Token


def make_interp_step(pe, stage):
    """Bind the request loop to ``stage`` on ``pe``; see the module
    docstring."""
    producer = stage.ctx.producer_key
    counters = pe.counters
    qget = pe._qcache.get
    n_ops = stage.mapping.n_compute_ops
    speed = stage.speed
    # Bind-time constants of StageInstance.io_cost: control tokens cost
    # ctl_inc serially; data tokens cost 1/R against the running max.
    ctl_inc = 1.0 if speed == 1.0 else 1.0 / speed
    r = stage.mapping.replication
    if speed != 1.0:
        r = r * speed
    inv_r = 1 / r
    l1 = pe.l1
    l1_access = l1.access
    l1_lat = l1._latency
    l1_sets = l1._sets
    l1_shift = l1._line_shift
    l1_mask = l1._set_mask
    pe_id = pe.pe_id
    stage_name = stage.spec.name

    def step(pe, stage, budget):
        spent = 0.0
        zero_streak = 0
        if not stage.started:
            stage.first_request()
        if stage.done:
            return spent
        send = stage.gen.send
        req = stage.pending
        res = None
        # Carried state: the SIMD I/O totals and the counter totals.
        # c_dirty marks ``issued`` written; t_dirty marks a dequeue,
        # which writes ``tokens`` and ``fabric_ops`` too. The locals
        # carry the running totals the interpreter keeps in the dict
        # (same left-fold order, so bit-exact), and the flags gate the
        # write-back so a step creates exactly the keys the interpreter
        # would have created, in its order.
        wd = stage.work_deq
        we = stage.work_enq
        c_iss = counters.get("issued", 0.0)
        c_tok = counters.get("tokens", 0.0)
        c_fab = counters.get("fabric_ops", 0.0)
        c_dirty = t_dirty = False
        while True:
            if req is None:
                try:
                    req = send(res)
                except StopIteration:
                    stage.done = True
                    break
            if spent >= budget:
                break
            kind = req[0]
            if kind == "deq":
                q_rq = qget(req[1])
                if q_rq is None:
                    q_rq = pe._queue(req[1])
                rq_tok = q_rq._tokens
                if not rq_tok:
                    break
                # Queue.deq, minus the emptiness raise ruled out above.
                rq_credits = q_rq._credits
                token = rq_tok.popleft()
                tw = 1 if token.is_control else q_rq.entry_words
                q_rq._occupancy_words -= tw
                if rq_credits is not None:
                    rq_credits[token.producer] += tw
                qp = q_rq.probe
                if qp is not None and "queue.deq" in qp.bus.wants:
                    qp.emit("queue.deq", queue=q_rq.name, words=tw,
                            occupancy=q_rq._occupancy_words)
                # StageInstance.io_cost(1, 0, is_control).
                if token.is_control:
                    top = (wd if wd >= we else we) + ctl_inc
                    wd = we = top
                    cost = ctl_inc
                else:
                    before = wd if wd >= we else we
                    wd += inv_r
                    cost = (wd if wd >= we else we) - before
                spent += cost
                c_iss += cost
                c_tok += 1.0
                c_fab += n_ops
                t_dirty = True
                res = token
            elif kind == "enq":
                _, rq_name, rq_value, rq_ctl = req
                q_rq = qget(rq_name)
                if q_rq is None:
                    q_rq = pe._queue(rq_name)
                rq_credits = q_rq._credits
                words = 1 if rq_ctl else q_rq.entry_words
                # Queue.can_enq: an uncredited queue compares occupancy
                # inline; a credited one calls the method, which fires
                # queue.credit_stall.
                if rq_credits is None:
                    if q_rq.capacity_words - q_rq._occupancy_words < words:
                        break
                elif not q_rq.can_enq(producer, rq_ctl):
                    break
                # Queue.enq, minus the full-queue raise ruled out above.
                rq_tok = q_rq._tokens
                if rq_credits is not None:
                    rq_credits[producer] -= words
                rq_tok.append(Token(rq_value, rq_ctl, producer))
                q_rq._occupancy_words += words
                q_rq.total_enqueued += 1
                qp = q_rq.probe
                if qp is not None and "queue.enq" in qp.bus.wants:
                    qp.emit("queue.enq", queue=q_rq.name, words=words,
                            occupancy=q_rq._occupancy_words, control=rq_ctl)
                # StageInstance.io_cost(0, 1, is_control).
                if rq_ctl:
                    top = (wd if wd >= we else we) + ctl_inc
                    wd = we = top
                    cost = ctl_inc
                else:
                    before = wd if wd >= we else we
                    we += inv_r
                    cost = (wd if wd >= we else we) - before
                spent += cost
                c_iss += cost
                c_dirty = True
                res = None
            elif kind == "load":
                # Cache.access's L1-hit path (set lookup, hit count, LRU
                # move-to-MRU); a miss takes the full method. A hit's
                # latency equals l1_lat, so its stall is zero.
                a = req[1]
                res = None
                line = a >> l1_shift
                cset = l1_sets[line & l1_mask]
                if line in cset:
                    l1.hits += 1
                    cset[line] = cset.pop(line)
                    cost = 0.0
                else:
                    stall = l1_access(a) - l1_lat
                    if stall > 0.0:
                        # Flush before creating stall_mem so counter
                        # keys appear in the interpreter's order.
                        if t_dirty:
                            counters["issued"] = c_iss
                            counters["tokens"] = c_tok
                            counters["fabric_ops"] = c_fab
                        elif c_dirty:
                            counters["issued"] = c_iss
                        c_dirty = t_dirty = False
                        counters["stall_mem"] = (
                            counters.get("stall_mem", 0.0) + stall)
                        pp = pe.probe
                        if pp is not None and "pe.stall" in pp.bus.wants:
                            pp.emit("pe.stall", cycle=pe.now, pe=pe_id,
                                    bucket="stall_mem", cycles=stall,
                                    stage=stage_name)
                        cost = stall
                    else:
                        cost = 0.0
                spent += cost
            elif kind == "store":
                # The write-allocate L1-hit path marks the line dirty.
                a = req[1]
                line = a >> l1_shift
                cset = l1_sets[line & l1_mask]
                if line in cset:
                    l1.hits += 1
                    cset.pop(line)
                    cset[line] = True
                else:
                    l1_access(a, write=True)
                res = None
                cost = 0.0
            else:
                # try_perform reads and writes pe.counters and the SIMD
                # totals directly: flush the carried ones, reload after.
                if t_dirty:
                    counters["issued"] = c_iss
                    counters["tokens"] = c_tok
                    counters["fabric_ops"] = c_fab
                elif c_dirty:
                    counters["issued"] = c_iss
                c_dirty = t_dirty = False
                stage.work_deq = wd
                stage.work_enq = we
                res, cost = pe._try_perform(stage, req)
                wd = stage.work_deq
                we = stage.work_enq
                c_iss = counters.get("issued", 0.0)
                c_tok = counters.get("tokens", 0.0)
                c_fab = counters.get("fabric_ops", 0.0)
                spent += cost
            # PE._execute's zero-cost livelock guard.
            zero_streak = 0 if cost > 0 else zero_streak + 1
            if zero_streak > 1000000:
                break
            req = None
        # Suspend (the coroutine holds the rest of the stage's state),
        # finish (req is None) or raise: write back what was carried.
        if t_dirty:
            counters["issued"] = c_iss
            counters["tokens"] = c_tok
            counters["fabric_ops"] = c_fab
        elif c_dirty:
            counters["issued"] = c_iss
        stage.pending = req
        stage.work_deq = wd
        stage.work_enq = we
        if zero_streak > 1000000:
            raise StageLivelockError(
                "stage %r on PE %s issued 1M zero-cost requests"
                % (stage_name, pe_id))
        return spent

    return step

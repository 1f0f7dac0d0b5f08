"""Content addressing of compiled artifacts, by *content*, never by name:

* :func:`kernel_fingerprint` — a canonical serialization of an
  annotated kernel's structure (refs, expression graph, statements,
  init-function sources), so editing a kernel in any observable way
  yields a new fingerprint (``repro advise --apply`` compares the
  hand-marked and auto-split kernels by it);
* :func:`mapping_key` — what the mapper reads of a stage DFG (each
  node's id, op kind and operand ids) plus the fabric geometry and the
  replication cap, keying the in-process memo of fabric mappings.

All digests are sha256 hex strings.
"""

from __future__ import annotations

import hashlib
import inspect
import textwrap
from typing import Optional


def sha256_text(*parts: str) -> str:
    """Digest a sequence of text parts with unambiguous framing."""
    h = hashlib.sha256()
    for part in parts:
        data = part.encode("utf-8")
        h.update(str(len(data)).encode("ascii"))
        h.update(b":")
        h.update(data)
    return h.hexdigest()


# -- kernel fingerprinting -------------------------------------------------

_SIMPLE_CELL_TYPES = (int, float, str, bool, bytes, type(None))


def callable_fingerprint(fn, _depth: int = 0) -> Optional[str]:
    """Digest a Python callable by source + defaults + closure cells.

    Captured values that cannot be rendered deterministically degrade
    to an in-process-unique token, so two behaviors never alias under
    one fingerprint.
    """
    if fn is None:
        return None
    parts = [getattr(fn, "__qualname__", "") or repr(type(fn))]
    try:
        parts.append(textwrap.dedent(inspect.getsource(fn)))
    except (OSError, TypeError):
        parts.append(f"<no-source:{id(fn)}>")
    defaults = getattr(fn, "__defaults__", None)
    parts.append(repr(defaults) if defaults else "")
    closure = getattr(fn, "__closure__", None)
    if closure and _depth < 8:
        for cell in closure:
            try:
                value = cell.cell_contents
            except ValueError:
                parts.append("<empty-cell>")
                continue
            if isinstance(value, _SIMPLE_CELL_TYPES):
                parts.append(repr(value))
            elif callable(value):
                parts.append(callable_fingerprint(value, _depth + 1) or "")
            else:
                parts.append(f"<cell:{type(value).__name__}:{id(value)}>")
    return sha256_text("callable/v1", *parts)


def _value_entry(value) -> list:
    """Canonical row for one kernel SSA value."""
    attr: object = None
    if value.op == "load":
        attr = ["load", value.attr.ref.name, bool(value.attr.owner),
                bool(value.attr.marked)]
    elif value.op == "const":
        attr = ["const", repr(value.attr)]
    elif value.op == "edge":
        attr = ["edge", [bound.vid for bound in value.attr]]
    return [value.vid, value.op, [a.vid for a in value.args], attr,
            bool(value.in_edge_loop)]


def kernel_fingerprint(kernel) -> str:
    """Canonical content-address of a :class:`GraphKernel`.

    Walks the declaration list, the SSA expression graph, and the
    statement list in definition order; any edit that changes what the
    front-end would compile — a different constant, predicate, ref
    shape, init function, or fringe — changes the digest. Two
    structurally identical kernels (e.g. the same factory called
    twice) fingerprint identically.
    """
    rows = [
        "kernel/v1",
        kernel.name,
        repr(sorted(kernel.params.items())),
        repr(tuple(kernel.fringe)),
    ]
    for ref in kernel.refs:
        rows.append(repr([ref.name, ref.size, bool(ref.mutable),
                          bool(ref.output),
                          callable_fingerprint(ref.init)]))
    for value in kernel.values:
        rows.append(repr(_value_entry(value)))
    for stmt in kernel.statements:
        rows.append(repr([
            stmt.sid, stmt.kind,
            stmt.ref.name if stmt.ref is not None else None,
            stmt.index.vid if stmt.index is not None else None,
            stmt.value.vid if stmt.value is not None else None,
            bool(stmt.dedup),
            [p.vid for p in stmt.preds],
            bool(stmt.in_edge_loop),
        ]))
    return sha256_text(*rows)


def mapping_key(dfg, fabric, max_replication: Optional[int]) -> tuple:
    """Memo key of one fabric mapping: exactly what
    :func:`repro.cgra.map_dfg` reads.

    The mapper levelizes and places nodes by their ids, op kinds and
    operand edges; it reads no queue name, constant or address, and
    the stage's name only labels the result. So the shards of one
    stage, which differ in just those, share one key. The fabric
    geometry (a frozen :class:`~repro.cgra.fabric.FabricSpec`) and the
    replication cap are the only other mapping inputs.
    """
    graph = tuple((node.node_id, node.op.kind,
                   tuple(operand.node_id for operand in node.operands))
                  for node in dfg.nodes)
    return graph, fabric, max_replication

"""A bulk-loaded B+tree index (the Silo benchmark's data structure).

Silo (paper Sec. 7.2) performs lookups against B+tree indexes: internal
nodes are traversed (each traversal is another dependent dereference —
the cycle in Fig. 12(b)) until a leaf is reached and searched for the
key. This module provides a functional B+tree plus the node-address
arithmetic the timing simulation needs.

Nodes are numbered globally, root first, then level by level; each node
occupies a fixed byte span in the simulated address space so a node id
maps to an address.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

import numpy as np


@dataclass
class _Node:
    node_id: int
    is_leaf: bool
    keys: list
    # Leaf: values aligned with keys. Internal: child node ids, one more
    # than keys (keys[i] is the smallest key reachable via children[i+1]).
    values: list = field(default_factory=list)
    children: list = field(default_factory=list)


class BPlusTree:
    """Immutable B+tree bulk-loaded from sorted unique keys."""

    def __init__(self, keys, values, fanout: int = 8):
        if fanout < 2:
            raise ValueError("fanout must be at least 2")
        keys = np.asarray(keys, dtype=np.int64)
        values = np.asarray(values, dtype=np.int64)
        if len(keys) != len(values):
            raise ValueError("keys and values must have equal length")
        if len(keys) == 0:
            raise ValueError("cannot build an empty B+tree")
        if np.any(np.diff(keys) <= 0):
            raise ValueError("keys must be strictly increasing")
        self.fanout = fanout
        self.n_keys = len(keys)
        # Bytes one node occupies in the simulated address space:
        # `fanout` keys + `fanout+1` pointers/values, line-aligned.
        self.node_bytes = -(-(fanout * 8 + (fanout + 1) * 8) // 64) * 64

        # Build leaves, then parent levels bottom-up. Nodes hold Python
        # ints, so lookups bisect without boxing numpy scalars; each
        # leaf converts its own slice, which keeps no whole-array list.
        levels: list[list[_Node]] = []
        leaves = []
        for lo in range(0, len(keys), fanout):
            hi = lo + fanout
            leaves.append(_Node(-1, True, keys[lo:hi].tolist(),
                                values=values[lo:hi].tolist()))
        levels.append(leaves)
        def subtree_min(node: "_Node"):
            while not node.is_leaf:
                node = node.children[0]
            return node.keys[0]

        while len(levels[-1]) > 1:
            children = levels[-1]
            parents = []
            for lo in range(0, len(children), fanout):
                group = children[lo:lo + fanout]
                seps = [subtree_min(node) for node in group[1:]]
                parents.append(_Node(-1, False, seps, children=group))
            levels.append(parents)
        levels.reverse()  # root level first

        # Assign global ids root-first and flatten.
        self.nodes: list[_Node] = []
        for level in levels:
            for node in level:
                node.node_id = len(self.nodes)
                self.nodes.append(node)
        for node in self.nodes:
            if not node.is_leaf:
                node.children = [child.node_id for child in node.children]
        self.root_id = levels[0][0].node_id
        self.depth = len(levels)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def total_bytes(self) -> int:
        return self.n_nodes * self.node_bytes

    def node_offset(self, node_id: int) -> int:
        """Byte offset of ``node_id`` within the tree's address region."""
        return node_id * self.node_bytes

    def step(self, node_id: int, key: int) -> tuple[int, bool]:
        """One traversal step: returns ``(child_id, child_is_leaf)``."""
        node = self.nodes[node_id]
        if node.is_leaf:
            raise ValueError(f"node {node_id} is a leaf; cannot step")
        child_id = node.children[bisect.bisect_right(node.keys, key)]
        return child_id, self.nodes[child_id].is_leaf

    def leaf_lookup(self, node_id: int, key: int):
        """Search a leaf; returns the value or ``None``."""
        node = self.nodes[node_id]
        if not node.is_leaf:
            raise ValueError(f"node {node_id} is not a leaf")
        index = bisect.bisect_left(node.keys, key)
        if index < len(node.keys) and node.keys[index] == key:
            return node.values[index]
        return None

    def lookup(self, key: int):
        """Full root-to-leaf lookup; returns the value or ``None``."""
        node_id = self.root_id
        if self.depth == 1:
            return self.leaf_lookup(node_id, key)
        is_leaf = False
        while not is_leaf:
            node_id, is_leaf = self.step(node_id, key)
        return self.leaf_lookup(node_id, key)

    def lookup_path(self, key: int) -> list[int]:
        """Node ids visited by ``lookup`` (root to leaf, inclusive)."""
        path = [self.root_id]
        node_id = self.root_id
        while not self.nodes[node_id].is_leaf:
            node_id, _ = self.step(node_id, key)
            path.append(node_id)
        return path

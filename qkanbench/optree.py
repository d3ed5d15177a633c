"""Operator-tree statistics, read only from the public fields
``Composed.factors``, ``Embedded.inner`` and ``Multiplexed.branches``.

Every other operator is a leaf. A subtree shared by several parents is
counted once per occurrence, because each occurrence is applied.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import MutableMapping


@dataclass(frozen=True)
class TreeStats:
    leaves: int
    nodes: int
    depth: int  # edges on the longest root-to-leaf path


def children(op) -> tuple:
    if hasattr(op, "factors"):
        return tuple(op.factors)
    if hasattr(op, "inner"):
        return (op.inner,)
    if hasattr(op, "branches"):
        return tuple(op.branches.values())
    return ()


def tree_stats(op, memo: MutableMapping | None = None) -> TreeStats:
    """Leaves, nodes and depth below `op`; `memo` caches results by node."""
    memo = {} if memo is None else memo
    found = memo.get(op)
    if found is not None:
        return found
    kids = [tree_stats(child, memo) for child in children(op)]
    if kids:
        stats = TreeStats(
            leaves=sum(k.leaves for k in kids),
            nodes=1 + sum(k.nodes for k in kids),
            depth=1 + max(k.depth for k in kids),
        )
    else:
        stats = TreeStats(1, 1, 0)
    memo[op] = stats
    return stats

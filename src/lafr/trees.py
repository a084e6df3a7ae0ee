"""Enumeration of unlabeled free trees.

Rooted trees are generated once each from canonical level sequences via
the constant-time successor rule (start at the path, repeatedly truncate
and tile the last deep segment).  A free tree is kept as the level
sequence rooted at its centroid: a sequence survives when no subtree of
the root holds more than half the vertices, and when one subtree holds
exactly half (two centroids) only the rooting whose own half is the
lexicographically larger sequence survives.  Each free tree is therefore
produced exactly once, without building a graph for the other rootings.
"""

from __future__ import annotations

from .graphs import Graph

MAX_TREE_N = 16


def rooted_level_sequences(n: int):
    """Yield the canonical level sequence of every unlabeled rooted tree.

    Sequences start at level 0 for the root and are produced in decreasing
    lexicographic order, beginning with the path.
    """
    if n < 1:
        raise ValueError("trees need at least one vertex")
    seq = list(range(n))
    while True:
        yield tuple(seq)
        p = None
        for i in range(n - 1, 0, -1):
            if seq[i] > 1:
                p = i
                break
        if p is None:
            return
        q = None
        for i in range(p - 1, -1, -1):
            if seq[i] == seq[p] - 1:
                q = i
                break
        block = seq[q:p]
        seq = seq[:p]
        while len(seq) < n:
            seq.extend(block[: n - len(seq)])


def tree_from_level_sequence(seq) -> Graph:
    """Graph of a level sequence; each vertex attaches to the nearest
    earlier vertex one level up."""
    last: dict[int, int] = {}
    edges = []
    for i, level in enumerate(seq):
        if level:
            edges.append((last[level - 1], i))
        last[level] = i
    return Graph.from_edges(len(seq), edges)


def _centroid_rooted(seq: tuple[int, ...]) -> bool:
    """Whether a canonical level sequence is the one kept for its free tree.

    The root's subtrees are the runs starting at each level-1 entry.
    """
    n = len(seq)
    starts = [i for i, level in enumerate(seq) if level == 1] + [n]
    for i, j in zip(starts, starts[1:]):
        if 2 * (j - i) > n:
            return False
        if 2 * (j - i) == n:
            return seq[:i] + seq[j:] >= tuple(level - 1 for level in seq[i:j])
    return True


def free_trees(n: int) -> list[Graph]:
    """All unlabeled free trees on ``n`` vertices, deterministically ordered.

    Vertex 0 of every tree is a centroid; see the module docstring.
    """
    if not 1 <= n <= MAX_TREE_N:
        raise ValueError(f"tree size must be between 1 and {MAX_TREE_N}")
    return [
        tree_from_level_sequence(seq)
        for seq in rooted_level_sequences(n)
        if _centroid_rooted(seq)
    ]

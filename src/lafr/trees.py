"""Enumeration of unlabeled free trees, generated directly.

A free tree is given by a level sequence rooted at a centroid: the root is
at level 0 and each vertex attaches to the nearest earlier vertex one level
up.  The centroid decomposition builds each tree once.  A tree with one
centroid is a root with a non-increasing run of rooted subtrees of at most
(n - 1)/2 vertices each, so its sequence is canonical.  A tree with two
centroids (n even) is an edge between two rooted halves of n/2 vertices:
the larger half, then the smaller one level down, hung from its root.  The
rooted subtrees come from the same decomposition, one size at a time.
:func:`free_trees` is a lazy stream, the one-centroid trees and then the
two-centroid trees, so an order's trees are never held at once.
:func:`tree_laplacians` is the one decoder: it reads a chunk of sequences
as a stack of Laplacians.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator
from itertools import chain

import numpy as np

MAX_TREE_N = 20


def _forests(total: int, planted: list[tuple[int, ...]], start: int = 0):
    """Every non-increasing run of ``planted[start:]`` on ``total``
    vertices, concatenated; ``planted`` is in decreasing order."""
    if not total:
        yield ()
        return
    for i in range(start, len(planted)):
        if len(planted[i]) <= total:
            for rest in _forests(total - len(planted[i]), planted, i):
                yield planted[i] + rest


@functools.cache
def _planted(cap: int) -> list[tuple[int, ...]]:
    """Every rooted tree on at most ``cap`` vertices as a root's subtree:
    its level sequence one level down, in decreasing order."""
    return sorted(
        (tuple(level + 1 for level in t) for s in range(1, cap + 1) for t in _rooted(s)),
        reverse=True,
    )


@functools.cache
def _rooted(s: int) -> list[tuple[int, ...]]:
    """The canonical level sequence of every rooted tree on ``s`` vertices."""
    return [(0,) + f for f in _forests(s - 1, _planted(s - 1))]


def free_trees(n: int) -> Iterator[tuple[int, ...]]:
    """A centroid-rooted level sequence of every unlabeled free tree on
    ``n`` vertices, lazily; see the module docstring.  The size is checked
    on the call, before any is made."""
    if not 1 <= n <= MAX_TREE_N:
        raise ValueError(f"tree size must be between 1 and {MAX_TREE_N}")
    one = ((0,) + f for f in _forests(n - 1, _planted((n - 1) // 2)))
    if n % 2:
        return one
    halves = _rooted(n // 2)  # in decreasing order: x is the larger half
    two = (x + tuple(level + 1 for level in y) for i, x in enumerate(halves) for y in halves[i:])
    return chain(one, two)


def tree_laplacians(seqs) -> np.ndarray:
    """The float64 (B, n, n) stack of Laplacians of B level sequences on n
    vertices, built a vertex at a time across the stack."""
    levels = np.array(seqs)
    b, n = levels.shape
    rows = np.arange(b)
    last = np.zeros((b, n), dtype=int)  # last[t, l]: latest vertex at level l
    lap = np.zeros((b, n, n))
    for i in range(1, n):
        parent = last[rows, levels[:, i] - 1]
        lap[rows, i, parent] = lap[rows, parent, i] = -1
        last[rows, levels[:, i]] = i
    lap.reshape(b, n * n)[:, :: n + 1] = -lap.sum(axis=2)
    return lap

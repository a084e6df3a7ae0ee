"""Enumeration of unlabeled free trees, generated directly.

A free tree is given by the canonical level sequence of its rooting at a
centroid: the root is at level 0, each vertex attaches to the nearest
earlier vertex one level up, and the root's subtrees follow in decreasing
order of their own sequences.  The centroid decomposition builds each one
once.  A tree with one centroid is a root with a non-increasing run of
rooted subtrees of at most (n - 1)/2 vertices each.  A tree with two
centroids (n even) is an edge between two rooted halves of n/2 vertices,
rooted at the half whose own sequence is the larger, the other half
taking its place among that root's subtrees.  The rooted subtrees come
from the same decomposition, one size at a time.  :func:`free_trees` is a
lazy stream: it merges the one-centroid trees with the two-centroid trees,
themselves merged from one stream per larger half, each stream already in
decreasing order, so an order's trees are never held at once.
:func:`tree_laplacians` is the one decoder: it reads a chunk of sequences
as a stack of Laplacians.
"""

from __future__ import annotations

import functools
import heapq
from collections.abc import Iterator

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


def _bicentroidal(x: tuple[int, ...], halves: list[tuple[int, ...]]):
    """The two-centroid trees whose larger half is ``x``, one for each half
    in ``halves`` (those not above ``x``), in decreasing order."""
    starts = [j for j, level in enumerate(x) if level == 1] + [len(x)]
    kids = [x[j:k] for j, k in zip(starts, starts[1:])]
    for y in halves:
        below = tuple(level + 1 for level in y)
        yield sum(sorted(kids + [below], reverse=True), (0,))


def free_trees(n: int) -> Iterator[tuple[int, ...]]:
    """The centroid-rooted canonical level sequence of every unlabeled free
    tree on ``n`` vertices, lazily and in decreasing order; see the module
    docstring.  The size is checked on the call, before any is made."""
    if not 1 <= n <= MAX_TREE_N:
        raise ValueError(f"tree size must be between 1 and {MAX_TREE_N}")
    one = ((0,) + f for f in _forests(n - 1, _planted((n - 1) // 2)))
    if n % 2:
        return one
    halves = _rooted(n // 2)
    # the many two-centroid streams meet in their own heap, so a one-centroid
    # tree passes through a heap of two
    two = heapq.merge(
        *(_bicentroidal(x, halves[i:]) for i, x in enumerate(halves)), reverse=True
    )
    return heapq.merge(one, two, reverse=True)


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

"""Exhaustive verification campaigns over graph corpora.

Three corpora drive the campaigns: unlabeled free trees, the isomorphism
classes on a small vertex count, built by vertex augmentation and certified
by their orbits to cover every labeled graph, and a battery of constructions.
The prime-order campaign and the battery's double cones decide each class
once, exactly, on its least relabeling.  A mask is relabeled by one float64
product of its bits with powers of two, exact below 2^53, so no verdict
depends on rounding.  The tree and prime-order campaigns first screen their
graphs as stacks of Laplacians and decide only those in which two columns
survive (:func:`lafr.spectral._survivors`); the screen drops a graph only
when it has no proper pair.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from itertools import compress, permutations
from math import factorial
from random import Random

import numpy as np

from . import oracle
from .graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    double_cone,
    empty_graph,
    hadamard_graph,
    is_connected,
    is_double_cone,
    join,
    laplacian,
    path_graph,
    sylvester_hadamard,
    threshold_graph,
    to_graph6,
)
from .revival import (
    TWO_VERTEX_SCHEDULE,
    RevivalStatus,
    all_lafr_pairs,
    check_cartesian_product_rule,
    check_complement_transfer,
    check_join_extension,
    check_join_timing,
    check_polygamy_conditions,
    decide_proper_lafr,
    hadamard_partition_check,
    isolated_edges,
    proper_time_valid,
)
from .spectral import _survivors
from .trees import MAX_TREE_N, free_trees, tree_from_level_sequence, tree_laplacians

# Trees screened at once.  It bounds the (CHUNK, n, n) float64 stacks: larger
# chunks screened no faster and held more (4096 at n = 14: 45.7 MB peak, 512:
# 33.3 MB).
CHUNK = 512

@dataclass
class CampaignResult:
    name: str
    corpus_size: int
    counterexamples: list[str]
    wall_time_s: float
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.counterexamples


# ---------------------------------------------------------------------------
# labeled bitmask corpus


def pair_table(n: int) -> list[tuple[int, int]]:
    """Vertex pairs in lexicographic order; bit b of a mask is pair b."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def mask_to_graph(n: int, mask: int) -> Graph:
    pairs = pair_table(n)
    return Graph.from_edges(
        n, (pairs[b] for b in range(len(pairs)) if (mask >> b) & 1)
    )


@functools.lru_cache(maxsize=None)
def _relabel_powers(p: int) -> np.ndarray:
    """(pairs, p!) float64 table: entry (b, s) is 2^(the bit pair b moves to
    under the s-th permutation of the vertices)."""
    pairs = pair_table(p)
    index = {pair: b for b, pair in enumerate(pairs)}
    dest = np.array(
        [
            [index[tuple(sorted((perm[i], perm[j])))] for i, j in pairs]
            for perm in permutations(range(p))
        ]
    )
    return np.exp2(dest.T)  # at p = 1, dest is one empty row and the table (0, 1)


def relabelings(p: int, masks) -> np.ndarray:
    """Every relabeling of each mask: one row of p! masks per mask.

    A row is the mask's 0/1 bit vector times the table of powers of two.
    The product is exact: each entry sums distinct powers of two below
    2^21, and float64 holds every integer below 2^53.
    """
    powers = _relabel_powers(p)
    bits = (np.asarray(masks, dtype=np.int64)[:, None] >> np.arange(len(powers))) & 1
    return (bits @ powers).astype(np.int32)


def canonical_masks(p: int, masks) -> np.ndarray:
    """Canonical key of each mask: its least relabeling.

    Two masks share a key exactly when their graphs are isomorphic, and the
    key is itself a mask of that isomorphism class.
    """
    return relabelings(p, masks).min(axis=1)


def isomorphism_classes(p: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted canonical keys of the isomorphism classes on p vertices, and
    their orbits p!/|Aut|, certified to cover all 2^(p(p-1)/2) masks.

    Vertex augmentation (Read 1978; McKay 1998): each class on n - 1
    vertices gains a new vertex 0 with each of its 2^(n-1) neighbour sets.
    The old pairs move up n - 1 bits and the new vertex's pairs fill the low
    bits of the lexicographic pair order.
    """
    keys = np.zeros(1, dtype=np.int32)  # the one graph on one vertex
    for n in range(2, p + 1):
        low = np.arange(1 << (n - 1))
        found = {c for k in keys for c in canonical_masks(n, (k << (n - 1)) | low).tolist()}
        keys = np.array(sorted(found), dtype=np.int32)
    orbits = factorial(p) // np.array([(relabelings(p, [k]) == k).sum() for k in keys])
    total = 1 << (p * (p - 1) // 2)
    if orbits.sum() != total:
        raise RuntimeError(f"class orbits cover {orbits.sum()} of {total} masks")
    return keys, orbits


# ---------------------------------------------------------------------------
# tree and prime-order campaigns


def _has_proper_pair(g: Graph) -> bool:
    return any(d.status is RevivalStatus.PROPER for d in all_lafr_pairs(g))


def campaign_trees(n_max: int = 10) -> CampaignResult:
    """All free trees up to n_max: revival occurs only on the 2- and 3-paths.

    A counterexample is a tree on four or more vertices with a proper
    revival pair; the expected list is empty.  The trees of one order are
    screened as stacks of Laplacians, :data:`CHUNK` at a time, and only a
    tree with two surviving columns (see :func:`lafr.spectral._survivors`) becomes a
    graph and is decided exactly.
    """
    if not 2 <= n_max <= MAX_TREE_N:
        raise ValueError(f"tree campaign supports 2 <= n_max <= {MAX_TREE_N}")
    start = time.perf_counter()
    counterexamples = []
    counts = {}
    graphs_with_proper = []
    for n in range(2, n_max + 1):
        seqs = free_trees(n)
        counts[n] = len(seqs)
        for first in range(0, len(seqs), CHUNK):
            chunk = seqs[first : first + CHUNK]
            for seq in compress(chunk, (_survivors(tree_laplacians(chunk)) >= 2).tolist()):
                t = tree_from_level_sequence(seq)
                # the one tree with an isolated edge is the single edge itself
                if isolated_edges(t) or _has_proper_pair(t):
                    graphs_with_proper.append(to_graph6(t))
                    if n >= 4:
                        counterexamples.append(to_graph6(t))
    return CampaignResult(
        name="trees",
        corpus_size=sum(counts.values()),
        counterexamples=counterexamples,
        wall_time_s=time.perf_counter() - start,
        details={
            "counts_per_n": counts,
            "graphs_with_proper_pairs": graphs_with_proper,
            "two_vertex_schedule": TWO_VERTEX_SCHEDULE,
        },
    )


def campaign_prime_order(p: int) -> CampaignResult:
    """Every connected labeled graph on a prime vertex count: any graph
    admitting proper revival must be a double cone.

    Each connected isomorphism class is decided once, exactly, on its key,
    and the verdict holds for its whole certified orbit of p!/|Aut| labeled
    graphs.  ``positives`` counts labeled graphs; ``counterexamples`` lists
    one graph6 per isomorphism class.
    """
    if p not in (5, 7):
        raise ValueError("prime-order campaign supports p in {5, 7}")
    start = time.perf_counter()
    classes, orbits = isomorphism_classes(p)
    graphs = [mask_to_graph(p, k) for k in classes.tolist()]
    connected = np.array([is_connected(g) for g in graphs])
    # only a connected class with two surviving columns is decided exactly
    survive = np.zeros(len(classes), dtype=bool)
    laps = np.array([laplacian(g) for g in compress(graphs, connected)], dtype=float)
    survive[connected] = _survivors(laps) >= 2
    positive = np.array([s and _has_proper_pair(g) for s, g in zip(survive, graphs)])
    counterexamples = sorted(
        to_graph6(g) for g, pos in zip(graphs, positive) if pos and is_double_cone(g) is None
    )
    sample = sorted(set(relabelings(p, classes[positive]).ravel().tolist()))[:16]
    return CampaignResult(
        name=f"prime{p}",
        corpus_size=int(orbits.sum()),
        counterexamples=counterexamples,
        wall_time_s=time.perf_counter() - start,
        details={
            "connected_graphs": int(orbits[connected].sum()),
            "connected_classes": int(connected.sum()),
            "positives": int(orbits[positive].sum()),
            "positive_masks_sample": sample,
            "classes": len(classes),
            "positive_classes": int(positive.sum()),
        },
    )


# ---------------------------------------------------------------------------
# construction battery


def _battery_joins(rng: Random) -> list[Graph]:
    """Twenty random joins of graphs on 1..5 vertices; the battery's seed gives 3..10 in all."""
    joins = []
    for _ in range(20):
        nx_ = rng.randint(1, 5)
        ny_ = rng.randint(1, 5)
        x = mask_to_graph(nx_, rng.randrange(1 << (nx_ * (nx_ - 1) // 2)))
        y = mask_to_graph(ny_, rng.randrange(1 << (ny_ * (ny_ - 1) // 2)))
        joins.append(join(x, y))
    return joins


def campaign_constructions() -> CampaignResult:
    """Fixed battery over the construction families.

    Covers double cones over every graph on at most five vertices, the
    box-product criterion, the complement identity, join timing on random
    joins, join extensions, the threshold instance, Hadamard-graph
    partitions, and the polygamy arithmetic.
    """
    start = time.perf_counter()
    failures: list[str] = []
    checked = 0
    details: dict = {}

    # every case is counted here, ``weight`` times, and recorded if it fails
    def case(label: str, ok: bool, weight: int = 1) -> bool:
        nonlocal checked
        checked += weight
        if not ok:
            failures.append(label)
        return ok

    # one double cone per class, counted for the class's certified orbit
    for k in range(1, 6):
        keys, orbits = isomorphism_classes(k)
        for key, orbit in zip(keys.tolist(), orbits.tolist()):
            g = double_cone(mask_to_graph(k, key))
            n = g.n
            d = decide_proper_lafr(g, 0, 1)
            ok = (
                d.status is RevivalStatus.PROPER
                and d.g == n  # earliest revival at 2*pi/n
                and d.is_pst == (n == 4)
                and oracle.decision_residual(g, d) <= oracle.RESIDUAL_TOL
            )
            case(f"double-cone {to_graph6(g)}", ok, orbit)
    details["double_cones_checked"] = checked

    cartesian_cases = [
        ("K3,P3,2/3", complete_graph(3), path_graph(3), 2, 3),
        ("K2,P3,2/3", path_graph(2), path_graph(3), 2, 3),
        ("K1,P3,2/3", empty_graph(1), path_graph(3), 2, 3),
    ]
    for label, x, y, num, den in cartesian_cases:
        case(f"cartesian {label}", check_cartesian_product_rule(x, y, num, den))
    details["cartesian_cases"] = len(cartesian_cases)

    complement_cases = [
        ("C4,1/2", cycle_graph(4), 1, 2),
        ("P3+K1,1/2", disjoint_union(path_graph(3), empty_graph(1)), 1, 2),
        ("P4,2/1", path_graph(4), 2, 1),
    ]
    for label, x, num, den in complement_cases:
        case(f"complement {label}", check_complement_transfer(x, num, den))
    details["complement_cases"] = len(complement_cases)

    joins = _battery_joins(Random(20260810))
    for z in joins:
        case(f"join-timing {to_graph6(z)}", check_join_timing(z))
    details["joins_checked"] = len(joins)

    extension_cases = [
        ("C4+K4", cycle_graph(4), (0, 2), complete_graph(4), 1, 2),
        ("DC(K4)+C6", double_cone(complete_graph(4)), (0, 1), cycle_graph(6), 1, 3),
        ("P3+K3", path_graph(3), (0, 2), complete_graph(3), 2, 3),
    ]
    for label, x, pair, y, num, den in extension_cases:
        d = check_join_extension(x, pair, y)
        case(f"join-extension {label}", proper_time_valid(d, num, den))
    details["extension_cases"] = len(extension_cases)

    # threshold instance: initial edgeless pair joined to a 4-clique
    thr = threshold_graph([2, 4])
    d = decide_proper_lafr(thr, 0, 1)
    details["threshold_ok"] = case(
        "threshold 2,4",
        d.status is RevivalStatus.PROPER
        # earliest revival at pi/3: not a multiple of pi/2, and (m1 + m2) * tau
        # lands on the 2*pi grid
        and d.g == 6,
    )

    for side in (2, 4):
        h = hadamard_graph(sylvester_hadamard(side))
        d = decide_proper_lafr(h, 0, side * side)
        # the partition is checked alongside the revival, not counted apart
        part_ok = hadamard_partition_check(side, d.partition)
        case(f"hadamard n={side} partition", part_ok, 0)
        # class gcd 2n gives perfect state transfer at pi/n between antipodes
        case(
            f"hadamard n={side} revival",
            d.status is RevivalStatus.PROPER and d.is_pst and d.g == 2 * side,
        )
    details["hadamard_sides"] = [2, 4]

    for q in (1, 3, 5):
        case(f"polygamy q={q}", check_polygamy_conditions(12 * q, 12, 6 * q, 4).ok)
    details["polygamy_q"] = [1, 3, 5]

    return CampaignResult(
        name="constructions",
        corpus_size=checked,
        counterexamples=failures,
        wall_time_s=time.perf_counter() - start,
        details=details,
    )

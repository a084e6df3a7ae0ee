"""Exhaustive verification campaigns over graph corpora.

Three corpora drive the campaigns: unlabeled free trees, all labeled
graphs on a fixed small vertex count (adjacency bitmasks), and a fixed
battery of constructions.  The prime-order campaign builds the isomorphism
classes by vertex augmentation, keyed by their least relabeling, decides
each class once with the exact pipeline and certifies that the class orbits
cover every labeled graph; no verdict touches floating point.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations
from math import pi
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
    path_graph,
    sylvester_hadamard,
    to_graph6,
)
from .revival import (
    RevivalStatus,
    all_lafr_pairs,
    amplitudes_at,
    check_cartesian_product_rule,
    check_complement_transfer,
    check_join_extension,
    check_join_timing,
    check_polygamy_conditions,
    decide_proper_lafr,
    hadamard_partition_check,
    proper_time_valid,
)
from .spectral import strong_cospectral
from .trees import MAX_TREE_N, free_trees

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


def graph_to_mask(g: Graph) -> int:
    mask = 0
    for b, pair in enumerate(pair_table(g.n)):
        if pair in g.edges:
            mask |= 1 << b
    return mask


def all_graph_masks(n: int):
    return range(1 << (n * (n - 1) // 2))


@functools.lru_cache(maxsize=None)
def _relabel_tables(p: int) -> tuple[np.ndarray, ...]:
    """One 256 x p! int32 table per byte of mask bits.

    Row v of table k holds, for every permutation of the vertices, the
    relabeled mask of the bits ``v << 8k``; distinct bits land on distinct
    pairs, so a mask relabels to the OR of one row per byte.
    """
    pairs = pair_table(p)
    index = {pair: b for b, pair in enumerate(pairs)}
    dest = np.array(
        [
            [index[tuple(sorted((perm[i], perm[j])))] for i, j in pairs]
            for perm in permutations(range(p))
        ]
    )
    bit_values = (1 << dest).T  # (bits, p!)
    byte_bits = (np.arange(256)[:, None] >> np.arange(8)) & 1
    tables = []
    for lo in range(0, len(pairs), 8):
        byte = bit_values[lo : lo + 8]
        tables.append((byte_bits[:, : len(byte)] @ byte).astype(np.int32))
    return tuple(tables)


def relabelings(p: int, masks) -> np.ndarray:
    """Every relabeling of each mask: one row of p! masks per mask."""
    masks = np.asarray(masks, dtype=np.int64)
    rows = [t[(masks >> 8 * k) & 0xFF] for k, t in enumerate(_relabel_tables(p))]
    return functools.reduce(np.bitwise_or, rows)


def canonical_masks(p: int, masks) -> np.ndarray:
    """Canonical key of each mask: its least relabeling.

    Two masks share a key exactly when their graphs are isomorphic, and the
    key is itself a mask of that isomorphism class.
    """
    return relabelings(p, masks).min(axis=1)


def isomorphism_classes(p: int) -> np.ndarray:
    """Sorted canonical keys of the isomorphism classes on p vertices.

    Vertex augmentation (Read 1978; McKay 1998): each class on n - 1
    vertices gains a new vertex 0 with each of its 2^(n-1) neighbour sets.
    The old pairs move up n - 1 bits and the new vertex's pairs fill the low
    bits of the lexicographic pair order.
    """
    keys = np.zeros(1, dtype=np.int32)  # the one graph on one vertex
    for n in range(2, p + 1):
        low = np.arange(1 << (n - 1))
        keys = np.unique([canonical_masks(n, (k << (n - 1)) | low) for k in keys])
    return keys


# ---------------------------------------------------------------------------
# tree campaign


def campaign_trees(n_max: int = 10) -> CampaignResult:
    """All free trees up to n_max: revival occurs only on the 2- and 3-paths.

    A counterexample is a tree on four or more vertices with a proper
    revival pair; the expected list is empty.
    """
    if not 2 <= n_max <= MAX_TREE_N:
        raise ValueError(f"tree campaign supports 2 <= n_max <= {MAX_TREE_N}")
    start = time.perf_counter()
    counterexamples = []
    counts = {}
    graphs_with_proper = []
    for n in range(2, n_max + 1):
        trees = free_trees(n)
        counts[n] = len(trees)
        for t in trees:
            if n == 2:
                # single edge: proper revival away from the quarter-period grid
                graphs_with_proper.append(to_graph6(t))
                continue
            proper = [
                d for d in all_lafr_pairs(t) if d.status is RevivalStatus.PROPER
            ]
            if proper:
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
            "two_vertex_schedule": (
                "single edge: periodic at multiples of pi, perfect state "
                "transfer at odd multiples of pi/2, proper revival elsewhere"
            ),
        },
    )


# ---------------------------------------------------------------------------
# prime-order campaign


def _confirm_masks(p: int, masks: list[int]) -> tuple[list[int], list[str]]:
    """Exact decisions: positives (proper revival) and counterexamples
    (proper revival on a non-double-cone)."""
    positives = []
    counterexamples = []
    for mask in masks:
        g = mask_to_graph(p, mask)
        if any(d.status is RevivalStatus.PROPER for d in all_lafr_pairs(g)):
            positives.append(mask)
            if is_double_cone(g) is None:
                counterexamples.append(to_graph6(g))
    return positives, counterexamples


def campaign_prime_order(p: int) -> CampaignResult:
    """Every connected labeled graph on a prime vertex count: any graph
    admitting proper revival must be a double cone.

    Each connected isomorphism class is decided once, exactly, on its key,
    and the verdict holds for its whole orbit of p!/|Aut| labeled graphs.
    The orbits must sum to all 2^(p(p-1)/2) labeled graphs: a completeness
    certificate checked on every run.  ``positives`` counts labeled graphs;
    ``counterexamples`` lists one graph6 per isomorphism class.
    """
    if p not in (5, 7):
        raise ValueError("prime-order campaign supports p in {5, 7}")
    start = time.perf_counter()
    total_masks = 1 << (p * (p - 1) // 2)
    classes = isomorphism_classes(p)
    rows = relabelings(p, classes)
    orbits = rows.shape[1] // (rows == classes[:, None]).sum(axis=1)  # p! / |Aut|
    if orbits.sum() != total_masks:
        raise RuntimeError(f"class orbits cover {orbits.sum()} of {total_masks} masks")
    connected = np.array([is_connected(mask_to_graph(p, k)) for k in classes.tolist()])
    positive_keys, counterexamples = _confirm_masks(p, classes[connected].tolist())
    positive = np.isin(classes, positive_keys)
    counterexamples.sort()
    return CampaignResult(
        name=f"prime{p}",
        corpus_size=total_masks,
        counterexamples=counterexamples,
        wall_time_s=time.perf_counter() - start,
        details={
            "connected_graphs": int(orbits[connected].sum()),
            "connected_classes": int(connected.sum()),
            "positives": int(orbits[positive].sum()),
            "positive_masks_sample": np.unique(rows[positive])[:16].tolist(),
            "classes": len(classes),
            "positive_classes": len(positive_keys),
        },
    )


# ---------------------------------------------------------------------------
# construction battery


def _battery_double_cones(failures: list[str]) -> int:
    checked = 0
    for k in range(1, 6):
        for mask in all_graph_masks(k):
            y = mask_to_graph(k, mask)
            g = double_cone(y)
            n = g.n
            d = decide_proper_lafr(g, 0, 1)
            amp = amplitudes_at(d.phase) if d.status is RevivalStatus.PROPER else None
            ok = (
                d.status is RevivalStatus.PROPER
                and d.g == n
                and Fraction(*d.earliest_time) == Fraction(2, n)
                and d.is_pst == (n == 4)
                and oracle.revival_residual(
                    g, 0, 1, 2 * pi / n, amp.alpha, amp.beta
                )
                <= 1e-9
            )
            checked += 1
            if not ok:
                failures.append(f"double-cone {to_graph6(g)}")
    return checked


def _battery_joins(failures: list[str], rng: Random) -> int:
    checked = 0
    while checked < 20:
        nx_ = rng.randint(1, 5)
        ny_ = rng.randint(1, 5)
        if nx_ + ny_ > 10 or nx_ + ny_ < 3:
            continue
        x = mask_to_graph(nx_, rng.randrange(1 << (nx_ * (nx_ - 1) // 2)))
        y = mask_to_graph(ny_, rng.randrange(1 << (ny_ * (ny_ - 1) // 2)))
        z = join(x, y)
        if not check_join_timing(z):
            failures.append(f"join-timing {to_graph6(z)}")
        checked += 1
    return checked


def campaign_constructions() -> CampaignResult:
    """Fixed battery over the construction families.

    Covers double cones over every graph on at most five vertices, the
    box-product criterion, the complement identity, join timing on random
    joins, join extensions, the threshold instance, Hadamard-graph
    partitions, and the polygamy arithmetic.
    """
    start = time.perf_counter()
    failures: list[str] = []
    details: dict = {}

    details["double_cones_checked"] = _battery_double_cones(failures)

    cartesian_cases = [
        ("K3,P3,2/3", complete_graph(3), path_graph(3), 2, 3),
        ("K2,P3,2/3", path_graph(2), path_graph(3), 2, 3),
        ("K1,P3,2/3", empty_graph(1), path_graph(3), 2, 3),
    ]
    for label, x, y, num, den in cartesian_cases:
        if not check_cartesian_product_rule(x, y, num, den):
            failures.append(f"cartesian {label}")
    details["cartesian_cases"] = len(cartesian_cases)

    complement_cases = [
        ("C4,1/2", cycle_graph(4), 1, 2),
        ("P3+K1,1/2", disjoint_union(path_graph(3), empty_graph(1)), 1, 2),
        ("P4,2/1", path_graph(4), 2, 1),
    ]
    for label, x, num, den in complement_cases:
        if not check_complement_transfer(x, num, den):
            failures.append(f"complement {label}")
    details["complement_cases"] = len(complement_cases)

    details["joins_checked"] = _battery_joins(failures, Random(20260810))

    extension_cases = [
        ("C4+K4", cycle_graph(4), (0, 2), complete_graph(4), Fraction(1, 2)),
        (
            "DC(K4)+C6",
            double_cone(complete_graph(4)),
            (0, 1),
            cycle_graph(6),
            Fraction(1, 3),
        ),
        ("P3+K3", path_graph(3), (0, 2), complete_graph(3), Fraction(2, 3)),
    ]
    for label, x, pair, y, t in extension_cases:
        d = check_join_extension(x, pair, y)
        if d.status is not RevivalStatus.PROPER or not proper_time_valid(
            d, t.numerator, t.denominator
        ):
            failures.append(f"join-extension {label}")
    details["extension_cases"] = len(extension_cases)

    # threshold instance: initial edgeless pair joined to a 4-clique
    thr = double_cone(complete_graph(4))
    d = decide_proper_lafr(thr, 0, 1)
    tau = Fraction(*d.earliest_time) if d.earliest_time else None
    threshold_ok = (
        d.status is RevivalStatus.PROPER
        and tau == Fraction(1, 3)
        and tau.denominator not in (1, 2)  # not an integer multiple of pi/2
        and Fraction(6) * tau % 2 == 0  # (m1 + m2) * tau lands on the 2*pi grid
    )
    if not threshold_ok:
        failures.append("threshold 2,4")
    details["threshold_ok"] = threshold_ok

    for side in (2, 4):
        h = hadamard_graph(sylvester_hadamard(side))
        part = strong_cospectral(h, 0, side * side)
        if not hadamard_partition_check(side, part):
            failures.append(f"hadamard n={side} partition")
        d = decide_proper_lafr(h, 0, side * side)
        # class gcd 2n gives perfect state transfer at pi/n between antipodes
        if not (
            d.status is RevivalStatus.PROPER
            and d.is_pst
            and Fraction(*d.earliest_time) == Fraction(1, side)
        ):
            failures.append(f"hadamard n={side} revival")
    details["hadamard_sides"] = [2, 4]

    for q in (1, 3, 5):
        if not check_polygamy_conditions(12 * q, 12, 6 * q, 4).ok:
            failures.append(f"polygamy q={q}")
    details["polygamy_q"] = [1, 3, 5]

    return CampaignResult(
        name="constructions",
        corpus_size=details["double_cones_checked"]
        + details["joins_checked"]
        + len(cartesian_cases)
        + len(complement_cases)
        + len(extension_cases)
        + 2
        + 3
        + 1,
        counterexamples=failures,
        wall_time_s=time.perf_counter() - start,
        details=details,
    )

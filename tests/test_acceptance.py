"""Acceptance suite: one test per acceptance criterion, at stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  The extended prime-order run (the 1044 isomorphism classes on
seven vertices, built by vertex augmentation, whose orbits cover all 2^21
labeled graphs; about a second) is marked slow; a plain run includes it,
``-m slow`` runs only the slow tests and ``-m "not slow"`` leaves them out.
"""

import math
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import all_graph_masks, atlas_connected, transition_matrix
from lafr import oracle
from lafr.campaigns import (
    campaign_constructions,
    campaign_prime_order,
    campaign_trees,
    mask_to_graph,
)
from lafr.graphs import (
    Graph,
    cycle_graph,
    double_cone,
    is_double_cone,
    parse_graph6,
    path_graph,
)
from lafr.revival import (
    RevivalStatus,
    all_lafr_pairs,
    check_polygamy_conditions,
    decide_proper_lafr,
    PhaseRational,
)
from lafr.spectral import is_periodic


def _proper_pairs(g: Graph):
    return [d for d in all_lafr_pairs(g) if d.status is RevivalStatus.PROPER]


def _oracle_sweep(g: Graph, decision) -> None:
    """Criterion-6 checks for one proper decision."""
    alpha, beta = decision.phase.amplitudes()
    tau = math.pi * decision.earliest_time[0] / decision.earliest_time[1]
    a, b = decision.pair
    residual = oracle.revival_residual(g, a, b, tau, alpha, beta)
    assert residual <= 1e-9
    assert abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1) <= 1e-12
    u = transition_matrix(g, tau).entries
    assert abs(u[a, a] - u[b, b]) <= 1e-9


@pytest.fixture(scope="module")
def proper_log():
    """Proper decisions produced by criteria 1 through 5, for criterion 6."""
    return []


def test_criterion_1_p3_decision(proper_log):
    start = time.perf_counter()
    d = decide_proper_lafr(path_graph(3), 0, 2)
    assert d.status is RevivalStatus.PROPER
    assert d.g == 3
    assert d.earliest_time == (2, 3)
    assert d.phase == PhaseRational(1, 3)
    assert d.is_pst is False
    alpha, beta = d.phase.amplitudes()
    residual = oracle.revival_residual(
        path_graph(3), 0, 2, 2 * math.pi / 3, alpha, beta
    )
    assert residual <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 0.1
    proper_log.append((path_graph(3), d))
    print(f"\n[criterion 1] PASS: 3-path proper revival at 2pi/3 "
          f"(residual {residual:.2e}, {elapsed * 1000:.1f} ms)")


def test_criterion_2_double_cone_family(proper_log):
    start = time.perf_counter()
    checked = 0
    for k in range(1, 6):
        for mask in all_graph_masks(k):
            y = mask_to_graph(k, mask)
            g = double_cone(y)
            n = g.n
            d = decide_proper_lafr(g, 0, 1)
            assert d.status is RevivalStatus.PROPER, f"Y mask {mask} on {k}"
            assert d.g == n
            assert Fraction(*d.earliest_time) == Fraction(2, n)
            assert d.is_pst == (n == 4)
            proper_log.append((g, d))
            checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 1099
    assert elapsed < 60
    print(f"\n[criterion 2] PASS: {checked} double cones, g = n and time 2pi/n "
          f"({elapsed:.1f} s)")


def test_criterion_3_tree_campaign(proper_log):
    result = campaign_trees(10)
    assert result.counterexamples == []
    assert result.details["counts_per_n"] == {
        2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106,
    }
    with_revival = result.details["graphs_with_proper_pairs"]
    assert len(with_revival) == 2
    assert {parse_graph6(s).n for s in with_revival} == {2, 3}
    p3 = parse_graph6(with_revival[1])
    for d in _proper_pairs(p3):
        proper_log.append((p3, d))
    assert result.wall_time_s < 60
    print(f"\n[criterion 3] PASS: {result.corpus_size} trees, revival only on "
          f"the 2- and 3-paths ({result.wall_time_s:.1f} s)")


def test_criterion_4_prime_order_five(proper_log):
    result = campaign_prime_order(5)
    assert result.counterexamples == []
    assert result.details["connected_graphs"] == 728
    assert result.details["positives"] > 0
    assert result.wall_time_s < 5
    # positive graphs feed the criterion-6 sweep
    count = 0
    for mask in all_graph_masks(5):
        g = mask_to_graph(5, mask)
        from lafr.graphs import is_connected

        if not is_connected(g):
            continue
        proper = _proper_pairs(g)
        if proper:
            assert is_double_cone(g) is not None
            count += 1
            for d in proper:
                proper_log.append((g, d))
    assert count == result.details["positives"]
    print(f"\n[criterion 4] PASS: prime order 5, {count} positives, all double "
          f"cones ({result.wall_time_s:.1f} s)")


@pytest.mark.slow
def test_criterion_4_prime_order_seven_extended(prime7_result):
    result = prime7_result
    assert result.counterexamples == []
    assert result.details["connected_graphs"] == 1866256
    assert result.details["connected_classes"] == 853
    assert result.details["positives"] == 20769
    assert result.wall_time_s < 1800
    print(f"\n[criterion 4x] PASS: prime order 7, {result.details['positives']} "
          f"positives over 2^21 masks, all double cones "
          f"({result.wall_time_s:.0f} s)")


def test_criterion_5_hexagon_chords(proper_log):
    start = time.perf_counter()
    c6 = cycle_graph(6)

    def with_chords(*chords):
        return Graph.from_edges(6, list(c6.edges) + list(chords))

    cases = [
        (c6, [(0, 3), (1, 4), (2, 5)]),
        (with_chords((1, 5)), [(0, 3)]),
        (with_chords((1, 5), (0, 3)), [(0, 3)]),
        (with_chords((1, 5), (2, 4)), [(0, 3)]),
    ]
    for g, expected_pairs in cases:
        proper = _proper_pairs(g)
        assert [d.pair for d in proper] == expected_pairs
        for d in proper:
            _oracle_sweep(g, d)  # cross-check the identity of each pair
            proper_log.append((g, d))
    elapsed = time.perf_counter() - start
    assert elapsed < 1
    print(f"\n[criterion 5] PASS: hexagon chord battery, exact pair counts "
          f"3/1/1/1 ({elapsed * 1000:.0f} ms)")


def test_criterion_6_oracle_soundness(proper_log):
    assert len(proper_log) >= 1104, "criteria 1-5 must run before the sweep"
    for g, d in proper_log:
        _oracle_sweep(g, d)
    print(f"\n[criterion 6] PASS: {len(proper_log)} proper decisions verified "
          f"against the walk operator at 1e-9")


def test_criterion_7_scan_completeness():
    corpus = [g for g in atlas_connected(6) if g.n >= 3]
    events_checked = 0
    for g in corpus:
        exact = {d.pair: d for d in all_lafr_pairs(g)}
        for a in range(g.n):
            for b in range(a + 1, g.n):
                hits = oracle.time_scan(g, a, b, 2 * math.pi, 720)
                d = exact.get((a, b))
                if d is None or d.status is not RevivalStatus.PROPER:
                    assert hits == [], (g, a, b, hits)
                    continue
                allowed = [
                    2 * math.pi * m / d.g
                    for m in range(1, d.g + 1)
                    if (m * d.phase.k) % d.g != 0
                ]
                assert len(hits) == len(allowed)
                for h, t in zip(hits, allowed):
                    assert abs(h - t) <= 1e-6
                events_checked += len(hits)
    # the single-edge graph follows the documented continuum instead
    k2_hits = oracle.time_scan(path_graph(2), 0, 1, 2 * math.pi, 720)
    assert len(k2_hits) > 500
    print(f"\n[criterion 7] PASS: scan over {len(corpus)} connected graphs "
          f"up to n=6 agrees with exact decisions ({events_checked} events)")


def test_criterion_8_construction_battery():
    result = campaign_constructions()
    assert result.counterexamples == []
    assert result.details["double_cones_checked"] == 1099
    assert result.details["threshold_ok"]
    assert result.wall_time_s < 60
    print(f"\n[criterion 8] PASS: construction battery "
          f"({result.wall_time_s:.1f} s)")


def test_criterion_9_periodicity():
    for v in range(4):
        per = is_periodic(cycle_graph(4), v)
        assert per.periodic and per.big_g == 2  # minimal period pi
    for v in range(5):
        assert not is_periodic(cycle_graph(5), v).periodic
    print("\n[criterion 9] PASS: square periodic with period pi, pentagon "
          "not periodic")


def test_criterion_10_polygamy_arithmetic():
    for q in (1, 3, 5):
        res = check_polygamy_conditions(12 * q, 12, 6 * q, 4)
        assert res.ok
        assert Fraction(*res.lafr_x_per_y_time) == Fraction(1, 2)
        assert Fraction(*res.lafr_y_per_x_time) == Fraction(1, 3)
    print("\n[criterion 10] PASS: polygamy arithmetic for q in {1, 3, 5}")


def test_criterion_11_property_suites():
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "tests/test_properties.py", "-q"],
        cwd=Path(__file__).resolve().parent.parent,
        capture_output=True,
        text=True,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed < 600
    print(f"\n[criterion 11] PASS: full invariant battery over the exhaustive "
          f"corpus ({elapsed:.1f} s)")

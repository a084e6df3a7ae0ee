"""Revival decisions, amplitudes, and the construction checkers."""

import math
from fractions import Fraction
from itertools import product
from random import Random

import numpy as np
import pytest

from conftest import atlas_connected, random_graph, transition_matrix
from lafr import oracle, revival
from lafr.errors import NotApplicableError, SpecialSmallGraphError
from lafr.graphs import (
    Graph,
    cartesian_product,
    complement,
    complete_graph,
    cycle_graph,
    disjoint_union,
    double_cone,
    empty_graph,
    join,
    path_graph,
)
from lafr.revival import (
    PhaseRational,
    RevivalStatus,
    all_lafr_pairs,
    check_cartesian_product_rule,
    check_complement_transfer,
    check_join_extension,
    check_join_timing,
    check_polygamy_conditions,
    class_gcd,
    decide_proper_lafr,
    earliest_common_lafr_time,
    has_periodic_vertex_at,
    has_proper_lafr_at,
    proper_time_valid,
    two_pi_over,
)
from lafr.spectral import PairPartition


def part(a, b, plus, minus):
    return PairPartition(a, b, frozenset(plus), frozenset(minus))


class TestClassGcd:
    def test_p3_partition(self):
        assert class_gcd(part(0, 2, {0, 3}, {1})) == 3

    def test_c6_partition(self):
        assert class_gcd(part(0, 3, {0, 3}, {1, 4})) == 3

    def test_double_cone_partition(self):
        assert class_gcd(part(0, 1, {0, 5}, {3})) == 5

    def test_divides_plus_elements(self):
        rng = Random(73)
        for _ in range(30):
            plus = {0} | {rng.randint(1, 20) for _ in range(rng.randint(1, 4))}
            minus = {rng.randint(1, 20) for _ in range(rng.randint(1, 3))}
            g = class_gcd(part(0, 1, plus, minus - plus or {21}))
            assert all(x % g == 0 for x in plus)

    def test_singletons_undefined(self):
        with pytest.raises(SpecialSmallGraphError):
            class_gcd(part(0, 1, {0}, {2}))


class TestPhaseRational:
    def test_normalized_equality(self):
        # a phase is its residue pair, unreduced: equality and hash compare
        # the fields, as a decision's own k and g
        assert PhaseRational(2, 4) == PhaseRational(2, 4)
        assert PhaseRational(1, 2) != PhaseRational(2, 4)
        assert PhaseRational(1, 3) != PhaseRational(2, 3)
        assert PhaseRational(1, 2) != (1, 2)
        assert len({PhaseRational(1, 2), PhaseRational(1, 2), PhaseRational(2, 4)}) == 2

    def test_bounds(self):
        with pytest.raises(ValueError):
            PhaseRational(3, 3)


class TestAmplitudes:
    def test_pst_phase(self):
        alpha, beta = PhaseRational(1, 2).amplitudes()
        assert abs(alpha) < 1e-15 and abs(beta - 1) < 1e-15

    def test_trivial_phase(self):
        alpha, beta = PhaseRational(0, 1).amplitudes()
        assert abs(alpha - 1) < 1e-15 and abs(beta) < 1e-15

    def test_third_phase(self):
        alpha, beta = PhaseRational(1, 3).amplitudes()
        assert abs(abs(alpha) ** 2 - 0.25) < 1e-12
        assert abs(abs(beta) ** 2 - 0.75) < 1e-12

    def test_unitarity_identity(self):
        for g in range(1, 12):
            for k in range(g):
                alpha, beta = PhaseRational(k, g).amplitudes()
                assert abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1) < 1e-12


class TestDecide:
    def test_p3(self):
        d = decide_proper_lafr(path_graph(3), 0, 2)
        assert d.status is RevivalStatus.PROPER
        assert d.g == 3 and d.earliest_time == (2, 3)
        assert d.phase == PhaseRational(1, 3)
        assert d.is_pst is False

    def test_double_cone_k3(self):
        d = decide_proper_lafr(double_cone(complete_graph(3)), 0, 1)
        assert d.status is RevivalStatus.PROPER
        assert d.g == 5 and d.earliest_time == (2, 5)
        assert d.is_pst is False

    def test_double_cone_o2_is_pst(self):
        d = decide_proper_lafr(double_cone(empty_graph(2)), 0, 1)
        assert d.status is RevivalStatus.PROPER
        assert d.g == 4 and Fraction(*d.earliest_time) == Fraction(1, 2)
        assert d.phase == PhaseRational(2, 4)
        assert d.is_pst is True

    def test_p4_ends_non_integer_support(self):
        d = decide_proper_lafr(path_graph(4), 0, 3)
        assert d.status is RevivalStatus.NON_INTEGER_SUPPORT

    def test_c5_non_integer_support(self):
        d = decide_proper_lafr(cycle_graph(5), 0, 2)
        assert d.status is RevivalStatus.NON_INTEGER_SUPPORT

    def test_k4_not_strongly_cospectral(self):
        d = decide_proper_lafr(complete_graph(4), 0, 1)
        assert d.status is RevivalStatus.NOT_STRONGLY_COSPECTRAL

    def test_periodic_only_pair(self):
        # opposite corners across the ladder are cospectral with trivial gcd
        lad = cartesian_product(path_graph(2), path_graph(3))
        d = decide_proper_lafr(lad, 0, 5)
        assert d.status is RevivalStatus.PERIODIC_ONLY
        assert d.partition is not None and d.g == 1
        assert all(mu % d.g == 0 for mu in d.partition.minus)

    def test_small_graph_signals(self):
        # the isolated edge is the one small-graph rule; O2's pair goes
        # through the characterization like any other
        with pytest.raises(SpecialSmallGraphError, match="isolated edge"):
            decide_proper_lafr(path_graph(2), 0, 1)
        d = decide_proper_lafr(empty_graph(2), 0, 1)
        assert d.status is RevivalStatus.NOT_STRONGLY_COSPECTRAL

    def test_same_vertex_rejected(self):
        with pytest.raises(ValueError):
            decide_proper_lafr(path_graph(3), 2, 2)

    def test_proper_decisions_carry_partition(self):
        d = decide_proper_lafr(path_graph(3), 0, 2)
        assert d.partition.plus == {0, 3} and d.partition.minus == {1}


class TestTwoVertexSchedule:
    """K2 is periodic on the pi grid and revives everywhere off it."""

    def test_periodic(self):
        for num, den in [(1, 1), (4, 2)]:
            assert has_periodic_vertex_at(path_graph(2), num, den)
            assert not has_proper_lafr_at(path_graph(2), num, den)

    def test_pst(self):
        # odd multiples of pi/2 are perfect state transfer, counted as revival
        for num, den in [(1, 2), (3, 2)]:
            assert has_proper_lafr_at(path_graph(2), num, den)
            assert not has_periodic_vertex_at(path_graph(2), num, den)
            u = transition_matrix(path_graph(2), num * math.pi / den).entries
            assert abs(u[0, 1]) == pytest.approx(1.0)

    def test_proper(self):
        for num, den in [(2, 3), (1, 7)]:
            assert has_proper_lafr_at(path_graph(2), num, den)
            assert not has_periodic_vertex_at(path_graph(2), num, den)
            u = transition_matrix(path_graph(2), num * math.pi / den).entries
            assert 1e-9 < abs(u[0, 1]) < 1 - 1e-9

    def test_zero_denominator_is_no_time(self):
        with pytest.raises(ValueError, match="denominator must be nonzero"):
            check_complement_transfer(cycle_graph(4), 1, 0)


class TestAllPairs:
    def test_c6_antipodal_triples(self):
        proper = [
            d for d in all_lafr_pairs(cycle_graph(6))
            if d.status is RevivalStatus.PROPER
        ]
        assert [d.pair for d in proper] == [(0, 3), (1, 4), (2, 5)]
        assert all(d.earliest_time == (2, 3) for d in proper)

    def test_p4_empty(self):
        assert all_lafr_pairs(path_graph(4)) == []

    def test_deterministic_order(self):
        pairs = [d.pair for d in all_lafr_pairs(cycle_graph(6))]
        assert pairs == sorted(pairs)

    def test_small_graph_signals(self):
        # K2's pair is an isolated edge, skipped; the others have no
        # strongly cospectral pair
        for g in (empty_graph(0), empty_graph(1), empty_graph(2), complete_graph(2)):
            assert all_lafr_pairs(g) == []


class TestEarliestCommonTime:
    def test_p3(self):
        assert earliest_common_lafr_time(path_graph(3)) == (2, 3)

    def test_c6(self):
        assert earliest_common_lafr_time(cycle_graph(6)) == (2, 3)

    def test_k4_none(self):
        assert earliest_common_lafr_time(complete_graph(4)) is None

    def test_largest_gcd_is_earliest(self):
        # P3 revives at 2pi/3 and DC(K3) at 2pi/5
        g = disjoint_union(path_graph(3), double_cone(complete_graph(3)))
        assert sorted(d.g for d in all_lafr_pairs(g) if d.status is RevivalStatus.PROPER) == [3, 5]
        assert earliest_common_lafr_time(g) == (2, 5)

    def test_lowest_terms(self):
        assert earliest_common_lafr_time(cycle_graph(4)) == (1, 2)
        for g in range(1, 40):
            f = Fraction(2, g)
            assert two_pi_over(g) == (f.numerator, f.denominator)


# signed times (num/den)*pi, zero and negative ones included
GRID_TIMES = [(num, den) for num in range(-7, 8) for den in (-3, -1, 1, 2, 3, 4, 6)]


class TestGridRule:
    """The integer grid rule agrees with the Fraction formulas it replaced,
    written out here, on every time of ``GRID_TIMES``."""

    def test_two_vertex_time_class(self):
        # K2 is periodic exactly on the pi grid and revives exactly off it,
        # perfect state transfer at odd multiples of pi/2 included
        for num, den in GRID_TIMES:
            if Fraction(num, den) <= 0:
                continue
            on_grid = Fraction(num, den).denominator == 1
            assert has_periodic_vertex_at(path_graph(2), num, den) == on_grid, (num, den)
            assert has_proper_lafr_at(path_graph(2), num, den) != on_grid, (num, den)

    @pytest.mark.parametrize(
        "graph, pair",
        [
            (path_graph(3), (0, 2)),
            (cycle_graph(4), (0, 2)),
            (double_cone(complete_graph(3)), (0, 1)),
        ],
        ids=["P3", "C4", "DC(K3)"],
    )
    def test_proper_time_valid(self, graph, pair):
        d = decide_proper_lafr(graph, *pair)
        assert d.status is RevivalStatus.PROPER
        for num, den in GRID_TIMES:
            m = Fraction(num * d.g, 2 * den)
            want = m.denominator == 1 and m > 0 and m.numerator * d.phase.k % d.g != 0
            assert proper_time_valid(d, num, den) == want, (num, den)

    @pytest.mark.parametrize("x", [cycle_graph(4), path_graph(4)], ids=["C4", "P4"])
    def test_complement_applicability(self, x):
        for num, den in GRID_TIMES:
            if Fraction(x.n * num, 2 * den).denominator == 1:
                assert check_complement_transfer(x, num, den), (num, den)
            else:
                with pytest.raises(NotApplicableError):
                    check_complement_transfer(x, num, den)

    def test_time_checks(self):
        # P3's vertices have G = 1, 3, 1 and its ends revive with g = 3, k = 1
        g = path_graph(3)
        for num, den in GRID_TIMES:
            if Fraction(num, den) <= 0:
                for check in (has_proper_lafr_at, has_periodic_vertex_at):
                    with pytest.raises(ValueError):
                        check(g, num, den)
                continue
            periodic = any(Fraction(num * big_g, 2 * den).denominator == 1 for big_g in (1, 3))
            m = Fraction(num * 3, 2 * den)
            proper = m.denominator == 1 and m.numerator % 3 != 0
            assert has_periodic_vertex_at(g, num, den) == periodic, (num, den)
            assert has_proper_lafr_at(g, num, den) == proper, (num, den)


class TestTimeMembership:
    def test_earliest_time_is_valid(self):
        d = decide_proper_lafr(path_graph(3), 0, 2)
        assert proper_time_valid(d, 2, 3)
        assert proper_time_valid(d, 4, 3)
        assert not proper_time_valid(d, 2, 1)  # multiple of the full period
        assert not proper_time_valid(d, 1, 3)  # off the revival grid

    def test_periodic_vertex_times(self):
        assert has_periodic_vertex_at(cycle_graph(4), 1, 1)
        assert has_periodic_vertex_at(path_graph(3), 2, 3)  # middle vertex, G = 3
        assert not has_periodic_vertex_at(path_graph(2), 2, 3)
        # an isolated vertex has support {0}: the walk fixes it at every time
        assert has_periodic_vertex_at(disjoint_union(path_graph(2), empty_graph(1)), 1, 7)
        assert not has_periodic_vertex_at(path_graph(2), 1, 7)

    def test_proper_lafr_times(self):
        assert has_proper_lafr_at(path_graph(3), 2, 3)
        assert not has_proper_lafr_at(path_graph(3), 2, 1)
        assert has_proper_lafr_at(path_graph(2), 1, 3)
        assert has_proper_lafr_at(path_graph(2), 1, 2)  # PST, as for every PROPER pair


class TestCartesianRule:
    def test_positive_case(self):
        assert check_cartesian_product_rule(complete_graph(3), path_graph(3), 2, 3)

    def test_negative_case_agrees(self):
        assert check_cartesian_product_rule(path_graph(2), path_graph(3), 2, 3)

    def test_unit_factor(self):
        assert check_cartesian_product_rule(empty_graph(1), path_graph(3), 2, 3)

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            check_cartesian_product_rule(path_graph(2), path_graph(3), 0, 1)

    def test_small_factors_with_an_edge(self):
        # y = K2 or K2 + K1: where x has a vertex periodic at pi/2, the
        # product's fibers are PST there, as K2 is, and both sides count it
        ys = [path_graph(2), disjoint_union(path_graph(2), empty_graph(1))]
        times = [(1, 2), (3, 2), (1, 4), (1, 1), (2, 3), (1, 3)]
        for x, y, (num, den) in product(atlas_connected(4), ys, times):
            assert check_cartesian_product_rule(x, y, num, den), (x.edges, y.n, num, den)

    def test_random_products(self):
        rng = Random(79)
        times = [(2, 3), (1, 2), (2, 5), (1, 1)]
        for _ in range(12):
            x = random_graph(rng, rng.randint(1, 3))
            y = random_graph(rng, rng.randint(2, 4))
            for num, den in times:
                assert check_cartesian_product_rule(x, y, num, den)


class TestComplementTransfer:
    def test_c4_half_pi(self):
        assert check_complement_transfer(cycle_graph(4), 1, 2)

    def test_p3_plus_isolated(self):
        g = disjoint_union(path_graph(3), empty_graph(1))
        assert check_complement_transfer(g, 1, 2)

    def test_two_pi_any_graph(self):
        assert check_complement_transfer(path_graph(4), 2, 1)

    def test_precondition_violation(self):
        with pytest.raises(NotApplicableError):
            check_complement_transfer(cycle_graph(4), 1, 3)

    def test_negative_time_reads_its_absolute_value(self):
        # U(-t) is the conjugate of U(t): C4 and its complement 2K2 both
        # revive on (0, 2) and (1, 3) at 7*pi/2 and at -7*pi/2, the isolated
        # edges of 2K2 as well as C4's strongly cospectral pairs
        for g in (cycle_graph(4), complement(cycle_graph(4))):
            for num in (7, -7):
                assert revival._proper_pairs_at(g, num, 2) == [(0, 2), (1, 3)]

    @staticmethod
    def _oracle_identity(x, xbar, num, den):
        tau = math.pi * num / den
        u_comp = transition_matrix(xbar, tau).entries
        u_neg = transition_matrix(x, -tau).entries
        return bool(np.abs(u_comp - u_neg).max() <= 1e-9)

    def test_oracle_cross_check(self):
        # the exact verdict agrees with the entrywise float comparison
        rng = Random(131)
        cases = [(cycle_graph(4), 1, 2), (path_graph(4), 2, 1)]
        cases += [(disjoint_union(path_graph(3), empty_graph(1)), 1, 2)]
        for _ in range(20):
            x = random_graph(rng, rng.randint(2, 8))
            cases.append((x, 2 * rng.randint(1, 3), x.n))
        for x, num, den in cases:
            assert check_complement_transfer(x, num, den)
            assert self._oracle_identity(x, complement(x), num, den)

    def test_complement_missing_an_edge_rejected(self, monkeypatch):
        # drop one edge from the complement: L + L-complement is no longer
        # nI - J.  At 2*pi/3, C6 revives on (0, 3), (1, 4) and (2, 5), and
        # the short complement on (1, 4) alone: the exact check says so, as
        # does the oracle
        x = cycle_graph(6)
        xbar = complement(x)
        short = Graph(xbar.n, xbar.edges - {min(xbar.edges)})
        assert revival._proper_pairs_at(x, 2, 3) == [(0, 3), (1, 4), (2, 5)]
        assert revival._proper_pairs_at(short, 2, 3) == [(1, 4)]
        monkeypatch.setattr(revival, "complement", lambda g: short if g == x else complement(g))
        assert not check_complement_transfer(x, 2, 3)
        assert not self._oracle_identity(x, short, 2, 3)

    def test_complement_overlapping_x_rejected(self, monkeypatch):
        # add one edge of x to the complement: the two edge sets still cover
        # every pair, but L + L-complement counts that edge twice, and at
        # 2*pi/3 the graph with the extra edge has no proper pair
        x = cycle_graph(6)
        xbar = complement(x)
        extra = Graph(xbar.n, xbar.edges | {min(x.edges)})
        assert revival._proper_pairs_at(extra, 2, 3) == []
        monkeypatch.setattr(revival, "complement", lambda g: extra if g == x else complement(g))
        assert not check_complement_transfer(x, 2, 3)
        assert not self._oracle_identity(x, extra, 2, 3)


class TestJoinTiming:
    def test_double_cone_divides(self):
        assert check_join_timing(double_cone(complete_graph(3)))

    def test_join_o2_k4(self):
        assert check_join_timing(join(empty_graph(2), complete_graph(4)))

    def test_non_join_not_applicable(self):
        with pytest.raises(NotApplicableError):
            check_join_timing(cycle_graph(6))

    def test_needs_three_vertices(self):
        with pytest.raises(NotApplicableError):
            check_join_timing(path_graph(2))

    def test_random_joins(self):
        rng = Random(83)
        for _ in range(10):
            x = random_graph(rng, rng.randint(1, 4))
            y = random_graph(rng, rng.randint(1, 4))
            if x.n + y.n < 3:
                continue
            assert check_join_timing(join(x, y))


class TestJoinExtension:
    def test_c4_k4(self):
        d = check_join_extension(cycle_graph(4), (0, 2), complete_graph(4))
        assert d.status is RevivalStatus.PROPER
        assert proper_time_valid(d, 1, 2)

    def test_double_cone_k4_with_c6(self):
        d = check_join_extension(
            double_cone(complete_graph(4)), (0, 1), cycle_graph(6)
        )
        assert d.status is RevivalStatus.PROPER
        assert proper_time_valid(d, 1, 3)

    def test_p3_k3(self):
        d = check_join_extension(path_graph(3), (0, 2), complete_graph(3))
        assert d.status is RevivalStatus.PROPER
        assert proper_time_valid(d, 2, 3)

    def test_hypothesis_violation(self):
        with pytest.raises(NotApplicableError):
            check_join_extension(path_graph(3), (0, 2), complete_graph(4))
        with pytest.raises(NotApplicableError, match="base pair does not admit"):
            check_join_extension(path_graph(4), (0, 3), complete_graph(4))


class TestPolygamyConditions:
    @pytest.mark.parametrize("q", [1, 3, 5])
    def test_paper_family(self, q):
        res = check_polygamy_conditions(12 * q, 12, 6 * q, 4)
        assert res.ok
        assert Fraction(*res.lafr_x_per_y_time) == Fraction(1, 2)
        assert Fraction(*res.lafr_y_per_x_time) == Fraction(1, 3)

    def test_p3_with_itself_fails(self):
        assert not check_polygamy_conditions(3, 3, 1, 1).ok

    def test_four_condition_form(self):
        # the paper's form, written out: each factor revives, not yet
        # periodic, while its partner is periodic, at both times
        for g, h, big_g, big_h in product(range(1, 31), repeat=4):
            t1, t2 = math.gcd(g, big_h), math.gcd(h, big_g)
            want = (
                big_g % t1 != 0 and big_h % t1 == 0 and big_h % t2 != 0 and big_g % t2 == 0
            )
            assert check_polygamy_conditions(g, h, big_g, big_h).ok == want, (g, h, big_g, big_h)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            check_polygamy_conditions(0, 1, 1, 1)


class TestSoundnessSmall:
    def test_proper_decisions_verified_by_oracle(self):
        # every PROPER verdict on a small random corpus satisfies the
        # block form at its earliest time
        import math

        from lafr import oracle

        rng = Random(89)
        checked = 0
        for _ in range(60):
            g = random_graph(rng, rng.randint(3, 8))
            for d in all_lafr_pairs(g):
                if d.status is not RevivalStatus.PROPER:
                    continue
                alpha, beta = d.phase.amplitudes()
                tau = math.pi * d.earliest_time[0] / d.earliest_time[1]
                res = oracle.revival_residual(
                    g, d.pair[0], d.pair[1], tau, alpha, beta
                )
                assert res <= 1e-9
                assert abs(beta) >= 1e-9
                checked += 1
        assert checked >= 3

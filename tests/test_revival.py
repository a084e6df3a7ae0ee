"""Revival decisions, amplitudes, and the construction checkers."""

import math
from fractions import Fraction
from random import Random

import numpy as np
import pytest

from conftest import random_graph, transition_matrix
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
    TwoVertexClass,
    all_lafr_pairs,
    amplitudes_at,
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
    two_vertex_time_class,
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
        assert PhaseRational(1, 2) == PhaseRational(2, 4)
        assert PhaseRational(1, 3) != PhaseRational(2, 3)

    def test_bounds(self):
        with pytest.raises(ValueError):
            PhaseRational(3, 3)


class TestAmplitudes:
    def test_pst_phase(self):
        amp = amplitudes_at(PhaseRational(1, 2))
        assert abs(amp.alpha) < 1e-15 and abs(amp.beta - 1) < 1e-15

    def test_trivial_phase(self):
        amp = amplitudes_at(PhaseRational(0, 1))
        assert abs(amp.alpha - 1) < 1e-15 and abs(amp.beta) < 1e-15

    def test_third_phase(self):
        amp = amplitudes_at(PhaseRational(1, 3))
        assert abs(abs(amp.alpha) ** 2 - 0.25) < 1e-12
        assert abs(abs(amp.beta) ** 2 - 0.75) < 1e-12

    def test_unitarity_identity(self):
        for g in range(1, 12):
            for k in range(g):
                amp = amplitudes_at(PhaseRational(k, g))
                assert abs(abs(amp.alpha) ** 2 + abs(amp.beta) ** 2 - 1) < 1e-12


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
        assert d.phase == PhaseRational(1, 2)
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
        with pytest.raises(SpecialSmallGraphError):
            decide_proper_lafr(path_graph(2), 0, 1)

    def test_same_vertex_rejected(self):
        with pytest.raises(ValueError):
            decide_proper_lafr(path_graph(3), 2, 2)

    def test_proper_decisions_carry_partition(self):
        d = decide_proper_lafr(path_graph(3), 0, 2)
        assert d.partition.plus == {0, 3} and d.partition.minus == {1}


class TestTwoVertexSchedule:
    def test_periodic(self):
        assert two_vertex_time_class(1, 1) is TwoVertexClass.PERIODIC
        assert two_vertex_time_class(4, 2) is TwoVertexClass.PERIODIC

    def test_pst(self):
        assert two_vertex_time_class(1, 2) is TwoVertexClass.PST
        assert two_vertex_time_class(3, 2) is TwoVertexClass.PST

    def test_proper(self):
        assert two_vertex_time_class(2, 3) is TwoVertexClass.PROPER
        assert two_vertex_time_class(1, 7) is TwoVertexClass.PROPER


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
        with pytest.raises(SpecialSmallGraphError):
            all_lafr_pairs(path_graph(2))


class TestEarliestCommonTime:
    def test_p3(self):
        assert earliest_common_lafr_time(path_graph(3)) == (2, 3)

    def test_c6(self):
        assert earliest_common_lafr_time(cycle_graph(6)) == (2, 3)

    def test_k4_none(self):
        assert earliest_common_lafr_time(complete_graph(4)) is None


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

    def test_proper_lafr_times(self):
        assert has_proper_lafr_at(path_graph(3), 2, 3)
        assert not has_proper_lafr_at(path_graph(3), 2, 1)
        assert has_proper_lafr_at(path_graph(2), 1, 3)
        assert not has_proper_lafr_at(path_graph(2), 1, 2)  # PST, not proper


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
        # nI - J, and the exact check says so, as does the oracle
        x = cycle_graph(6)
        xbar = complement(x)
        short = Graph(xbar.n, xbar.edges - {min(xbar.edges)})
        monkeypatch.setattr(revival, "complement", lambda g: short if g == x else complement(g))
        assert not check_complement_transfer(x, 1, 3)
        assert not self._oracle_identity(x, short, 1, 3)


class TestJoinTiming:
    def test_double_cone_divides(self):
        assert check_join_timing(double_cone(complete_graph(3)))

    def test_join_o2_k4(self):
        assert check_join_timing(join(empty_graph(2), complete_graph(4)))

    def test_non_join_not_applicable(self):
        with pytest.raises(NotApplicableError):
            check_join_timing(cycle_graph(6))

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


class TestPolygamyConditions:
    @pytest.mark.parametrize("q", [1, 3, 5])
    def test_paper_family(self, q):
        res = check_polygamy_conditions(12 * q, 12, 6 * q, 4)
        assert res.ok
        assert Fraction(*res.lafr_x_per_y_time) == Fraction(1, 2)
        assert Fraction(*res.lafr_y_per_x_time) == Fraction(1, 3)

    def test_p3_with_itself_fails(self):
        assert not check_polygamy_conditions(3, 3, 1, 1).ok

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
                amp = amplitudes_at(d.phase)
                tau = math.pi * d.earliest_time[0] / d.earliest_time[1]
                res = oracle.revival_residual(
                    g, d.pair[0], d.pair[1], tau, amp.alpha, amp.beta
                )
                assert res <= 1e-9
                assert abs(amp.beta) >= 1e-9
                checked += 1
        assert checked >= 3

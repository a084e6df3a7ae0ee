"""Eigenvalue supports, periodicity, strong cospectrality."""

from fractions import Fraction
from random import Random

import numpy as np
import pytest

from conftest import cluster_eigenvalues, random_graph
from lafr import oracle
from lafr.errors import NonIntegerSupportError, NotApplicableError
from lafr.graphs import (
    complete_graph,
    cycle_graph,
    disjoint_union,
    double_cone,
    empty_graph,
    path_graph,
)
from lafr.spectral import (
    eigenprojection_column,
    eigenvalue_support,
    idempotents,
    is_periodic,
    laplacian_integer_eigenvalues,
    strong_cospectral,
    support_product_divides_trees,
    support_size,
)


class TestIdempotents:
    def test_p3(self):
        idem = idempotents(path_graph(3))
        assert list(idem) == [0, 1, 3]
        num, den = idem[1]
        assert [[Fraction(x, den) for x in row] for row in num] == [
            [Fraction(1, 2), 0, Fraction(-1, 2)],
            [0, 0, 0],
            [Fraction(-1, 2), 0, Fraction(1, 2)],
        ]

    def test_keys_are_integer_eigenvalues(self):
        rng = Random(73)
        for _ in range(20):
            g = random_graph(rng, rng.randint(1, 9))
            assert set(idempotents(g)) == set(laplacian_integer_eigenvalues(g))

    def test_matches_oracle_projectors(self):
        rng = Random(79)
        for _ in range(40):
            g = random_graph(rng, rng.randint(3, 10))
            spec = oracle.graph_spectrum(g)
            clusters = cluster_eigenvalues(spec.eigenvalues)
            for mu, (num, den) in idempotents(g).items():
                [cluster] = [
                    c for c in clusters if abs(spec.eigenvalues[c[0]] - mu) < 1e-6
                ]
                vc = spec.eigenvectors[:, cluster]
                exact = np.array([[float(Fraction(x, den)) for x in row] for row in num])
                assert np.max(np.abs(exact - vc @ vc.T)) < 1e-9


class TestEigenvalueSupport:
    def test_p3_end(self):
        sup = eigenvalue_support(path_graph(3), 0)
        assert sup.integer_eigenvalues == {0, 1, 3}
        assert sup.all_integer and support_size(path_graph(3), 0) == 3

    def test_p3_end_columns(self):
        # The support {0, 1, 3} is where the end's eigenprojection columns
        # are nonzero, and those columns resolve the end's unit vector.
        g = path_graph(3)
        cols = {mu: eigenprojection_column(g, mu, 0) for mu in (0, 1, 3)}
        assert all(any(c) for c in cols.values())
        assert eigenvalue_support(g, 0).integer_eigenvalues == set(cols)
        assert [sum(xs) for xs in zip(*cols.values())] == [1, 0, 0]

    def test_p3_middle(self):
        sup = eigenvalue_support(path_graph(3), 1)
        assert sup.integer_eigenvalues == {0, 3}
        assert sup.all_integer and support_size(path_graph(3), 1) == 2

    def test_k2(self):
        sup = eigenvalue_support(path_graph(2), 0)
        assert sup.integer_eigenvalues == {0, 2}
        assert sup.all_integer and support_size(path_graph(2), 0) == 2

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            eigenvalue_support(path_graph(2), 4)
        with pytest.raises(ValueError):
            support_size(path_graph(2), 4)

    def test_c5(self):
        sup = eigenvalue_support(cycle_graph(5), 0)
        assert sup.integer_eigenvalues == {0}
        assert not sup.all_integer

    def test_non_integer_support_sizes(self):
        # C5: 0 and the two irrational values (5 -+ sqrt 5)/2;
        # P5: 2 - 2cos(k pi/5), all five at an end, k even at the middle
        cases = ((cycle_graph(5), 3, 3), (path_graph(5), 0, 5), (path_graph(5), 2, 3))
        for g, a, size in cases:
            sup = eigenvalue_support(g, a)
            assert not sup.all_integer and support_size(g, a) == size

    def test_c4(self):
        sup = eigenvalue_support(cycle_graph(4), 0)
        assert sup.integer_eigenvalues == {0, 2, 4}
        assert sup.all_integer

    def test_zero_always_present(self):
        rng = Random(61)
        for _ in range(25):
            g = random_graph(rng, rng.randint(1, 8))
            for v in range(g.n):
                assert 0 in eigenvalue_support(g, v).integer_eigenvalues

    def test_all_integer_iff_counts_match(self):
        # the diagonal-sum route (all_integer) against the moment-rank route
        rng = Random(67)
        for _ in range(25):
            g = random_graph(rng, rng.randint(1, 8))
            for v in range(g.n):
                sup = eigenvalue_support(g, v)
                assert sup.all_integer == (
                    len(sup.integer_eigenvalues) == support_size(g, v)
                )


class TestPeriodicity:
    def test_c4(self):
        per = is_periodic(cycle_graph(4), 0)
        assert per.periodic and per.big_g == 2  # minimal period pi

    def test_c5(self):
        assert not is_periodic(cycle_graph(5), 0).periodic

    def test_k2(self):
        per = is_periodic(path_graph(2), 0)
        assert per.periodic and per.big_g == 2

    def test_isolated_vertex(self):
        per = is_periodic(empty_graph(1), 0)
        assert per.periodic and per.big_g is None


class TestEigenprojectionColumn:
    def test_p3_zero_eigenvalue(self):
        assert eigenprojection_column(path_graph(3), 0, 0) == [Fraction(1, 3)] * 3

    def test_p3_middle_vanishes(self):
        assert eigenprojection_column(path_graph(3), 1, 1) == [Fraction(0)] * 3

    def test_p3_rank_one(self):
        assert eigenprojection_column(path_graph(3), 1, 0) == [
            Fraction(1, 2),
            Fraction(0),
            Fraction(-1, 2),
        ]

    def test_not_an_eigenvalue(self):
        with pytest.raises(ValueError):
            eigenprojection_column(path_graph(3), 2, 0)

    def test_columns_sum_to_basis_vector_for_integer_spectra(self):
        rng = Random(71)
        found = 0
        while found < 8:
            g = random_graph(rng, rng.randint(2, 7))
            mults = laplacian_integer_eigenvalues(g)
            if sum(mults.values()) != g.n:
                continue  # spectrum does not split over the integers
            found += 1
            for a in range(g.n):
                total = [Fraction(0)] * g.n
                for mu in mults:
                    col = eigenprojection_column(g, mu, a)
                    total = [x + y for x, y in zip(total, col)]
                expect = [Fraction(int(i == a)) for i in range(g.n)]
                assert total == expect


class TestStrongCospectral:
    def test_p3_ends(self):
        part = strong_cospectral(path_graph(3), 0, 2)
        assert part.plus == {0, 3} and part.minus == {1} and part.zero == set()

    def test_c6_antipodal(self):
        part = strong_cospectral(cycle_graph(6), 0, 3)
        assert part.plus == {0, 3} and part.minus == {1, 4} and part.zero == set()

    def test_c6_non_antipodal(self):
        assert strong_cospectral(cycle_graph(6), 0, 2) is None

    def test_k4_pair_fails(self):
        assert strong_cospectral(complete_graph(4), 0, 1) is None

    def test_non_integer_support_signalled(self):
        with pytest.raises(NonIntegerSupportError):
            strong_cospectral(path_graph(4), 0, 1)

    def test_same_vertex_rejected(self):
        with pytest.raises(ValueError):
            strong_cospectral(path_graph(3), 1, 1)

    def test_symmetry_in_pair(self):
        part_ab = strong_cospectral(cycle_graph(6), 0, 3)
        part_ba = strong_cospectral(cycle_graph(6), 3, 0)
        assert part_ab.plus == part_ba.plus and part_ab.minus == part_ba.minus

    def test_zero_class_example(self):
        # conical pair of a double cone: the base graph contributes zero-class values
        g = double_cone(complete_graph(3))
        part = strong_cospectral(g, 0, 1)
        assert part.plus == {0, 5}
        assert part.minus == {3}
        assert 0 not in part.zero

    def test_partition_covers_support(self):
        g = cycle_graph(6)
        part = strong_cospectral(g, 0, 3)
        sup = eigenvalue_support(g, 0)
        assert part.plus | part.minus == sup.integer_eigenvalues


class TestSupportProductDividesTrees:
    def test_p3_middle(self):
        assert support_product_divides_trees(path_graph(3), 1)

    def test_c6(self):
        for v in range(6):
            assert support_product_divides_trees(cycle_graph(6), v)

    def test_full_support_vacuous(self):
        assert support_product_divides_trees(path_graph(3), 0)

    def test_disconnected_not_applicable(self):
        g = disjoint_union(path_graph(2), path_graph(2))
        with pytest.raises(NotApplicableError):
            support_product_divides_trees(g, 0)

    def test_irrational_spectrum_not_applicable(self):
        with pytest.raises(NotApplicableError):
            support_product_divides_trees(cycle_graph(5), 0)

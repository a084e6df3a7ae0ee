"""Eigenvalue supports, periodicity, strong cospectrality, and the
vertex-local screen and certificate against the psi reference."""

import functools
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import islice, product
from math import comb, factorial, perm, prod
from pathlib import Path
from random import Random

import numpy as np
import pytest

from conftest import (
    cluster_eigenvalues,
    eigenprojection_column,
    exact_spectrum,
    idempotents,
    kernel_basis,
    laplacian_integer_eigenvalues,
    random_graph,
    split_integer_roots,
    support_product_divides_trees,
    support_size,
    tree_from_level_sequence,
)
from lafr import oracle, spectral
from lafr.errors import NonIntegerSupportError, NotApplicableError
from lafr.graphs import (
    Graph,
    cartesian_product,
    complete_graph,
    cycle_graph,
    disjoint_union,
    double_cone,
    empty_graph,
    hadamard_graph,
    laplacian,
    path_graph,
    sylvester_hadamard,
    threshold_graph,
)
from lafr.reporting import build_analysis_report
from lafr.revival import all_lafr_pairs, decide_proper_lafr
from lafr.spectral import (
    eigenvalue_support,
    is_periodic,
    strong_cospectral,
    vertex_spectra,
)
from lafr.trees import free_trees, tree_laplacians


def zero_class(g, part):
    """Integer Laplacian eigenvalues outside both supports, from the
    reference."""
    return set(laplacian_integer_eigenvalues(g)) - part.plus - part.minus


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
            evals, v = oracle.graph_spectrum(g)
            clusters = cluster_eigenvalues(evals)
            for mu, (num, den) in idempotents(g).items():
                [cluster] = [c for c in clusters if abs(evals[c[0]] - mu) < 1e-6]
                vc = v[:, cluster]
                exact = np.array([[float(Fraction(x, den)) for x in row] for row in num])
                assert np.max(np.abs(exact - vc @ vc.T)) < 1e-9


class TestEigenvalueSupport:
    def test_p3_end(self):
        assert eigenvalue_support(path_graph(3), 0) == {0, 1, 3}
        assert support_size(path_graph(3), 0) == 3

    def test_p3_end_columns(self):
        # The support {0, 1, 3} is where the end's eigenprojection columns
        # are nonzero, and those columns resolve the end's unit vector.
        g = path_graph(3)
        cols = {mu: eigenprojection_column(g, mu, 0) for mu in (0, 1, 3)}
        assert all(any(c) for c in cols.values())
        assert eigenvalue_support(g, 0) == set(cols)
        assert [sum(xs) for xs in zip(*cols.values())] == [1, 0, 0]

    def test_p3_middle(self):
        assert eigenvalue_support(path_graph(3), 1) == {0, 3}
        assert support_size(path_graph(3), 1) == 2

    def test_k2(self):
        assert eigenvalue_support(path_graph(2), 0) == {0, 2}
        assert support_size(path_graph(2), 0) == 2

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            eigenvalue_support(path_graph(2), 4)
        with pytest.raises(ValueError):
            support_size(path_graph(2), 4)

    def test_c5(self):
        assert eigenvalue_support(cycle_graph(5), 0) is None

    def test_non_integer_support_sizes(self):
        # C5: 0 and the two irrational values (5 -+ sqrt 5)/2;
        # P5: 2 - 2cos(k pi/5), all five at an end, k even at the middle
        cases = ((cycle_graph(5), 3, 3), (path_graph(5), 0, 5), (path_graph(5), 2, 3))
        for g, a, size in cases:
            assert eigenvalue_support(g, a) is None and support_size(g, a) == size

    def test_c4(self):
        assert eigenvalue_support(cycle_graph(4), 0) == {0, 2, 4}

    def test_zero_always_present(self):
        rng = Random(61)
        for _ in range(25):
            g = random_graph(rng, rng.randint(1, 8))
            for v in range(g.n):
                sup = eigenvalue_support(g, v)
                assert sup is None or 0 in sup

    def test_all_integer_iff_counts_match(self):
        # the certified route (a support or None) against the moment-rank
        # route: all-integer exactly when the reference's integer part
        # is as large as the whole support
        rng = Random(67)
        for _ in range(25):
            g = random_graph(rng, rng.randint(1, 8))
            for v in range(g.n):
                integer = {mu for mu, (num, _) in idempotents(g).items() if num[v][v]}
                full = len(integer) == support_size(g, v)
                assert eigenvalue_support(g, v) == (integer if full else None)


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
        zero = zero_class(path_graph(3), part)
        assert part.plus == {0, 3} and part.minus == {1} and zero == set()

    def test_c6_antipodal(self):
        part = strong_cospectral(cycle_graph(6), 0, 3)
        zero = zero_class(cycle_graph(6), part)
        assert part.plus == {0, 3} and part.minus == {1, 4} and zero == set()

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
        assert 0 not in zero_class(g, part)

    def test_partition_covers_support(self):
        g = cycle_graph(6)
        part = strong_cospectral(g, 0, 3)
        assert part.plus | part.minus == eigenvalue_support(g, 0)


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


def assert_matches_reference(g):
    """Every vertex's all-integer flag, support and exact eigenprojection
    columns E_mu e_a agree with the psi reference, in both directions."""
    ref = exact_spectrum(g)
    for a, spec in enumerate(vertex_spectra(g)):
        support = {mu for mu, (num, _) in ref.idempotents.items() if num[a][a]}
        assert (spec is not None) == (a in ref.signs)
        assert eigenvalue_support(g, a) == (support if a in ref.signs else None)
        if spec is None:
            continue
        assert set(spec.support) == support
        for mu, sign, col in zip(spec.support, spec.signs, spec.columns):
            d_mu = prod(mu - nu for nu in spec.support if nu != mu)
            num, den = ref.idempotents[mu]
            assert [Fraction(int(sign) * x, d_mu) for x in col.tolist()] == [
                Fraction(x, den) for x in num[a]
            ]


def hypercube(d):
    return functools.reduce(cartesian_product, [path_graph(2)] * d)


def hadamard(side):
    return hadamard_graph(sylvester_hadamard(side))


class TestReferenceAgreement:
    def test_atlas_upto_7(self):
        from networkx.generators.atlas import graph_atlas_g

        for G in graph_atlas_g()[1:]:
            assert_matches_reference(Graph.from_edges(G.number_of_nodes(), G.edges()))

    def test_random_8_to_12(self, random_8_to_12):
        for g in random_8_to_12:
            assert_matches_reference(g)

    @pytest.mark.slow
    def test_free_trees_upto_11(self):
        for n in range(1, 12):
            for seq in free_trees(n):
                assert_matches_reference(tree_from_level_sequence(seq))

    def test_analyze_graphs(self):
        graphs = [
            hypercube(5),
            cartesian_product(cycle_graph(6), cycle_graph(6)),
            path_graph(30),
            cycle_graph(24),
            hadamard(2),
            double_cone(complete_graph(10)),
        ]
        for g in graphs:
            assert_matches_reference(g)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: hypercube(6),
            lambda: hadamard(4),
            lambda: cartesian_product(
                cartesian_product(complete_graph(4), path_graph(3)), cycle_graph(4)
            ),
        ],
        ids=["Q6", "hadamard64", "K4xP3xC4"],
    )
    def test_larger_graphs(self, build):
        assert_matches_reference(build())


@pytest.fixture
def undecided():
    """Forget every decided graph, so the next call screens again."""
    vertex_spectra.cache_clear()
    yield
    vertex_spectra.cache_clear()


def operator(g):
    """The Laplacian of ``g`` as the core reads it, read-only float64, and its
    largest absolute row sum 2 * max degree."""
    lap = np.array(laplacian(g), dtype=float).reshape(g.n, g.n)
    lap.flags.writeable = False
    return lap, 2 * max(g.degrees(), default=0)


def weights(diags, top, p):
    """The weights (E_mu)_aa mod p of the screen's diagonals, as the core
    reads them."""
    return diags @ spectral._binomial_inverse(top, p) % p


def falling(top, p):
    """F[mu, j] = mu! / (mu - j)! mod p, zero for j > mu: d = w F gives the
    diagonals of the weights w, the inverse of :func:`weights`."""
    return np.array([[perm(mu, j) % p for j in range(top + 1)] for mu in range(top + 1)], float)


def supports(alive, w):
    """The candidate support of each row: ``None`` where the column of Q
    mod p is nonzero, else the mu of nonzero weight."""
    return tuple(
        tuple(mu for mu, x in enumerate(row) if x) if ok else None
        for ok, row in zip(alive.tolist(), w.tolist())
    )


def candidates(g, p):
    """The candidate support of every vertex of ``g`` modulo ``p``, screened
    as a stack of one under the core's bound."""
    lap, _ = operator(g)
    top = int(spectral._bounds(lap[None])[0])
    alive, diags = spectral._screen(lap[None], top, p)
    return supports(alive[0], weights(diags[0], top, p))


def keys(specs):
    """Bucket keys of vertex spectra, ``None`` where a support is not
    all-integer."""
    return [spec and spec.key for spec in specs]


def dtypes(g):
    """The dtypes of the certified columns of ``g``."""
    return {spec.columns.dtype for spec in vertex_spectra(g) if spec is not None}


def lie_at_first_prime(monkeypatch, vertex, edit):
    """Replace the screen's candidate for ``vertex`` at the first prime by
    ``edit(candidate)``; returns the list of primes screened."""
    real, primes = spectral._screen, []

    def screen(laps, top, p):
        primes.append(p)
        alive, diags = real(laps, top, p)
        if p == spectral.PRIME:
            [truth] = supports(alive[0, [vertex]], weights(diags[0, [vertex]], top, p))
            lie = np.isin(np.arange(top + 1), edit(truth))
            alive[0, vertex], diags[0, vertex] = True, lie @ falling(top, p) % p
        return alive, diags

    monkeypatch.setattr(spectral, "_screen", screen)
    return primes


class TestCertificate:
    # A wrong candidate support never yields a verdict: the integer
    # certificate rejects it and the next prime gives the reference answer.

    def _check(self, monkeypatch, g, a, edit):
        truth = keys(vertex_spectra(g))
        bad = edit(candidates(g, spectral.PRIME)[a])
        assert spectral._certify(*operator(g), bad, [a]) == [None]
        vertex_spectra.cache_clear()
        primes = lie_at_first_prime(monkeypatch, a, edit)
        assert keys(vertex_spectra(g)) == truth
        assert primes == [spectral.PRIME, spectral._next_prime(spectral.PRIME)]
        assert_matches_reference(g)

    def test_dropped_root(self, monkeypatch, undecided):
        # C6 vertex support {0, 1, 3, 4}; the screen forgets 3
        self._check(monkeypatch, cycle_graph(6), 0, lambda s: tuple(mu for mu in s if mu != 3))

    def test_added_root(self, monkeypatch, undecided):
        # C6 vertex support {0, 1, 3, 4}; the screen adds 2
        self._check(monkeypatch, cycle_graph(6), 0, lambda s: tuple(sorted(s + (2,))))

    def test_unlucky_prime(self, monkeypatch, undecided):
        # a P4 end has the support {0, 2 - sqrt 2, 2, 2 + sqrt 2}; a prime
        # under which its column of Q vanished could pass it on as {0, 2}
        g = path_graph(4)
        assert candidates(g, spectral.PRIME)[0] is None
        self._check(monkeypatch, g, 0, lambda s: (0, 2))

    def test_retries_end_at_the_cap(self, monkeypatch, undecided):
        # C6: r = 2 * max degree = 4 and top = 4, so B = 4 * 5 * 6 * 7 * 8 has
        # 13 bits, and each of at most top + 1 = 5 integers has at most one
        # prime factor >= PRIME: after 5 failed rounds the sixth must certify,
        # so a certificate that always fails raises at the sixth screen
        real, primes = spectral._screen, []

        def screen(laps, top, p):
            primes.append(p)
            assert len(primes) <= 6, "screened past the cap"
            return real(laps, top, p)

        monkeypatch.setattr(spectral, "_screen", screen)
        monkeypatch.setattr(spectral, "_certify", lambda *args: [None] * len(args[-1]))
        with pytest.raises(RuntimeError, match="^vertex 0: no certificate after 6 primes"):
            vertex_spectra(cycle_graph(6))
        assert len(primes) == 6

    def test_both_tiers_in_one_graph(self):
        # T_16, the threshold graph on sixteen singleton parts: its supports
        # of up to 10 eigenvalues stay below 2^53 and certify in int64, the
        # larger ones pass it and certify in Python integers, unforced
        g = threshold_graph([1] * 16)
        assert dtypes(g) == {np.dtype(np.int64), np.dtype(object)}
        assert_matches_reference(g)

    def test_python_integers_above_float_range(self, monkeypatch, undecided):
        # a support whose entry bound passes 2^53 is certified in Python
        # integers, with the same columns, signs, rejections and decisions
        def certified(spec):
            return spec and (spec.support, spec.signs.tolist(), spec.columns.tolist())

        g = cycle_graph(6)
        support = candidates(g, spectral.PRIME)[0]
        wrong = [support[:-1], support + (5,)]
        in_floats = [spectral._certify(*operator(g), s, list(range(6))) for s in [support, *wrong]]
        graphs = [
            g,
            hypercube(4),
            double_cone(complete_graph(4)),
            cartesian_product(cartesian_product(complete_graph(4), path_graph(3)), cycle_graph(4)),
            hadamard(2),
        ]
        # the screen's float64 bound reads _FLOAT_EXACT too, so it runs first
        real, screened = spectral._screen, {}

        def screen(laps, top, p):
            key = (laps.tobytes(), laps.shape, top, p)
            if key not in screened:
                screened[key] = real(laps, top, p)
            return screened[key]

        monkeypatch.setattr(spectral, "_screen", screen)
        decisions = [all_lafr_pairs(h) for h in graphs]
        assert [dtypes(h) for h in graphs] == [{np.dtype(np.int64)}] * len(graphs)
        monkeypatch.setattr(spectral, "_FLOAT_EXACT", 0)
        in_ints = [spectral._certify(*operator(g), s, list(range(6))) for s in [support, *wrong]]
        assert [list(map(certified, c)) for c in in_ints] == [
            list(map(certified, c)) for c in in_floats
        ]
        assert None not in in_ints[0] and in_ints[1] == in_ints[2] == [None] * 6
        vertex_spectra.cache_clear()
        assert [all_lafr_pairs(h) for h in graphs] == decisions
        assert [dtypes(h) for h in graphs] == [{np.dtype(object)}] * len(graphs)


def star(k):
    """K_{1,k}: centre 0 and leaves 1..k."""
    return Graph.from_edges(k + 1, [(0, j) for j in range(1, k + 1)])


class TestScreenBound:
    # The screen stops at top = min(n, 2 * max degree), which bounds every
    # Laplacian eigenvalue (Gershgorin), so Q_top e_a = 0 still exactly
    # when a's support is all-integer.

    def test_prime_too_large_for_float64(self, monkeypatch, undecided):
        # (top + 1) (p - 1)^2 >= 2^53 already for P3 (top = 3) at p = 2^61 - 1
        monkeypatch.setattr(spectral, "PRIME", 2**61 - 1)
        with pytest.raises(ValueError):
            vertex_spectra(path_graph(3))

    def test_largest_exact_order(self):
        p = spectral.PRIME
        assert 9007 * (p - 1) ** 2 < 2**53 <= 9008 * (p - 1) ** 2

    @pytest.mark.parametrize("k", range(1, 9))
    def test_star_bound_is_tight(self, k):
        # top = n = k + 1 = lambda_max: the spectrum is 0, 1 (k - 1 times), n
        g = star(k)
        leaf = (0, 1, g.n) if k > 1 else (0, g.n)
        assert candidates(g, spectral.PRIME) == ((0, g.n),) + (leaf,) * k
        assert_matches_reference(g)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_edgeless(self, n):
        # top = 0: Q = L = 0 and every vertex has the support {0}
        g = empty_graph(n)
        assert candidates(g, spectral.PRIME) == ((0,),) * n
        assert [spec.support for spec in vertex_spectra(g)] == [(0,)] * n

    def test_c300(self):
        # top = 4, far below n = 300; every support holds an irrational
        # 2 - 2 cos(2 pi k / 300), so no vertex is all-integer
        g = cycle_graph(300)
        assert candidates(g, spectral.PRIME) == (None,) * 300
        assert all_lafr_pairs(g) == []

    def test_guard_limits_the_bound_not_n(self, monkeypatch, undecided):
        # (top + 1) (p - 1)^2 < limit <= (n + 1) (p - 1)^2 for C6 (top = 4,
        # n = 6): it screens; K6 (top = n = 6) still raises
        monkeypatch.setattr(spectral, "_FLOAT_EXACT", 6 * (spectral.PRIME - 1) ** 2)
        assert eigenvalue_support(cycle_graph(6), 0) == {0, 1, 3, 4}
        with pytest.raises(ValueError, match="n = 6, bound 6"):
            vertex_spectra(complete_graph(6))


class TestStackedScreen:
    # Graphs of one order and bound screened as one stack get, candidate for
    # candidate, what each gets screened as a stack of one.

    @staticmethod
    def _check(graphs):
        groups = {}
        for g in graphs:
            lap, two_delta = operator(g)
            groups.setdefault((g.n, min(g.n, two_delta)), []).append((g, lap))
        assert len(groups) > 1
        for (n, top), group in groups.items():
            stack = np.stack([lap for g, lap in group])
            alive, diags = spectral._screen(stack, top, spectral.PRIME)
            assert alive.shape == (len(group), n) and diags.shape == (len(group), n, top + 1)
            w = weights(diags, top, spectral.PRIME)
            for (g, _), ok, rows in zip(group, alive, w):
                assert supports(ok, rows) == candidates(g, spectral.PRIME)

    def test_free_trees_upto_12(self):
        self._check([tree_from_level_sequence(s) for n in range(1, 13) for s in free_trees(n)])

    def test_atlas_upto_7(self):
        from networkx.generators.atlas import graph_atlas_g

        self._check([Graph.from_edges(G.number_of_nodes(), G.edges()) for G in graph_atlas_g()])

    def test_survivors_build_no_weight_table(self):
        # the campaigns read only the mask, so no weight transform is made
        laps = tree_laplacians(list(islice(free_trees(16), 512)))
        spectral._binomial_inverse.cache_clear()
        spectral._survivors(laps)
        assert spectral._binomial_inverse.cache_info().misses == 0


def p4_quotient(sizes):
    """Q = diag(N) - A_H diag(n) for H = P4 with modules of sizes n, where
    N_i counts the vertices of the modules next to module i."""
    adj = [[int(abs(i - j) == 1) for j in range(4)] for i in range(4)]
    big_n = [sum(x * y for x, y in zip(row, sizes)) for row in adj]
    return [[big_n[i] * (i == j) - adj[i][j] * sizes[j] for j in range(4)] for i in range(4)]


def krylov_support(q, a, hi):
    """The support of row ``a`` under the integer matrix ``q``, exactly: the
    roots of the minimal polynomial of e_a, read from the first Krylov vector
    q^k e_a that depends on the ones before it, or ``None`` where one of them
    is not an integer in [0, hi]."""
    vecs = [[int(i == a) for i in range(len(q))]]
    while not (kernel := kernel_basis([list(row) for row in zip(*vecs)])):
        vecs.append([sum(x * y for x, y in zip(row, vecs[-1])) for row in q])
    [coeffs] = kernel  # monic: its last entry, for q^k e_a, is 1
    assert coeffs[-1] == 1 and all(c.denominator == 1 for c in coeffs)
    roots, rest = split_integer_roots([int(c) for c in coeffs], 0, hi)
    assert set(roots.values()) <= {1}  # q is diagonalizable
    return tuple(sorted(roots)) if rest == [1] else None


class TestQuotientCore:
    # The core reads an integer matrix and its bound, not a graph.  On the
    # quotient Q of P4 with modules of sizes n, which is not symmetric once
    # two sizes differ, the eigenvalues are Laplacian eigenvalues of the
    # whole graph on sum(n) vertices (Cardoso, de Freitas, Martins &
    # Robbiano, Discrete Math. 313, 2013), so top = min(sum(n), r).

    def test_p4_quotients_match_krylov(self):
        certified = {}
        for sizes in product(range(1, 5), repeat=4):
            q = p4_quotient(sizes)
            m = np.array(q, dtype=float)
            m.flags.writeable = False
            r = max(sum(map(abs, row)) for row in q)
            for a, spec in enumerate(spectral._spectra(m, min(sum(sizes), r))):
                assert (spec and spec.support) == krylov_support(q, a, sum(sizes))
                if spec is None:
                    continue
                support = certified[sizes, a] = spec.support
                signs, columns = spec.signs.tolist(), spec.columns.tolist()
                cols = [[s * x for x in col] for s, col in zip(signs, columns)]
                for mu, col in zip(support, cols):  # Q c_mu = mu c_mu, exactly
                    assert [sum(x * y for x, y in zip(row, col)) for row in q] == [
                        mu * x for x in col
                    ]
                # sum_mu c_mu / l_mu(mu) = e_a
                dens = [prod(mu - nu for nu in support if nu != mu) for mu in support]
                total = [sum(Fraction(c[i], d) for c, d in zip(cols, dens)) for i in range(4)]
                assert total == [int(i == a) for i in range(4)]
        assert len(certified) == 24
        assert certified[(2, 3, 3, 2), 0] == (0, 2, 5, 9)

    def test_certificate_bound_reads_the_largest_row_sum(self, monkeypatch, undecided):
        # r is 2 * max degree for a Laplacian and 2 * max N_i for a quotient
        real, rs = spectral._certify, []

        def certify(m, r, *rest):
            rs.append(r)
            return real(m, r, *rest)

        monkeypatch.setattr(spectral, "_certify", certify)
        vertex_spectra(star(6))
        assert set(rs) == {12}
        rs.clear()
        q = p4_quotient((2, 3, 3, 2))  # N = (3, 5, 5, 3)
        spectral._spectra(np.array(q, dtype=float), 10)
        assert set(rs) == {10}


class TestBinomialInverse:
    @pytest.mark.parametrize("n", [1, 7, 40])
    def test_leading_block(self, n):
        # T[j, mu] depends on j, mu and p alone, so the table for k is the
        # top-left (k + 1) x (k + 1) block of the table for n
        p = spectral.PRIME
        full = spectral._binomial_inverse(n, p)
        for k in range(n):
            assert np.array_equal(spectral._binomial_inverse(k, p), full[: k + 1, : k + 1])

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 40])
    def test_closed_form(self, n):
        # T[j, mu] = (-1)^(j-mu) C(j, mu) / j! mod p, zero above the diagonal
        p = spectral.PRIME
        want = [
            [(-1) ** (j - mu) * comb(j, mu) * pow(factorial(j), -1, p) % p for mu in range(n + 1)]
            for j in range(n + 1)
        ]
        assert spectral._binomial_inverse(n, p).tolist() == want

    @pytest.mark.parametrize("n", [0, 1, 7, 40])
    def test_inverts_the_falling_factorials(self, n):
        # F T = I mod p: the test helper that plants diagonals is exact
        p = spectral.PRIME
        ft = falling(n, p) @ spectral._binomial_inverse(n, p) % p
        assert ft.tolist() == np.eye(n + 1).tolist()


class TestOnePass:
    @pytest.mark.parametrize("v", [-1, 6])
    def test_vertex_out_of_range(self, v):
        g = cycle_graph(6)
        for check in (is_periodic, eigenvalue_support):
            with pytest.raises(ValueError):
                check(g, v)
        for check in (strong_cospectral, decide_proper_lafr):
            for pair in ((0, v), (v, 0)):
                with pytest.raises(ValueError):
                    check(g, *pair)

    def test_one_screen_and_one_certificate_per_support(self, monkeypatch, undecided):
        # K4 x P3 has two candidate supports; every vertex of P4 is screened out
        g = disjoint_union(cartesian_product(complete_graph(4), path_graph(3)), path_graph(4))
        supports = {s for s in candidates(g, spectral.PRIME) if s is not None}
        assert len(supports) == 2 and None in candidates(g, spectral.PRIME)
        calls = []

        def recorded(real):
            def call(*args):
                calls.append((real.__name__, args[2]))  # the prime, or the support
                return real(*args)

            return call

        for name in ("_screen", "_certify"):
            monkeypatch.setattr(spectral, name, recorded(getattr(spectral, name)))
        is_periodic(g, 0)
        decide_proper_lafr(g, 0, 1)
        all_lafr_pairs(g)
        build_analysis_report(g)
        expected = [("_screen", spectral.PRIME)] + [("_certify", s) for s in supports]
        assert Counter(calls) == Counter(expected)


    def test_one_laplacian_per_graph(self, monkeypatch, undecided):
        # T_20 certifies many support groups, in int64 and in Python integers,
        # all from the one float64 Laplacian that the screen reads
        g = threshold_graph([1] * 20)
        built = []

        def counted(h):
            built.append(h)
            return laplacian(h)

        monkeypatch.setattr(spectral, "laplacian", counted)
        specs = vertex_spectra(g)
        assert built == [g]
        assert len({spec.support for spec in specs}) > 2
        assert dtypes(g) == {np.dtype(np.int64), np.dtype(object)}


@pytest.mark.parametrize("module", ["lafr", "lafr.cli"])
def test_import_does_not_load_numpy(module):
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = f"import sys, {module}; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.stdout.strip() == "False", out.stderr


def test_class_corpus_campaigns_do_not_load_numpy_ma():
    # np.unique imports numpy.ma on first use (numpy 2.x), an import no campaign needs
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = (
        "import sys; from lafr.campaigns import campaign_prime_order, campaign_constructions; "
        "campaign_prime_order(5); campaign_constructions(); print('numpy.ma' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.stdout.strip() == "False", out.stderr

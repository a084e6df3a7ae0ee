"""Structural invariants over the exhaustive small corpus plus random graphs.

The corpus is every connected unlabeled graph on at most seven vertices
(via the networkx atlas) plus 200 seeded random graphs on 8 to 12
vertices, disconnected ones included.  Every invariant of the analysis
pipeline is exercised here at its stated tolerance.
"""

import math
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from conftest import (
    char_poly,
    eccentricity,
    eigenprojection_column,
    exact_spectrum,
    kernel_basis,
    laplacian_integer_eigenvalues,
    signed_incidence,
    spanning_tree_count,
    support_product_divides_trees,
    support_size,
    transition_matrix,
)
from lafr import oracle, spectral
from lafr.errors import NotApplicableError
from lafr.graphs import (
    adjacency_sets,
    complement,
    distances,
    is_connected,
    laplacian,
)
from lafr.reporting import build_analysis_report
from lafr.revival import RevivalStatus, all_lafr_pairs, decide_proper_lafr, isolated_edges
from lafr.spectral import eigenvalue_support, is_periodic, strong_cospectral, vertex_spectra


@pytest.fixture(scope="module")
def corpus(connected_upto_7, random_8_to_12):
    return connected_upto_7 + random_8_to_12


@pytest.fixture(scope="module")
def corpus_pairs(corpus):
    """Strongly cospectral pairs (with decisions) for every corpus graph."""
    return [(g, all_lafr_pairs(g)) for g in corpus]


def _components(g):
    seen = set()
    count = 0
    for v in range(g.n):
        if v in seen:
            continue
        count += 1
        seen.update(w for w, d in enumerate(distances(g, v)) if d is not None)
    return count


def _odd_primes(n):
    while n > 0 and n % 2 == 0:
        n //= 2
    out = []
    d = 3
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 2
    if n > 2:
        out.append(n)
    return out


class TestLaplacianInvariants:
    def test_symmetry_row_sums_and_psd(self, corpus):
        for g in corpus:
            lap = laplacian(g)
            for i in range(g.n):
                assert sum(lap[i]) == 0
                for j in range(g.n):
                    assert lap[i][j] == lap[j][i]
            if g.n:
                evals, _ = oracle.graph_spectrum(g)
                assert evals.min() >= -1e-9

    def test_incidence_identity(self, corpus):
        for g in corpus:
            b = signed_incidence(g)
            lap = laplacian(g)
            m = g.num_edges
            for i in range(g.n):
                for j in range(i, g.n):
                    assert sum(b[i][e] * b[j][e] for e in range(m)) == lap[i][j]


class TestMatrixTreeInvariants:
    def test_cofactor_invariance(self, corpus):
        for g in corpus:
            q = spanning_tree_count(g, 0)
            for v in (g.n // 2, g.n - 1):
                assert spanning_tree_count(g, v) == q

    def test_char_poly_linear_coefficient(self, corpus):
        for g in corpus:
            psi = char_poly(laplacian(g))
            q = spanning_tree_count(g)
            assert psi[0] == 0
            assert abs(psi[1]) == g.n * q

    def test_nonzero_eigenvalue_product(self, corpus):
        for g in corpus:
            if not is_connected(g):
                assert spanning_tree_count(g) == 0
                continue
            evals, _ = oracle.graph_spectrum(g)
            evals = evals[1:]  # drop the zero
            product = float(np.prod(evals)) if g.n > 1 else 1.0
            expect = g.n * spanning_tree_count(g)
            assert abs(product - expect) <= 1e-6 * max(1.0, expect)


class TestSupportInvariants:
    def test_eccentricity_bound(self, corpus):
        for g in corpus:
            if not is_connected(g):
                continue
            for a in range(g.n):
                assert support_size(g, a) >= eccentricity(g, a) + 1

    def test_char_poly_vanishes_at_numeric_eigenvalues(self, corpus):
        for g in corpus[::7]:
            psi = char_poly(laplacian(g))
            scale = max(1.0, max(abs(c) for c in psi))
            evals, _ = oracle.graph_spectrum(g)
            for mu in evals:
                value = sum(c * mu**k for k, c in enumerate(psi))
                assert abs(value) < 1e-6 * scale

    def test_kernel_dimension_matches_multiplicity(self, corpus):
        for g in corpus[::11]:
            lap = laplacian(g)
            for mu, mult in laplacian_integer_eigenvalues(g).items():
                shifted = [
                    [(mu if i == j else 0) - lap[i][j] for j in range(g.n)]
                    for i in range(g.n)
                ]
                assert len(kernel_basis(shifted)) == mult

    def test_projection_resolution_of_identity(self, corpus):
        for g in corpus[::13]:
            mults = laplacian_integer_eigenvalues(g)
            if sum(mults.values()) != g.n:  # spectrum does not split over the integers
                continue
            for a in range(g.n):
                total = [Fraction(0)] * g.n
                for mu in mults:
                    col = eigenprojection_column(g, mu, a)
                    total = [x + y for x, y in zip(total, col)]
                assert total == [Fraction(int(i == a)) for i in range(g.n)]

    def test_complement_component_multiplicity(self, corpus):
        # multiplicity of the eigenvalue n counts complement components
        for g in corpus:
            if not is_connected(g):
                continue
            mult = laplacian_integer_eigenvalues(g).get(g.n, 0)
            assert mult == _components(complement(g)) - 1


class TestPartitionInvariants:
    def test_structure(self, corpus_pairs):
        for g, decisions in corpus_pairs:
            for d in decisions:
                part = d.partition
                # integer eigenvalues outside both supports, from the reference
                integer = set(laplacian_integer_eigenvalues(g))
                assert part.plus | part.minus <= integer
                zero = integer - part.plus - part.minus
                assert 0 in part.plus
                assert part.plus.isdisjoint(part.minus)
                assert part.plus.isdisjoint(zero)
                assert part.minus.isdisjoint(zero)
                assert len(part.plus) >= 2 and len(part.minus) >= 1
                for mu in part.plus | part.minus | zero:
                    assert 0 <= mu <= g.n
                assert part.plus | part.minus == eigenvalue_support(g, d.pair[0])

    def test_symmetry_in_pair(self, corpus_pairs):
        for g, decisions in corpus_pairs:
            for d in decisions:
                a, b = d.pair
                swapped = strong_cospectral(g, b, a)
                assert swapped is not None
                assert swapped.plus == d.partition.plus
                assert swapped.minus == d.partition.minus

    def test_buckets_match_pairwise_reference(self, corpus_pairs):
        # negative verdicts too: two vertices with all-integer supports share
        # a bucket exactly when their eigenprojection columns are equal or
        # opposite at every integer eigenvalue, and all_lafr_pairs lists
        # exactly those pairs apart from isolated edges
        for g, decisions in corpus_pairs:
            spec = exact_spectrum(g)
            verts = [v for v in range(g.n) if eigenvalue_support(g, v) is not None]
            assert sorted(spec.rows) == verts
            cols = {
                v: [eigenprojection_column(g, mu, v) for mu in spec.idempotents]
                for v in verts
            }
            reference = set()
            for a, b in combinations(verts, 2):
                cospectral = all(
                    x == y or x == [-e for e in y] for x, y in zip(cols[a], cols[b])
                )
                assert (spec.rows[a] == spec.rows[b]) == cospectral
                if cospectral:
                    reference.add((a, b))
            degs = g.degrees()
            isolated = {(u, v) for u, v in g.edges if degs[u] == degs[v] == 1}
            assert {d.pair for d in decisions} == reference - isolated
            # each bucket is named by its least vertex
            specs = vertex_spectra(g)
            for v in verts:
                assert specs[v].bucket == min([v] + [a for a, b in reference if b == v])

    def test_decisions_read_no_columns(self, corpus, monkeypatch):
        # decisions read supports, buckets and signs only: with every cached
        # spectrum's columns dropped, every reader's output is unchanged
        def outputs(g):
            certified = [v for v in range(g.n) if vertex_spectra(g)[v] is not None]
            skip = set(isolated_edges(g))
            report = build_analysis_report(g)
            del report["runtime_seconds"]
            return (
                all_lafr_pairs(g),
                [decide_proper_lafr(g, *p) for p in combinations(range(g.n), 2) if p not in skip],
                [strong_cospectral(g, *p) for p in combinations(certified, 2)],
                [is_periodic(g, v) for v in range(g.n)],
                report,
            )

        want = [outputs(g) for g in corpus]
        real = spectral._spectra

        def spectra(m, top):
            return tuple(spec and replace(spec, columns=None) for spec in real(m, top))

        monkeypatch.setattr(spectral, "_spectra", spectra)
        vertex_spectra.cache_clear()
        try:
            assert [outputs(g) for g in corpus] == want
        finally:
            vertex_spectra.cache_clear()  # no later test reads a spectrum without columns

    def test_equal_degrees(self, corpus_pairs):
        for g, decisions in corpus_pairs:
            for d in decisions:
                a, b = d.pair
                assert g.degrees()[a] == g.degrees()[b]

    def test_idempotent_class_sums(self, corpus_pairs):
        half = Fraction(1, 2)
        for g, decisions in corpus_pairs:
            for d in decisions:
                a, b = d.pair
                for cls, sign in ((d.partition.plus, 1), (d.partition.minus, -1)):
                    total = [Fraction(0)] * g.n
                    for mu in cls:
                        col = eigenprojection_column(g, mu, a)
                        total = [x + y for x, y in zip(total, col)]
                    expect = [Fraction(0)] * g.n
                    expect[a] = half
                    expect[b] = sign * half
                    assert total == expect

    def test_degree_bounds(self, corpus_pairs):
        for g, decisions in corpus_pairs:
            if not is_connected(g):
                continue
            n = g.n
            for d in decisions:
                a, b = d.pair
                part = d.partition
                sigma = 1 if (a, b) in g.edges else 0
                deg = Fraction(g.degrees()[a])
                plus_nonzero = [mu for mu in part.plus if mu]
                lam_p, theta_p = min(plus_nonzero), max(part.plus)
                lam_m, theta_m = min(part.minus), max(part.minus)
                scale = Fraction(n - 2, n)
                assert max(scale * lam_p + sigma, Fraction(lam_m - sigma)) <= deg
                assert deg <= min(scale * theta_p + sigma, Fraction(theta_m - sigma))

    def test_distance_bound(self, corpus_pairs):
        for g, decisions in corpus_pairs:
            for d in decisions:
                a, b = d.pair
                k = len(d.partition.minus)
                dist_a = distances(g, a)
                dist_b = distances(g, b)
                for v in range(g.n):
                    if dist_a[v] == k:
                        assert dist_b[v] is not None and dist_b[v] <= k
                assert dist_a[b] is not None and dist_a[b] <= 2 * k

    def test_twin_corollary(self, corpus_pairs):
        for g, decisions in corpus_pairs:
            adj = adjacency_sets(g)
            for d in decisions:
                if len(d.partition.minus) != 1:
                    continue
                a, b = d.pair
                assert adj[a] - {a, b} == adj[b] - {a, b}

    def test_prime_divisor_lemma(self, corpus_pairs):
        for g, decisions in corpus_pairs:
            if not decisions:
                continue
            q = spanning_tree_count(g)
            for d in decisions:
                for mu in d.partition.minus:
                    for p in _odd_primes(mu):
                        assert q % p == 0

    def test_support_product_divisibility(self, corpus_pairs):
        for g, decisions in corpus_pairs:
            for d in decisions:
                for v in d.pair:
                    try:
                        assert support_product_divides_trees(g, v)
                    except NotApplicableError:
                        pass


class TestRevivalInvariants:
    def test_minus_residues(self, corpus_pairs):
        for g, decisions in corpus_pairs:
            for d in decisions:
                residues = {mu % d.g for mu in d.partition.minus}
                assert len(residues) == 1
                residue = residues.pop()
                if d.status is RevivalStatus.PROPER:
                    assert residue != 0
                else:
                    assert residue == 0

    def test_proper_implies_periodic_endpoints(self, corpus_pairs):
        for g, decisions in corpus_pairs:
            for d in decisions:
                if d.status is not RevivalStatus.PROPER:
                    continue
                for v in d.pair:
                    assert is_periodic(g, v).periodic

    def test_proper_degree_at_least_two(self, corpus_pairs):
        for g, decisions in corpus_pairs:
            if not is_connected(g) or g.n < 5:
                continue
            for d in decisions:
                if d.status is RevivalStatus.PROPER:
                    assert g.degrees()[d.pair[0]] >= 2

    def test_oracle_soundness(self, corpus_pairs):
        for g, decisions in corpus_pairs:
            for d in decisions:
                if d.status is not RevivalStatus.PROPER:
                    continue
                alpha, beta = d.phase.amplitudes()
                tau = math.pi * d.earliest_time[0] / d.earliest_time[1]
                a, b = d.pair
                assert (
                    oracle.revival_residual(g, a, b, tau, alpha, beta)
                    <= 1e-9
                )
                assert abs(beta) >= 1e-9
                u = transition_matrix(g, tau).entries
                assert abs(u[a, a] - u[b, b]) <= 1e-9

    def test_periodicity_times(self, corpus_pairs):
        # at the reported minimal period the walk returns to the vertex
        for g, decisions in corpus_pairs:
            for v in range(min(g.n, 3)):
                per = is_periodic(g, v)
                if not per.periodic or per.big_g is None:
                    continue
                u = transition_matrix(g, 2 * math.pi / per.big_g).entries
                col = np.abs(u[:, v])
                col[v] = 0
                assert col.max() <= 1e-9

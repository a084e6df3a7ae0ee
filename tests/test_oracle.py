"""Floating-point oracle: spectra, walk operators, pair leakage, scans."""

import ast
import inspect
import math
from random import Random

import numpy as np
import pytest

from conftest import (
    numeric_strong_cospectral,
    pair_leakage,
    random_graph,
    transition_matrix,
)
from lafr import oracle
from lafr.graphs import (
    cartesian_product,
    check_vertices,
    complement,
    complete_graph,
    cycle_graph,
    distances,
    double_cone,
    empty_graph,
    hadamard_graph,
    is_connected,
    laplacian,
    path_graph,
    sylvester_hadamard,
)
from lafr.reporting import build_analysis_report
from lafr.revival import RevivalStatus, all_lafr_pairs, decide_proper_lafr
from lafr.spectral import eigenvalue_support, is_periodic, strong_cospectral


class TestEigh:
    """numpy's eigh of a graph's Laplacian, through ``graph_spectrum``."""

    def test_k2(self):
        evals, _ = oracle.graph_spectrum(path_graph(2))
        assert np.allclose(evals, [0, 2], atol=1e-12)

    def test_p3(self):
        evals, _ = oracle.graph_spectrum(path_graph(3))
        assert np.allclose(evals, [0, 1, 3], atol=1e-9)

    def test_rejects_oversized(self):
        with pytest.raises(ValueError, match="too large"):
            oracle.graph_spectrum(empty_graph(oracle._EIGH_MAX_N + 1))

    def test_residuals_and_orthonormality(self):
        rng = Random(97)
        for _ in range(10):
            g = random_graph(rng, rng.randint(2, 30))
            lap = np.array(laplacian(g), dtype=float)
            lam, v = oracle.graph_spectrum(g)
            for r in range(g.n):
                res = np.abs(lap @ v[:, r] - lam[r] * v[:, r]).max()
                assert res <= 1e-9 * max(1.0, abs(lam[r]))
            assert np.abs(v.T @ v - np.eye(g.n)).max() <= 1e-10
            assert lam.min() >= -1e-9 and lam.max() <= g.n + 1e-9


class TestTransitionMatrix:
    def test_identity_at_zero(self):
        for n in (2, 4, 7):
            u = transition_matrix(cycle_graph(max(3, n)), 0.0)
            assert np.abs(u.entries - np.eye(max(3, n))).max() <= 1e-12

    def test_p3_periodicity_at_two_pi(self):
        u = transition_matrix(path_graph(3), 2 * math.pi)
        assert np.abs(u.entries - np.eye(3)).max() <= 1e-9

    def test_p3_revival_amplitude(self):
        u = transition_matrix(path_graph(3), 2 * math.pi / 3)
        assert abs(abs(u.entries[0, 2]) ** 2 - 0.75) <= 1e-9

    def test_unitary_and_symmetric(self):
        rng = Random(101)
        for _ in range(12):
            g = random_graph(rng, rng.randint(2, 50))
            t = rng.uniform(0, 10)
            u = transition_matrix(g, t).entries
            assert np.abs(u @ u.conj().T - np.eye(g.n)).max() <= 1e-9
            assert np.abs(u - u.T).max() <= 1e-9

    def test_group_property(self):
        rng = Random(103)
        for _ in range(8):
            g = random_graph(rng, rng.randint(2, 20))
            s, t = rng.uniform(0, 5), rng.uniform(0, 5)
            us = transition_matrix(g, s).entries
            ut = transition_matrix(g, t).entries
            ust = transition_matrix(g, s + t).entries
            assert np.abs(us @ ut - ust).max() <= 1e-8

    def test_product_identity(self):
        rng = Random(107)
        for _ in range(6):
            x = random_graph(rng, rng.randint(1, 4))
            y = random_graph(rng, rng.randint(1, 4))
            t = rng.uniform(0, 4)
            ux = transition_matrix(x, t).entries
            uy = transition_matrix(y, t).entries
            uz = transition_matrix(cartesian_product(x, y), t).entries
            assert np.abs(np.kron(ux, uy) - uz).max() <= 1e-8

    def test_complement_identity(self):
        # exp(i tau L-complement) = exp(-i tau L) whenever n*tau is on the
        # 2*pi grid
        rng = Random(109)
        for _ in range(8):
            g = random_graph(rng, rng.randint(2, 8))
            k = rng.randint(1, 3)
            tau = 2 * math.pi * k / g.n
            u_comp = transition_matrix(complement(g), tau).entries
            u_neg = transition_matrix(g, -tau).entries
            assert np.abs(u_comp - u_neg).max() <= 1e-9

    def test_spectral_consistency_integer_spectra(self):
        from conftest import laplacian_integer_eigenvalues

        rng = Random(113)
        found = 0
        while found < 6:
            g = random_graph(rng, rng.randint(2, 12))
            mults = laplacian_integer_eigenvalues(g)
            if sum(mults.values()) != g.n:  # spectrum does not split over the integers
                continue
            found += 1
            expect = sorted(mu for mu, m in mults.items() for _ in range(m))
            evals, _ = oracle.graph_spectrum(g)
            assert np.abs(evals - np.array(expect, float)).max() <= 1e-8

    def test_rejects_nonfinite_time(self):
        with pytest.raises(ValueError):
            transition_matrix(path_graph(2), math.inf)


class TestPairLeakage:
    def test_p3_revival_block(self):
        g, t = path_graph(3), 2 * math.pi / 3
        leak, beta = pair_leakage(g, 0, 2, np.array([t]))
        assert leak[0] <= 1e-9
        assert abs(beta[0] ** 2 - 0.75) <= 1e-9
        u = transition_matrix(g, t).entries
        assert abs(u[0, 0] - u[2, 2]) <= 1e-9

    def test_wrong_pair_leaks(self):
        leak, _ = pair_leakage(path_graph(3), 0, 1, np.array([2 * math.pi / 3]))
        assert leak[0] > 0.5

    def test_any_pair_at_time_zero(self):
        g = cycle_graph(5)
        for a in range(5):
            for b in range(a + 1, 5):
                leak, beta = pair_leakage(g, a, b, np.array([0.0]))
                assert leak[0] <= 1e-12 and beta[0] <= 1e-12

    def test_matches_transition_matrix_rows(self):
        rng = Random(131)
        for _ in range(8):
            g = random_graph(rng, rng.randint(3, 12))
            a, b = rng.sample(range(g.n), 2)
            times = np.array([rng.uniform(0, 10) for _ in range(5)])
            leak, beta = pair_leakage(g, a, b, times)
            others = [j for j in range(g.n) if j not in (a, b)]
            for t, lk, bt in zip(times, leak, beta):
                u = transition_matrix(g, t).entries
                assert abs(lk - np.abs(u[np.ix_([a, b], others)]).max()) <= 1e-12
                assert abs(bt - abs(u[a, b])) <= 1e-12


class TestGridPhases:
    @pytest.mark.parametrize("steps", [1, 2, 3, 144, 720, 721])
    def test_matches_direct_phases(self, steps):
        # the two-table product equals one exponential per grid time
        evals, _ = oracle.graph_spectrum(random_graph(Random(141), 8))
        dt = 2 * math.pi / steps
        got = oracle._grid_phases(evals, dt, steps)
        want = oracle._phases(evals, dt * np.arange(1, steps + 1))
        assert got.shape == want.shape == (len(evals), steps)
        assert np.abs(got - want).max() <= 1e-12


class TestTimeScan:
    def test_p3_hits_revival_times(self):
        hits = oracle.time_scan(path_graph(3), 0, 2, 2 * math.pi, 720)
        expect = [2 * math.pi / 3, 4 * math.pi / 3]
        assert len(hits) == 2
        for h, e in zip(hits, expect):
            assert abs(h - e) <= 1e-6

    def test_p4_finds_nothing(self):
        assert oracle.time_scan(path_graph(4), 0, 3, 2 * math.pi, 720) == []

    def test_k2_continuum(self):
        hits = oracle.time_scan(path_graph(2), 0, 1, 2 * math.pi, 144)
        assert len(hits) > 100  # dense hits: revival away from the pi/2 grid

    def test_c6_antipodal(self):
        hits = oracle.time_scan(cycle_graph(6), 0, 3, 2 * math.pi, 720)
        assert any(abs(h - 2 * math.pi / 3) <= 1e-6 for h in hits)

    def test_rejects_bad_scan_length(self):
        # P3's ends revive at 2 pi / 3: no t_max may turn that into "none"
        for t_max in (-2 * math.pi, 0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="scan length"):
                oracle.time_scan(path_graph(3), 0, 2, t_max, 720)

    def test_rejects_no_steps(self):
        with pytest.raises(ValueError, match="grid step"):
            oracle.time_scan(path_graph(3), 0, 2, 2 * math.pi, 0)

    def test_reads_only_pair_rows(self):
        # the oracle defines no dense U(t) builder; scans read the pair's rows
        assert not hasattr(oracle, "transition_matrix")
        assert not hasattr(oracle, "TransitionMatrix")
        # both pairs have class gcd 3 and phase residue 1: revival at 2pi/3
        # and 4pi/3, while 2pi is a period of the pair
        expect = [2 * math.pi / 3, 4 * math.pi / 3]
        for g, a, b in ((path_graph(3), 0, 2), (cycle_graph(6), 0, 3)):
            hits = oracle.time_scan(g, a, b, 2 * math.pi, 720)
            assert len(hits) == 2
            assert all(abs(h - e) <= 1e-6 for h, e in zip(hits, expect))

    def test_pair_leakage_passes_per_scan(self, monkeypatch):
        # one pass for the grid and, when some grid point is a candidate,
        # one per refinement step and one for acceptance, however many
        # candidates there are
        sizes = []
        real = oracle._leakage

        def counting(phases, w):
            sizes.append(phases.shape[1])  # phases are (n, T)
            return real(phases, w)

        monkeypatch.setattr(oracle, "_leakage", counting)
        hits = oracle.time_scan(path_graph(2), 0, 1, 2 * math.pi, 144)
        assert len(sizes) == 12
        assert sizes[0] == 144 and len(hits) <= sizes[-1]
        assert set(sizes[1:11]) == {7 * sizes[-1]}
        # one bracket per dip: P3 (0, 2) has two gated dips of several grid
        # points each
        sizes.clear()
        assert len(oracle.time_scan(path_graph(3), 0, 2, 2 * math.pi, 720)) == 2
        assert sizes == [720] + [14] * 10 + [2]
        # no candidate: the grid pass is the only one
        sizes.clear()
        assert oracle.time_scan(path_graph(4), 0, 3, 2 * math.pi, 720) == []
        assert sizes == [720]
        # an adjacent pair's leakage rises away from t = 0, the left
        # neighbour of grid point 0 with leakage 0, so grid point 0 is no
        # dip of its own: no pair of a graph without revival has a gated dip
        for g in (path_graph(4), cycle_graph(5), path_graph(5)):
            for a in range(g.n):
                for b in range(a + 1, g.n):
                    sizes.clear()
                    assert oracle.time_scan(g, a, b, 2 * math.pi, 720) == []
                    assert sizes == [720], (g, a, b)

    def test_revival_on_first_grid_point(self):
        # grid point 0 is t = dt = 2pi/3, P3's first revival of its ends:
        # its leakage is 0 like t = 0's, so it keeps its bracket
        hits = oracle.time_scan(path_graph(3), 0, 2, 2 * math.pi, 3)
        assert len(hits) == 1 and abs(hits[0] - 2 * math.pi / 3) <= 1e-6

    def test_dip_midway_between_grid_points(self):
        # 2pi/3 = 240.5 dt lies halfway between two grid points; 4pi/3 = 481 dt
        # lies on one
        dt = 2 * math.pi / (3 * 240.5)
        hits = oracle.time_scan(path_graph(3), 0, 2, 721 * dt, 721)
        expect = [2 * math.pi / 3, 4 * math.pi / 3]
        assert len(hits) == 2
        assert all(abs(h - e) <= 1e-6 for h, e in zip(hits, expect))

    def test_completeness_beyond_six(self):
        # every pair of seeded random connected graphs on 7 and 8 vertices
        # and of a revival-rich fixed set: the scan finds exactly the
        # allowed times 2 pi m / g, and nothing on a pair that is not PROPER
        rng = Random(139)
        corpus = []
        for n in (7, 8):
            found = 0
            while found < 20:
                g = random_graph(rng, n)
                if is_connected(g):
                    corpus.append(g)
                    found += 1
        corpus += [double_cone(cycle_graph(k)) for k in range(3, 9)]
        corpus += [
            cycle_graph(6),
            cartesian_product(path_graph(3), cycle_graph(4)),
            double_cone(complete_graph(5)),
        ]
        events = 0
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
                    assert len(hits) == len(allowed), (g, a, b, hits)
                    assert all(abs(h - t) <= 1e-6 for h, t in zip(hits, allowed))
                    events += len(hits)
        assert events > 0


class TestPairValidation:
    """Every public entry point that takes vertices rejects, through
    ``check_vertices``, a vertex outside 0..n-1 or a repeated one."""

    BAD_PAIRS = ((0, -1), (-1, 2), (0, 3), (3, 0), (0, 0), (2, 2))

    def test_check_vertices(self):
        g = path_graph(3)
        for ok in ((), (0,), (2,), (0, 2), (2, 0, 1)):
            check_vertices(g, *ok)
        for bad in ((-1,), (3,), *self.BAD_PAIRS, (0, 1, 0)):
            with pytest.raises(ValueError, match="distinct vertices"):
                check_vertices(g, *bad)
        with pytest.raises(ValueError):
            check_vertices(empty_graph(0), 0)

    @pytest.mark.parametrize("fn", [eigenvalue_support, is_periodic, distances])
    def test_vertex_entry_points(self, fn):
        for v in (-1, 3):
            with pytest.raises(ValueError):
                fn(path_graph(3), v)

    @pytest.mark.parametrize("fn", [strong_cospectral, decide_proper_lafr])
    def test_exact_pair_entry_points(self, fn):
        for a, b in self.BAD_PAIRS:
            with pytest.raises(ValueError):
                fn(path_graph(3), a, b)

    def test_analysis_report(self):
        for pair in self.BAD_PAIRS:
            with pytest.raises(ValueError):
                build_analysis_report(path_graph(3), pairs=[(0, 2), pair])

    def test_pair_leakage(self):
        for a, b in self.BAD_PAIRS:
            with pytest.raises(ValueError):
                pair_leakage(path_graph(3), a, b, np.array([1.0]))

    def test_time_scan(self):
        for a, b in self.BAD_PAIRS:
            with pytest.raises(ValueError):
                oracle.time_scan(path_graph(3), a, b, 2 * math.pi, 720)

    def test_revival_residual(self):
        for a, b in self.BAD_PAIRS:
            with pytest.raises(ValueError):
                oracle.revival_residual(path_graph(3), a, b, 2 * math.pi / 3, 0.5, 0.5)


class TestRevivalResidual:
    def test_matches_dense_column(self):
        rng = Random(137)
        for _ in range(10):
            g = random_graph(rng, rng.randint(3, 30))
            a, b = rng.sample(range(g.n), 2)
            tau = rng.uniform(0, 10)
            alpha = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            beta = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            target = np.zeros(g.n, dtype=complex)
            target[a], target[b] = alpha, beta
            want = np.abs(transition_matrix(g, tau).entries[:, a] - target).max()
            got = oracle.revival_residual(g, a, b, tau, alpha, beta)
            assert abs(got - want) <= 1e-12

    def test_rejects_nonfinite_time(self):
        with pytest.raises(ValueError):
            oracle.revival_residual(path_graph(3), 0, 2, math.nan, 0.5, 0.5)


class TestDecisionResidual:
    GRAPHS = {
        "C6": cycle_graph(6),
        "DC(K4)": double_cone(complete_graph(4)),
        "Q3": cartesian_product(cartesian_product(path_graph(2), path_graph(2)), path_graph(2)),
        "H16": hadamard_graph(sylvester_hadamard(2)),
    }

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_matches_amplitude_route(self, name):
        g = self.GRAPHS[name]
        proper = [d for d in all_lafr_pairs(g) if d.status is RevivalStatus.PROPER]
        assert proper
        for d in proper:
            alpha, beta = d.phase.amplitudes()
            tau = math.pi * d.earliest_time[0] / d.earliest_time[1]
            want = oracle.revival_residual(g, *d.pair, tau, alpha, beta)
            assert oracle.decision_residual(g, d) == want  # bit for bit
            assert want <= oracle.RESIDUAL_TOL

    def test_oracle_does_not_import_revival(self):
        tree = ast.parse(inspect.getsource(oracle))
        modules = {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
        modules |= {a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
        assert not any("revival" in (m or "") for m in modules)


class TestNumericStrongCospectral:
    def test_p3(self):
        assert numeric_strong_cospectral(path_graph(3), 0, 2)

    def test_p4_rejects(self):
        assert not numeric_strong_cospectral(path_graph(4), 0, 1)

    def test_c5_heuristic(self):
        # irrational spectrum: the exact pipeline declines, the numeric
        # probe still answers
        got = numeric_strong_cospectral(cycle_graph(5), 0, 2)
        assert isinstance(got, bool)

    def test_agrees_with_exact_on_integer_spectra(self):
        from lafr.errors import NonIntegerSupportError
        from lafr.spectral import strong_cospectral

        rng = Random(127)
        compared = 0
        for _ in range(40):
            g = random_graph(rng, rng.randint(3, 7))
            for a in range(g.n):
                for b in range(a + 1, g.n):
                    try:
                        exact = strong_cospectral(g, a, b)
                    except NonIntegerSupportError:
                        continue
                    got = numeric_strong_cospectral(g, a, b)
                    assert got == (exact is not None)
                    compared += 1
        assert compared > 20

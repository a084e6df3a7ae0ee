"""The test-side exact references in ``conftest``: the characteristic
polynomial, its integer roots and the exact kernel.  The package itself
builds no polynomial; ``lafr.spectral`` certifies supports along a chain of
(L - nu) factors."""

from fractions import Fraction
from random import Random

import numpy as np
import pytest

from conftest import char_poly, kernel_basis, poly_eval, random_graph, split_integer_roots
from lafr.graphs import laplacian, path_graph


class TestCharPoly:
    def test_k2_laplacian(self):
        assert char_poly([[1, -1], [-1, 1]]) == [0, -2, 1]

    def test_p3_laplacian(self):
        assert char_poly(laplacian(path_graph(3))) == [0, 3, -4, 1]

    def test_zero_matrix(self):
        assert char_poly([[0] * 3 for _ in range(3)]) == [0, 0, 0, 1]

    def test_empty_matrix(self):
        assert char_poly([]) == [1]

    def test_non_square(self):
        with pytest.raises(ValueError):
            char_poly([[1, 2, 3], [4, 5, 6]])

    def test_matches_numeric_eigenvalues(self):
        rng = Random(41)
        for _ in range(15):
            g = random_graph(rng, rng.randint(2, 10))
            p = char_poly(laplacian(g))
            evals = np.linalg.eigvalsh(np.array(laplacian(g), dtype=float))
            scale = max(1.0, max(abs(c) for c in p))
            for mu in evals:
                value = sum(c * mu**k for k, c in enumerate(p))
                assert abs(value) < 1e-6 * scale

    def test_random_integer_matrix_against_numpy(self):
        rng = Random(43)
        for _ in range(10):
            n = rng.randint(1, 6)
            m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            p = char_poly(m)
            # determinant at a few integer points vs fraction-free numpy
            for t in (-2, 0, 1, 3):
                shifted = np.array(
                    [[t * (i == j) - m[i][j] for j in range(n)] for i in range(n)],
                    dtype=float,
                )
                assert abs(poly_eval(p, t) - round(np.linalg.det(shifted))) < 1e-6


class TestIntegerRoots:
    def test_p3_char_poly(self):
        assert split_integer_roots([0, 3, -4, 1], 0, 3)[0] == {0: 1, 1: 1, 3: 1}

    def test_no_roots(self):
        assert split_integer_roots([1, 0, 1], 0, 10)[0] == {}

    def test_multiplicity(self):
        assert split_integer_roots([4, -4, 1], 0, 5)[0] == {2: 2}

    def test_zero_poly_rejected(self):
        with pytest.raises(ValueError):
            split_integer_roots([], 0, 1)

    def test_split_cofactor(self):
        # t (t - 2)^2 (t^2 + 1): the cofactor keeps the root-free part
        roots, rest = split_integer_roots([0, 4, -4, 5, -4, 1], 0, 5)
        assert roots == {0: 1, 2: 2}
        assert rest == [1, 0, 1]


class TestAllRootsInteger:
    # a monic polynomial splits over the integers exactly when the cofactor
    # left by its integer roots is the constant 1

    def test_full_split(self):
        assert split_integer_roots([0, 3, -4, 1], 0, 5) == ({0: 1, 1: 1, 3: 1}, [1])

    def test_irrational_pair(self):
        assert split_integer_roots([-2, 0, 1], 0, 5) == ({}, [-2, 0, 1])

    def test_repeated_zero(self):
        assert split_integer_roots([0, 0, 1], 0, 5) == ({0: 2}, [1])

    def test_partial_find(self):
        # (t - 1)(t^2 - 2): integer root found but degree not covered
        assert split_integer_roots([2, -2, -1, 1], 0, 5) == ({1: 1}, [-2, 0, 1])


class TestKernel:
    def test_laplacian_kernel_is_ones(self):
        lap = laplacian(path_graph(3))
        basis = kernel_basis([[Fraction(e) for e in row] for row in lap])
        assert len(basis) == 1
        v = basis[0]
        assert v[0] == v[1] == v[2] != 0

    def test_identity_trivial_kernel(self):
        assert kernel_basis([[1, 0], [0, 1]]) == []

    def test_shifted_p3(self):
        lap = laplacian(path_graph(3))
        shifted = [
            [Fraction(1 if i == j else 0) - lap[i][j] for j in range(3)]
            for i in range(3)
        ]
        basis = kernel_basis(shifted)
        assert len(basis) == 1
        v = basis[0]
        assert v[1] == 0 and v[0] == -v[2] != 0

    def test_kernel_vectors_in_kernel(self):
        rng = Random(47)
        for _ in range(20):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            m = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
            for v in kernel_basis(m):
                for row in m:
                    assert sum(Fraction(e) * x for e, x in zip(row, v)) == 0

    def test_rank_nullity(self):
        rng = Random(53)
        for _ in range(20):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            m = [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)]
            rank = np.linalg.matrix_rank(np.array(m, dtype=float))
            assert len(kernel_basis(m)) == cols - rank

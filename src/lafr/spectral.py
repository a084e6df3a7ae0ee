"""Spectral idempotents, eigenvalue supports, periodicity, and exact
strong cospectrality.

Everything here reads from one exact object per graph: for each integer
Laplacian eigenvalue mu, the idempotent E_mu = N_mu / d_mu with an
integer matrix N_mu and an integer d_mu (see :func:`idempotents`).  The
integer part of a vertex's eigenvalue support is {mu : (E_mu)_aa != 0},
and the support is all-integer exactly when those diagonal entries sum to
1, since sum over all eigenvalues theta of (E_theta)_aa = 1.  Strong
cospectrality compares rows of the N_mu, and is decided only for vertices
whose supports are all-integer: that is the only case the revival
decision ever needs, because a non-integer support already rules proper
revival out.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import NonIntegerSupportError, NotApplicableError
from .exactalg import (
    all_roots_integer,
    char_poly,
    integer_roots,
    poly_eval,
    split_integer_roots,
)
from .graphs import Graph, is_connected, laplacian, spanning_tree_count


@dataclass(frozen=True)
class EigenvalueSupport:
    """Integer part of a vertex's eigenvalue support.

    ``support_size`` is the total number of distinct eigenvalues in the
    support, integer or not; ``all_integer`` says whether the integer ones
    account for all of them.
    """

    vertex: int
    integer_eigenvalues: frozenset[int]
    all_integer: bool
    support_size: int


@dataclass(frozen=True)
class PairPartition:
    """The three eigenvalue classes of a strongly cospectral pair.

    ``plus`` and ``minus`` hold the eigenvalues whose projections agree
    respectively with equal and opposite sign at the two vertices; ``zero``
    holds the integer eigenvalues of the Laplacian outside both supports.
    """

    a: int
    b: int
    plus: frozenset[int]
    minus: frozenset[int]
    zero: frozenset[int]


@dataclass(frozen=True)
class Periodicity:
    vertex: int
    periodic: bool
    big_g: int | None


@functools.lru_cache(maxsize=512)
def graph_char_poly(g: Graph):
    return char_poly(laplacian(g))


@functools.lru_cache(maxsize=512)
def laplacian_integer_eigenvalues(g: Graph) -> dict[int, int]:
    """Integer Laplacian eigenvalues with multiplicities (scan range [0, n])."""
    return integer_roots(graph_char_poly(g), 0, g.n)


IntMatrix = tuple[tuple[int, ...], ...]


def _shifted_laplacian_times(g: Graph, x: list[int], shift: int) -> list[int]:
    """The vector (L - shift I) x, one pass over the edges of ``g``."""
    y = [(d - shift) * v for d, v in zip(g.degrees(), x)]
    for u, v in g.edges:
        y[u] -= x[v]
        y[v] -= x[u]
    return y


@functools.lru_cache(maxsize=64)
def idempotents(g: Graph) -> dict[int, tuple[IntMatrix, int]]:
    """Spectral idempotent E_mu = N_mu / d_mu of every integer Laplacian
    eigenvalue mu, as the pair (N_mu, d_mu), in ascending order of mu.

    N_mu = p_mu(L) and d_mu = p_mu(mu) for p_mu(t) = r(t) * prod(t - nu)
    over the other integer eigenvalues nu, where r is psi with every
    integer root divided out.  Since L is symmetric and p_mu vanishes at
    every eigenvalue but mu, p_mu(L) = p_mu(mu) E_mu.  r(L) is evaluated
    once per graph by Horner's rule on the sparse L.
    """
    roots, r = split_integer_roots(graph_char_poly(g), 0, g.n)
    r_of_l = [[r[-1] * (i == j) for j in range(g.n)] for i in range(g.n)]
    for c in reversed(r[:-1]):
        r_of_l = [_shifted_laplacian_times(g, row, 0) for row in r_of_l]
        for i in range(g.n):
            r_of_l[i][i] += c
    out = {}
    for mu in sorted(roots):
        num, den = r_of_l, poly_eval(r, mu)
        for nu in roots:
            if nu != mu:
                num = [_shifted_laplacian_times(g, row, nu) for row in num]
                den *= mu - nu
        out[mu] = (tuple(map(tuple, num)), den)
    return out


def _moment_rank(g: Graph, a: int) -> int:
    """Number of distinct eigenvalues in the support of vertex ``a``.

    The moments m_k = (L^k)_aa are sums of theta^k (E_theta)_aa with
    nonnegative weights, so the leading minors of the Hankel matrix
    [m_(i+j)] are positive up to the support size and zero beyond it.
    Fraction-free Bareiss elimination without pivoting, whose pivots are
    those minors, stops at the first zero pivot.
    """
    n = g.n
    x = [int(i == a) for i in range(n)]
    moments = [1]
    for _ in range(2 * n):
        x = _shifted_laplacian_times(g, x, 0)
        moments.append(x[a])
    h = [moments[i : i + n + 1] for i in range(n + 1)]
    k, prev = 0, 1
    while h[k][k]:
        pivot = h[k][k]
        for i in range(k + 1, n + 1):
            for j in range(k + 1, n + 1):
                h[i][j] = (h[i][j] * pivot - h[i][k] * h[k][j]) // prev
        k, prev = k + 1, pivot
    return k


@functools.lru_cache(maxsize=4096)
def eigenvalue_support(g: Graph, a: int) -> EigenvalueSupport:
    if not 0 <= a < g.n:
        raise ValueError("vertex out of range")
    idem = idempotents(g)
    diag = {mu: (num[a][a], den) for mu, (num, den) in idem.items() if num[a][a]}
    # all-integer exactly when the integer diagonal entries N_aa / d sum to 1
    total, common = 0, 1
    for x, d in diag.values():
        total, common = total * d + x * common, common * d
    all_integer = total == common
    return EigenvalueSupport(
        vertex=a,
        integer_eigenvalues=frozenset(diag),
        all_integer=all_integer,
        support_size=len(diag) if all_integer else _moment_rank(g, a),
    )


def is_periodic(g: Graph, a: int) -> Periodicity:
    """Periodicity at a vertex: all-integer support, minimal period 2*pi/G.

    ``big_g`` is the gcd of the nonzero support eigenvalues; it is ``None``
    for a support of {0} alone (an isolated vertex), where the walk fixes
    the vertex at every time.
    """
    sup = eigenvalue_support(g, a)
    if not sup.all_integer:
        return Periodicity(a, False, None)
    big_g = 0
    for mu in sup.integer_eigenvalues:
        big_g = gcd(big_g, mu)
    return Periodicity(a, True, big_g if big_g > 0 else None)


def eigenprojection_column(g: Graph, mu: int, a: int) -> list[Fraction]:
    """Exact column of the spectral idempotent of ``mu`` at vertex ``a``."""
    idem = idempotents(g)
    if mu not in idem:
        raise ValueError(f"{mu} is not an eigenvalue of the Laplacian")
    num, den = idem[mu]
    return [Fraction(x, den) for x in num[a]]


def strong_cospectral(g: Graph, a: int, b: int) -> PairPartition | None:
    """Exact strong-cospectrality test with the induced eigenvalue classes.

    Compares the whole idempotent column at every integer eigenvalue of the
    Laplacian, and returns ``None`` as soon as one column pair is neither
    equal nor opposite.  Both supports must be all-integer, otherwise the
    exact test is not attempted.
    """
    if a == b:
        raise ValueError("strong cospectrality needs two distinct vertices")
    sup_a = eigenvalue_support(g, a)
    sup_b = eigenvalue_support(g, b)
    if not (sup_a.all_integer and sup_b.all_integer):
        raise NonIntegerSupportError(
            f"vertex {a if not sup_a.all_integer else b} has non-integer support"
        )
    plus, minus, zero = set(), set(), set()
    for mu, (num, _) in idempotents(g).items():
        row_a, row_b = num[a], num[b]
        if not any(row_a):
            if any(row_b):
                return None
            zero.add(mu)
        elif row_a == row_b:
            plus.add(mu)
        elif all(x == -y for x, y in zip(row_a, row_b)):
            minus.add(mu)
        else:
            return None
    return PairPartition(a, b, frozenset(plus), frozenset(minus), frozenset(zero))


def support_product_divides_trees(g: Graph, a: int) -> bool:
    """Whether the product of integer eigenvalues outside the support
    divides the spanning-tree count.

    Applicable only to connected graphs whose spectrum splits over the
    integers and whose vertex support is all-integer.
    """
    if not is_connected(g):
        raise NotApplicableError("graph is disconnected")
    psi = graph_char_poly(g)
    full = laplacian_integer_eigenvalues(g)
    if not all_roots_integer(psi, full):
        raise NotApplicableError("spectrum does not split over the integers")
    sup = eigenvalue_support(g, a)
    if not sup.all_integer:
        raise NotApplicableError("vertex support is not all-integer")
    outside = [mu for mu in full if mu not in sup.integer_eigenvalues]
    product = 1
    for mu in outside:
        product *= mu
    return spanning_tree_count(g) % product == 0

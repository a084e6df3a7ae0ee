"""Spectral idempotents, eigenvalue supports, periodicity, and exact
strong cospectrality.

Everything here reads from one exact object per graph
(:func:`exact_spectrum`): the integer roots of psi split from their
cofactor r (the spectrum splits over the integers exactly when r == [1]),
and for each integer Laplacian eigenvalue mu the idempotent
E_mu = N_mu / d_mu with an integer matrix N_mu and an integer d_mu.  The
integer part of a vertex's eigenvalue support is {mu : (E_mu)_aa != 0},
and the support is all-integer exactly when those diagonal entries sum to
1, since sum over all eigenvalues theta of (E_theta)_aa = 1.  Two vertices
with all-integer supports are strongly cospectral exactly when their rows
of every N_mu, each scaled by the sign of its first nonzero entry, agree,
so they can be bucketed on those rows.  Strong cospectrality is decided
only for all-integer supports: that is the only case the revival decision
ever needs, because a non-integer support already rules proper revival
out.  Support sizes are computed only on demand (:func:`support_size`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod

from .errors import NonIntegerSupportError, NotApplicableError
from .exactalg import IntPoly, char_poly, poly_eval, split_integer_roots
from .graphs import Graph, is_connected, laplacian, spanning_tree_count


@dataclass(frozen=True)
class EigenvalueSupport:
    """Integer part of a vertex's eigenvalue support; ``all_integer`` says
    whether it is the whole support."""

    vertex: int
    integer_eigenvalues: frozenset[int]
    all_integer: bool


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


IntMatrix = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class ExactSpectrum:
    """The exact spectral object of one graph (see the module docstring).

    ``rows`` and ``signs`` hold exactly the vertices with all-integer
    supports: per mu, the vertex's sign-scaled row of N_mu and that sign,
    0 for a zero row.
    """

    roots: dict[int, int]  # integer eigenvalue -> multiplicity
    cofactor: IntPoly
    idempotents: dict[int, tuple[IntMatrix, int]]  # mu ascending -> (N_mu, d_mu)
    rows: dict[int, IntMatrix]
    signs: dict[int, tuple[int, ...]]


def _shifted_laplacian_times(g: Graph, degs: list[int], x: list[int], shift: int) -> list[int]:
    """The vector (L - shift I) x, one pass over the edges of ``g``, whose
    vertex degrees the caller reads once and passes as ``degs``."""
    y = [(d - shift) * v for d, v in zip(degs, x)]
    for u, v in g.edges:
        y[u] -= x[v]
        y[v] -= x[u]
    return y


@functools.lru_cache(maxsize=64)
def exact_spectrum(g: Graph) -> ExactSpectrum:
    """Build the graph's exact spectral object, once per graph.

    N_mu = p_mu(L) and d_mu = p_mu(mu) for p_mu(t) = r(t) * prod(t - nu)
    over the other integer eigenvalues nu, where r is the cofactor.  Since
    L is symmetric and p_mu vanishes at every eigenvalue but mu,
    p_mu(L) = p_mu(mu) E_mu.  r(L) is evaluated once by Horner's rule on
    the sparse L, with Python ints only.
    """
    roots, r = split_integer_roots(char_poly(laplacian(g)), 0, g.n)
    degs = g.degrees()
    r_of_l = [[r[-1] * (i == j) for j in range(g.n)] for i in range(g.n)]
    for c in reversed(r[:-1]):
        r_of_l = [_shifted_laplacian_times(g, degs, row, 0) for row in r_of_l]
        for i in range(g.n):
            r_of_l[i][i] += c
    idem = {}
    for mu in sorted(roots):
        num, den = r_of_l, poly_eval(r, mu)
        for nu in roots:
            if nu != mu:
                num = [_shifted_laplacian_times(g, degs, row, nu) for row in num]
                den *= mu - nu
        idem[mu] = (tuple(map(tuple, num)), den)
    rows, signs = {}, {}
    for a in range(g.n):
        if sum(Fraction(num[a][a], den) for num, den in idem.values()) != 1:
            continue
        firsts = [next((x for x in num[a] if x), 0) for num, _ in idem.values()]
        signs[a] = tuple((x > 0) - (x < 0) for x in firsts)
        rows[a] = tuple(
            num[a] if s >= 0 else tuple(-x for x in num[a])
            for s, (num, _) in zip(signs[a], idem.values())
        )
    return ExactSpectrum(roots, r, idem, rows, signs)


def laplacian_integer_eigenvalues(g: Graph) -> dict[int, int]:
    """Integer Laplacian eigenvalues with multiplicities (scan range [0, n])."""
    return exact_spectrum(g).roots


def idempotents(g: Graph) -> dict[int, tuple[IntMatrix, int]]:
    """Spectral idempotent E_mu = N_mu / d_mu of every integer Laplacian
    eigenvalue mu, as the pair (N_mu, d_mu), in ascending order of mu."""
    return exact_spectrum(g).idempotents


def eigenvalue_support(g: Graph, a: int) -> EigenvalueSupport:
    if not 0 <= a < g.n:
        raise ValueError("vertex out of range")
    spec = exact_spectrum(g)
    return EigenvalueSupport(
        vertex=a,
        integer_eigenvalues=frozenset(
            mu for mu, (num, _) in spec.idempotents.items() if num[a][a]
        ),
        all_integer=a in spec.signs,
    )


def support_size(g: Graph, a: int) -> int:
    """Number of distinct eigenvalues, integer or not, in the support of
    vertex ``a``.

    The moments m_k = (L^k)_aa are sums of theta^k (E_theta)_aa with
    nonnegative weights, so the leading minors of the Hankel matrix
    [m_(i+j)] are positive up to the support size and zero beyond it.
    Fraction-free Bareiss elimination without pivoting, whose pivots are
    those minors, stops at the first zero pivot.
    """
    if not 0 <= a < g.n:
        raise ValueError("vertex out of range")
    n, degs = g.n, g.degrees()
    x = [int(i == a) for i in range(n)]
    moments = [1]
    for _ in range(2 * n):
        x = _shifted_laplacian_times(g, degs, x, 0)
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

    The pair is strongly cospectral exactly when the sign-scaled idempotent
    rows of the two vertices agree at every integer eigenvalue; the classes
    come from the product of the two signs.  Returns ``None`` when the
    rows differ.  Both supports must be all-integer, otherwise the exact
    test is not attempted.
    """
    if a == b or not (0 <= a < g.n and 0 <= b < g.n):
        raise ValueError("strong cospectrality needs two distinct vertices in range")
    spec = exact_spectrum(g)
    for v in (a, b):
        if v not in spec.signs:
            raise NonIntegerSupportError(f"vertex {v} has non-integer support")
    if spec.rows[a] != spec.rows[b]:
        return None
    classes = {1: set(), -1: set(), 0: set()}
    for mu, s, t in zip(spec.idempotents, spec.signs[a], spec.signs[b]):
        classes[s * t].add(mu)
    return PairPartition(a, b, *(frozenset(classes[k]) for k in (1, -1, 0)))


def support_product_divides_trees(g: Graph, a: int) -> bool:
    """Whether the product of integer eigenvalues outside the support
    divides the spanning-tree count.

    Applicable only to connected graphs whose spectrum splits over the
    integers and whose vertex support is all-integer.
    """
    if not is_connected(g):
        raise NotApplicableError("graph is disconnected")
    spec = exact_spectrum(g)
    if spec.cofactor != [1]:
        raise NotApplicableError("spectrum does not split over the integers")
    sup = eigenvalue_support(g, a)
    if not sup.all_integer:
        raise NotApplicableError("vertex support is not all-integer")
    outside = prod(mu for mu in spec.roots if mu not in sup.integer_eigenvalues)
    return spanning_tree_count(g) % outside == 0

"""Eigenvalue supports, periodicity and exact strong cospectrality for every
vertex of a graph in one pass, without the characteristic polynomial.

The eigenvalue support of vertex a is the set of Laplacian eigenvalues mu
with E_mu e_a != 0: the roots of the vertex's minimal polynomial, the monic
m_a of least degree with m_a(L) e_a = 0.  By Gershgorin every eigenvalue lies
in [0, top], top = min(n, 2 * max degree), so the support is all-integer
exactly when Q e_a = 0 for Q = prod_{mu=0..top} (L - mu).  The one per-graph
cache :func:`vertex_spectra` decides all vertices, one batch per candidate:

1. Screen modulo a prime p, one numpy pass per stack of Laplacians of one
   order and bound (:func:`_screen`); a graph alone is a stack of one.  A
   nonzero column a of Q mod p means Q e_a != 0 over the integers, which
   rules an all-integer support out exactly.  For every other vertex the
   diagonals of the partial products prod_{mu<j} (L - mu), j <= top, give
   the weights (E_mu)_aa mod p by an inverse binomial transform, and the mu
   of nonzero weight form a candidate support S inside {0..top}.  These are
   the roots that Berlekamp-Massey would find in the moments (L^k)_aa mod p,
   without forming the powers of L.
2. Certify S = {nu_0..nu_(s-1)} over the integers (:func:`_certify`) along
   the chain v_k = prod_{j<k} (L - nu_j) e_a: v_s = 0 puts the support inside
   S.  Horner's rule on the chain turns v_0..v_(s-1) into l_mu(L) e_a, with
   l_mu = prod_{nu in S - mu} (t - nu), and l_mu(L) e_a != 0 puts mu in it.
   Then E_mu e_a = l_mu(L) e_a / l_mu(mu) exactly.
3. The vertices that fail their certificate are screened again modulo the
   next prime, so an uncertified candidate never yields a verdict.  Only
   the finitely many primes that divide every entry of a nonzero Q e_a, or
   the numerator or denominator of a weight (E_mu)_aa, can mislead the
   screen, so the retries end.

Two vertices with all-integer supports are strongly cospectral exactly when
their supports agree and so do their columns l_mu(L) e, each scaled by the
sign of its first nonzero entry, so they can be bucketed on that key; the
signs give the plus and minus classes.  Only certified supports are
reported: :func:`eigenvalue_support` is ``None`` for a vertex whose support
is not all-integer, and no decision reads more of such a support.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import gcd, isqrt, prod
from typing import TYPE_CHECKING

from .errors import NonIntegerSupportError
from .graphs import Graph, check_vertices, laplacian

if TYPE_CHECKING:
    import numpy as np

PRIME = 1000003
# The screen works in float64 on residues in [0, p).  The weight transform
# adds top + 1 products below (p - 1)^2 each, so float64 BLAS is exact while
# (top + 1) * (p - 1)^2 < 2^53: top = min(n, 2 * max degree) <= 9006 here.
_FLOAT_EXACT = 2**53


@dataclass(frozen=True)
class PairPartition:
    """The eigenvalue classes of a strongly cospectral pair: ``plus`` and
    ``minus`` hold the support eigenvalues whose projections agree with
    equal and with opposite sign at the two vertices."""

    a: int
    b: int
    plus: frozenset[int]
    minus: frozenset[int]


@dataclass(frozen=True)
class Periodicity:
    vertex: int
    periodic: bool
    big_g: int | None


@dataclass(frozen=True, eq=False)
class VertexSpectrum:
    """The certified all-integer support of one vertex a.

    ``columns[i]`` is the integer vector l_mu(L) e_a for mu = ``support[i]``,
    scaled by ``signs[i]``, the sign of its first nonzero entry; so
    E_mu e_a = signs[i] * columns[i] / l_mu(mu).  Both are views into the
    arrays of the vertex's support group, in int64 while the certificate
    bound is below 2^53 and in Python integers above it.
    """

    support: tuple[int, ...]
    signs: np.ndarray
    columns: np.ndarray

    @property
    def key(self) -> tuple:
        """Equal for two vertices exactly when they are strongly cospectral;
        the dtype depends only on the graph and the support."""
        if self.columns.dtype == object:
            return self.support, tuple(map(tuple, self.columns.tolist()))
        return self.support, self.columns.tobytes()


def _next_prime(p: int) -> int:
    while True:
        p += 1
        if all(p % d for d in range(2, isqrt(p) + 1)):
            return p


@functools.lru_cache(maxsize=8)
def _binomial_inverse(n: int, p: int):
    """T[j, mu] = (-1)^(j-mu) C(j, mu) / j! mod p, for 0 <= mu <= j <= n.

    If d_j = sum_mu w_mu mu (mu-1)...(mu-j+1) for weights w on {0..n}, then
    w = d T (binomial inversion of d_j / j! = sum_mu C(mu, j) w_mu).  Pascal's
    rule builds it a row at a time: T[j, mu] = (T[j-1, mu-1] - T[j-1, mu]) / j.
    No entry depends on n, so the screen builds it only up to its bound.
    """
    import numpy as np

    t = np.zeros((n + 1, n + 1))
    t[0, 0] = 1
    for j in range(1, n + 1):
        t[j, 1:] = t[j - 1, :-1]
        t[j] = (t[j] - t[j - 1]) * pow(j, -1, p) % p  # below p^2 < 2^53: exact
    return t


@functools.lru_cache(maxsize=1)
def _operator(g: Graph) -> tuple[np.ndarray, int]:
    """The Laplacian of ``g`` in float64, read-only, and twice its largest
    degree: built once per graph for the screen and every support group
    (:func:`vertex_spectra` finishes one graph before the next)."""
    import numpy as np

    lap = np.array(laplacian(g), dtype=float).reshape(g.n, g.n)  # (0, 0) at n = 0
    lap.flags.writeable = False
    return lap, 2 * max(g.degrees(), default=0)


def _screen(laps: np.ndarray, top: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Screen a (B, n, n) float64 stack of Laplacians of one order modulo
    ``p``, with ``top`` bounding every eigenvalue of each: a (B, n) mask,
    true where the column of Q mod p vanishes, and the (B, n, top + 1)
    weights (E_mu)_aa mod p."""
    import numpy as np

    n = laps.shape[-1]
    if (top + 1) * (p - 1) ** 2 >= _FLOAT_EXACT:
        raise ValueError(f"n = {n}, bound {top}: too large for exact float64 residues mod {p}")
    # Residues stay signed, in (-p, p): fmod is cheaper than a floor modulus,
    # and a zero test or the weight transform's bound reads only |entry| < p.
    shifted = laps.copy()  # L - mu, through a view of its diagonals
    diagonals = shifted.reshape(len(laps), n * n)[:, :: n + 1]
    m, diags = np.broadcast_to(np.eye(n), laps.shape), np.empty((*laps.shape[:2], top + 1))
    for mu in range(top + 1):
        diags[..., mu] = m.diagonal(axis1=1, axis2=2)
        m = m @ shifted
        np.fmod(m, p, out=m)
        diagonals -= 1
    return (m == 0).all(axis=1), diags @ _binomial_inverse(top, p) % p


def _candidates(g: Graph, p: int) -> tuple[tuple[int, ...] | None, ...]:
    """Candidate support of every vertex of ``g`` modulo ``p``, screened as a
    stack of one: ``None`` where the column of Q mod p is nonzero, else the
    mu of nonzero weight mod p."""
    lap, two_delta = _operator(g)
    alive, weights = _screen(lap[None], min(g.n, two_delta), p)
    return tuple(
        tuple(mu for mu, w in enumerate(row) if w) if ok else None
        for ok, row in zip(alive[0].tolist(), weights[0].tolist())
    )


def _certify(g: Graph, support: tuple[int, ...], verts: list[int]) -> list[VertexSpectrum | None]:
    """Check the candidate ``support`` of every vertex in ``verts`` over the
    integers; ``None`` for a vertex whose support it is not."""
    import numpy as np

    # Every chain vector and Horner accumulator is a product of (L - nu)
    # factors applied to e_a, a row of L - nu sums to at most 2 * max degree
    # + nu in absolute value, and a Horner step scales an accumulator that
    # lacks factors i and k by |nu_i - nu_k| <= max(nu_i, nu_k).  So entries
    # stay below prod(2 * max degree + nu): float64 is exact under 2^53,
    # and Python integers take over above it.
    lap, two_delta = _operator(g)
    bound = prod(two_delta + nu for nu in support)
    dtype, ints = (float, np.int64) if bound < _FLOAT_EXACT else (object, object)
    if dtype is object:
        lap = lap.astype(np.int64).astype(object)  # exact Python integers
    # Axes: nu, entry, vertex.  cols[k] holds v_k = prod_{j<k} (L - nu_j) e_a
    # for k < s, and x ends as v_s, zero where the support contains a's.
    cols = np.empty((len(support), g.n, len(verts)), dtype=ints)
    x = np.eye(g.n, dtype=dtype)[:, verts]
    for k, nu in enumerate(support):
        cols[k] = x
        x = lap @ x - nu * x
    # Horner's rule, as L - nu_k = (L - nu_i) + (nu_i - nu_k): step k turns
    # cols[i], i < k, into prod_{j<=k, j!=i} (L - nu_j) e_a, so l_mu(L) e_a.
    nus = np.array(support, dtype=ints)[:, None, None]
    for k in range(1, len(support)):
        cols[:k] *= nus[:k] - nus[k]
        cols[:k] += cols[k]
    # Scale each column by its first nonzero entry's sign (0: a zero column).
    first = np.take_along_axis(cols, (cols != 0).argmax(axis=1)[:, None], axis=1)[:, 0]
    signs = np.where(first < 0, -1, 1)
    cols *= signs[:, None]
    ok = (~x.any(axis=0) & (first != 0).all(axis=0)).tolist()
    return [
        VertexSpectrum(support, signs[:, i], cols[:, :, i]) if good else None
        for i, good in enumerate(ok)
    ]


@functools.lru_cache(maxsize=64)
def vertex_spectra(g: Graph) -> tuple[VertexSpectrum | None, ...]:
    """The certified support of every vertex, ``None`` where the support is
    not all-integer; one pass per graph."""
    out: list[VertexSpectrum | None] = [None] * g.n
    todo, p = range(g.n), PRIME
    while True:
        candidates = _candidates(g, p)
        groups: dict[tuple[int, ...], list[int]] = {}
        for v in todo:
            if candidates[v] is not None:
                groups.setdefault(candidates[v], []).append(v)
        for support, verts in groups.items():
            for v, spec in zip(verts, _certify(g, support, verts)):
                out[v] = spec
        todo = [v for verts in groups.values() for v in verts if out[v] is None]
        if not todo:
            return tuple(out)
        p = _next_prime(p)


def eigenvalue_support(g: Graph, a: int) -> frozenset[int] | None:
    """The certified support of vertex ``a``, or ``None`` where it is not
    all-integer."""
    check_vertices(g, a)
    spec = vertex_spectra(g)[a]
    return None if spec is None else frozenset(spec.support)


def is_periodic(g: Graph, a: int) -> Periodicity:
    """Periodicity at a vertex: all-integer support, minimal period 2*pi/G.

    ``big_g`` is the gcd of the nonzero support eigenvalues; it is ``None``
    for a support of {0} alone (an isolated vertex), where the walk fixes
    the vertex at every time.
    """
    check_vertices(g, a)
    spec = vertex_spectra(g)[a]
    if spec is None:
        return Periodicity(a, False, None)
    return Periodicity(a, True, gcd(*spec.support) or None)


def strong_cospectral(g: Graph, a: int, b: int) -> PairPartition | None:
    """Exact strong-cospectrality test with the induced eigenvalue classes.

    The pair is strongly cospectral exactly when the two vertices share a
    support and their sign-scaled columns; the classes come from the
    product of the two signs.  Returns ``None`` when they differ.  Both
    supports must be all-integer, otherwise the exact test is not
    attempted.
    """
    check_vertices(g, a, b)
    spec_a, spec_b = vertex_spectra(g)[a], vertex_spectra(g)[b]
    for v, spec in ((a, spec_a), (b, spec_b)):
        if spec is None:
            raise NonIntegerSupportError(f"vertex {v} has non-integer support")
    if spec_a.key != spec_b.key:
        return None
    plus = frozenset(
        mu for mu, s, t in zip(spec_a.support, spec_a.signs, spec_b.signs) if s == t
    )
    return PairPartition(a, b, plus, frozenset(spec_a.support) - plus)

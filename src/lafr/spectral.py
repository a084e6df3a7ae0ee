"""Eigenvalue supports, periodicity and exact strong cospectrality for every
vertex of a graph in one pass, without the characteristic polynomial.

The eigenvalue support of vertex a is the set of Laplacian eigenvalues mu with
E_mu e_a != 0: the roots of the vertex's minimal polynomial, the monic m_a of
least degree with m_a(L) e_a = 0.  The exact core (:func:`_spectra`) reads no
graph: it takes an integer matrix M, similar to a symmetric one, and a bound
top with every eigenvalue in [0, top].  Row a's support is all-integer exactly
when Q e_a = 0 for Q = prod_{mu=0..top} (M - mu).  The one graph-keyed cache,
:func:`vertex_spectra`, hands the core a Laplacian and its Gershgorin bound
min(n, 2 * max degree); it holds one entry, the graph in hand, as every caller
decides one graph at a time.  The core decides each candidate's rows in one
batch:

1. Screen modulo a prime p, one numpy pass per stack of matrices of one
   order and bound (:func:`_screen`); a matrix alone is a stack of one.  A
   nonzero column a of Q mod p means Q e_a != 0 over the integers, which
   rules an all-integer support out exactly.  For every other row the
   diagonals of the partial products prod_{mu<j} (M - mu), j <= top, give
   the weights (E_mu)_aa mod p by an inverse binomial transform, which
   :func:`_spectra` alone applies, and the mu of nonzero weight form a
   candidate support S inside {0..top}: the roots Berlekamp-Massey would
   find in the moments (M^k)_aa mod p.
2. Certify S = {nu_0..nu_(s-1)} over the integers (:func:`_certify`) along
   the chain v_k = prod_{j<k} (M - nu_j) e_a: v_s = 0 puts the support inside
   S.  Horner's rule on the chain turns v_0..v_(s-1) into l_mu(M) e_a, with
   l_mu = prod_{nu in S - mu} (t - nu), and l_mu(M) e_a != 0 puts mu in it.
   Then E_mu e_a = l_mu(M) e_a / l_mu(mu) exactly.
3. The rows that fail their certificate are screened again modulo the next
   prime, so an uncertified candidate never yields a verdict.  Only so many
   primes can mislead the screen; past that count :func:`_spectra` raises.

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
# The screen works in float64 on residues in (-p, p).  The weight transform
# adds top + 1 products below (p - 1)^2 each, so float64 BLAS is exact while
# (top + 1) * (p - 1)^2 < 2^53: the eigenvalue bound top <= 9006 here.
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


def _bounds(laps: np.ndarray) -> np.ndarray:
    """The Gershgorin bound min(n, 2 * max degree) on the eigenvalues of each
    Laplacian in a (B, n, n) stack, read from its diagonal."""
    twice_max_degree = 2 * laps.diagonal(axis1=1, axis2=2).max(axis=1, initial=0)
    return twice_max_degree.clip(max=laps.shape[-1]).astype(int)


def _screen(laps: np.ndarray, top: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Screen a (B, n, n) float64 stack of integer matrices modulo ``p``,
    with ``top`` bounding every eigenvalue of each: a (B, n) mask, true
    where the column of Q mod p vanishes, and the (B, n, top + 1)
    diagonals d_j of prod_{mu<j} (M - mu) mod p, signed in (-p, p).  The
    weights (E_mu)_aa mod p are d @ _binomial_inverse(top, p) % p."""
    import numpy as np

    n = laps.shape[-1]
    if (top + 1) * (p - 1) ** 2 >= _FLOAT_EXACT:
        raise ValueError(f"n = {n}, bound {top}: too large for exact float64 residues mod {p}")
    # Residues stay signed, in (-p, p): fmod is cheaper than a floor modulus,
    # and a zero test or the weight transform's bound reads only |entry| < p.
    shifted = laps.copy()  # M - mu, through a view of its diagonals
    diagonals = shifted.reshape(len(laps), n * n)[:, :: n + 1]
    m, diags = np.broadcast_to(np.eye(n), laps.shape), np.empty((*laps.shape[:2], top + 1))
    # The products alternate between two buffers: a fresh array a step would
    # map and fault in new pages at every step of every stack.
    products = np.empty((2, *laps.shape))
    for mu in range(top + 1):
        diags[..., mu] = m.diagonal(axis1=1, axis2=2)
        m = np.matmul(m, shifted, out=products[mu % 2])
        np.fmod(m, p, out=m)
        diagonals -= 1
    return (m == 0).all(axis=1), diags


def _survivors(laps: np.ndarray) -> np.ndarray:
    """True for each Laplacian of a (B, n, n) stack with two columns that
    survive the screen modulo PRIME (one screen per bound): a proper pair
    needs two vertices with all-integer supports, surviving every prime."""
    import numpy as np

    tops = _bounds(laps)
    counts = np.zeros(len(laps), dtype=int)
    for top in set(tops.tolist()):
        counts[tops == top] = _screen(laps[tops == top], top, PRIME)[0].sum(axis=1)
    return counts >= 2


def _certify(m: np.ndarray, r: int, support: tuple, verts: list) -> list[VertexSpectrum | None]:
    """Check the candidate ``support`` of every row in ``verts`` over the
    integers, for the matrix ``m`` of largest absolute row sum ``r``;
    ``None`` for a row whose support it is not."""
    import numpy as np

    # Every chain vector and Horner accumulator is a product of (M - nu)
    # factors applied to e_a; a row of M - nu sums to at most r + nu in
    # absolute value, and a Horner step scales by |nu_i - nu_k| <= max(nu_i,
    # nu_k) an accumulator that lacks factors i and k.  So entries stay below
    # prod(r + nu): float64 is exact under 2^53, Python integers above it.
    bound = prod(r + nu for nu in support)
    dtype, ints = (float, np.int64) if bound < _FLOAT_EXACT else (object, object)
    if dtype is object:
        m = m.astype(np.int64).astype(object)  # exact Python integers
    # Axes: nu, entry, vertex.  cols[k] holds v_k = prod_{j<k} (M - nu_j) e_a
    # for k < s, and x ends as v_s, zero where the support contains a's.
    cols = np.empty((len(support), len(m), len(verts)), dtype=ints)
    x = np.eye(len(m), dtype=dtype)[:, verts]
    for k, nu in enumerate(support):
        cols[k] = x
        x = m @ x - nu * x
    # Horner's rule, as M - nu_k = (M - nu_i) + (nu_i - nu_k): step k turns
    # cols[i], i < k, into prod_{j<=k, j!=i} (M - nu_j) e_a, so l_mu(M) e_a.
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


def _spectra(m: np.ndarray, top: int) -> tuple[VertexSpectrum | None, ...]:
    """The certified support of every row of the read-only float64 integer
    matrix ``m``, ``None`` where it is not all-integer.  Every eigenvalue
    of ``m`` lies in [0, top], and ``m`` is similar to a symmetric matrix."""
    r = int(abs(m).sum(axis=1).max(initial=0))
    # A prime p >= PRIME misleads row a only if it divides the gcd of the
    # entries of a nonzero Q e_a, or a nonzero (l_mu(M) e_a)_a with mu in
    # a's support: p > top makes l_mu(mu) a unit mod p, so that is when the
    # weight (E_mu)_aa = (l_mu(M) e_a)_a / l_mu(mu) vanishes mod p.  Each of
    # these at most top + 1 integers is at most B = prod_{mu<=top} (r + mu),
    # so it has fewer than bitlen(B) / (bitlen(PRIME) - 1) prime factors
    # >= PRIME.  Past that many failed rounds the certificate is at fault.
    bits = prod(r + mu for mu in range(top + 1)).bit_length()
    cap = (top + 1) * -(-bits // (PRIME.bit_length() - 1))
    out: list[VertexSpectrum | None] = [None] * len(m)
    todo, p = range(len(m)), PRIME
    for _ in range(cap + 1):
        alive, diags = _screen(m[None], top, p)
        weights = (diags[0] @ _binomial_inverse(top, p) % p).tolist()
        groups: dict[tuple[int, ...], list[int]] = {}
        for v in todo:
            if alive[0, v]:
                groups.setdefault(tuple(mu for mu, w in enumerate(weights[v]) if w), []).append(v)
        for support, verts in groups.items():
            for v, spec in zip(verts, _certify(m, r, support, verts)):
                out[v] = spec
        todo = [v for verts in groups.values() for v in verts if out[v] is None]
        if not todo:
            return tuple(out)
        p = _next_prime(p)
    raise RuntimeError(f"vertex {todo[0]}: no certificate after {cap + 1} primes")


@functools.lru_cache(maxsize=1)
def vertex_spectra(g: Graph) -> tuple[VertexSpectrum | None, ...]:
    """The certified support of every vertex, ``None`` where the support is
    not all-integer; one pass per graph, on its Laplacian.  Only the last
    graph's spectra are kept: a call on another graph replaces them."""
    import numpy as np

    lap = np.array(laplacian(g), dtype=float).reshape(g.n, g.n)  # (0, 0) at n = 0
    lap.flags.writeable = False
    return _spectra(lap, int(_bounds(lap[None])[0]))


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
    support = eigenvalue_support(g, a)
    if support is None:
        return Periodicity(a, False, None)
    return Periodicity(a, True, gcd(*support) or None)


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

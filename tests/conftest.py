"""Shared corpora and helpers for the test suite.

The unlabeled connected corpus up to seven vertices comes from the
networkx graph atlas, used here purely as an independent reference.
Random graphs are drawn from a fixed seed so every run sees the same
corpus.  The helpers below are references and test-only constructions
that the package itself never calls: the exact kernel, signed incidence
matrices, eccentricity, the numeric strong-cospectrality probe, the
dense walk operator U(t) that the oracle's row and column reads are
checked against, the pair leakage that the oracle's scan composes, the
psi route (characteristic polynomial, integer roots and idempotents) that
the vertex-local spectra are checked against, the spanning-tree count by
the matrix-tree theorem, the bitmask of a labeled graph, and the free
trees found by filtering every rooted tree, which the direct generator in
``lafr.trees`` is checked against.
"""

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from random import Random

import numpy as np
import pytest

from lafr import oracle
from lafr.campaigns import campaign_prime_order, mask_to_graph, pair_table
from lafr.errors import NotApplicableError
from lafr.graphs import Graph, check_vertices, distances, is_connected, laplacian
from lafr.oracle import graph_spectrum
from lafr.spectral import eigenvalue_support


def atlas_connected(max_n: int) -> list[Graph]:
    import networkx as nx
    from networkx.generators.atlas import graph_atlas_g

    out = []
    for G in graph_atlas_g():
        n = G.number_of_nodes()
        if not 1 <= n <= max_n:
            continue
        if not nx.is_connected(G):
            continue
        out.append(Graph.from_edges(n, G.edges()))
    return out


def random_graph(rng: Random, n: int) -> Graph:
    return mask_to_graph(n, rng.getrandbits(n * (n - 1) // 2))


def graph_to_mask(g: Graph) -> int:
    mask = 0
    for b, pair in enumerate(pair_table(g.n)):
        if pair in g.edges:
            mask |= 1 << b
    return mask


def all_graph_masks(n: int):
    return range(1 << (n * (n - 1) // 2))


def _bareiss_det(m: list[list[int]]) -> int:
    """Exact determinant of an integer matrix by fraction-free elimination."""
    a = [row[:] for row in m]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def spanning_tree_count(g: Graph, deleted_vertex: int = 0) -> int:
    """Number of spanning trees, as the Laplacian cofactor at ``deleted_vertex``.

    Exact; 0 precisely when the graph is disconnected (for n >= 2), and
    independent of which vertex is deleted.
    """
    check_vertices(g, deleted_vertex)
    lap = laplacian(g)
    minor = [
        [lap[i][j] for j in range(g.n) if j != deleted_vertex]
        for i in range(g.n)
        if i != deleted_vertex
    ]
    return _bareiss_det(minor)


def kernel_basis(m) -> list[list[Fraction]]:
    """Exact basis of the right null space, from reduced row echelon form.

    An independent reference for eigenspace dimensions: one basis vector
    per free column, in ascending column order; the empty list when the
    kernel is trivial.
    """
    a = [[Fraction(e) for e in row] for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots: list[tuple[int, int]] = []
    pr = 0
    for pc in range(cols):
        pivot_row = None
        for r in range(pr, rows):
            if a[r][pc] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        a[pr], a[pivot_row] = a[pivot_row], a[pr]
        inv = a[pr][pc]
        a[pr] = [e / inv for e in a[pr]]
        for r in range(rows):
            if r != pr and a[r][pc] != 0:
                f = a[r][pc]
                a[r] = [e - f * ep for e, ep in zip(a[r], a[pr])]
        pivots.append((pr, pc))
        pr += 1
        if pr == rows:
            break
    pivot_cols = {pc for _, pc in pivots}
    basis = []
    for free in range(cols):
        if free in pivot_cols:
            continue
        vec = [Fraction(0)] * cols
        vec[free] = Fraction(1)
        for r, pc in pivots:
            vec[pc] = -a[r][free]
        basis.append(vec)
    return basis


@dataclass(frozen=True)
class Orientation:
    """A head/tail assignment for every edge of a graph.

    ``arcs[i]`` is the ``(tail, head)`` pair for the i-th edge in the
    graph's sorted edge order.
    """

    arcs: tuple[tuple[int, int], ...]


def default_orientation(g: Graph) -> Orientation:
    """Orientation with the lower-indexed endpoint as tail."""
    return Orientation(tuple(sorted(g.edges)))


def signed_incidence(g: Graph, o: Orientation | None = None) -> list[list[int]]:
    """Vertex-by-edge matrix with +1 at each head and -1 at each tail.

    For any orientation the product with its own transpose equals the
    Laplacian.  Columns follow the graph's sorted edge order.
    """
    if o is None:
        o = default_orientation(g)
    edges = sorted(g.edges)
    if len(o.arcs) != len(edges) or any(
        (min(t, h), max(t, h)) != e for (t, h), e in zip(o.arcs, edges)
    ):
        raise ValueError("orientation does not cover exactly the graph's edges")
    b = [[0] * len(edges) for _ in range(g.n)]
    for j, (tail, head) in enumerate(o.arcs):
        b[tail][j] = -1
        b[head][j] = 1
    return b


def eccentricity(g: Graph, a: int) -> int:
    """Largest finite BFS distance from ``a``."""
    return max(d for d in distances(g, a) if d is not None)


def cluster_eigenvalues(evals: np.ndarray, tol: float = 1e-8) -> list[list[int]]:
    """Group eigenvalue indices into clusters separated by more than ``tol``."""
    clusters: list[list[int]] = []
    for i, ev in enumerate(evals):
        if clusters and ev - evals[clusters[-1][-1]] <= tol:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    return clusters


def numeric_strong_cospectral(g: Graph, a: int, b: int, tol: float = 1e-8) -> bool:
    """Numeric strong-cospectrality probe from clustered idempotents.

    The floating-point reference that the exact test is compared against;
    it also answers for non-integer spectra, which the exact test declines.
    """
    if not 0 < tol <= 1e-6:
        raise ValueError("tolerance must lie in (0, 1e-6]")
    evals, v = graph_spectrum(g)
    for cluster in cluster_eigenvalues(evals):
        block = v[:, cluster]
        col_a = block @ block[a]
        col_b = block @ block[b]
        same = float(np.abs(col_a - col_b).max())
        opposite = float(np.abs(col_a + col_b).max())
        if min(same, opposite) > tol:
            return False
    return True


def pair_leakage(g: Graph, a: int, b: int, times: np.ndarray):
    """Leakage and |beta| of the pair over a vector of times, composed as
    :func:`lafr.oracle.time_scan` composes them: the pair's rows, their
    phases, one leakage pass.

    Leakage is the largest magnitude U(t) carries from a or b to any other
    vertex (U(t) is symmetric, so rows and columns agree); beta is U(t)[a, b].
    """
    evals, w = oracle._pair_rows(g, a, b)
    return oracle._leakage(oracle._phases(evals, times), w)


@dataclass(frozen=True)
class TransitionMatrix:
    time: float
    entries: np.ndarray  # dense complex, unitary and symmetric


def transition_matrix(g: Graph, t: float) -> TransitionMatrix:
    """U(t) = sum_r exp(i t mu_r) F_r, accumulated from the eigenpairs."""
    if not np.isfinite(t):
        raise ValueError("time must be finite")
    evals, v = graph_spectrum(g)
    phases = np.exp(1j * t * evals)
    entries = (v * phases) @ v.T
    return TransitionMatrix(time=float(t), entries=entries)


# ---------------------------------------------------------------------------
# The psi route: an independent exact reference for both verdict directions.
# It factors the Berkowitz characteristic polynomial psi over the integers
# and builds every idempotent N_mu = p_mu(L) from the cofactor r, the route
# the package decided by before it went vertex-local.

IntPoly = list[int]

_CHAR_POLY_MAX_N = 4096


def poly_normalize(coeffs) -> IntPoly:
    """Strip trailing zero coefficients; the zero polynomial becomes ``[]``."""
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return out


def poly_eval(p: IntPoly, x: int) -> int:
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def char_poly(m: list[list[int]]) -> IntPoly:
    """Characteristic polynomial det(tI - m) of a square integer matrix.

    Division-free Samuelson-Berkowitz iteration over the leading principal
    submatrices; exact for arbitrary-precision entries.  Coefficients are
    returned in ascending degree order and the result is monic.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix is not square")
    if n > _CHAR_POLY_MAX_N:
        raise ValueError("matrix too large for exact characteristic polynomial")
    # descending coefficients of det(tI - M_r) for the r x r leading block
    p = [1]
    for r in range(n):
        a = m[r][r]
        row = [m[r][j] for j in range(r)]
        col = [m[i][r] for i in range(r)]
        t = [1, -a]
        v = col
        for step in range(r):
            t.append(-sum(x * y for x, y in zip(row, v)))
            if step < r - 1:
                v = [sum(m[i][j] * v[j] for j in range(r)) for i in range(r)]
        new = [0] * (r + 2)
        for i, ti in enumerate(t):
            if ti == 0:
                continue
            hi = min(len(p), r + 2 - i)
            for j in range(hi):
                new[i + j] += ti * p[j]
        p = new
    return poly_normalize(list(reversed(p)))


def _divide_linear(q: IntPoly, r: int) -> IntPoly:
    """Synthetic division of ``q`` by (t - r); caller guarantees r is a root."""
    out_desc = []
    carry = q[-1]
    for c in reversed(q[:-1]):
        out_desc.append(carry)
        carry = c + r * carry
    return list(reversed(out_desc))


def split_integer_roots(p: IntPoly, lo: int, hi: int) -> tuple[dict[int, int], IntPoly]:
    """Integer roots of ``p`` in [lo, hi] with multiplicities, and the
    cofactor left once every one of them is divided out."""
    if not p:
        raise ValueError("zero polynomial has every root")
    if lo > hi:
        raise ValueError("empty scan range")
    roots: dict[int, int] = {}
    q = p
    for r in range(lo, hi + 1):
        mult = 0
        while len(q) > 1 and poly_eval(q, r) == 0:
            q = _divide_linear(q, r)
            mult += 1
        if mult:
            roots[r] = mult
    return roots, q


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


def eigenprojection_column(g: Graph, mu: int, a: int) -> list[Fraction]:
    """Exact column of the spectral idempotent of ``mu`` at vertex ``a``."""
    idem = idempotents(g)
    if mu not in idem:
        raise ValueError(f"{mu} is not an eigenvalue of the Laplacian")
    num, den = idem[mu]
    return [Fraction(x, den) for x in num[a]]


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
    if sup is None:
        raise NotApplicableError("vertex support is not all-integer")
    outside = prod(mu for mu in spec.roots if mu not in sup)
    return spanning_tree_count(g) % outside == 0


def rooted_level_sequences(n: int):
    """Yield the canonical level sequence of every unlabeled rooted tree.

    Sequences start at level 0 for the root and are produced in decreasing
    lexicographic order, beginning with the path, by the constant-time
    successor rule: truncate at the last entry above level 1 and tile the
    segment from its parent onwards.
    """
    if n < 1:
        raise ValueError("trees need at least one vertex")
    seq = list(range(n))
    while True:
        yield tuple(seq)
        p = None
        for i in range(n - 1, 0, -1):
            if seq[i] > 1:
                p = i
                break
        if p is None:
            return
        q = None
        for i in range(p - 1, -1, -1):
            if seq[i] == seq[p] - 1:
                q = i
                break
        block = seq[q:p]
        seq = seq[:p]
        while len(seq) < n:
            seq.extend(block[: n - len(seq)])


def centroid_rooted(seq: tuple[int, ...]) -> bool:
    """Whether a canonical level sequence is the one kept for its free tree:
    no subtree of the root holds more than half the vertices, and when one
    holds exactly half (two centroids) the rest of the tree is at least that
    half, as a sequence.  The root's subtrees are the runs starting at each
    level-1 entry.
    """
    n = len(seq)
    starts = [i for i, level in enumerate(seq) if level == 1] + [n]
    for i, j in zip(starts, starts[1:]):
        if 2 * (j - i) > n:
            return False
        if 2 * (j - i) == n:
            return seq[:i] + seq[j:] >= tuple(level - 1 for level in seq[i:j])
    return True


def reference_free_trees(n: int) -> list[tuple[int, ...]]:
    """The centroid-rooted level sequences, by filtering every rooted tree."""
    return [seq for seq in rooted_level_sequences(n) if centroid_rooted(seq)]


@pytest.fixture(scope="session")
def connected_upto_6() -> list[Graph]:
    return atlas_connected(6)


@pytest.fixture(scope="session")
def connected_upto_7() -> list[Graph]:
    return atlas_connected(7)


@pytest.fixture(scope="session")
def random_8_to_12() -> list[Graph]:
    rng = Random(0x1AFA)
    out = []
    for n in range(8, 13):
        for _ in range(40):
            out.append(random_graph(rng, n))
    return out


@pytest.fixture(scope="session")
def prime7_result():
    """The prime-order-seven campaign, run once per session: its 1044
    classes come from vertex augmentation and their orbits are certified to
    cover all 2^21 labeled graphs, in about a second."""
    return campaign_prime_order(7)

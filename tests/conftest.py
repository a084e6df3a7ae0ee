"""Shared corpora and helpers for the test suite.

The unlabeled connected corpus up to seven vertices comes from the
networkx graph atlas, used here purely as an independent reference.
Random graphs are drawn from a fixed seed so every run sees the same
corpus.  The helpers below are references and test-only constructions
that the package itself never calls: the exact kernel, signed incidence
matrices, eccentricity, and the numeric strong-cospectrality probe.
"""

from dataclasses import dataclass
from fractions import Fraction
from random import Random

import numpy as np
import pytest

from lafr.campaigns import campaign_prime_order, mask_to_graph
from lafr.graphs import Graph, distances
from lafr.oracle import graph_spectrum


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
    spec = graph_spectrum(g)
    v = spec.eigenvectors
    for cluster in cluster_eigenvalues(spec.eigenvalues):
        block = v[:, cluster]
        col_a = block @ block[a]
        col_b = block @ block[b]
        same = float(np.abs(col_a - col_b).max())
        opposite = float(np.abs(col_a + col_b).max())
        if min(same, opposite) > tol:
            return False
    return True


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

"""Simple undirected graphs: representation, formats, and constructions.

Vertices are dense 0-indexed integers and every constructor documents its
labeling, so that statements like "the conical vertices are 0 and 1" are
stable contracts.  Graphs are immutable values; all operations here are
pure functions.
"""

from __future__ import annotations

import functools
import re
from collections import deque
from dataclasses import dataclass

Edge = tuple[int, int]

_G6_PREFIX = ">>graph6<<"
_G6_OUTSIDE = re.compile(r"[^?-~]")  # any byte outside the graph6 alphabet 63..126
# header forms, indexed by their leading "~" count: (largest n, bytes of n)
_G6_FORMS = ((62, 1), (258047, 3), (68719476735, 6))
_G6_BITS = {c + 63: f"{c:06b}" for c in range(64)}  # graph6 byte -> its six bits


class GraphFormatError(ValueError):
    """A graph6 or edge-list payload could not be decoded.

    ``offset`` is the byte (graph6) or line (edge list) where decoding failed.
    """

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (offset {offset})"
        super().__init__(message)
        self.offset = offset


@dataclass(frozen=True)
class Graph:
    """A simple graph: vertex count plus a canonical set of edges.

    Edges are stored as pairs ``(u, v)`` with ``u < v``; equality of graphs
    is equality of ``(n, edges)``.  Use :meth:`from_edges` to canonicalize
    arbitrary pair iterables.
    """

    n: int
    edges: frozenset[Edge]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge ({u}, {v}) out of range or not canonical")

    @staticmethod
    def from_edges(n: int, edges) -> "Graph":
        canon = frozenset((u, v) if u < v else (v, u) for u, v in edges)
        return Graph(n, canon)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degrees(self) -> list[int]:
        adj = adjacency_sets(self)
        return [len(adj[v]) for v in range(self.n)]


@functools.lru_cache(maxsize=512)
def adjacency_sets(g: Graph) -> tuple[frozenset[int], ...]:
    nbrs = [set() for _ in range(g.n)]
    for u, v in g.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return tuple(frozenset(s) for s in nbrs)


def check_vertices(g: Graph, *vertices: int) -> None:
    """Raise ``ValueError`` unless ``vertices`` are distinct vertices of ``g``."""
    if len(set(vertices)) < len(vertices) or not all(0 <= v < g.n for v in vertices):
        where = f"0..{g.n - 1}" if g.n else "a graph with no vertices"
        raise ValueError(f"need distinct vertices in {where}, got {list(vertices)}")


def laplacian(g: Graph) -> list[list[int]]:
    """Laplacian matrix: degree on the diagonal, -1 at edges, rows sum to 0."""
    m = [[0] * g.n for _ in range(g.n)]
    for u, v in g.edges:
        m[u][v] = m[v][u] = -1
        m[u][u] += 1
        m[v][v] += 1
    return m


# ---------------------------------------------------------------------------
# constructors


def empty_graph(n: int) -> Graph:
    return Graph(n, frozenset())


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, ((i, j) for i in range(n) for j in range(i + 1, n)))


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs at least one vertex")
    return Graph.from_edges(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least three vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def standard_graph(name: str, n: int) -> Graph:
    """Named family under the natural 0..n-1 labeling."""
    builders = {
        "path": path_graph,
        "cycle": cycle_graph,
        "complete": complete_graph,
        "empty": empty_graph,
    }
    if name not in builders:
        raise ValueError(f"unknown graph family {name!r}")
    if n < 1:
        raise ValueError("vertex count must be positive")
    return builders[name](n)


def complement(g: Graph) -> Graph:
    non_edges = (
        (i, j)
        for i in range(g.n)
        for j in range(i + 1, g.n)
        if (i, j) not in g.edges
    )
    return Graph.from_edges(g.n, non_edges)


def disjoint_union(x: Graph, y: Graph) -> Graph:
    """Union with ``y``'s vertices shifted up by ``x.n``."""
    shifted = ((u + x.n, v + x.n) for u, v in y.edges)
    return Graph.from_edges(x.n + y.n, list(x.edges) + list(shifted))


def join(x: Graph, y: Graph) -> Graph:
    """All of ``x``, all of ``y`` shifted by ``x.n``, plus every cross edge."""
    cross = ((u, v + x.n) for u in range(x.n) for v in range(y.n))
    base = disjoint_union(x, y)
    return Graph.from_edges(base.n, list(base.edges) + list(cross))


def cartesian_product(x: Graph, y: Graph) -> Graph:
    """Box product; vertex ``(i, j)`` gets index ``i * y.n + j``."""
    edges = []
    for u, v in x.edges:
        for j in range(y.n):
            edges.append((u * y.n + j, v * y.n + j))
    for u, v in y.edges:
        for i in range(x.n):
            edges.append((i * y.n + u, i * y.n + v))
    return Graph.from_edges(x.n * y.n, edges)


def double_cone(y: Graph) -> Graph:
    """Join of the edgeless two-vertex graph with ``y``.

    The conical vertices are 0 and 1: mutually non-adjacent and adjacent to
    every vertex of ``y`` (which occupies indices 2..n-1).
    """
    return join(empty_graph(2), y)


def threshold_graph(ms: list[int]) -> Graph:
    """Alternating union-with-edgeless / join-with-complete construction.

    Starts from the edgeless graph on ``ms[0]`` vertices, joins a complete
    graph on ``ms[1]``, unions an edgeless graph on ``ms[2]``, and so on.
    Vertex order is construction order, so the first ``ms[0]`` indices are
    the initial edgeless block.
    """
    if len(ms) < 2 or len(ms) % 2 != 0:
        raise ValueError("threshold parameters must be a non-empty even-length list")
    if any(m < 1 for m in ms):
        raise ValueError("threshold parameters must be positive")
    g = empty_graph(ms[0])
    for i, m in enumerate(ms[1:], start=1):
        if i % 2 == 1:
            g = join(g, complete_graph(m))
        else:
            g = disjoint_union(g, empty_graph(m))
    return g


def sylvester_hadamard(k: int) -> list[list[int]]:
    """The 2^k by 2^k +-1 matrix built by tensor doubling."""
    if not 0 <= k <= 12:
        raise ValueError("order exponent must be between 0 and 12")
    h = [[1]]
    for _ in range(k):
        h = [row + row for row in h] + [row + [-x for x in row] for row in h]
    return h


def is_hadamard_matrix(h: list[list[int]]) -> bool:
    n = len(h)
    if any(len(row) != n for row in h):
        return False
    if any(e not in (1, -1) for row in h for e in row):
        return False
    for i in range(n):
        for j in range(i, n):
            dot = sum(h[i][k] * h[j][k] for k in range(n))
            if dot != (n if i == j else 0):
                return False
    return True


def hadamard_graph(h: list[list[int]]) -> Graph:
    """Bipartite 4n-vertex graph on signed row and column symbols.

    Index layout: rows-plus 0..n-1, rows-minus n..2n-1, columns-plus
    2n..3n-1, columns-minus 3n..4n-1.  A signed row symbol is adjacent to a
    signed column symbol when the matrix entry matches the product of
    signs, which makes the graph n-regular.  Antipodal pairs are the two
    signed copies of one symbol, e.g. vertices 0 and n.
    """
    if not is_hadamard_matrix(h):
        raise ValueError("input is not a Hadamard matrix")
    n = len(h)
    edges = []
    for i in range(n):
        for j in range(n):
            if h[i][j] == 1:
                edges.append((i, 2 * n + j))
                edges.append((n + i, 3 * n + j))
            else:
                edges.append((i, 3 * n + j))
                edges.append((n + i, 2 * n + j))
    return Graph.from_edges(4 * n, edges)


# ---------------------------------------------------------------------------
# combinatorial utilities


def distances(g: Graph, a: int) -> list[int | None]:
    """BFS hop distances from ``a``; ``None`` marks unreachable vertices."""
    check_vertices(g, a)
    dist: list[int | None] = [None] * g.n
    dist[a] = 0
    adj = adjacency_sets(g)
    queue = deque([a])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if dist[w] is None:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    return all(d is not None for d in distances(g, 0))


def is_double_cone(g: Graph) -> tuple[int, int] | None:
    """Find a non-adjacent pair dominating all other vertices.

    Returns the lexicographically least such pair, or ``None``.  Requires at
    least three vertices.
    """
    if g.n < 3:
        raise ValueError("double-cone detection needs at least three vertices")
    adj = adjacency_sets(g)
    full = g.n - 2
    candidates = [v for v in range(g.n) if len(adj[v]) == full]
    for i, u in enumerate(candidates):
        for v in candidates[i + 1:]:
            if v not in adj[u]:
                return (u, v)
    return None


# ---------------------------------------------------------------------------
# graph6 and edge-list formats


def _g6_header(data: str) -> tuple[int, int]:
    """``(n, offset of the bit vector)`` from a prefix-free graph6 payload.

    The one copy of the header rules: every byte lies in the alphabet 63..126,
    and n is one byte up to 62, ``~`` plus 3 bytes up to 258047, or ``~~``
    plus 6 bytes above that, each byte six bits of n, high bits first.
    """
    if not data:
        raise GraphFormatError("empty graph6 payload", offset=0)
    bad = _G6_OUTSIDE.search(data)
    if bad:
        raise GraphFormatError(
            f"character {bad.group()!r} outside the graph6 alphabet", offset=bad.start()
        )
    tildes = 2 if data.startswith("~~") else 1 if data[0] == "~" else 0
    body_start = tildes + _G6_FORMS[tildes][1]
    if len(data) < body_start:
        raise GraphFormatError("truncated header", offset=len(data))
    n = 0
    for ch in data[tildes:body_start]:
        n = (n << 6) | (ord(ch) - 63)
    return n, body_start


def graph6_order(text: str) -> int:
    """Vertex count of a graph6 string, read from its header alone."""
    return _g6_header(text.strip().removeprefix(_G6_PREFIX))[0]


def parse_graph6(text: str) -> Graph:
    """Decode a one-line graph6 string (optional ``>>graph6<<`` prefix allowed)."""
    data = text.strip().removeprefix(_G6_PREFIX)
    n, body_start = _g6_header(data)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = data[body_start:]
    if len(body) < nbytes:
        raise GraphFormatError(
            f"bit vector truncated: need {nbytes} bytes, got {len(body)}",
            offset=body_start + len(body),
        )
    if len(body) > nbytes:
        raise GraphFormatError("trailing bytes after bit vector", offset=body_start + nbytes)
    # one lazy pass: the bits in column order (0,1), (0,2), (1,2), (0,3), ...
    pairs = ((i, j) for j in range(1, n) for i in range(j))
    bits = body.translate(_G6_BITS)
    return Graph.from_edges(n, (pair for pair, bit in zip(pairs, bits) if bit == "1"))


def to_graph6(g: Graph) -> str:
    """Encode as graph6; round-trips through :func:`parse_graph6`."""
    n = g.n
    for tildes, (most, width) in enumerate(_G6_FORMS):
        if n <= most:
            break
    else:
        raise ValueError("graph too large for graph6")
    header = "~" * tildes + "".join(chr(((n >> 6 * k) & 63) + 63) for k in reversed(range(width)))
    bits = "".join("1" if (i, j) in g.edges else "0" for j in range(1, n) for i in range(j))
    bits += "0" * (-len(bits) % 6)
    return header + "".join(chr(int(bits[k:k + 6], 2) + 63) for k in range(0, len(bits), 6))


def parse_edgelist(text: str) -> Graph:
    """Edge-list format: first line ``n``, then ``u v`` lines; ``#`` comments."""
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 1:
                raise GraphFormatError("first data line must be the vertex count", offset=lineno)
            try:
                n = int(parts[0])
            except ValueError:
                raise GraphFormatError("vertex count is not an integer", offset=lineno)
            continue
        if len(parts) != 2:
            raise GraphFormatError("edge lines must be 'u v'", offset=lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError("edge endpoints must be integers", offset=lineno)
        edges.append((u, v))
    if n is None:
        raise GraphFormatError("no vertex count found", offset=0)
    try:
        return Graph.from_edges(n, edges)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from exc

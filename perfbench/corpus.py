"""Seeded benchmark inputs, built without importing ``lafr``.

Graphs are ``(n, edges)`` pairs with ``u < v`` edges; the program only
ever receives them as graph6 strings (CLI workloads) or edge lists (the
library workload), so a change to the package's own constructors cannot
change what is measured.
"""

from __future__ import annotations

from random import Random

Graph = tuple[int, list[tuple[int, int]]]


def _canon(n: int, edges) -> Graph:
    return n, sorted({(u, v) if u < v else (v, u) for u, v in edges})


def path(n: int) -> Graph:
    return _canon(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    return _canon(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    return _canon(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def hypercube(d: int) -> Graph:
    n = 1 << d
    return _canon(n, [(v, v ^ (1 << k)) for v in range(n) for k in range(d)])


def box(x: Graph, y: Graph) -> Graph:
    """Cartesian product; vertex (i, j) is ``i * y.n + j``."""
    (nx, ex), (ny, ey) = x, y
    edges = [(u * ny + j, v * ny + j) for u, v in ex for j in range(ny)]
    edges += [(i * ny + u, i * ny + v) for u, v in ey for i in range(nx)]
    return _canon(nx * ny, edges)


def double_cone(y: Graph) -> Graph:
    """Cone vertices 0 and 1, base graph on 2..n-1."""
    ny, ey = y
    edges = [(u + 2, v + 2) for u, v in ey]
    edges += [(c, v + 2) for c in (0, 1) for v in range(ny)]
    return _canon(ny + 2, edges)


def sylvester_hadamard_graph(k: int) -> Graph:
    """The 4m-vertex graph of the 2^k Sylvester Hadamard matrix, m = 2^k.

    Layout: rows-plus 0..m-1, rows-minus m..2m-1, columns-plus 2m..3m-1,
    columns-minus 3m..4m-1.
    """
    h = [[1]]
    for _ in range(k):
        h = [row + row for row in h] + [row + [-e for e in row] for row in h]
    m = len(h)
    edges = []
    for i in range(m):
        for j in range(m):
            if h[i][j] == 1:
                edges += [(i, 2 * m + j), (m + i, 3 * m + j)]
            else:
                edges += [(i, 3 * m + j), (m + i, 2 * m + j)]
    return _canon(4 * m, edges)


def is_connected(g: Graph) -> bool:
    n, edges = g
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in nbrs[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def relabel(g: Graph, perm: list[int]) -> Graph:
    """Vertex ``v`` becomes ``perm[v]``."""
    n, edges = g
    return _canon(n, [(perm[u], perm[v]) for u, v in edges])


def to_graph6(g: Graph) -> str:
    n, edges = g
    if n >= 63:
        raise ValueError("benchmark graphs stay below 63 vertices")
    present = set(edges)
    bits = [int((i, j) in present) for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = "".join(
        chr(63 + int("".join(map(str, bits[k : k + 6])), 2))
        for k in range(0, len(bits), 6)
    )
    return chr(63 + n) + body


# ---------------------------------------------------------------------------
# workload corpora

ANALYZE_GRAPHS: dict[str, Graph] = {
    "Q5": hypercube(5),
    "C6xC6": box(cycle(6), cycle(6)),
    "P30": path(30),
    "C24": cycle(24),
    "H16": sylvester_hadamard_graph(2),
    "DC(K10)": double_cone(complete(10)),
}

SCAN_FIXED: dict[str, Graph] = {
    **{f"DC(C{k})": double_cone(cycle(k)) for k in range(3, 9)},
    "C6": cycle(6),
    "P3xC4": box(path(3), cycle(4)),
    "DC(K5)": double_cone(complete(5)),
}


def seeded_permutation(n: int, rng: Random) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def random_connected_graphs(rng: Random, per_n: int, sizes) -> list[Graph]:
    """``per_n`` connected G(n, 1/2) graphs for each ``n`` in ``sizes``."""
    out = []
    for n in sizes:
        found = 0
        while found < per_n:
            g = _canon(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5])
            if is_connected(g):
                out.append(g)
                found += 1
    return out

"""Floating-point spectral oracle: the independent verifier.

Everything here is double precision and deliberately separate from the
exact pipeline, so the two routes can check each other.  The workhorses
are the spectral decomposition of the Laplacian, cached for one graph at a
time because every caller reads one graph at a time, grid time scans, which
alone read the leakage of a vertex pair's two rows of the walk operator
U(t) = exp(+i t L) over a vector of times, and the residual of one column
of U(t).  No dense U(t) is ever built: a scan reads U(t) only through
the pair's rows, as real eigenvector products times one grid-phase table
per graph, with time on the last axis, and refines one bracket per
leakage dip away from the trivial dip at t = 0; the residual reads
U(t) e_a alone.  Pairs pass the one vertex guard,
:func:`lafr.graphs.check_vertices`, and a PROPER decision, checked by
:func:`decision_residual`, counts as verified when its residual is at
most ``RESIDUAL_TOL``.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .graphs import Graph, check_vertices, laplacian

RESIDUAL_TOL = 1e-9  # largest residual of a verified revival
_EIGH_MAX_N = 2000
_LEAK_TOL = 1e-7  # largest leakage of a reported revival time
_BETA_MIN = 1e-3  # smallest |beta| of a reported revival time
_REFINE_STEPS = 10  # refinement steps per candidate time
_REFINE_PROBES = 7  # probes per bracket and step


@functools.lru_cache(maxsize=1)
def graph_spectrum(g: Graph):
    """Ascending eigenvalues and orthonormal eigenvectors (columns) of the
    Laplacian, as numpy's ``eigh`` returns them.

    The one entry serves every call on the graph in hand; a call on another
    graph replaces it, so no other graph's eigenvectors are held.
    """
    if g.n > _EIGH_MAX_N:
        raise ValueError(f"graph with {g.n} vertices too large for the dense eigensolver")
    return np.linalg.eigh(np.array(laplacian(g), dtype=float))


def _pair_rows(g: Graph, a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and the pair's products W of shape (2n - 3, n).

    With phases P[r, t] = exp(i t mu_r), the rows of W @ P are entries of
    U(t) over the times: first U(t)[a, b], then U(t)[a, j] and U(t)[b, j]
    for every other vertex j.
    """
    check_vertices(g, a, b)
    evals, v = graph_spectrum(g)
    others = [j for j in range(g.n) if j not in (a, b)]
    return evals, np.concatenate([v[a] * v[[b, *others]], v[b] * v[others]])


def _phases(evals: np.ndarray, times) -> np.ndarray:
    return np.exp(1j * np.outer(evals, times))  # (n, T)


def _grid_phases(evals: np.ndarray, dt: float, steps: int) -> np.ndarray:
    """Phases at the grid times k dt, k = 1..steps, from two tables.

    With B = floor(sqrt(steps)) and k = qB + s, 0 <= s < B, the phase is
    exp(i qB dt mu) * exp(i s dt mu): about 2 sqrt(steps) n exponentials
    instead of steps * n, at the cost of one more rounded product.
    """
    block = math.isqrt(steps)
    coarse = _phases(evals, dt * block * np.arange(steps // block + 1))
    fine = _phases(evals, dt * np.arange(block))
    table = coarse[:, :, None] * fine[:, None, :]  # (n, q, s)
    return table.reshape(len(evals), -1)[:, 1 : steps + 1]


@functools.lru_cache(maxsize=1)
def _grid_table(g: Graph, t_max: float, steps: int) -> np.ndarray:
    """The grid phases of ``g`` over (0, t_max], contiguous and read-only.

    The one entry serves consecutive scans of one graph; a scan of another
    graph, length or step count replaces it, so no more tables are held.
    """
    evals, _ = graph_spectrum(g)
    table = np.ascontiguousarray(_grid_phases(evals, t_max / steps, steps))
    table.flags.writeable = False
    return table


def _leakage(phases: np.ndarray, w: np.ndarray):
    """Leakage and |beta| at every column (time) of ``phases``, in one
    pass; U(t)'s pair entries come out (2n - 3, T), time on the last axis.

    ``w`` is real, so the product runs on the phases' real and imaginary
    parts side by side and is read back as complex: one real matmul
    instead of a complex one with zero imaginary parts.
    """
    u = np.abs((w @ phases.view(float)).view(complex))
    return u[1:].max(axis=0, initial=0.0), u[0]


def _refine_minimum(evals: np.ndarray, w: np.ndarray, lo, hi):
    """Shrink every bracket [lo, hi] around the minimum of its unimodal
    leakage dip, all brackets at once.

    Each step evaluates 7 equally spaced interior probes of every bracket
    in one pass and keeps the two eighths around the lowest probe, so
    every bracket narrows fourfold per step.
    """
    parts = _REFINE_PROBES + 1
    offsets = np.arange(1, parts) / parts
    for _ in range(_REFINE_STEPS):
        width = hi - lo
        probes = lo[:, None] + width[:, None] * offsets
        leak, _ = _leakage(_phases(evals, probes.ravel()), w)
        lo = lo + width * leak.reshape(probes.shape).argmin(axis=1) / parts
        hi = lo + width * (2 / parts)
    return (lo + hi) / 2.0


def time_scan(g: Graph, a: int, b: int, t_max: float, steps: int) -> list[float]:
    """Grid-scan (0, t_max] for revival events of a pair.

    A grid point is a candidate when its leakage is below a coarse gate,
    its |beta| is above 1e-3 and its leakage is no higher than at its grid
    neighbours, so each dip gets one bracket of +-dt around its lowest grid
    point.  The first grid point, t = dt, has t = 0 as its left neighbour,
    where U(0) = I and the leakage is 0 up to the acceptance tolerance: it
    is a candidate only if its own leakage is that low, so the trivial dip
    at t = 0 gets no bracket, and a dip within one grid step of it merges
    with it.  The coarse gate scales with the grid pitch because leakage
    grows linearly when moving away from an exact revival time.  All
    brackets are refined together by 10 steps of 7 probes each; a refined
    time is reported only if its leakage is at most 1e-7 with |beta| above
    1e-3.  U(t) is read only through the pair's rows, in one pass for the
    grid and, when there are candidates, one per refinement step and one
    for the refined times, however many candidates there are; a scan with
    no gated dip is the one grid pass.
    """
    if steps < 1:
        raise ValueError("need at least one grid step")
    if not 0 < t_max < math.inf:
        raise ValueError(f"scan length must be finite and positive, got {t_max!r}")
    evals, w = _pair_rows(g, a, b)
    dt = t_max / steps
    leak, beta = _leakage(_grid_table(g, t_max, steps), w)
    slope = max(1.0, float(evals[-1]))
    gate = max(_LEAK_TOL, slope * dt)
    near = (leak <= gate) & (beta > _BETA_MIN)
    near[0] &= leak[0] <= _LEAK_TOL  # t = 0 is a dip of leakage 0
    near[1:] &= leak[1:] <= leak[:-1]  # one bracket per dip
    near[:-1] &= leak[:-1] <= leak[1:]
    if not near.any():
        return []
    centers = dt * (np.flatnonzero(near) + 1)  # the candidates' grid times
    t_star = _refine_minimum(
        evals, w, np.maximum(centers - dt, 1e-12), np.minimum(centers + dt, t_max)
    )
    leak, beta = _leakage(_phases(evals, t_star), w)
    hits: list[float] = []
    for t in t_star[(leak <= _LEAK_TOL) & (beta > _BETA_MIN)]:
        if not hits or abs(hits[-1] - t) > dt / 2:
            hits.append(float(t))
    return hits


def revival_residual(
    g: Graph, a: int, b: int, tau: float, alpha: complex, beta: complex
) -> float:
    """Max-norm residual of U(tau) e_a against alpha e_a + beta e_b.

    Reads the one column U(tau) e_a = V (exp(i tau Lambda) * V[a, :]),
    O(n^2) after the eigendecomposition.
    """
    if not np.isfinite(tau):
        raise ValueError("time must be finite")
    check_vertices(g, a, b)
    evals, v = graph_spectrum(g)
    column = v @ (np.exp(1j * tau * evals) * v[a])
    column[a] -= alpha
    column[b] -= beta
    return float(np.abs(column).max())


def decision_residual(g: Graph, d) -> float:
    """Residual of a PROPER revival decision at its earliest time, with the
    amplitudes of its phase."""
    tau = math.pi * d.earliest_time[0] / d.earliest_time[1]
    return revival_residual(g, *d.pair, tau, *d.phase.amplitudes())

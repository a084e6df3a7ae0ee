"""Floating-point spectral oracle: the independent verifier.

Everything here is double precision and deliberately separate from the
exact pipeline, so the two routes can check each other.  The workhorses
are the spectral decomposition of the Laplacian, the walk operator
U(t) = exp(+i t L), block-form detection for a candidate revival pair,
and dense time scans.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, laplacian

_EIGH_MAX_N = 2000
_SYMMETRY_TOL = 1e-12
_CLUSTER_TOL = 1e-8


@dataclass(frozen=True)
class Spectrum:
    eigenvalues: np.ndarray  # ascending
    eigenvectors: np.ndarray  # orthonormal columns


@dataclass(frozen=True)
class TransitionMatrix:
    time: float
    entries: np.ndarray  # dense complex, unitary and symmetric


@dataclass(frozen=True)
class BlockCheck:
    """Result of probing U(t) for the two-by-two revival block.

    ``leakage`` is the largest off-pair magnitude in the two probed rows
    either way; the amplitude fields are meaningful only when ``found``.
    """

    found: bool
    alpha: complex
    beta: complex
    gamma: complex
    leakage: float


def eigh(m) -> Spectrum:
    """Spectral decomposition of a real symmetric matrix.

    Deterministic for fixed input; rejects asymmetric or oversized input.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix is not square")
    if a.shape[0] > _EIGH_MAX_N:
        raise ValueError("matrix too large for the dense eigensolver")
    scale = max(1.0, float(np.abs(a).max()) if a.size else 1.0)
    if a.size and float(np.abs(a - a.T).max()) > _SYMMETRY_TOL * scale:
        raise ValueError("matrix is not symmetric")
    evals, evecs = np.linalg.eigh(a)
    return Spectrum(eigenvalues=evals, eigenvectors=evecs)


@functools.lru_cache(maxsize=512)
def graph_spectrum(g: Graph) -> Spectrum:
    return eigh(laplacian(g))


def transition_matrix(g: Graph, t: float) -> TransitionMatrix:
    """U(t) = sum_r exp(i t mu_r) F_r, accumulated from the eigenpairs."""
    if not np.isfinite(t):
        raise ValueError("time must be finite")
    spec = graph_spectrum(g)
    phases = np.exp(1j * t * spec.eigenvalues)
    v = spec.eigenvectors
    entries = (v * phases) @ v.T
    return TransitionMatrix(time=float(t), entries=entries)


def block_fr_check(u: TransitionMatrix, a: int, b: int, tol: float) -> BlockCheck:
    """Detect the revival block of a pair: off-pair entries below ``tol``."""
    if not 0 < tol <= 1e-3:
        raise ValueError("tolerance must lie in (0, 1e-3]")
    m = u.entries
    n = m.shape[0]
    others = [j for j in range(n) if j not in (a, b)]
    if others:
        rows = np.abs(m[np.ix_([a, b], others)])
        cols = np.abs(m[np.ix_(others, [a, b])])
        leakage = float(max(rows.max(), cols.max()))
    else:
        leakage = 0.0
    return BlockCheck(
        found=leakage <= tol,
        alpha=complex(m[a, a]),
        beta=complex(m[a, b]),
        gamma=complex(m[b, b]),
        leakage=leakage,
    )


def _pair_leakage_grid(g: Graph, a: int, b: int, times: np.ndarray):
    """Leakage and |beta| over a vector of times, in one vectorized pass."""
    spec = graph_spectrum(g)
    v = spec.eigenvectors
    others = [j for j in range(g.n) if j not in (a, b)]
    # U(t)[a, :] = sum_r exp(i t mu_r) v[a, r] * v[:, r]
    phases = np.exp(1j * np.outer(times, spec.eigenvalues))  # (T, n)
    row_a = phases * v[a]  # coefficients per eigenvector
    row_b = phases * v[b]
    u_a = row_a @ v.T  # (T, n)
    u_b = row_b @ v.T
    if others:
        leak = np.maximum(
            np.abs(u_a[:, others]).max(axis=1), np.abs(u_b[:, others]).max(axis=1)
        )
    else:
        leak = np.zeros(len(times))
    beta = np.abs(u_a[:, b])
    return leak, beta


def _refine_minimum(fn, lo: float, hi: float, steps: int = 20) -> float:
    """Shrink [lo, hi] around the minimum of a unimodal dip by bisection.

    Each step probes the local slope at the midpoint and keeps the downhill
    half, so the bracket halves per step.
    """
    for _ in range(steps):
        mid = (lo + hi) / 2.0
        delta = (hi - lo) / 64.0
        if fn(mid - delta) <= fn(mid + delta):
            hi = mid + delta
        else:
            lo = mid - delta
    return (lo + hi) / 2.0


def time_scan(
    g: Graph,
    a: int,
    b: int,
    t_max: float,
    steps: int,
    leak_tol: float = 1e-7,
    beta_min: float = 1e-3,
) -> list[float]:
    """Grid-scan (0, t_max] for revival events of a pair.

    Grid points whose leakage dips below a coarse gate are refined by 20
    bisection steps on the leakage function; a refined time is reported only
    if its leakage passes ``leak_tol`` with |beta| above ``beta_min``.  The
    coarse gate scales with the grid pitch because leakage grows linearly
    when moving away from an exact revival time.
    """
    if steps < 1:
        raise ValueError("need at least one grid step")
    dt = t_max / steps
    times = dt * np.arange(1, steps + 1)
    leak, beta = _pair_leakage_grid(g, a, b, times)
    spec = graph_spectrum(g)
    slope = max(1.0, float(spec.eigenvalues[-1]))
    gate = max(leak_tol, slope * dt)

    def leakage_at(t: float) -> float:
        return float(_pair_leakage_grid(g, a, b, np.array([t]))[0][0])

    hits: list[float] = []
    for i in np.flatnonzero((leak <= gate) & (beta > beta_min)):
        lo = max(times[i] - dt, 1e-12)
        hi = min(times[i] + dt, t_max)
        t_star = _refine_minimum(leakage_at, lo, hi)
        u = transition_matrix(g, t_star)
        check = block_fr_check(u, a, b, 1e-3)
        if check.leakage <= leak_tol and abs(check.beta) > beta_min:
            if not hits or abs(hits[-1] - t_star) > dt / 2:
                hits.append(float(t_star))
    return hits


def cluster_eigenvalues(evals: np.ndarray, tol: float = _CLUSTER_TOL) -> list[list[int]]:
    """Group eigenvalue indices into clusters separated by more than ``tol``."""
    clusters: list[list[int]] = []
    for i, ev in enumerate(evals):
        if clusters and ev - evals[clusters[-1][-1]] <= tol:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    return clusters


def numeric_strong_cospectral(g: Graph, a: int, b: int, tol: float = 1e-8) -> bool:
    """Heuristic strong-cospectrality probe from clustered idempotents.

    Advisory only: it covers non-integer spectra that the exact test
    declines, and never feeds the exact decision.
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


def revival_residual(
    g: Graph, a: int, b: int, tau: float, alpha: complex, beta: complex
) -> float:
    """Max-norm residual of U(tau) e_a against alpha e_a + beta e_b."""
    u = transition_matrix(g, tau)
    target = np.zeros(g.n, dtype=complex)
    target[a] = alpha
    target[b] = beta
    return float(np.abs(u.entries[:, a] - target).max())

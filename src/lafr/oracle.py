"""Floating-point spectral oracle: the independent verifier.

Everything here is double precision and deliberately separate from the
exact pipeline, so the two routes can check each other.  The workhorses
are the spectral decomposition of the Laplacian, the walk operator
U(t) = exp(+i t L), the leakage of a vertex pair's two rows of U(t) over a
vector of times, and dense time scans, which read U(t) only through those
two rows and refine all their candidate times at once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, laplacian

_EIGH_MAX_N = 2000
_SYMMETRY_TOL = 1e-12
_LEAK_TOL = 1e-7  # largest leakage of a reported revival time
_BETA_MIN = 1e-3  # smallest |beta| of a reported revival time
_REFINE_STEPS = 20  # bisection steps per candidate time


@dataclass(frozen=True)
class Spectrum:
    eigenvalues: np.ndarray  # ascending
    eigenvectors: np.ndarray  # orthonormal columns


@dataclass(frozen=True)
class TransitionMatrix:
    time: float
    entries: np.ndarray  # dense complex, unitary and symmetric


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


def pair_leakage(g: Graph, a: int, b: int, times: np.ndarray):
    """Leakage and |beta| of the pair over a vector of times, in one
    vectorized pass over rows a and b of U(t).

    Leakage is the largest magnitude U(t) carries from a or b to any other
    vertex (U(t) is symmetric, so rows and columns agree); beta is U(t)[a, b].
    """
    spec = graph_spectrum(g)
    v = spec.eigenvectors
    others = [j for j in range(g.n) if j not in (a, b)]
    # U(t)[a, :] = sum_r exp(i t mu_r) v[a, r] * v[:, r]
    phases = np.exp(1j * np.outer(times, spec.eigenvalues))  # (T, n)
    u_a = (phases * v[a]) @ v.T  # (T, n)
    u_b = (phases * v[b]) @ v.T
    if others:
        leak = np.maximum(
            np.abs(u_a[:, others]).max(axis=1), np.abs(u_b[:, others]).max(axis=1)
        )
    else:
        leak = np.zeros(len(times))
    return leak, np.abs(u_a[:, b])


def _refine_minimum(g: Graph, a: int, b: int, lo, hi):
    """Shrink every bracket [lo, hi] around the minimum of its unimodal
    leakage dip by bisection, all brackets at once.

    Each step probes the local slope at every midpoint in one
    :func:`pair_leakage` call and keeps the downhill half of each bracket,
    so every bracket halves per step.
    """
    k = len(lo)
    for _ in range(_REFINE_STEPS):
        mid = (lo + hi) / 2.0
        delta = (hi - lo) / 64.0
        leak, _ = pair_leakage(g, a, b, np.concatenate([mid - delta, mid + delta]))
        left = leak[:k] <= leak[k:]  # the left half is downhill
        lo = np.where(left, lo, mid - delta)
        hi = np.where(left, mid + delta, hi)
    return (lo + hi) / 2.0


def time_scan(g: Graph, a: int, b: int, t_max: float, steps: int) -> list[float]:
    """Grid-scan (0, t_max] for revival events of a pair.

    Grid points whose leakage dips below a coarse gate are refined together
    by 20 bisection steps on the leakage function; a refined time is
    reported only if its leakage is at most 1e-7 with |beta| above 1e-3.
    The coarse gate scales with the grid pitch because leakage grows
    linearly when moving away from an exact revival time.
    U(t) is read only through :func:`pair_leakage`, once for the grid,
    once per bisection step and once for the refined times, however many
    candidates there are.
    """
    if steps < 1:
        raise ValueError("need at least one grid step")
    dt = t_max / steps
    times = dt * np.arange(1, steps + 1)
    leak, beta = pair_leakage(g, a, b, times)
    slope = max(1.0, float(graph_spectrum(g).eigenvalues[-1]))
    gate = max(_LEAK_TOL, slope * dt)
    near = times[(leak <= gate) & (beta > _BETA_MIN)]
    t_star = _refine_minimum(
        g, a, b, np.maximum(near - dt, 1e-12), np.minimum(near + dt, t_max)
    )
    leak, beta = pair_leakage(g, a, b, t_star)
    hits: list[float] = []
    for t in t_star[(leak <= _LEAK_TOL) & (beta > _BETA_MIN)]:
        if not hits or abs(hits[-1] - t) > dt / 2:
            hits.append(float(t))
    return hits


def revival_residual(
    g: Graph, a: int, b: int, tau: float, alpha: complex, beta: complex
) -> float:
    """Max-norm residual of U(tau) e_a against alpha e_a + beta e_b."""
    u = transition_matrix(g, tau)
    target = np.zeros(g.n, dtype=complex)
    target[a] = alpha
    target[b] = beta
    return float(np.abs(u.entries[:, a] - target).max())

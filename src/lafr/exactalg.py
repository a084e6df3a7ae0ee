"""Exact polynomials from their roots.

Polynomials are lists of integer coefficients in ascending degree order.
The vertex-local spectral layer (:mod:`lafr.spectral`) builds its
annihilators here.  Everything here is exact; the floating-point
counterpart lives in :mod:`lafr.oracle`.
"""

from __future__ import annotations


def poly_from_roots(roots) -> list[int]:
    """The monic polynomial prod (t - r) over ``roots``."""
    out = [1]
    for r in roots:
        out = [lo - r * hi for lo, hi in zip([0] + out, out + [0])]
    return out

"""Exact polynomial arithmetic over the integers and the rationals.

Polynomials are lists of coefficients in ascending degree order.  The
vertex-local spectral layer (:mod:`lafr.spectral`) builds its
annihilators from their roots here, and reads the exact minimal polynomial
of a vertex's moment sequence by Berlekamp-Massey.  Everything here is
exact; the floating-point counterpart lives in :mod:`lafr.oracle`.
"""

from __future__ import annotations

from itertools import zip_longest
from math import gcd


def poly_eval(p, x):
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_from_roots(roots) -> list[int]:
    """The monic polynomial prod (t - r) over ``roots``."""
    out = [1]
    for r in roots:
        out = [lo - r * hi for lo, hi in zip([0] + out, out + [0])]
    return out


def minimal_polynomial(seq) -> list[int]:
    """Minimal polynomial of the linear recurrence that generates the
    integer sequence ``seq``, by Berlekamp-Massey (Massey 1969).

    The connection polynomials are kept as integer multiples of Massey's,
    divided by their content after every update, so no step divides.  The
    result is exact once ``seq`` holds at least twice its degree terms, and
    it is then monic: a rational generating function with integer
    coefficients has an integer denominator with constant term 1 (Fatou).
    """
    conn, prev = [1], [1]
    length, shift, prev_disc = 0, 1, 1
    for i in range(len(seq)):
        disc = sum(c * seq[i - j] for j, c in enumerate(conn[: length + 1]))
        if disc == 0:
            shift += 1
            continue
        old = conn
        conn = [prev_disc * a - disc * b for a, b in zip_longest(conn, [0] * shift + prev, fillvalue=0)]
        content = gcd(*conn)
        conn = [c // content for c in conn]
        if 2 * length <= i:
            length, prev, prev_disc, shift = i + 1 - length, old, disc, 1
        else:
            shift += 1
    return [c // conn[0] for c in conn[length::-1]]

"""Exact integer polynomial arithmetic.

Integer polynomials are lists of arbitrary-precision coefficients in
ascending degree order with a nonzero leading coefficient; the zero
polynomial is the empty list.  This module holds the characteristic
polynomial and the split of its integer roots from the cofactor they
leave; the per-graph spectral object built from them lives in
:mod:`lafr.spectral`.  Everything here is exact; the
floating-point counterpart lives in :mod:`lafr.oracle`.
"""

from __future__ import annotations

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

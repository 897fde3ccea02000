"""Coefficient majorants: bounds on a polynomial map over a ball, read off
the sums of |c| over the terms of each target coordinate and degree, in
binary64.  A univariate majorant is an array of coefficients indexed by
degree; `table` stacks one per base point for `at` and `at_each`.
"""

from __future__ import annotations

import math

import numpy as np


def degree_sums(pmap) -> np.ndarray:
    """(coordinate, degree) table of sum |c| over each coordinate's terms of
    each degree; exact coefficients are rounded first."""
    rows = np.zeros((pmap.target.total, pmap.degree() + 1)).tolist()
    for (coord, exps), value in pmap.coeffs.items():
        rows[coord][sum(exps)] += abs(float(value))
    return np.array(rows)


def sup_bound(pmap) -> np.ndarray:
    """m_G: the degree-k coefficient is max_i sum_{|e|=k} |c_{i,e}|, so
    |G(t)|_inf <= m_G(r) wherever |t|_inf <= r."""
    return degree_sums(pmap).max(axis=0)


def lipschitz_bound(pmap) -> np.ndarray:
    """Lambda_G: degree k - 1 takes k times the degree-k sums, so it bounds
    the sup-norm Lipschitz constant of G on the sup-ball of radius r."""
    table = degree_sums(pmap)
    return (table[:, 1:] * np.arange(1, table.shape[1])).max(axis=0)


def ball_tail(pmap, radius) -> float:
    """A bound on |G(t) - L t|_2 / |t|_2 where |t|_2 <= radius, L the linear
    part: a term c t^e of degree k >= 2 has |t^e| <= radius^(k-1) |t|_2, so
    coordinate i adds sum |c| radius^(k-1) over its terms, and the
    coordinates combine in the Euclidean norm.  Each term is scaled before
    it is added, in the map's order, so the bits do not depend on the
    radius being a power of two; explicit += loops, since sum() of floats
    is compensated from Python 3.12 on."""
    coord_sums = [0.0] * pmap.target.total
    for (coord, exps), value in pmap.coeffs.items():
        degree = sum(exps)
        if degree >= 2:
            coord_sums[coord] += abs(float(value)) * radius ** (degree - 1)
    square = 0.0
    for coord_sum in coord_sums:
        square += coord_sum * coord_sum
    return math.sqrt(square)


def norm2(matrix) -> float:
    """|L|_2: the largest singular value, as np.linalg.norm(L, 2) finds it."""
    return float(np.linalg.svd(np.asarray(matrix, dtype=float), compute_uv=False)[0])


def compose(outer: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """The majorant outer(inner(r))."""
    out = np.zeros(1)
    for c in outer[::-1]:
        out = np.convolve(out, inner)
        out[0] += c
    return out


def top(arrays, combine=np.maximum) -> np.ndarray:
    """Coefficient-wise maximum (or another combination) of majorants; the
    zero majorant when all are empty."""
    out = np.zeros(max([1, *(len(a) for a in arrays)]))
    for a in arrays:
        out[: len(a)] = combine(out[: len(a)], a)
    return out


def table(polys) -> tuple[int, np.ndarray, list]:
    """One majorant per base point as (low, coeffs, forms): coeffs[k, y] is
    point y's coefficient of degree low + k, low the lowest degree of any
    point, for `at_each`; forms[y] is point y's own lowest degree and its
    coefficients from there to its top, for `at`."""
    coeffs = np.zeros((max(len(c) for c in polys), len(polys)))
    for y, c in enumerate(polys):
        coeffs[: len(c), y] = c
    forms = []
    for col in coeffs.T.tolist():
        nonzero = [k for k, c in enumerate(col) if c]
        forms.append((nonzero[0], col[nonzero[0] : nonzero[-1] + 1]) if nonzero else (0, []))
    used = np.flatnonzero(coeffs.any(axis=1)).tolist() or [len(coeffs) - 1]
    return used[0], coeffs[used[0] : used[-1] + 1], forms


def at(poly: tuple, r, y: int = 0):
    """The majorant of base point y (of the one point, for a table of one)
    at a number or at every entry of an array: Horner's rule from the
    point's own lowest degree, then r^low.  Zeros below that degree would
    round differently."""
    low, rows = poly[2][y]
    if not rows:
        return 0.0 * r
    out = rows[-1] + 0.0 * r
    for c in rows[-2::-1]:
        out = out * r + c
    return power(out, r, low)


def at_each(poly: tuple, r: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Every entry of r through the majorant of its base point in ys, an
    array of r's shape: Horner's rule on the table's rows gathered per
    entry, then r^low."""
    low, coeffs, _ = poly
    if coeffs.shape[1] == 1:  # one base point: no gathers
        return at(poly, r)
    out = coeffs[-1][ys]
    for row in coeffs[-2::-1]:
        out = out * r + row[ys]
    return power(out, r, low)


def power(out, r, low: int):
    """out * r^low, by repeated squaring."""
    while low:
        if low & 1:
            out = out * r
        low >>= 1
        if low:
            r = r * r
    return out

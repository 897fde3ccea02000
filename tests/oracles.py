"""Independent brute-force reference computations used to pin expected values.

These deliberately avoid the pruned searches and solver shortcuts of the
package: constants are found by exhaustive enumeration up to a generous
degree cap, and fixed points by summing the conjugation series directly.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import product

import numpy as np


def all_block_degree_vectors(degree, ell):
    """Every vector of `ell` nonnegative ints summing to `degree`."""
    out = []
    for combo in product(range(degree + 1), repeat=ell):
        if sum(combo) == degree:
            out.append(combo)
    return out


def degree2_cocycle_data(ext, spec):
    """Per-point operator matrix and inhomogeneity of the degree-2 cocycle.

    Built by direct monomial conjugation, independent of the solver: the
    matrix sends a degree-2 monomial R to the non-sub projection of
    F_lin^{-1} o R o F_lin, and the inhomogeneity is the non-sub part of
    F_lin^{-1} o F^(2).  The Taylor coefficients satisfy the pull relation
    h_x = A_x h_{fx} + b_x.
    """
    from nsnf import linsolve
    from nsnf.polymap import PolyMap, class_basis, compose, from_linear, left_linear
    from nsnf.spectrum import TypeClass

    dims, mode = ext.dims, ext.mode
    one = Fraction(1) if mode == "rational" else 1.0
    keys = class_basis(spec, dims, 2, {TypeClass.NON_SUB})
    index = {k: i for i, k in enumerate(keys)}
    a_mats, b_vecs = [], []
    for x in range(ext.base.p):
        lin = ext.fiber(x).linear_matrix()
        inv = linsolve.invert(lin)
        lin_poly = from_linear(lin, dims, dims, 1, mode)
        cols = []
        for key in keys:
            mono = PolyMap(dims, dims, 2, mode, {key: one})
            img = left_linear(inv, compose(mono, lin_poly, 2))
            cols.append([img.coeffs.get(k, one * 0) for k in keys])
        a_mats.append([[cols[j][i] for j in range(len(keys))] for i in range(len(keys))])
        q = left_linear(inv, ext.fiber(x).homogeneous_part(2))
        b_vecs.append([q.coeffs.get(k, one * 0) for k in keys])
    return keys, a_mats, b_vecs


def doubled_cycle_pull_solution(a_mats, b_vecs):
    """Solve h_j = A_j h_{j+1} + b_j around a cycle, traversed twice.

    Eliminating over 2q steps gives (I - M^2) h_0 = c + M c, a different
    linear system from the single-traversal solve with the same solution.
    Returns the list of h_j for the whole cycle.
    """
    from nsnf import linsolve

    q = len(a_mats)
    n = len(b_vecs[0])
    one = a_mats[0][0][0] * 0 + 1 if n else Fraction(1)
    prefix = linsolve.identity(n, one)
    c2 = [one * 0] * n
    for step in range(2 * q):
        j = step % q
        pb = linsolve.mat_vec(prefix, b_vecs[j])
        c2 = [u + v for u, v in zip(c2, pb)]
        prefix = linsolve.mat_mul(prefix, a_mats[j])
    lhs = [
        [(one if i == j else one * 0) - prefix[i][j] for j in range(n)]
        for i in range(n)
    ]
    h0 = linsolve.solve(lhs, c2)
    # back-substitute h_j = A_j h_{j+1} + b_j from j = q-1 down to 1
    vecs = [None] * q
    vecs[0] = h0
    for j in range(q - 1, 0, -1):
        nxt = vecs[(j + 1) % q]
        av = linsolve.mat_vec(a_mats[j], nxt)
        vecs[j] = [u + v for u, v in zip(av, b_vecs[j])]
    return vecs


def cycle_operator(a_mats, b_vecs):
    """One traversal of the pull relation: h_0 = M h_0 + c.

    M is the ordered product A_0 A_1 ... A_{q-1} and c accumulates the
    prefix-weighted inhomogeneities.
    """
    from nsnf import linsolve

    q = len(a_mats)
    n = len(b_vecs[0])
    one = a_mats[0][0][0] * 0 + 1 if n else Fraction(1)
    m = linsolve.identity(n, one)
    c = [one * 0] * n
    for j in range(q):
        pb = linsolve.mat_vec(m, b_vecs[j])
        c = [u + v for u, v in zip(c, pb)]
        m = linsolve.mat_mul(m, a_mats[j])
    return m, c


def series_closed_tail(m_mat, c_vec, k):
    """Truncated geometric series with its tail summed exactly.

    sum_{j<k} M^j c  +  M^k (I - M)^{-1} c equals the full fixed point for
    every k; returning it for finite k checks the two routes agree.
    """
    from nsnf import linsolve

    n = len(c_vec)
    one = c_vec[0] * 0 + 1 if n else Fraction(1)
    lhs = [
        [(one if i == j else one * 0) - m_mat[i][j] for j in range(n)]
        for i in range(n)
    ]
    tail = linsolve.solve(lhs, c_vec)
    total = [one * 0] * n
    term = list(c_vec)
    for _ in range(k):
        total = [u + v for u, v in zip(total, term)]
        term = linsolve.mat_vec(m_mat, term)
        tail = linsolve.mat_vec(m_mat, tail)
    return [u + v for u, v in zip(total, tail)]


def certified_partial_sums(a_mat, b_vec, rho, tol=1e-14, k_max=10000):
    """Sum of A^k b with a certified geometric tail bound.

    Requires the max-row-sum norm of A to sit below rho < 1; the partial
    sum stops once rho^(k+1) / (1 - rho) * |b| < tol.
    """
    n = len(b_vec)
    norm_a = max((sum(abs(v) for v in row) for row in a_mat), default=0.0)
    assert norm_a <= rho < 1, (norm_a, rho)
    norm_b = max((abs(v) for v in b_vec), default=0.0)
    total = [0.0] * n
    term = list(b_vec)
    k = 0
    while rho ** (k + 1) / (1 - rho) * norm_b >= tol:
        total = [u + v for u, v in zip(total, term)]
        term = [sum(a * v for a, v in zip(row, term)) for row in a_mat]
        k += 1
        if k > k_max:
            raise AssertionError("series did not meet its certified tail")
    total = [u + v for u, v in zip(total, term)]
    return total


def brute_force_constants(chi):
    """Exhaustive scan of every type of degree <= ceil(2 chi_1/chi_ell) + 2.

    Returns (d, lam_tilde, lam, mu, eps0) with mu None when no strict
    sub-resonance type exists.
    """
    chi = [Fraction(c) for c in chi]
    ell = len(chi)
    d = math.floor(chi[0] / chi[-1])
    cap = math.ceil(2 * chi[0] / chi[-1]) + 2

    lam_tilde = None
    mu = None
    for degree in range(1, cap + 1):
        for s in all_block_degree_vectors(degree, ell):
            w = sum((k * c for k, c in zip(s, chi)), Fraction(0))
            for i in range(ell):
                value = -chi[i] + w
                if value < 0 and (lam_tilde is None or value > lam_tilde):
                    lam_tilde = value
                if chi[i] < w:  # strict sub-resonance
                    back = chi[i] - w
                    if mu is None or back > mu:
                        mu = back
    lam = max(lam_tilde, -chi[0] + (d + 1) * chi[-1])
    terms = [-chi[-1], -lam / (d + 2)]
    if mu is not None:
        terms.append(-mu / (d + 1))
    eps0 = min(terms)
    return d, lam_tilde, lam, mu, eps0


def naive_compose(outer, inner, cap):
    """{(coord, exponents): value} of outer(inner(t)) truncated at cap.

    Every outer monomial is expanded by repeated multiplication of inner
    components, one factor at a time and with nothing memoized.
    """
    n = inner.source.total
    comps = [{} for _ in range(inner.target.total)]
    for (coord, exps), value in inner.coeffs.items():
        comps[coord][exps] = value

    def times(p, q):
        out = {}
        for e1, v1 in p.items():
            for e2, v2 in q.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                if sum(e) <= cap:
                    out[e] = out.get(e, 0) + v1 * v2
        return out

    acc = {}
    for (coord, exps), value in outer.coeffs.items():
        prod = {(0,) * n: value}
        for j, e in enumerate(exps):
            for _ in range(e):
                prod = times(prod, comps[j])
        for e, v in prod.items():
            acc[(coord, e)] = acc.get((coord, e), 0) + v
    return {k: v for k, v in acc.items() if v}


def pointwise_limit(ev, x, t, cfg):
    """The invariance limit at one point by the per-point loop: exact scalar
    `PolyMap.evaluate` of every map along the orbit, the whole P^{-1} chain
    re-applied at every step.

    Returns (value, iterations, increments); value is None when the
    increments have not fallen below cfg.tol within cfg.k_max steps.
    """
    t = tuple(float(c) for c in t)
    if all(c == 0.0 for c in t):
        return t, 0, ()
    w, y = t, x
    chain = []
    prev = ev.nf.h_taylor[x].evaluate(w)
    increments = []
    for k in range(1, cfg.k_max + 1):
        w = ev.ext.fiber(y).evaluate(w)
        chain.append(y)
        y = ev.base.image(y)
        u = ev.nf.h_taylor[y].evaluate(w)
        for idx in reversed(chain):
            u = ev.p_inv[idx].evaluate(u)
        delta = max(abs(a - b) for a, b in zip(u, prev))
        increments.append(delta)
        if delta < cfg.tol:
            return tuple(u), k, tuple(increments)
        prev = u
    return None, cfg.k_max, tuple(increments)


def ball_sample_loop(seed, p, n, samples, radius):
    """The ball sample drawn call by call from random.Random(seed), kept as
    `Evaluator.sample_points` was written before it decoded the generator's
    words in bulk: the bitwise reference of `evaluator.ball_sample`."""
    rng = random.Random(seed)
    xs, points = [], []
    for _ in range(samples):
        xs.append(rng.randrange(p))
        raw = [rng.gauss(0.0, 1.0) for _ in range(n)]
        nrm = math.sqrt(sum(c * c for c in raw)) or 1.0
        scale = radius * rng.random() ** (1.0 / n) / nrm
        points.append([scale * c for c in raw])
    return np.array(xs, dtype=np.intp), np.array(points, dtype=float).reshape(samples, n)


def solve_columns_reference(a, b):
    """Gauss-Jordan elimination of the augmented matrix [a | B], kept as
    `linsolve.solve_columns` was written before its elimination was
    recorded for replay: the bitwise reference of the replayed solves."""
    from nsnf.linsolve import SingularMatrix

    n = len(a)
    if n == 0:
        return []
    if any(len(row) != n for row in a) or len(b) != n:
        raise ValueError("shape mismatch in linear solve")
    exact = isinstance(a[0][0], Fraction)
    aug = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    width = len(aug[0])
    for col in range(n):
        pivot_row = None
        if exact:
            for r in range(col, n):
                if aug[r][col] != 0:
                    pivot_row = r
                    break
        else:
            best = 0.0
            for r in range(col, n):
                mag = abs(aug[r][col])
                if mag > best:
                    best = mag
                    pivot_row = r
        if pivot_row is None:
            raise SingularMatrix(f"singular system at column {col}")
        if pivot_row != col:
            aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        pivot = aug[col][col]
        for r in range(n):
            if r == col:
                continue
            factor = aug[r][col]
            if not factor:
                continue
            scale = factor / pivot
            row_r, row_c = aug[r], aug[col]
            for j in range(col, width):
                if row_c[j]:
                    row_r[j] = row_r[j] - scale * row_c[j]
    return [[aug[i][n + j] / aug[i][i] for j in range(len(b[0]))] for i in range(n)]


def poly_mul_reference(p, q, cap):
    """The truncated product loop `polymap._poly_mul` had before it skipped
    the pairs above the cap: every pair of terms is visited, in p's then
    q's order, and pairs above the cap are dropped.  The bitwise reference
    of the new loop, key order included."""
    out = {}
    q_items = [(e, sum(e), v) for e, v in q.items()]
    for e1, v1 in p.items():
        d1 = sum(e1)
        for e2, d2, v2 in q_items:
            if d1 + d2 > cap:
                continue
            e = tuple(a + b for a, b in zip(e1, e2))
            w = out.get(e)
            out[e] = v1 * v2 if w is None else w + v1 * v2
    return {e: v for e, v in out.items() if v}

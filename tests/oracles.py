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

    The point stops at the later of the first step whose increment falls
    below cfg.tol and its certified step k* (`Evaluator.certified_stop`).
    Returns (value, iterations, increments); value is None when it has not
    stopped within cfg.k_max steps.
    """
    t = tuple(float(c) for c in t)
    if all(c == 0.0 for c in t):
        return t, 0, ()
    k_star = ev.certified_stop(x, t, cfg)
    w, y = t, x
    chain = []
    prev = ev.nf.h_taylor[x].evaluate(w)
    increments = []
    reached = False
    for k in range(1, cfg.k_max + 1):
        w = ev.ext.fiber(y).evaluate(w)
        chain.append(y)
        y = ev.base.image(y)
        u = ev.nf.h_taylor[y].evaluate(w)
        for idx in reversed(chain):
            u = ev.p_inv[idx].evaluate(u)
        delta = max(abs(a - b) for a, b in zip(u, prev))
        increments.append(delta)
        reached = reached or delta < cfg.tol
        if reached and k_star is not None and k >= k_star:
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


def invert_reference(pmap, cap):
    """The back substitution of `polymap.invert` as written when each
    degree's defect was the homogeneous part of a whole composition on a
    fresh table: the bitwise reference of the degree-n composition.  The
    closing identity check is left out."""
    from nsnf import linsolve
    from nsnf.polymap import compose, from_linear, left_linear

    a_inv = linsolve.invert(pmap.linear_matrix())
    inv = from_linear(a_inv, pmap.target, pmap.source, cap, pmap.mode)
    higher = pmap.sub(pmap.jet(1), cap=pmap.cap)
    for degree in range(2, cap + 1):
        defect = compose(higher, inv, degree).homogeneous_part(degree)
        if defect.is_zero():
            continue
        correction = left_linear(a_inv, defect.scale(-1), target=pmap.source)
        inv = inv.add(correction, cap=cap)
    return inv


class SectionSourceReference:
    """The lift sections as `normal_form._SectionSource` resolved them, one
    (point, degree) at a time: the zero map plus the pinned section plus
    the seeded offset, every offset drawn up front over degrees, then
    points, then basis monomials.  The bitwise reference of
    `normal_form._lift_table`."""

    def __init__(self, strategy, spec, dims, mode, p, d, classes):
        from nsnf.polymap import PolyMap, class_basis

        self.strategy, self.spec, self.dims, self.mode = strategy, spec, dims, mode
        self.classes = classes
        self.offsets = {}
        if strategy.kind == "seeded":
            rng = random.Random(strategy.seed)
            for degree in range(2, d + 1):
                basis = class_basis(spec, dims, degree, classes)
                for x in range(p):
                    coeffs = {}
                    for key in basis:
                        value = Fraction(rng.randint(-8, 8), 8) * strategy.amplitude
                        if value:
                            coeffs[key] = value if mode == "rational" else float(value)
                    if coeffs:
                        self.offsets[(x, degree)] = PolyMap(dims, dims, degree, mode, coeffs)

    def section(self, x, degree):
        from nsnf.polymap import zero_map

        out = zero_map(self.dims, self.dims, degree, self.mode)
        pinned = self.strategy.sections.get((x, degree))
        if pinned is not None:
            for c, exps in pinned.coeffs:
                block, s = self.dims.block_of[c], self.dims.block_degrees(exps)
                if self.spec.type_class(block, s) not in self.classes:
                    raise ValueError("lift section leaves its resonance class")
            out = out.add(pinned)
        offset = self.offsets.get((x, degree))
        if offset is not None:
            out = out.add(offset)
        return out


def lift_table_reference(strategy, spec, dims, mode, p, d, classes):
    """{(x, degree): section} of the nonzero sections of degrees 2..d, in
    the order a build asks `SectionSourceReference` for them."""
    source = SectionSourceReference(strategy, spec, dims, mode, p, d, classes)
    table = {}
    for degree in range(2, d + 1):
        for x in range(p):
            section = source.section(x, degree)
            if not section.is_zero():
                table[(x, degree)] = section
    return table


def reduce_family_reference(base, spec, p_elems, lift=None):
    """The resonance reduction of `normal_form.reduce_family` as written
    when every degree composed whole maps, each on a fresh table, and kept
    their homogeneous part: the bitwise reference of the reduction on
    shared tables.  Returns the degree-d jets of H' and of the resonance
    form per base point; the consistency checks are left out."""
    from nsnf import normal_form as nfm
    from nsnf.polymap import (
        Powers,
        class_basis,
        compose,
        from_linear,
        identity_map,
        left_linear,
        project,
        zero_map,
    )
    from nsnf.spectrum import TypeClass, degree_bound

    lift = lift or nfm.complement_lift()
    dims = p_elems[0].dims
    mode = p_elems[0].poly.mode
    d = degree_bound(spec)
    res_only = frozenset({TypeClass.RESONANCE})
    strict = frozenset({TypeClass.STRICT_SUB})
    leaves = frozenset({TypeClass.RESONANCE, TypeClass.NON_SUB})

    a_mats, _, a_polys, a_inv_polys = nfm._linear_data([g.poly for g in p_elems], "P")
    d_mats = [nfm._block_diag_part(m, dims) for m in a_mats]
    sections = SectionSourceReference(lift, spec, dims, mode, base.p, d, classes=res_only)

    def backward_solve(keys, degree, rhs):
        pairs = [(dm, Powers(a_inv, degree)) for dm, a_inv in zip(d_mats, a_inv_polys)]
        cycles = nfm._cycle_maps(base, pairs, False)
        span = nfm._SolveSpan(keys, degree, spec, leaves)
        return nfm._solve_on(span, nfm._cycle_systems(cycles, span, False), rhs)

    ss1 = class_basis(spec, dims, 1, strict)
    h1 = [zero_map(dims, dims, 1, mode) for _ in range(base.p)]
    if ss1 and not nfm._all_block_diagonal(a_mats, dims):
        rhs = []
        for x in range(base.p):
            u = [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(a_mats[x], d_mats[x])]
            u_poly = from_linear(u, dims, dims, 1, mode)
            rhs.append(compose(u_poly.scale(-1), a_inv_polys[x], 1))
        h1 = backward_solve(ss1, 1, rhs)

    h_prime = [identity_map(dims, d, mode).add(h1[x]) for x in range(base.p)]
    p_res = [from_linear(d_mats[x], dims, dims, 1, mode).jet(1) for x in range(base.p)]
    g1_polys = [h_prime[x].jet(1) for x in range(base.p)]
    *_, g1_inv_polys = nfm._linear_data(g1_polys, "G1")

    for degree in range(2, d + 1):
        ss = class_basis(spec, dims, degree, strict)
        k_parts, deltas = [], []
        for x in range(base.p):
            fx = base.image(x)
            lhs = compose(h_prime[fx], p_elems[x].poly, degree).homogeneous_part(degree)
            rhs = compose(p_res[x], h_prime[x], degree).homogeneous_part(degree)
            k_parts.append(lhs.sub(rhs))
            deltas.append(sections.section(x, degree))

        h_n = [zero_map(dims, dims, degree, mode) for _ in range(base.p)]
        if ss:
            rhs = []
            for x in range(base.p):
                fx = base.image(x)
                w_known = k_parts[x].add(compose(deltas[fx], a_polys[x], degree)).sub(
                    left_linear(d_mats[x], deltas[x])
                )
                rho = project(w_known, spec, res_only)
                correction = compose(rho, g1_polys[x], degree).sub(rho)
                c_poly = correction.sub(project(w_known, spec, strict))
                rhs.append(compose(c_poly, a_inv_polys[x], degree))
            h_n = backward_solve(ss, degree, rhs)

        for x in range(base.p):
            h_prime[x] = h_prime[x].add(deltas[x]).add(h_n[x])
        for x in range(base.p):
            fx = base.image(x)
            hn_full = deltas[fx].add(h_n[fx])
            v = k_parts[x].add(compose(hn_full, a_polys[x], degree)).sub(
                left_linear(d_mats[x], deltas[x].add(h_n[x]))
            )
            p_n = compose(v, g1_inv_polys[x], degree)
            p_res[x] = p_res[x].add(project(p_n, spec, res_only), cap=d)

    return [pm.jet(d) for pm in h_prime], [pm.jet(d) for pm in p_res]


def per_group_cycle_solutions(plan, degree, rhs):
    """The Taylor build's cycle solves at one degree, group by group, as
    the build plan set them up before it stacked the invariant groups into
    one system per cycle: every group gets its own solve span, on linear
    power tables of cap `degree`, and its own cycle systems.
    `rhs[x]` maps each solve key to its value at base point x; the
    nonzero solutions come back in the same form, groups in order."""
    from nsnf import normal_form as nfm
    from nsnf.polymap import PolyMap, Powers, class_basis
    from nsnf.spectrum import TypeClass

    ext, spec = plan.ext, plan.spec
    dims, p = ext.dims, ext.base.p
    non_sub = frozenset({TypeClass.NON_SUB})
    keys = class_basis(spec, dims, degree, non_sub)
    diagonal = nfm._all_block_diagonal(plan.mats, dims)
    pairs = [(plan.invs[x], Powers(plan.lin_polys[x], degree)) for x in range(p)]
    cycles = nfm._cycle_maps(ext.base, pairs, True)
    out = [{} for _ in range(p)]
    groups: dict[tuple, list] = {}
    for c, exps in keys:
        label = (dims.block_of[c], dims.block_degrees(exps)) if diagonal else ()
        groups.setdefault(label, []).append((c, exps))
    for group in (groups[label] for label in sorted(groups)):
        span = nfm._SolveSpan(group, degree, spec, non_sub)
        systems = nfm._cycle_systems(cycles, span, True)
        polys = [PolyMap._trusted(dims, dims, degree, ext.mode, rhs[x]) for x in range(p)]
        for x, sol in enumerate(nfm._solve_on(span, systems, polys)):
            out[x].update(sol.coeffs)
    return out


def grid_expansions(ext):
    """A frozen copy of the grid sample that `validate_extension` ran after
    its contraction certificate until the certificate alone decided the
    check: every fiber map is evaluated in binary64 at the coordinate axes
    (both signs) and, for n > 1, two mixed unit diagonals, each at radii
    sigma, sigma/2 and sigma/4.  Returns the detail lines the sample added,
    one per point where |F_x(t)|_2 > xi |t|_2 (no lines: the sample passed)."""
    n = ext.dims.total
    directions = []
    for c in range(n):
        for sign in (1.0, -1.0):
            v = [0.0] * n
            v[c] = sign
            directions.append(v)
    if n > 1:
        directions.append([1.0 / math.sqrt(n)] * n)
        directions.append([(-1.0) ** c / math.sqrt(n) for c in range(n)])
    lines = []
    for x, pm in enumerate(ext.fibers):
        pm_f = pm.to_float()
        for direction in directions:
            for radius_scale in (1.0, 0.5, 0.25):
                radius = ext.sigma * radius_scale
                image = pm_f.evaluate([radius * v for v in direction])
                if not math.sqrt(sum(v * v for v in image)) <= ext.xi * radius:
                    lines.append(f"point {x}: sampled expansion at radius {radius:.4g}")
    return lines


def operator_rows_reference(keys, index, pre, powers, spec, guard):
    """A frozen copy of the per-point operator rows the cycle systems were
    built from before they conjugated by the return maps: sparse rows of
    the matrix of R -> pre . R o post on span(keys), one column per key,
    row i listing its nonzero (column, entry) pairs by column.  `pre` is a
    matrix and `powers` the power table of the linear map post; image terms
    outside `keys` whose class lies in `guard` must vanish."""
    from nsnf.normal_form import BuildError

    dims, mode = powers.inner.source, powers.inner.mode
    pre_cols = [[(r, m) for r, m in enumerate(column) if m] for column in zip(*pre)]
    rows = [[] for _ in keys]
    for col, (c, exps) in enumerate(keys):
        img = {}
        for e, v in powers.part(exps, None):
            for r, m in pre_cols[c]:
                w = m * v
                if w:
                    img[(r, e)] = w
        leaked = []
        for k, w in img.items():
            pos = index.get(k)
            if pos is not None:
                rows[pos].append((col, w))
            elif spec.type_class(dims.block_of[k[0]], dims.block_degrees(k[1])) in guard:
                leaked.append(w)
        if leaked and not mode.vanishes(leaked, max(map(abs, img.values()))):
            raise BuildError("conjugation left its solve subspace")
    return rows


def sparse_mul_reference(a_rows, b_rows):
    """A frozen copy of the sparse product of per-point operator rows:
    a . b, each entry accumulated over the inner index in increasing
    order."""
    out = []
    for row in a_rows:
        acc = {}
        for k, a in row:
            for j, b in b_rows[k]:
                w = acc.get(j)
                acc[j] = a * b if w is None else w + a * b
        out.append([(j, acc[j]) for j in sorted(acc) if acc[j]])
    return out


def i_minus_m_reference(pairs, keys, spec, guard, pull):
    """Rows {column: entry} of I - M for one cycle, assembled as the cycle
    systems did before they conjugated by the return maps: every point's
    operator rows (`operator_rows_reference` on its pair (pre matrix, post
    power table)), multiplied around the cycle with `sparse_mul_reference`
    into M = A_0 (A_1 (... A_{q-1})) (pull) or A_{q-1} (... (A_1 A_0))
    (push)."""
    index = {k: i for i, k in enumerate(keys)}
    ops = [operator_rows_reference(keys, index, pre, pw, spec, guard) for pre, pw in pairs]
    order = list(range(len(ops) - 1, -1, -1)) if pull else list(range(len(ops)))
    m = ops[order[0]]
    for j in order[1:]:
        m = sparse_mul_reference(ops[j], m)
    one, zero = pairs[0][1].inner.mode.one, pairs[0][1].inner.mode.zero
    out = []
    for i, row in enumerate(m):
        entries = {i: one}
        for k, v in row:
            entries[k] = (one if k == i else zero) - v
        out.append({k: w for k, w in entries.items() if w})
    return out


def conjugate_reference(span, coeffs, pre, powers):
    """A frozen copy of `_SolveSpan.conjugate`, which formed every
    conjugation image on a solve span before the cycle systems read the
    image of each key: (position, coefficient) pairs of pre . R o post on
    the span for the map R with nonzero terms `coeffs` {key: value}, built
    as a map, composed with `compose_part` and multiplied by `left_linear`;
    image terms outside the span whose class lies in the span's guard must
    vanish relative to the size of the whole image."""
    from nsnf.normal_form import BuildError
    from nsnf.polymap import PolyMap, compose_part, left_linear

    dims, mode = powers.inner.source, powers.inner.mode
    r = PolyMap._kept(dims, dims, span.degree, mode, coeffs)
    img = left_linear(pre, compose_part(r, powers, span.degree)).coeffs
    out, leaked = [], []
    for k, w in img.items():
        pos = span.index.get(k)
        if pos is not None:
            out.append((pos, w))
        elif span.spec.type_class(dims.block_of[k[0]], dims.block_degrees(k[1])) in span.guard:
            leaked.append(w)
    if leaked and not mode.vanishes(leaked, max(map(abs, img.values()))):
        raise BuildError("conjugation left its solve subspace")
    return out


def conjugate_i_minus_m_reference(span, pre, powers):
    """Rows {column: entry} of I - M as `_i_minus_m` assembled them with one
    `conjugate_reference` call per key."""
    one, zero = powers.inner.mode.one, powers.inner.mode.zero
    rows = [{i: one} for i in range(len(span.keys))]
    for col, key in enumerate(span.keys):
        for i, w in conjugate_reference(span, {key: one}, pre, powers):
            rows[i][col] = (one if i == col else zero) - w
    return [{k: w for k, w in row.items() if w} for row in rows]


def conjugate_step_reference(span, pair, vec, rhs_j):
    """One cycle step as `_CycleSystem._step` took it with
    `conjugate_reference`: rhs_j plus the conjugation of the map whose
    terms are vec's nonzero entries by the step pair (pre, post table)."""
    pre, powers = pair
    out = list(rhs_j)
    coeffs = {k: v for k, v in zip(span.keys, vec) if v}
    for i, w in conjugate_reference(span, coeffs, pre, powers):
        out[i] = w + out[i]
    return out


def inverse_transition_reference(a, b, d):
    """The degree-d jet of a o b^-1 as the verify stage formed every
    transition before it solved T o b = a: a composed with the formal
    inverse of b, both truncated at d."""
    from nsnf.polymap import compose, invert

    return compose(a, invert(b, d), d)


def centralizer_reference(changes, ext_g, d):
    """The degree-d jets Q_x = changes_{g(x)} o G_x o changes_x^-1 as
    `verify.check_centralizer` formed them before it solved Q_x o changes_x
    = changes_{g(x)} o G_x: through the formal inverse, every composition
    truncated at d."""
    from nsnf.polymap import compose, invert

    g = ext_g.base
    out = []
    for x in range(g.p):
        inner = compose(ext_g.fiber(x), invert(changes[x], d), d)
        out.append(compose(changes[g.image(x)], inner, d))
    return out

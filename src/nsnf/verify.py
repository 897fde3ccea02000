"""Structural checks on build results: uniqueness of the coordinate
change up to sub-resonance (resp. resonance) transitions, centralizer
membership of commuting extensions, flag preservation, and the single-block
linearization specialization."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linsolve
from .base import Extension
from .evaluator import EvalConfig, Evaluator, evaluate_at, interleave
from .normal_form import NormalFormResult, ResonanceResult, _solve, pinned_lift
from .polymap import (
    GROUP_TAGS,
    PolyMap,
    Powers,
    Sum,
    agrees,
    compose,
    from_linear,
    project,
    zero_map,
)
from .spectrum import TypeClass, criticality, degree_bound


class VerifyError(RuntimeError):
    """A verification precondition failed; carries the stage that rejected."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


@dataclass
class TransitionWitness:
    """Per-point transition (or centralizer) jets with class verdicts."""

    tag: str
    maps: tuple[PolyMap, ...]
    off_class: tuple[float, ...]
    ok: bool
    stage: str = "class"
    detail: str = ""
    # (point, relation, cap, size) of every relation that does not vanish
    # to its cap; the first one is the detail of a failed "degree" stage
    gaps: tuple = ()


def _same_instance(a: Extension, b: Extension) -> bool:
    return (
        a.base == b.base
        and a.dims == b.dims
        and a.fibers == b.fibers
        and a.mode == b.mode
    )


def _witness(maps, spec, tag, gaps=()) -> TransitionWitness:
    """The class verdict on the maps; a gap (point, relation, cap, size)
    of a relation that does not vanish to its cap fails the witness at
    stage "degree" and leaves its maps and off-class sizes as they are."""
    off_classes = frozenset(TypeClass) - GROUP_TAGS[tag]
    offs, oks = [], []
    for g in maps:
        off = project(g, spec, off_classes)
        offs.append(float(off.max_abs()))
        oks.append(off.vanishes(scale=g))
    witness = TransitionWitness(
        tag=tag, maps=tuple(maps), off_class=tuple(offs), ok=all(oks), gaps=tuple(gaps)
    )
    if gaps:
        x, relation, cap, size = gaps[0]
        witness.ok, witness.stage = False, "degree"
        witness.detail = f"point {x}: {relation} keeps a term of size {size:.3e} up to degree {cap}"
    return witness


def _transition(a: PolyMap, b: PolyMap, d: int, cap: int, powers: Powers | None = None):
    """(T, gap) for the degree-d map T with T o b = a up to degree d.

    One power table of b at the cap serves the solve and the check:
    `powers` when it is such a table (as in a build's `h_powers`), else a
    fresh one.  T_1
    is A B^-1 for the linear parts A, B; T_k is the degree-k residue
    (a - T_{<k} o b)_k composed with B^-1, or the residue itself when B is
    the identity, as for every H.  `gap` is None when a - T o b vanishes
    to the cap by the mode's test, relative to the size of a; otherwise
    it is the largest coefficient of that difference."""
    dims, mode = b.source, b.mode
    if powers is None or powers.inner is not b or powers.cap != cap:
        powers = Powers(b, cap)
    lin = b.linear_matrix()
    ident = linsolve.identity(dims.total, mode.one)
    # B^-1, as the solution X of B X = I; None for the identity
    post = None
    if lin != ident:
        inv = linsolve.solve_columns(lin, ident)
        post = Powers(from_linear(inv, dims, dims, 1, mode), d)
    t = zero_map(dims, a.target, d, mode)
    for k in range(1, d + 1):
        total = Sum(mode)
        total.add_map(a.homogeneous_part(k))
        total.add_composition(t, powers, -1, k)
        residue = total.to_map(dims, a.target, k)
        t = t.add(residue if post is None else post.compose(residue, k))
    check = Sum(mode)
    scale = check.add_map(a.jet(cap))
    check.add_composition(t, powers, -1)
    residual = check.to_map(dims, a.target, cap)
    return t, None if residual.vanishes(scale=scale) else float(residual.max_abs())


def _transitions(pairs, d: int, cap: int, relation: str, tables=None):
    """(maps, gaps): the transition T_x of `_transition` for every pair
    (a_x, b_x), on the power table `tables[x]` of b_x where one is given,
    and a gap (point, relation, cap, size) for every point where
    a_x - T_x o b_x does not vanish to the cap."""
    maps, gaps = [], []
    for x, (a, b) in enumerate(pairs):
        t, gap = _transition(a, b, d, cap, tables[x] if tables else None)
        maps.append(t)
        if gap is not None:
            gaps.append((x, relation, cap, gap))
    return maps, gaps


def transition_jets(nf_a: NormalFormResult, nf_b: NormalFormResult) -> tuple[PolyMap, ...]:
    """Degree-d jets of the transitions T_x with T_x o H_b_x = H_a_x."""
    d = degree_bound(nf_a.spec)
    return tuple(_transition(a, b, d, d)[0] for a, b in zip(nf_a.h_taylor, nf_b.h_taylor))


def _uniqueness(nf_a: NormalFormResult, nf_b: NormalFormResult):
    """The transitions T_x o H_b_x = H_a_x of two builds of one instance,
    with their gaps to the Taylor degree N, solved on the power tables of
    H_b that nf_b's jet check built where it kept them."""
    if not _same_instance(nf_a.ext, nf_b.ext) or nf_a.spec != nf_b.spec:
        raise VerifyError("inputs", "builds come from different instances")
    pairs = zip(nf_a.h_taylor, nf_b.h_taylor)
    d, n = degree_bound(nf_a.spec), nf_a.n_taylor
    return _transitions(pairs, d, n, "H_a - T o H_b", nf_b.h_powers)


def check_uniqueness(nf_a: NormalFormResult, nf_b: NormalFormResult) -> TransitionWitness:
    """Two builds of one instance differ by a sub-resonance transition
    family: T_x o H_b_x = H_a_x to the Taylor degree N, T_x of degree at
    most d."""
    maps, gaps = _uniqueness(nf_a, nf_b)
    return _witness(maps, nf_a.spec, "sub-resonance", gaps)


def check_uniqueness_resonance(
    nf_a: NormalFormResult,
    red_a: ResonanceResult,
    nf_b: NormalFormResult,
    red_b: ResonanceResult,
    uniqueness: TransitionWitness | None = None,
) -> TransitionWitness:
    """Transitions between reduced coordinate changes stay resonance.

    The full changes are H'_x o H_x, so their transition S_x solves
    S_x o H'_b_x = H'_a_x o T_x for the transition T_x of the builds;
    every map there has degree at most d.  Both relations are checked to
    the Taylor degree N.  The T_x and their gaps are read off
    `uniqueness`, the witness of `check_uniqueness(nf_a, nf_b)`, where it
    is given, and solved here otherwise."""
    if uniqueness is None:
        ts, gaps = _uniqueness(nf_a, nf_b)
    else:
        ts, gaps = uniqueness.maps, list(uniqueness.gaps)
    n = nf_a.n_taylor
    pairs = [
        (compose(ha.poly, t, n), hb.poly) for ha, t, hb in zip(red_a.h_prime, ts, red_b.h_prime)
    ]
    maps, more = _transitions(pairs, degree_bound(nf_a.spec), n, "H'_a o T - S o H'_b")
    return _witness(maps, nf_a.spec, "resonance", gaps + more)


def pinned_rebuild_matches(nf: NormalFormResult) -> bool:
    """Pinning the sub-resonance jets of a build reproduces it bitwise.

    On the plan the build was solved and jet-checked on, the solve alone
    decides, its per-degree gates included: maps equal to the build's pass
    the jet check the build passed, and maps that differ fail the verdict
    anyway.  A result without a plan (see `to_float`) is rebuilt in full,
    its jet check included."""
    lift = pinned_lift(nf.sub_res_jets())
    if nf.plan is None:
        again = nf.rebuild(lift)
        return again.h_taylor == nf.h_taylor and again.p_normal == nf.p_normal
    h, p, _ = _solve(nf.plan, lift)
    return tuple(h) == nf.h_taylor and p == [g.poly for g in nf.p_normal]


def check_flag_preservation(p: PolyMap, spec) -> bool:
    """True iff no monomial targeting block i uses coordinates of faster
    blocks j < i, so every fast subspace is invariant."""
    dims = p.target
    for (c, exps) in p.coeffs:
        i = dims.block_of[c]
        s = p.source.block_degrees(exps)
        if any(s[j] for j in range(i)):
            return False
    return True


def check_linearization(nf: NormalFormResult) -> bool:
    """Single-block spectra admit no nonlinear sub-resonance terms, so the
    normal form must be exactly the linear part of the fibers."""
    if nf.spec.ell != 1:
        raise VerifyError("inputs", "linearization check needs a single block")
    if degree_bound(nf.spec) != 1:
        return False
    for x in range(nf.ext.base.p):
        p = nf.p_poly(x)
        lin = p.jet(1)
        if not agrees(p, lin, scale=p):
            return False
        if not agrees(lin, nf.ext.fiber(x).jet(1)):
            return False
    return True


def check_centralizer(
    nf: NormalFormResult,
    ext_g: Extension,
    n_prime: int,
    alpha_prime,
    reduced: ResonanceResult | None = None,
    samples: int = 0,
    seed: int = 0,
    cfg: EvalConfig | None = None,
) -> TransitionWitness:
    """Conjugate a commuting extension into normal-form coordinates.

    Stages: regularity/criticality of the commuting extension, base-map
    commutation, fiber-map commutation (exact in rational mode), splitting
    preservation of its derivative at the zero section, then the relations
    that define Q_x, to degree N', and the class verdict on Q_x, optionally
    cross-checked by pointwise limit evaluation.
    """
    spec, ext_f = nf.spec, nf.ext
    alpha_prime = Fraction(alpha_prime)

    if n_prime > nf.n_taylor or n_prime + alpha_prime > nf.n_taylor + nf.alpha:
        raise VerifyError(
            "criticality", "commuting extension claims more regularity than the build"
        )
    crit = criticality(spec, n_prime, alpha_prime)
    if not crit.ok:
        raise VerifyError(
            "criticality",
            f"nu' = {crit.nu} with bound {crit.eps_bound} rejects epsilon {spec.epsilon}",
        )

    f, g = ext_f.base, ext_g.base
    if ext_g.dims != ext_f.dims or ext_g.mode != ext_f.mode:
        raise VerifyError("inputs", "commuting extension lives on a different bundle")
    if f.compose_with(g) != g.compose_with(f):
        raise VerifyError("commutation", "base maps do not commute")

    cap = max(
        max(pm.degree() for pm in ext_f.fibers), 1
    ) * max(max(pm.degree() for pm in ext_g.fibers), 1)
    dims = ext_f.dims
    for x in range(f.p):
        total = Sum(ext_f.mode)
        lhs = total.add_composition(ext_g.fiber(f.image(x)), Powers(ext_f.fiber(x), cap))
        total.add_composition(ext_f.fiber(g.image(x)), Powers(ext_g.fiber(x), cap), -1)
        if not total.to_map(dims, dims, cap).vanishes(scale=lhs):
            raise VerifyError(
                "commutation", f"extensions do not commute over point {x}"
            )

    for x in range(f.p):
        mixing = [entry for _, _, entry in dims.off_block(ext_g.fiber(x).linear_matrix())]
        if not ext_f.mode.vanishes(mixing):
            raise VerifyError(
                "derivative", f"derivative at the zero section mixes blocks at point {x}"
            )

    # Q_x o H_x = H_{g(x)} o G_x, then with a reduction
    # Q'_x o H'_x = H'_{g(x)} o Q_x, both to degree N'
    d, h = degree_bound(spec), nf.h_taylor
    pairs = [(compose(h[g.image(x)], ext_g.fiber(x), n_prime), h[x]) for x in range(f.p)]
    q_maps, gaps = _transitions(pairs, d, n_prime, "H_g(x) o G_x - Q_x o H_x")
    tag = "sub-resonance"
    if reduced is not None:
        hp = [e.poly for e in reduced.h_prime]
        pairs = [(compose(hp[g.image(x)], q_maps[x], n_prime), hp[x]) for x in range(f.p)]
        q_maps, more = _transitions(pairs, d, n_prime, "H'_g(x) o Q_x - Q'_x o H'_x")
        gaps, tag = gaps + more, "resonance"
    witness = _witness(q_maps, spec, tag, gaps)

    if samples:
        ev = Evaluator(nf, cfg)
        xs, points = ev.sample_points(seed, samples, ev.cfg.radius / 2.0)
        # the limit at (g(x), G_x(t)) against Q_x of the limit at (x, t), pairs in draw
        # order; the limits are in H coordinates and Q in those of `changes`, so
        # with a reduction both limits go through H' first
        g_points = evaluate_at(ext_g.to_float().fibers, xs, points)
        gx = np.array(g.perm, dtype=np.intp)[xs]
        lim = ev.limits(interleave(gx, xs), interleave(g_points, points)).values
        left, right = lim[0::2], lim[1::2]
        if reduced is not None:
            h_prime = [hp.poly.to_float() for hp in reduced.h_prime]
            left, right = evaluate_at(h_prime, gx, left), evaluate_at(h_prime, xs, right)
        right = evaluate_at([q.to_float() for q in q_maps], xs, right)
        worst = float(np.abs(left - right).max())
        if worst > 10 * ev.cfg.tol:
            return TransitionWitness(
                tag=witness.tag,
                maps=witness.maps,
                off_class=witness.off_class,
                ok=False,
                stage="pointwise",
                detail=f"jet route and limit route disagree by {worst:.3e}",
            )
        witness.detail = f"max pointwise gap {worst:.3e} over {samples} samples"
    return witness

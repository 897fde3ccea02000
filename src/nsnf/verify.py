"""Structural checks on build results: uniqueness of the coordinate
change up to sub-resonance (resp. resonance) transitions, centralizer
membership of commuting extensions, flag preservation, and the single-block
linearization specialization."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .base import Extension
from .evaluator import EvalConfig, Evaluator, evaluate_at, interleave
from .normal_form import NormalFormResult, ResonanceResult, pinned_lift
from .polymap import GROUP_TAGS, PolyMap, Powers, Sum, agrees, compose, invert, project
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


def _same_instance(a: Extension, b: Extension) -> bool:
    return (
        a.base == b.base
        and a.dims == b.dims
        and a.fibers == b.fibers
        and a.mode == b.mode
    )


def _witness(maps, spec, tag) -> TransitionWitness:
    off_classes = frozenset(TypeClass) - GROUP_TAGS[tag]
    offs, oks = [], []
    for g in maps:
        off = project(g, spec, off_classes)
        offs.append(float(off.max_abs()))
        oks.append(off.vanishes(scale=g))
    return TransitionWitness(
        tag=tag,
        maps=tuple(maps),
        off_class=tuple(offs),
        ok=all(oks),
    )


def _transitions(maps_a, maps_b, d: int) -> tuple[PolyMap, ...]:
    """Degree-d jets of a_x composed with the inverse of b_x, per point."""
    return tuple(compose(a, invert(b, d), d) for a, b in zip(maps_a, maps_b))


def transition_jets(nf_a: NormalFormResult, nf_b: NormalFormResult) -> tuple[PolyMap, ...]:
    """Degree-d jets of H_a_x composed with the inverse of H_b_x."""
    return _transitions(nf_a.h_taylor, nf_b.h_taylor, degree_bound(nf_a.spec))


def check_uniqueness(nf_a: NormalFormResult, nf_b: NormalFormResult) -> TransitionWitness:
    """Two builds of one instance differ by a sub-resonance transition family."""
    if not _same_instance(nf_a.ext, nf_b.ext) or nf_a.spec != nf_b.spec:
        raise VerifyError("inputs", "builds come from different instances")
    return _witness(transition_jets(nf_a, nf_b), nf_a.spec, "sub-resonance")


def full_changes(nf: NormalFormResult, red: ResonanceResult) -> tuple[PolyMap, ...]:
    """Degree-d jets of the composite coordinate change H'_x o H_x."""
    d = degree_bound(nf.spec)
    return tuple(
        compose(hp.poly, h, d) for hp, h in zip(red.h_prime, nf.h_taylor)
    )


def check_uniqueness_resonance(
    nf_a: NormalFormResult,
    red_a: ResonanceResult,
    nf_b: NormalFormResult,
    red_b: ResonanceResult,
) -> TransitionWitness:
    """Transitions between reduced coordinate changes stay resonance."""
    if not _same_instance(nf_a.ext, nf_b.ext) or nf_a.spec != nf_b.spec:
        raise VerifyError("inputs", "builds come from different instances")
    d = degree_bound(nf_a.spec)
    maps = _transitions(full_changes(nf_a, red_a), full_changes(nf_b, red_b), d)
    return _witness(maps, nf_a.spec, "resonance")


def pinned_rebuild_matches(nf: NormalFormResult) -> bool:
    """Pinning the sub-resonance jets of a build reproduces it bitwise."""
    again = nf.rebuild(pinned_lift(nf.sub_res_jets()))
    return again.h_taylor == nf.h_taylor and again.p_normal == nf.p_normal


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
    preservation of its derivative at the zero section, then the class
    verdict on Q_x, optionally cross-checked by pointwise limit evaluation.
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

    d = degree_bound(spec)
    if reduced is None:
        changes = nf.h_taylor
        tag = "sub-resonance"
    else:
        changes = full_changes(nf, reduced)
        tag = "resonance"
    q_maps = []
    for x in range(f.p):
        inner = compose(ext_g.fiber(x), invert(changes[x], d), d)
        q_maps.append(compose(changes[g.image(x)], inner, d))
    witness = _witness(q_maps, spec, tag)

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

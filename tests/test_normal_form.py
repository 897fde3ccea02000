"""Degree-by-degree Taylor builds and resonance reduction against frozen
closed forms and independent series / doubled-cycle oracles."""

import json
import math
import random
import re
from fractions import Fraction as F
from pathlib import Path

import pytest

from nsnf import cli, linsolve
from nsnf import normal_form as nfm
from nsnf.base import Extension, FiniteBase
from nsnf.instance import load_instance
from nsnf.normal_form import (
    BuildRefused,
    build_taylor,
    complement_lift,
    perturb_lift,
    pinned_lift,
    reduce_family,
    resonance_reduce,
    seeded_lift,
)
from nsnf.polymap import (
    FLOAT,
    RATIONAL,
    SUB_RESONANCE,
    GradedDims,
    PolyMap,
    Powers,
    class_basis,
    compose,
    from_linear,
    identity_map,
    invert,
    make_group_element,
)
from nsnf.rand_instances import random_instance
from nsnf.spectrum import SpectrumSpec, TypeClass, degree_bound

from fixtures import (
    D11,
    SPEC21,
    scalar_extension,
    strictsub_extension,
    three_cycle_extension,
    worked_extension,
)
from oracles import (
    certified_partial_sums,
    cycle_operator,
    degree2_cocycle_data,
    doubled_cycle_pull_solution,
    i_minus_m_reference,
    invert_reference,
    lift_table_reference,
    per_group_cycle_solutions,
    reduce_family_reference,
)


# -- worked fixed point -------------------------------------------------


def test_worked_rational_exact_coefficients():
    ext = worked_extension(RATIONAL)
    nf = build_taylor(ext, SPEC21, 3, 0)
    a, b = F(27, 200), F(46, 125)
    # closed form of the only degree-2 Taylor coefficient at a fixed point
    assert nf.h_taylor[0].coeffs[(1, (1, 1))] == 1 / (b * (1 - a))
    assert (0, (0, 2)) not in nf.h_taylor[0].coeffs  # complement lift
    assert nf.p_poly(0).coeffs == {
        (0, (1, 0)): a,
        (0, (0, 2)): F(1),
        (1, (0, 1)): b,
    }
    assert nf.certified
    assert nf.certified_exponents == {2: F(-2, 5), 3: F(-1, 5)}


def test_worked_float_matches_closed_form_and_series():
    ext = worked_extension(FLOAT)
    nf = build_taylor(ext, SPEC21, 3, 0)
    a, b = math.exp(-2.0), math.exp(-1.0)
    h2 = nf.h_taylor[0].homogeneous_part(2)
    assert abs(h2.coeffs[(1, (1, 1))] - 1 / (b * (1 - a))) < 1e-12

    keys, a_mats, b_vecs = degree2_cocycle_data(ext, SPEC21)
    rho = math.exp(float(nf.certified_exponents[2]))
    series = certified_partial_sums(a_mats[0], b_vecs[0], rho)
    for key, value in zip(keys, series):
        assert abs(h2.coeffs.get(key, 0.0) - value) < 1e-12


def test_worked_rational_doubled_cycle_oracle():
    ext = worked_extension(RATIONAL)
    nf = build_taylor(ext, SPEC21, 3, 0)
    keys, a_mats, b_vecs = degree2_cocycle_data(ext, SPEC21)
    vecs = doubled_cycle_pull_solution(a_mats, b_vecs)
    h2 = nf.h_taylor[0].homogeneous_part(2)
    assert [h2.coeffs.get(k, F(0)) for k in keys] == vecs[0]


def test_three_cycle_doubled_cycle_oracle():
    ext = three_cycle_extension()
    nf = build_taylor(ext, SPEC21, 3, 0)
    keys, a_mats, b_vecs = degree2_cocycle_data(ext, SPEC21)
    cycle = ext.base.cycles[0]
    vecs = doubled_cycle_pull_solution(
        [a_mats[x] for x in cycle], [b_vecs[x] for x in cycle]
    )
    for x, vec in zip(cycle, vecs):
        h2 = nf.h_taylor[x].homogeneous_part(2)
        assert [h2.coeffs.get(k, F(0)) for k in keys] == vec


def test_three_cycle_jet_identity():
    ext = three_cycle_extension()
    nf = build_taylor(ext, SPEC21, 3, 0)
    for x in range(3):
        fx = ext.base.image(x)
        lhs = compose(nf.h_taylor[fx], ext.fiber(x), 3)
        rhs = compose(nf.p_poly(x), nf.h_taylor[x], 3)
        assert lhs == rhs


def test_float_build_tracks_rational_conversion():
    ext = worked_extension(RATIONAL)
    nf_rat = build_taylor(ext, SPEC21, 3, 0)
    nf_flt = build_taylor(ext.to_float(), SPEC21, 3, 0)
    for x in range(1):
        rat, flt = nf_rat.h_taylor[x], nf_flt.h_taylor[x]
        for key in set(rat.coeffs) | set(flt.coeffs):
            assert abs(float(rat.coeffs.get(key, 0)) - flt.coeffs.get(key, 0.0)) < 1e-10
        rat_p, flt_p = nf_rat.p_poly(x), nf_flt.p_poly(x)
        for key in set(rat_p.coeffs) | set(flt_p.coeffs):
            assert abs(float(rat_p.coeffs.get(key, 0)) - flt_p.coeffs.get(key, 0.0)) < 1e-10


def test_dense_solve_matches_grouped(monkeypatch):
    ext = three_cycle_extension()
    grouped = build_taylor(ext, SPEC21, 3, 0)
    monkeypatch.setattr(nfm, "_all_block_diagonal", lambda mats, dims: False)
    dense = build_taylor(ext, SPEC21, 3, 0)
    assert grouped.h_taylor == dense.h_taylor
    assert grouped.p_normal == dense.p_normal


def _t2_squared_span():
    """The solve span of the single key t2^2 -> coordinate 1, guarded
    against NON_SUB terms outside it."""
    return nfm._SolveSpan([(1, (0, 2))], 2, SPEC21, nfm._NON_SUB)


def _mixing_pair(mode, mixing, scale=1):
    """(pre, post power table) for pre = scale times the identity and a
    post map that mixes t1 into t2."""
    one = F(1) if mode == RATIONAL else 1.0
    post = from_linear([[one, one * 0], [mixing, one]], D11, D11, 1, mode)
    return [[one * scale, one * 0], [one * 0, one * scale]], Powers(post, 2)


def _t2_squared_operator(mode, mixing):
    """Operator on the single key t2^2 -> coordinate 1, conjugated by a post
    map that mixes t1 into t2; the image leaks into other NON_SUB groups."""
    span = _t2_squared_span()
    pre, powers = _mixing_pair(mode, mixing)
    return [[w for _, w in span.image(span.keys[0], nfm._columns(pre), powers)]]


def test_operator_guard_rejects_leaving_the_group():
    # the guard is the mode's vanishing test: exact, or FLOAT_TOL relative
    # to the image's size (here 1)
    assert _t2_squared_operator(RATIONAL, F(0)) == [[F(1)]]
    with pytest.raises(nfm.BuildError, match="solve subspace"):
        _t2_squared_operator(RATIONAL, F(1, 10**30))
    with pytest.raises(nfm.BuildError, match="solve subspace"):
        _t2_squared_operator(FLOAT, 1e-6)
    assert _t2_squared_operator(FLOAT, 1e-12) == [[1.0]]


@pytest.mark.parametrize("mode, mixing", [(RATIONAL, F(1, 10**30)), (FLOAT, 1e-6)])
def test_guard_catches_a_leak_that_cancels_around_the_cycle(mode, mixing):
    # Two points mix t1 into t2 by +m and -m, so the return map is the
    # identity and M = (1/2)^2 on t2^2 leaks nothing; each point's own
    # conjugation leaks, and every solve step is guarded.
    span = _t2_squared_span()
    pairs = [_mixing_pair(mode, mixing, F(1, 2)), _mixing_pair(mode, -mixing, F(1, 2))]
    one = F(1) if mode == RATIONAL else 1.0
    for pull in (True, False):
        ((_, steps, ret),) = nfm._cycle_maps(FiniteBase([1, 0]), pairs, pull)
        system = nfm._CycleSystem(steps, ret, span, pull)
        assert system.solve([[one * 0], [one * 0]]) == [[one * 0], [one * 0]]
        with pytest.raises(nfm.BuildError, match="solve subspace"):
            system.solve([[one], [one]])


# Three non-diagonal rational steps with zeros in them, and their inhomogeneities.
CYCLE_MATS = [
    [[F(1, 2), F(1, 3), F(0)], [F(0), F(-1, 4), F(2, 5)], [F(1, 7), F(0), F(1, 3)]],
    [[F(0), F(1, 2), F(1, 5)], [F(-1, 3), F(0), F(0)], [F(1, 4), F(1, 6), F(-1, 2)]],
    [[F(2, 3), F(0), F(-1, 9)], [F(1, 8), F(1, 2), F(0)], [F(0), F(-1, 5), F(1, 4)]],
]
CYCLE_RHS = [[F(1), F(-2, 3), F(0)], [F(0), F(5, 7), F(1, 2)], [F(-1, 4), F(0), F(3)]]
SPEC3 = SpectrumSpec([F(-1)], F(1, 5))


def _oracle_pull(mats, rhs):
    """h_j = A_j h_{j+1} + b_j from the oracle's one-traversal operator."""
    m, c = cycle_operator(mats, rhs)
    n, q = len(c), len(mats)
    lhs = [[(F(1) if i == j else F(0)) - m[i][j] for j in range(n)] for i in range(n)]
    out = [None] * q
    out[0] = linsolve.solve(lhs, c)
    for j in range(q - 1, 0, -1):
        step = [sum((a * v for a, v in zip(row, out[(j + 1) % q])), F(0)) for row in mats[j]]
        out[j] = [u + v for u, v in zip(step, rhs[j])]
    return out


def _cycle_system(mats, pull):
    """The cycle system whose steps are the matrices: each pre matrix acts
    on the linear t1-terms of the three coordinates, post is the identity."""
    dims = GradedDims([3])
    keys = [(c, (1, 0, 0)) for c in range(3)]
    span = nfm._SolveSpan(keys, 1, SPEC3, nfm._NON_SUB)
    post = Powers(identity_map(dims, 1, RATIONAL), 1)
    base = FiniteBase(list(range(1, len(mats))) + [0])
    ((_, steps, ret),) = nfm._cycle_maps(base, [(m, post) for m in mats], pull)
    return nfm._CycleSystem(steps, ret, span, pull)


def test_sparse_cycle_solve_matches_oracle():
    pulled = _cycle_system(CYCLE_MATS, True).solve(CYCLE_RHS)
    assert pulled == _oracle_pull(CYCLE_MATS, CYCLE_RHS)
    # push h_{j+1} = A_j h_j + b_j is the pull relation read backwards:
    # g_k = h_{-k} satisfies g_k = A_{-k-1} g_{k+1} + b_{-k-1}
    q = len(CYCLE_MATS)
    order = [(-k - 1) % q for k in range(q)]
    backward = _oracle_pull([CYCLE_MATS[j] for j in order], [CYCLE_RHS[j] for j in order])
    pushed = _cycle_system(CYCLE_MATS, False).solve(CYCLE_RHS)
    assert pushed == [backward[-j % q] for j in range(q)]
    for j in range(q):
        step = linsolve.mat_vec(CYCLE_MATS[j], pushed[j])
        assert pushed[(j + 1) % q] == [u + v for u, v in zip(step, CYCLE_RHS[j])]


def _checked_return_operators(monkeypatch, cases):
    """Build and reduce every (ext, spec, n, alpha) case, recording each
    cycle system set up on the way, and check that its I - M from the
    return maps equals the product of per-point operator rows exactly.
    Returns the (pull, long cycle) kinds of the checked systems."""
    seen, real = [], nfm._cycle_systems

    def recording(cycles, span, pull):
        seen.extend((steps, ret, span, pull) for _, steps, ret in cycles)
        return real(cycles, span, pull)

    monkeypatch.setattr(nfm, "_cycle_systems", recording)
    for ext, spec, n, alpha in cases:
        resonance_reduce(build_taylor(ext, spec, n, alpha, force=True))
    for steps, ret, span, pull in seen:
        want = i_minus_m_reference(steps, span.keys, span.spec, span.guard, pull)
        assert nfm._i_minus_m(span, *ret) == want
    # pull systems come from the Taylor plan, push ones from the reduction
    return {(pull, len(steps) > 1) for steps, _, _, pull in seen}


def test_return_operator_is_the_product_of_point_rows_on_shipped_files(monkeypatch):
    cases = []
    for path in sorted((Path(__file__).resolve().parent.parent / "instances").glob("*.json")):
        inst = load_instance(str(path))
        if inst.ext.mode == RATIONAL:
            cases.append((inst.ext, inst.spec, inst.n_taylor, inst.alpha))
    assert len(cases) == 5
    kinds = _checked_return_operators(monkeypatch, cases)
    assert kinds == {(True, True), (True, False), (False, False)}


def test_return_operator_is_the_product_of_point_rows_on_random_instances(monkeypatch):
    cases = []
    for seed in range(50):
        ri = random_instance(seed)
        assert ri.ext.mode == RATIONAL
        cases.append((ri.ext, ri.spec, ri.n_taylor, ri.alpha))
    kinds = _checked_return_operators(monkeypatch, cases)
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}


def test_build_is_deterministic():
    ext = three_cycle_extension()
    first = build_taylor(ext, SPEC21, 3, 0)
    second = build_taylor(ext, SPEC21, 3, 0)
    assert first.h_taylor == second.h_taylor
    assert first.p_normal == second.p_normal


# -- lift freedom -------------------------------------------------------


def test_pinned_lift_reproduces_seeded_build():
    ext = three_cycle_extension()
    seeded = build_taylor(ext, SPEC21, 3, 0, lift=seeded_lift(7))
    jets = seeded.sub_res_jets()
    assert jets, "seed 7 should produce at least one nonzero section"
    pinned = build_taylor(ext, SPEC21, 3, 0, lift=pinned_lift(jets))
    assert pinned.h_taylor == seeded.h_taylor
    assert pinned.p_normal == seeded.p_normal


def test_lift_changes_sub_res_part_only_at_its_degree():
    ext = worked_extension(RATIONAL)
    plain = build_taylor(ext, SPEC21, 3, 0)
    section = PolyMap(D11, D11, 2, RATIONAL, {(0, (0, 2)): F(1, 7)})
    lifted = build_taylor(ext, SPEC21, 3, 0, lift=pinned_lift({(0, 2): section}))
    h2_plain = plain.h_taylor[0].homogeneous_part(2)
    h2_lift = lifted.h_taylor[0].homogeneous_part(2)
    assert h2_lift.sub(h2_plain) == section
    # the non-sub component of the degree-2 term is lift-independent
    assert h2_lift.coeffs[(1, (1, 1))] == h2_plain.coeffs[(1, (1, 1))]


def test_perturb_amplitude_zero_is_identity():
    ext = three_cycle_extension()
    nf = build_taylor(ext, SPEC21, 3, 0, lift=seeded_lift(11))
    again = perturb_lift(nf, seed=3, amplitude=F(0))
    assert again.h_taylor == nf.h_taylor
    assert again.p_normal == nf.p_normal


def test_seeded_lift_determinism_and_variation():
    ext = three_cycle_extension()
    one = build_taylor(ext, SPEC21, 3, 0, lift=seeded_lift(5))
    two = build_taylor(ext, SPEC21, 3, 0, lift=seeded_lift(5))
    other = build_taylor(ext, SPEC21, 3, 0, lift=seeded_lift(6))
    assert one.h_taylor == two.h_taylor
    assert one.h_taylor != other.h_taylor


def test_lift_section_validation():
    ext = worked_extension(RATIONAL)
    wrong_degree = PolyMap(D11, D11, 3, RATIONAL, {(0, (0, 3)): F(1)})
    with pytest.raises(ValueError, match="homogeneous"):
        build_taylor(ext, SPEC21, 3, 0, lift=pinned_lift({(0, 2): wrong_degree}))
    non_sub = PolyMap(D11, D11, 2, RATIONAL, {(1, (1, 1)): F(1)})
    with pytest.raises(ValueError, match="class"):
        build_taylor(ext, SPEC21, 3, 0, lift=pinned_lift({(0, 2): non_sub}))


# -- the lift table -----------------------------------------------------


def _base_sections(ext, spec, classes, rng):
    """Random sections in `classes` at every other (point, degree) up to the
    degree bound, in the extension's scalar mode."""
    out = {}
    for degree in range(2, degree_bound(spec) + 1):
        basis = class_basis(spec, ext.dims, degree, classes)
        for x in range(ext.base.p):
            if basis and (x + degree) % 2 == 0:
                keys = rng.sample(basis, min(2, len(basis)))
                coeffs = {k: F(rng.randint(1, 9), 16) for k in keys}
                if ext.mode == FLOAT:
                    coeffs = {k: float(v) for k, v in coeffs.items()}
                out[(x, degree)] = PolyMap(ext.dims, ext.dims, degree, ext.mode, coeffs)
    return out


def _lift_cases():
    return {"three_cycle": (three_cycle_extension(), SPEC21), "random_26": random_instance(26)}


@pytest.mark.parametrize("classes", ["sub-resonance", "resonance"])
@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
@pytest.mark.parametrize("case", ["three_cycle", "random_26"])
def test_lift_table_matches_section_source(case, mode, classes):
    """The lift table holds, key for key and bit for bit, the nonzero
    sections that resolving each (point, degree) on its own gives: pinned,
    seeded, and seeded on top of base sections."""
    got = _lift_cases()[case]
    ext, spec = (got.ext, got.spec) if case == "random_26" else got
    ext = ext.to_float() if mode == FLOAT else ext
    wanted = SUB_RESONANCE if classes == "sub-resonance" else frozenset({TypeClass.RESONANCE})
    base = _base_sections(ext, spec, wanted, random.Random(case))
    assert base, "the case should offer base sections"
    d, p = degree_bound(spec), ext.base.p
    for lift in (pinned_lift(base), seeded_lift(7), seeded_lift(7, base_sections=base)):
        table = nfm._lift_table(lift, spec, ext.dims, ext.mode, p, d, wanted)
        ref = lift_table_reference(lift, spec, ext.dims, ext.mode, p, d, wanted)
        assert list(table) == list(ref)
        assert all(table[k].cap == ref[k].cap for k in ref)
        assert [_ordered(v) for v in table.values()] == [_ordered(v) for v in ref.values()]


def test_pinned_section_above_degree_bound_refused():
    """Every type above the degree bound d is non-sub-resonance, so a
    nonzero pinned section there is refused before any solve, whether or
    not a solve would reach it: the build's above N, the reduction's above
    d.  A zero section there is accepted."""
    ext = three_cycle_extension()  # SPEC21: d = 2, N = 3
    nf = build_taylor(ext, SPEC21, 3, 0)
    for degree in (3, 4):
        above = PolyMap(D11, D11, degree, RATIONAL, {(0, (0, degree)): F(1)})
        lift = pinned_lift({(1, degree): above})
        with pytest.raises(ValueError, match="leaves its resonance class"):
            build_taylor(ext, SPEC21, 3, 0, lift=lift)
        with pytest.raises(ValueError, match="leaves its resonance class"):
            reduce_family(ext.base, SPEC21, nf.p_normal, lift=lift)
    zero = pinned_lift({(1, 4): PolyMap(D11, D11, 4, RATIONAL, {})})
    assert build_taylor(ext, SPEC21, 3, 0, lift=zero).h_taylor == nf.h_taylor


@pytest.mark.parametrize("key", [(5, 2), (3, 2), (-1, 2), (0, 1)])
def test_lift_section_key_no_solve_reaches_refused(key):
    """A section keyed by a point outside 0..p-1 or by a degree below 2 is
    reached by no solve, so it is refused with its key named: pinned, as a
    seeded lift's base section, and in the reduction, zero or not."""
    ext = three_cycle_extension()  # p = 3
    nf = build_taylor(ext, SPEC21, 3, 0)
    degree = key[1]
    # t2^degree -> block 0: sub-resonance and resonant for degree 2
    section = PolyMap(D11, D11, degree, RATIONAL, {(0, (0, degree)): F(1, 3)})
    named = re.escape(f"lift section key {key}")
    for lift in (pinned_lift({key: section}), seeded_lift(7, base_sections={key: section})):
        with pytest.raises(ValueError, match=named):
            build_taylor(ext, SPEC21, 3, 0, lift=lift)
        with pytest.raises(ValueError, match=named):
            reduce_family(ext.base, SPEC21, nf.p_normal, lift=lift)
    with pytest.raises(ValueError, match=named):
        build_taylor(ext, SPEC21, 3, 0, lift=pinned_lift({key: PolyMap(D11, D11, degree, RATIONAL, {})}))


# -- one plan per extension --------------------------------------------


def _plan_cases():
    ri, ri26 = random_instance(15), random_instance(26)
    return {
        "worked_2block": (worked_extension(RATIONAL), SPEC21, 3, 0),
        "three_cycle": (three_cycle_extension(), SPEC21, 3, 0),
        # one 4-cycle, 5-10 invariant groups per degree
        "random_15": (ri.ext, ri.spec, ri.n_taylor, ri.alpha),
        # a 3-cycle and a fixed point, 15-45 invariant groups per degree
        "random_26": (ri26.ext, ri26.spec, ri26.n_taylor, ri26.alpha),
    }


def _exact(nf):
    """H and P term by term; floats by their bit pattern."""
    def terms(poly):
        return sorted(
            (k, v.hex() if isinstance(v, float) else v) for k, v in poly.coeffs.items()
        )

    return [terms(h) for h in nf.h_taylor], [terms(g.poly) for g in nf.p_normal]


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
@pytest.mark.parametrize("case", ["worked_2block", "three_cycle", "random_15"])
def test_rebuild_on_plan_equals_fresh_build(case, mode):
    ext, spec, n, alpha = _plan_cases()[case]
    if mode == FLOAT:
        ext = ext.to_float()
    nf = build_taylor(ext, spec, n, alpha)
    seeded = seeded_lift(7)
    on_plan = nf.rebuild(seeded)
    fresh = build_taylor(ext, spec, n, alpha, lift=seeded)
    assert on_plan.plan is nf.plan
    assert fresh.plan is not nf.plan
    assert on_plan.lift_sections, "seed 7 should draw a nonzero section"
    assert _exact(on_plan) != _exact(nf)
    assert _exact(on_plan) == _exact(fresh)
    pinned = pinned_lift(fresh.sub_res_jets())
    assert _exact(nf.rebuild(pinned)) == _exact(build_taylor(ext, spec, n, alpha, lift=pinned))
    assert _exact(nf.rebuild(pinned)) == _exact(fresh)


def _ordered(poly):
    """The terms of a map in its own key order; floats by their bit pattern."""
    return [(k, v.hex() if isinstance(v, float) else v) for k, v in poly.coeffs.items()]


def _case_in(case, mode):
    ext, spec, n, alpha = _plan_cases()[case]
    return (ext.to_float() if mode == FLOAT else ext), spec, n, alpha


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
@pytest.mark.parametrize("case", ["three_cycle", "random_15", "random_26"])
def test_diagonal_plan_keeps_each_type_in_its_own_block(case, mode):
    """With block-diagonal linear parts the solve keys of each homogeneous
    type (target block, block degrees) are contiguous, every fiber's
    conjugation maps each key into its own type, and every row of I - M
    reaches only columns of its own type."""
    ext, spec, n, alpha = _case_in(case, mode)
    plan = nfm.plan_taylor(ext, spec, n, alpha)
    dims = ext.dims
    assert nfm._all_block_diagonal(plan.mats, dims)
    for degree in range(2, n + 1):
        span, systems = plan.systems[degree]
        keys = span.keys
        labels = [(dims.block_of[c], dims.block_degrees(exps)) for c, exps in keys]
        runs = [label for j, label in enumerate(labels) if j == 0 or label != labels[j - 1]]
        assert len(runs) == len(set(runs)), f"degree {degree}: a type's keys are split"
        pairs = list(zip(plan.invs, plan.lin_powers))
        for _, steps, ret in nfm._cycle_maps(ext.base, pairs, True):
            for pre, powers in steps:
                for col, key in enumerate(keys):
                    image = span.image(key, nfm._columns(pre), powers)
                    assert all(labels[i] == labels[col] for i, _ in image)
            for i, row in enumerate(nfm._i_minus_m(span, *ret)):
                assert all(labels[col] == labels[i] for col in row)


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
@pytest.mark.parametrize("case", ["three_cycle", "random_15", "random_26"])
def test_stacked_cycle_systems_equal_per_group_solves(case, mode):
    ext, spec, n, alpha = _case_in(case, mode)
    plan = nfm.plan_taylor(ext, spec, n, alpha)
    rng = random.Random(case)
    for degree in range(2, n + 1):
        span, systems = plan.systems[degree]
        keys = span.keys
        assert sorted(keys) == sorted(class_basis(spec, ext.dims, degree, {TypeClass.NON_SUB}))
        assert span.index == {k: i for i, k in enumerate(keys)}
        rhs = []
        for _ in range(ext.base.p):
            values = [F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in keys]
            rhs.append({k: (v if mode == RATIONAL else float(v)) for k, v in zip(keys, values)})
        polys = [PolyMap._trusted(ext.dims, ext.dims, degree, ext.mode, r) for r in rhs]
        stacked = nfm._solve_on(span, systems, polys)
        reference = per_group_cycle_solutions(plan, degree, rhs)
        for sol, ref in zip(stacked, reference):
            want = [(k, v.hex() if mode == FLOAT else v) for k, v in ref.items()]
            assert _ordered(sol) == want


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
@pytest.mark.parametrize("case", ["worked_2block", "three_cycle", "random_15"])
def test_invert_matches_whole_composition_loop(case, mode):
    ext, spec, n, alpha = _case_in(case, mode)
    nf = build_taylor(ext, spec, n, alpha, lift=seeded_lift(7))
    maps = list(nf.h_taylor) + [g.poly for g in nf.p_normal]
    for pmap in maps:
        for cap in sorted({2, n}):
            assert _ordered(invert(pmap, cap)) == _ordered(invert_reference(pmap, cap))


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
@pytest.mark.parametrize("case", ["worked_2block", "three_cycle", "random_15"])
def test_reduction_matches_whole_composition_loop(case, mode):
    ext, spec, n, alpha = _case_in(case, mode)
    nf = build_taylor(ext, spec, n, alpha)
    for lift in (None, seeded_lift(3)):
        red = reduce_family(ext.base, spec, nf.p_normal, lift=lift)
        h_ref, p_ref = reduce_family_reference(ext.base, spec, nf.p_normal, lift=lift)
        assert [_ordered(g.poly) for g in red.h_prime] == [_ordered(h) for h in h_ref]
        assert [_ordered(g.poly) for g in red.p_res] == [_ordered(pm) for pm in p_ref]


def test_validation_runs_once_per_all_run(monkeypatch, tmp_path):
    calls = []
    real = nfm.validate_extension

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(nfm, "validate_extension", counted)
    monkeypatch.setattr(cli, "validate_extension", counted)
    path = Path(__file__).resolve().parent.parent / "instances" / "three_cycle.json"
    out = tmp_path / "report.json"
    assert cli.main(["all", str(path), "--out", str(out)]) == 0
    verdicts = json.loads(out.read_text())["verification"]
    assert verdicts["pinned_rebuild"]["ok"] and verdicts["uniqueness"]["ok"]
    assert len(calls) == 1


def test_perturb_float_copy_plans_in_float(monkeypatch):
    nf = build_taylor(three_cycle_extension(), SPEC21, 3, 0, lift=seeded_lift(2))
    flt = nf.to_float()
    assert flt.plan is None
    solved = []
    real = nfm.solve_taylor

    def recording(plan, *args, **kwargs):
        solved.append(plan)
        return real(plan, *args, **kwargs)

    monkeypatch.setattr(nfm, "solve_taylor", recording)
    moved = perturb_lift(flt, seed=3)
    assert [p.ext.mode for p in solved] == [FLOAT]
    assert solved[0] is not nf.plan and moved.plan is solved[0]
    assert moved.ext.mode == FLOAT
    assert all(h.mode == FLOAT for h in moved.h_taylor)
    lift = seeded_lift(3, base_sections=flt.sub_res_jets())
    fresh = build_taylor(flt.ext, SPEC21, 3, 0, lift=lift)
    assert _exact(moved) == _exact(fresh)


# -- scalar base case ---------------------------------------------------


def test_scalar_quadratic_rational():
    ext, spec = scalar_extension(RATIONAL)
    nf = build_taylor(ext, spec, 2, 0)
    a = F(46, 125)
    assert nf.p_poly(0).coeffs == {(0, (1,)): a}  # exactly linear
    assert nf.h_taylor[0].coeffs[(0, (2,))] == 1 / (a * (1 - a))


def test_scalar_quadratic_float():
    ext, spec = scalar_extension(FLOAT)
    nf = build_taylor(ext, spec, 2, 0)
    a = math.exp(-1.0)
    assert nf.p_poly(0).coeffs == {(0, (1,)): a}
    assert abs(nf.h_taylor[0].coeffs[(0, (2,))] - 1 / (a * (1 - a))) < 1e-12


# -- forced builds and resonance reduction ------------------------------


def test_strictsub_refused_then_forced():
    ext = strictsub_extension(RATIONAL)
    with pytest.raises(BuildRefused, match="block-diagonal"):
        build_taylor(ext, SPEC21, 2, 1)
    nf = build_taylor(ext, SPEC21, 2, 1, force=True)
    assert not nf.certified
    assert nf.p_poly(0).coeffs == {
        (0, (1, 0)): F(27, 200),
        (0, (0, 1)): F(1),
        (1, (0, 1)): F(46, 125),
    }
    assert nf.h_taylor[0] == identity_map(D11, 2, RATIONAL)


def test_reduce_strictsub_linear_rational():
    ext = strictsub_extension(RATIONAL)
    nf = build_taylor(ext, SPEC21, 2, 1, force=True)
    red = resonance_reduce(nf)
    a, b = F(27, 200), F(46, 125)
    # closed form of the shear coefficient at a fixed point
    assert red.h_prime[0].poly.coeffs == {
        (0, (1, 0)): F(1),
        (1, (0, 1)): F(1),
        (0, (0, 1)): 1 / (a - b),
    }
    assert red.p_res[0].poly.coeffs == {(0, (1, 0)): a, (1, (0, 1)): b}
    lhs = compose(red.h_prime[0].poly, nf.p_poly(0), 4)
    rhs = compose(red.p_res[0].poly, red.h_prime[0].poly, 4)
    assert lhs == rhs
    assert red.certified_exponents[1] == F(-3, 5)


def test_reduce_strictsub_linear_float():
    ext = strictsub_extension(FLOAT)
    nf = build_taylor(ext, SPEC21, 2, 1, force=True)
    red = resonance_reduce(nf)
    g = 1 / (math.exp(-2.0) - math.exp(-1.0))
    assert abs(red.h_prime[0].poly.coeffs[(0, (0, 1))] - g) < 1e-12
    assert set(red.p_res[0].poly.coeffs) == {(0, (1, 0)), (1, (0, 1))}


def test_block_diag_part_takes_the_policy_zero():
    """Off-block entries become the zero of the matrix's scalar policy, so
    a negative float corner does not turn them into -0.0."""
    out = nfm._block_diag_part([[-0.5, 0.1], [0.3, 2.0]], GradedDims([1, 1]))
    assert out == [[-0.5, 0.0], [0.0, 2.0]]
    assert math.copysign(1.0, out[0][1]) == math.copysign(1.0, out[1][0]) == 1.0
    exact = nfm._block_diag_part([[F(-1, 2), F(1, 10)], [F(3, 10), F(2)]], GradedDims([1, 1]))
    assert exact == [[F(-1, 2), 0], [0, F(2)]]
    assert type(exact[0][1]) is type(exact[1][0]) is F


def test_reduce_kills_strict_quadratic():
    spec = SpectrumSpec([F(-5, 2), F(-1)], F(1, 10))
    a, b, c = F(2, 25), F(9, 25), F(1, 2)
    p = PolyMap(D11, D11, 2, RATIONAL, {(0, (1, 0)): a, (1, (0, 1)): b, (0, (0, 2)): c})
    elem = make_group_element(p, spec, "sub-resonance")
    red = reduce_family(FiniteBase([0]), spec, [elem])
    assert red.h_prime[0].poly.coeffs == {
        (0, (1, 0)): F(1),
        (1, (0, 1)): F(1),
        (0, (0, 2)): c / (a - b * b),
    }
    assert red.p_res[0].poly.coeffs == {(0, (1, 0)): a, (1, (0, 1)): b}
    assert red.certified_exponents[2] == F(-1, 5)


def test_reduce_is_identity_on_resonance_form():
    ext = worked_extension(RATIONAL)
    nf = build_taylor(ext, SPEC21, 3, 0)
    red = resonance_reduce(nf)
    assert red.h_prime[0].poly == identity_map(D11, 2, RATIONAL)
    assert red.p_res[0].poly == nf.p_poly(0)


def test_reduce_with_resonance_lift():
    ext = worked_extension(RATIONAL)
    nf = build_taylor(ext, SPEC21, 3, 0)
    delta = PolyMap(D11, D11, 2, RATIONAL, {(0, (0, 2)): F(1, 3)})
    red = resonance_reduce(nf, lift=pinned_lift({(0, 2): delta}))
    assert red.h_prime[0].poly == identity_map(D11, 2, RATIONAL).add(delta)
    assert red.p_res[0].poly.coeffs[(0, (0, 2))] == F(375053, 375000)
    lhs = compose(red.h_prime[0].poly, nf.p_poly(0), 4)
    rhs = compose(red.p_res[0].poly, red.h_prime[0].poly, 4)
    assert lhs == rhs


def test_reduce_three_cycle_roundtrip():
    ext = three_cycle_extension()
    nf = build_taylor(ext, SPEC21, 3, 0)
    red = resonance_reduce(nf)
    for x in range(3):
        fx = ext.base.image(x)
        lhs = compose(red.h_prime[fx].poly, nf.p_poly(x), 4)
        rhs = compose(red.p_res[x].poly, red.h_prime[x].poly, 4)
        assert lhs == rhs


# -- refusal modes ------------------------------------------------------


def test_taylor_degree_below_bound_refused():
    ext = worked_extension(RATIONAL)
    with pytest.raises(BuildRefused):
        build_taylor(ext, SPEC21, 1, 1, force=True)


def test_criticality_failure_refused():
    ext = worked_extension(RATIONAL)
    with pytest.raises(BuildRefused, match="criticality"):
        build_taylor(ext, SPEC21, 2, 0)

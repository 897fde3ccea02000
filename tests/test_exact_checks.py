"""The signed-sum kernel `polymap.Sum` in both scalar modes, against the
chained compose/add/sub maps it replaces, and the checks built on it
failing when a result is off by a single tiny coefficient."""

import re
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nsnf import normal_form, polymap
from nsnf.base import Extension, FiniteBase
from nsnf.normal_form import BuildError, _check_conjugacy, build_taylor, reduce_family
from nsnf.polymap import (
    FLOAT,
    RATIONAL,
    GradedDims,
    PolyMap,
    Powers,
    Sum,
    agrees,
    compose,
    from_records,
    group_inverse,
    invert,
    make_group_element,
    zero_map,
)
from nsnf.spectrum import SpectrumSpec, degree_bound

from fixtures import SPEC21, three_cycle_extension, worked_extension
from strategies import endo_poly_maps, sub_resonance_elements

TINY = F(1, 10**30)
D11 = GradedDims([1, 1])
# d = 3, with a strict sub-resonance type (t2^2 into block 0) at degree 2
SPEC31 = SpectrumSpec([F(-3), F(-1)], F(1, 10))


def _nudged(pmap: PolyMap, key, delta=TINY) -> PolyMap:
    """pmap with delta added to the coefficient at key."""
    coeffs = dict(pmap.coeffs)
    coeffs[key] = coeffs.get(key, pmap.mode.zero) + delta
    return PolyMap(pmap.source, pmap.target, pmap.cap, pmap.mode, coeffs)


def _bits(pmap: PolyMap) -> list:
    """The terms of a float map in key order, each coefficient as its bits."""
    return [(k, v.hex()) for k, v in pmap.coeffs.items()]


# -- the kernel against the chained maps it replaces ----------------------

modes = st.sampled_from([RATIONAL, FLOAT])


def _in_mode(pmap: PolyMap, mode) -> PolyMap:
    return pmap if mode.exact else pmap.to_float()


@given(modes, st.data())
def test_zero_test_matches_agrees(mode, data):
    cap = data.draw(st.integers(2, 3))
    maps = [_in_mode(data.draw(endo_poly_maps(D11, cap)), mode) for _ in range(2)]
    f, g = maps
    if data.draw(st.booleans()):
        h, k = f, g  # the difference vanishes
    else:
        h, k = (_in_mode(data.draw(endo_poly_maps(D11, cap)), mode) for _ in range(2))
    total = Sum(mode)
    term = total.add_composition(f, Powers(g, cap))
    total.add_composition(h, Powers(k, cap), -1)
    lhs, rhs = compose(f, g, cap), compose(h, k, cap)
    got = total.to_map(D11, D11, cap)
    assert got.vanishes(scale=term) == agrees(lhs, rhs, scale=lhs)
    assert got == lhs.sub(rhs)
    if mode.exact:
        assert term is None  # a rational sum builds no term
    else:
        assert _bits(got) == _bits(lhs.sub(rhs)) and _bits(term) == _bits(lhs)


@st.composite
def _signed_terms(draw, mode, cap):
    """(kind, sign, operands) terms of all three kinds; some are repeated
    later with the other sign, so keys cancel and are refilled."""
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["map", "composition", "left_linear"]))
        f, g = (_in_mode(draw(endo_poly_maps(D11, cap)), mode) for _ in range(2))
        if kind == "composition":
            operands = (f, Powers(g, cap), draw(st.sampled_from([None, *range(1, cap + 1)])))
        elif kind == "left_linear":
            operands = (g.linear_matrix(), f)
        else:
            operands = (f,)
        terms.append((kind, draw(st.sampled_from([1, -1])), operands))
    for kind, sign, operands in list(terms):
        if draw(st.booleans()):
            at = draw(st.integers(0, len(terms)))
            terms.insert(at, (kind, -sign, operands))
    return terms


def _chained(terms, cap, mode) -> PolyMap:
    """The terms formed by compose_part, left_linear and Powers.compose, and
    summed by add and sub."""
    out = zero_map(D11, D11, cap, mode)
    for kind, sign, operands in terms:
        if kind == "composition":
            outer, powers, n = operands
            term = powers.compose(outer) if n is None else polymap.compose_part(outer, powers, n)
        elif kind == "left_linear":
            term = polymap.left_linear(*operands)
        else:
            term = operands[0]
        out = out.add(term) if sign > 0 else out.sub(term)
    return out


@given(modes, st.data())
def test_left_linear_and_degree_parts(mode, data):
    cap = data.draw(st.integers(2, 3))
    terms = data.draw(_signed_terms(mode, cap))
    total = Sum(mode)
    for kind, sign, operands in terms:
        if kind == "composition":
            outer, powers, n = operands
            total.add_composition(outer, powers, sign, n)
        elif kind == "left_linear":
            total.add_left_linear(*operands, sign)
        else:
            total.add_map(operands[0], sign)
    got, expected = total.to_map(D11, D11, cap), _chained(terms, cap, mode)
    assert got == expected
    if not mode.exact:
        assert _bits(got) == _bits(expected)


# -- the closing jet check ------------------------------------------------


def _jet_parts():
    """H, the fiber power tables and P of a rational worked build at N = 3."""
    nf = build_taylor(worked_extension(RATIONAL), SPEC21, 3, 0)
    return list(nf.h_taylor), list(nf.plan.fiber_powers), [g.poly for g in nf.p_normal], nf


def _todays_message(h, fixed_powers, normal, base, cap) -> str:
    """The message of the first failing point, formed as the check forms it
    from the two canonical maps."""
    for x in range(base.p):
        lhs = fixed_powers[x].compose(h[base.image(x)])
        rhs = compose(normal[x], h[x], cap)
        if lhs != rhs:
            return f"jet conjugacy residual {float(lhs.sub(rhs).max_abs()):.3e}"
    raise AssertionError("nothing differs")


def test_jet_check_passes_on_the_build():
    h, fixed, normal, nf = _jet_parts()
    _check_conjugacy(h, fixed, normal, nf.ext.base, 3, "jet conjugacy")


@pytest.mark.parametrize("where", ["h_top", "h_two", "p", "f"])
def test_jet_check_catches_one_tiny_coefficient(where):
    h, fixed, normal, nf = _jet_parts()
    base = nf.ext.base
    if where == "h_top":
        h[0] = _nudged(h[0], (0, (0, 3)))
    elif where == "h_two":
        h[0] = _nudged(h[0], (1, (1, 1)))
    elif where == "p":
        normal[0] = _nudged(normal[0], (0, (0, 2)))
    else:
        fixed[0] = Powers(_nudged(nf.ext.fiber(0), (1, (1, 1))), 3)
    expected = _todays_message(h, fixed, normal, base, 3)
    with pytest.raises(BuildError, match=re.escape(expected)):
        _check_conjugacy(h, fixed, normal, base, 3, "jet conjugacy")


def test_reduction_check_catches_one_tiny_coefficient():
    nf = build_taylor(three_cycle_extension(), SPEC21, 3, 0)
    red = normal_form.resonance_reduce(nf)
    d = degree_bound(SPEC21)
    h = [g.poly for g in red.h_prime]
    normal = [g.poly for g in red.p_res]
    fixed = [Powers(g.poly, d * d) for g in nf.p_normal]
    _check_conjugacy(h, fixed, normal, nf.ext.base, d * d, "resonance conjugacy")
    normal[1] = _nudged(normal[1], (0, (0, 2)))
    with pytest.raises(BuildError, match=r"^resonance conjugacy residual \d\.\d{3}e-\d+$"):
        _check_conjugacy(h, fixed, normal, nf.ext.base, d * d, "resonance conjugacy")


# -- the per-degree residue above d -----------------------------------------


def test_residue_check_catches_a_wrong_solve(monkeypatch):
    d = degree_bound(SPEC21)
    solve_on = normal_form._solve_on

    def off_by_tiny(span, systems, polys):
        out = solve_on(span, systems, polys)
        if span.degree > d:
            out[0] = _nudged(out[0], span.keys[0])
        return out

    monkeypatch.setattr(normal_form, "_solve_on", off_by_tiny)
    with pytest.raises(BuildError, match=rf"^normal form degree-{d + 1} residue \d\.\d{{3}}e-\d+$"):
        build_taylor(worked_extension(RATIONAL), SPEC21, 3, 0)


# -- the per-degree residue at and below d ----------------------------------


def _spec31_extension(mode) -> Extension:
    """A fixed point for SPEC31: F(t) = (a t1 + t2^2, b t2 + t1 t2) with
    a ~ e^-3 and b ~ e^-1; its normal form keeps the strict term t2^2."""
    a, b, one = (F(1, 20), F(46, 125), F(1)) if mode.exact else (0.05, 0.368, 1.0)
    coeffs = {(0, (1, 0)): a, (0, (0, 2)): one, (1, (0, 1)): b, (1, (1, 1)): one}
    fiber = PolyMap(D11, D11, 2, mode, coeffs)
    return Extension(FiniteBase([0]), D11, [fiber], sigma=0.25, xi=0.95, mode=mode)


def _nudge_solves_at(monkeypatch, degree, delta):
    """Make every cycle solve at `degree` off by delta in its first key."""
    solve_on = normal_form._solve_on

    def off_by_delta(span, systems, polys):
        out = solve_on(span, systems, polys)
        if span.degree == degree:
            out[0] = _nudged(out[0], span.keys[0], delta)
        return out

    monkeypatch.setattr(normal_form, "_solve_on", off_by_delta)


NUDGES = [pytest.param(RATIONAL, TINY, id="rational"), pytest.param(FLOAT, 1e-6, id="float")]


@pytest.mark.parametrize("mode, delta", NUDGES)
@pytest.mark.parametrize("degree", [2, 3])
def test_residue_gate_catches_a_wrong_solve_up_to_d(monkeypatch, mode, delta, degree):
    assert degree <= degree_bound(SPEC31)
    ext = _spec31_extension(mode)
    assert build_taylor(ext, SPEC31, 4, 0).certified  # the gate passes on the true solves
    _nudge_solves_at(monkeypatch, degree, delta)
    with pytest.raises(
        BuildError, match=rf"^non-sub-resonance residue in the normal form at degree {degree}$"
    ):
        build_taylor(ext, SPEC31, 4, 0)


@pytest.mark.parametrize("mode, delta", NUDGES)
def test_reduction_gate_catches_a_wrong_backward_solve(monkeypatch, mode, delta):
    nf = build_taylor(_spec31_extension(mode), SPEC31, 4, 0)
    red = reduce_family(nf.ext.base, SPEC31, nf.p_normal)  # the gate passes on the true solves
    assert (0, (0, 2)) not in red.p_res[0].poly.coeffs
    _nudge_solves_at(monkeypatch, 2, delta)
    with pytest.raises(BuildError, match=r"^resonance form keeps a strict term at degree 2$"):
        reduce_family(nf.ext.base, SPEC31, nf.p_normal)


# -- the identity checks of the inverses ------------------------------------


def test_invert_catches_a_perturbed_inverse(monkeypatch):
    pmap = compose(worked_extension(RATIONAL).fiber(0), polymap.identity_map(D11, 3, RATIONAL), 3)
    invert(pmap, 3)  # the check passes on the true inverse
    exact_inverse = polymap.linsolve.invert

    def off_by_tiny(matrix):
        out = [list(row) for row in exact_inverse(matrix)]
        out[0][0] += TINY
        return out

    monkeypatch.setattr(polymap.linsolve, "invert", off_by_tiny)
    with pytest.raises(AssertionError, match=r"^formal inverse residual \d\.\d{3}e-\d+ beyond tolerance$"):
        invert(pmap, 3)


@given(sub_resonance_elements(SPEC21, D11))
def test_group_inverse_catches_a_perturbed_inverse(g):
    group_inverse(g, SPEC21)  # the check passes on the true inverse
    exact = polymap.invert
    try:
        polymap.invert = lambda pmap, cap: _nudged(exact(pmap, cap), (0, (0, 2)))
        with pytest.raises(AssertionError, match=r"^group inverse residual \d\.\d{3}e-\d+"):
            group_inverse(g, SPEC21)
    finally:
        polymap.invert = exact


def test_group_inverse_of_a_fixed_element():
    g = make_group_element(
        PolyMap(D11, D11, 2, RATIONAL, {(0, (1, 0)): F(1), (1, (0, 1)): F(1), (0, (0, 2)): F(3)}),
        SPEC21,
        "sub-resonance",
    )
    inv = group_inverse(g, SPEC21).poly
    assert inv.coeffs[(0, (0, 2))] == F(-3)


# -- records refuse what the instance parser refuses ------------------------


def _record(**fields):
    rec = {"coord": 0, "exponents": [1, 0], "num": 1, "den": 2}
    rec.update(fields)
    return rec


@pytest.mark.parametrize(
    "fields, named",
    [
        ({"coord": True}, "coord"),
        ({"coord": 0.0}, "coord"),
        ({"exponents": [1.0, 0]}, "exponents"),
        ({"exponents": [True, 0]}, "exponents"),
        ({"num": 1.0}, "num"),
        ({"num": False}, "num"),
        ({"den": 2.0}, "den"),
        ({"den": 0}, "den"),
    ],
)
def test_rational_records_refuse_coercion(fields, named):
    with pytest.raises(ValueError, match=rf"^record 0: {named}: "):
        from_records([_record(**fields)], D11, D11, 2, RATIONAL)


@pytest.mark.parametrize("value", [float("inf"), float("nan"), True, "0.5", None])
def test_float_records_refuse_non_numbers(value):
    rec = {"coord": 0, "exponents": [1, 0], "value": value}
    with pytest.raises(ValueError, match=r"^record 0: value: "):
        from_records([rec], D11, D11, 2, polymap.FLOAT)


def test_float_records_take_ints_and_floats():
    recs = [
        {"coord": 0, "exponents": [1, 0], "value": 1},
        {"coord": 1, "exponents": [0, 1], "value": 0.5},
    ]
    back = from_records(recs, D11, D11, 2, polymap.FLOAT)
    assert back.coeffs == {(0, (1, 0)): 1.0, (1, (0, 1)): 0.5}

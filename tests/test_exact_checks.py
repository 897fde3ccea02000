"""The exact zero-tests of rational mode: `polymap.ExactSum` against the
canonical-map comparison it replaces, and checks that still fail when a
result is off by a single tiny coefficient."""

import re
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nsnf import normal_form, polymap
from nsnf.normal_form import BuildError, _check_conjugacy, build_taylor
from nsnf.polymap import (
    FLOAT_TOL,
    RATIONAL,
    ExactSum,
    GradedDims,
    PolyMap,
    Powers,
    agrees,
    compose,
    from_records,
    group_inverse,
    invert,
    make_group_element,
)
from nsnf.spectrum import degree_bound

from fixtures import SPEC21, three_cycle_extension, worked_extension
from strategies import endo_poly_maps, sub_resonance_elements

TINY = F(1, 10**30)
D11 = GradedDims([1, 1])


def _nudged(pmap: PolyMap, key) -> PolyMap:
    """pmap with TINY added to the coefficient at key."""
    coeffs = dict(pmap.coeffs)
    coeffs[key] = coeffs.get(key, F(0)) + TINY
    return PolyMap(pmap.source, pmap.target, pmap.cap, pmap.mode, coeffs)


# -- the accumulator against compose-and-compare --------------------------


@given(st.data())
def test_zero_test_matches_agrees(data):
    cap = data.draw(st.integers(2, 3))
    f, g = data.draw(endo_poly_maps(D11, cap)), data.draw(endo_poly_maps(D11, cap))
    if data.draw(st.booleans()):
        h, k = f, g  # the difference vanishes
    else:
        h, k = data.draw(endo_poly_maps(D11, cap)), data.draw(endo_poly_maps(D11, cap))
    total = ExactSum()
    total.add_composition(f, Powers(g, cap))
    total.add_composition(h, Powers(k, cap), -1)
    lhs, rhs = compose(f, g, cap), compose(h, k, cap)
    assert total.is_zero() == agrees(lhs, rhs, FLOAT_TOL)
    assert total.to_map(D11, D11, cap) == lhs.sub(rhs)


@given(st.data())
def test_left_linear_and_degree_parts(data):
    f, g = data.draw(endo_poly_maps(D11, 3)), data.draw(endo_poly_maps(D11, 3))
    matrix = g.linear_matrix()
    total = ExactSum()
    total.add_composition(f, Powers(g, 3), 1, 2)
    total.add_left_linear(matrix, f, -1)
    total.add_map(f)
    expected = polymap.compose_part(f, Powers(g, 3), 2).sub(polymap.left_linear(matrix, f)).add(f)
    assert total.to_map(D11, D11, 3) == expected


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

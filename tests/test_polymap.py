import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nsnf.polymap import (
    FLOAT,
    RATIONAL,
    GradedDims,
    PolyMap,
    Powers,
    agrees,
    compose,
    compose_part,
    from_records,
    group_inverse,
    identity_map,
    invert,
    is_in_class,
    left_linear,
    make_group_element,
    monomial_basis,
    project,
    to_records,
    zero_map,
)
from nsnf.spectrum import SUB_RESONANCE, SpectrumSpec, TypeClass

from oracles import naive_compose, poly_mul_reference
from strategies import endo_poly_maps, sub_resonance_elements

D11 = GradedDims([1, 1])
SPEC21 = SpectrumSpec([F(-2), F(-1)], F(1, 5))


def worked_p(a=F(27, 200), b=F(46, 125)):
    """P(t) = (a t1 + t2^2, b t2), the running two-block example."""
    return PolyMap(
        D11,
        D11,
        2,
        RATIONAL,
        {(0, (1, 0)): a, (0, (0, 2)): F(1), (1, (0, 1)): b},
    )


def shear(c=F(3)):
    """H(t) = (t1 + c t2^2, t2)."""
    return PolyMap(D11, D11, 2, RATIONAL, {(0, (1, 0)): F(1), (0, (0, 2)): c, (1, (0, 1)): F(1)})


class TestConstruction:
    def test_no_constant_terms(self):
        with pytest.raises(ValueError):
            PolyMap(D11, D11, 2, RATIONAL, {(0, (0, 0)): F(1)})

    def test_mode_mixing_rejected(self):
        with pytest.raises(TypeError):
            PolyMap(D11, D11, 2, RATIONAL, {(0, (1, 0)): 0.5})
        with pytest.raises(TypeError):
            PolyMap(D11, D11, 2, FLOAT, {(0, (1, 0)): F(1, 2)})

    def test_mixed_mode_ops_rejected(self):
        p = worked_p()
        with pytest.raises(ValueError):
            p.add(p.to_float())
        with pytest.raises(ValueError):
            compose(p, p.to_float(), 2)

    def test_zero_pruning(self):
        p = PolyMap(D11, D11, 2, RATIONAL, {(0, (1, 0)): F(0), (1, (0, 1)): F(1)})
        assert (0, (1, 0)) not in p.coeffs

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            PolyMap(D11, D11, 1, RATIONAL, {(0, (0, 2)): F(1)})


class TestCompose:
    def test_worked_coefficient(self):
        a, b, c = F(27, 200), F(46, 125), F(3)
        out = compose(shear(c), worked_p(a, b), 2)
        assert out.coeffs[(0, (0, 2))] == 1 + c * b**2

    def test_identity_neutral(self):
        p = worked_p()
        ident = identity_map(D11, 2, RATIONAL)
        assert compose(p, ident, 2) == p
        assert compose(ident, p, 2) == p

    def test_truncation_drops_high_degree(self):
        p = worked_p()
        out = compose(p, p, 2)
        assert all(sum(e) <= 2 for _, e in out.coeffs)


class TestInvert:
    def test_shear_inverse_exact(self):
        c = F(3)
        inv = invert(shear(c), 2)
        expected = PolyMap(
            D11, D11, 2, RATIONAL, {(0, (1, 0)): F(1), (0, (0, 2)): -c, (1, (0, 1)): F(1)}
        )
        assert inv == expected

    def test_inverse_composes_to_identity(self):
        p = worked_p()
        inv = invert(p, 3)
        assert compose(p, inv, 3) == identity_map(D11, 3, RATIONAL)

    def test_singular_linear_part_rejected(self):
        p = PolyMap(D11, D11, 2, RATIONAL, {(0, (1, 0)): F(1), (1, (0, 2)): F(1)})
        with pytest.raises(ValueError):
            invert(p, 2)


class TestProject:
    def test_worked_p_is_all_resonance(self):
        p = worked_p()
        assert project(p, SPEC21, {TypeClass.RESONANCE}) == p
        assert is_in_class(p, SPEC21, {TypeClass.RESONANCE})

    def test_partition(self):
        p = PolyMap(
            D11,
            D11,
            2,
            RATIONAL,
            {(0, (1, 0)): F(1), (0, (0, 1)): F(2), (1, (1, 0)): F(3), (0, (0, 2)): F(5)},
        )
        parts = [
            project(p, SPEC21, {cls})
            for cls in (TypeClass.RESONANCE, TypeClass.STRICT_SUB, TypeClass.NON_SUB)
        ]
        total = parts[0].add(parts[1]).add(parts[2])
        assert total == p

    def test_homogeneous_part(self):
        p = worked_p()
        assert p.homogeneous_part(2).coeffs == {(0, (0, 2)): F(1)}


class TestGroup:
    def test_degree_bound_enforced(self):
        p = PolyMap(D11, D11, 3, RATIONAL, {(0, (1, 0)): F(1), (1, (0, 1)): F(1), (0, (0, 3)): F(1)})
        with pytest.raises(ValueError):
            make_group_element(p, SPEC21, "sub-resonance")

    def test_off_class_rejected(self):
        p = PolyMap(D11, D11, 2, RATIONAL, {(0, (1, 0)): F(1), (1, (0, 1)): F(1), (1, (1, 0)): F(1)})
        with pytest.raises(ValueError):
            make_group_element(p, SPEC21, "sub-resonance")

    def test_worked_inverse_closure(self):
        g = make_group_element(worked_p(), SPEC21, "sub-resonance")
        inv = group_inverse(g, SPEC21)
        full = compose(g.poly, inv.poly, 4)
        assert full == identity_map(D11, 4, RATIONAL)


class TestTrustedPaths:
    """Maps built without validation still drop every cancelled term."""

    def test_sub_of_itself_is_zero(self):
        p = worked_p()
        assert p.sub(p).coeffs == {}
        assert p.to_float().sub(p.to_float()).coeffs == {}

    def test_add_cancels_to_no_terms(self):
        p = worked_p()
        assert p.add(p.scale(-1)).coeffs == {}
        q = PolyMap(D11, D11, 2, RATIONAL, {(0, (1, 0)): F(-27, 200)})
        assert (0, (1, 0)) not in p.add(q).coeffs

    def test_compose_cancellation_leaves_no_zero(self):
        # (t1^2 - t2^2, t1 t2 - t2^2) o (t1, t1) = 0
        terms = {(0, (2, 0)): F(1), (0, (0, 2)): F(-1), (1, (1, 1)): F(1), (1, (0, 2)): F(-1)}
        outer = PolyMap(D11, D11, 2, RATIONAL, terms)
        inner = PolyMap(D11, D11, 1, RATIONAL, {(0, (1, 0)): F(1), (1, (1, 0)): F(1)})
        assert compose(outer, inner, 2).coeffs == {}
        assert compose_part(outer, Powers(inner, 3), 2).coeffs == {}
        assert compose(outer.to_float(), inner.to_float(), 2).coeffs == {}

    def test_left_linear_cancellation_leaves_no_zero(self):
        both = PolyMap(D11, D11, 2, RATIONAL, {(0, (0, 2)): F(3), (1, (0, 2)): F(3)})
        out = left_linear([[F(1), F(-1)], [F(0), F(1)]], both)
        assert out.coeffs == {(1, (0, 2)): F(3)}

    def test_kept_subsets_skip_the_zero_filter(self, monkeypatch):
        # homogeneous_part, jet and project keep terms of a map, which are
        # nonzero already: no coefficient is truth-tested again
        p = compose(worked_p(), shear(), 3)
        tests = []
        real_bool = F.__bool__
        monkeypatch.setattr(F, "__bool__", lambda v: tests.append(v) or real_bool(v))
        part, jet, sub = p.homogeneous_part(2), p.jet(2), project(p, SPEC21, SUB_RESONANCE)
        monkeypatch.undo()
        assert tests == []
        assert part.coeffs == {k: v for k, v in p.coeffs.items() if sum(k[1]) == 2}
        assert jet.coeffs == {k: v for k, v in p.coeffs.items() if sum(k[1]) <= 2}

        def sub_res(c, e):
            return SPEC21.type_class(D11.block_of[c], D11.block_degrees(e)) in SUB_RESONANCE

        assert sub.coeffs and sub.coeffs == {k: v for k, v in p.coeffs.items() if sub_res(*k)}
        for kept in (part, jet, sub):
            assert kept.coeffs is not p.coeffs and all(kept.coeffs.values())
        assert (part.cap, jet.cap, sub.cap) == (2, 2, p.cap)

    def test_public_constructor_still_validates(self):
        with pytest.raises(ValueError, match="exceeds cap"):
            PolyMap(D11, D11, 2, RATIONAL, {(0, (2, 1)): F(1)})
        with pytest.raises(ValueError, match="negative exponent"):
            PolyMap(D11, D11, 2, RATIONAL, {(0, (2, -1)): F(1)})
        with pytest.raises(ValueError, match="exceeds cap"):
            record = {"coord": 0, "exponents": [0, 3], "num": 1, "den": 2}
            from_records([record], D11, D11, 2, RATIONAL)

    def test_cached_evaluation_order(self):
        p = compose(worked_p(), shear(), 3)
        assert p._sorted_terms() == p.sorted_items()
        assert p._sorted_terms() is p._sorted_terms()
        point = (F(1, 3), F(-2, 5))
        expected = [F(0), F(0)]
        for (coord, exps), value in p.sorted_items():
            expected[coord] += value * point[0] ** exps[0] * point[1] ** exps[1]
        assert p.evaluate(point) == expected
        assert p.evaluate(point) == expected


class TestVanishes:
    def test_tiny_rational_is_not_zero(self):
        tiny = PolyMap(D11, D11, 1, RATIONAL, {(0, (1, 0)): F(1, 10**40)})
        assert not tiny.vanishes(1e-9, scale=1e9)
        assert zero_map(D11, D11, 1, RATIONAL).vanishes(0)

    def test_float_boundary(self):
        tol, scale = 1e-9, 8.0
        bound = tol * scale
        at = PolyMap(D11, D11, 1, FLOAT, {(0, (1, 0)): -bound})
        above = PolyMap(D11, D11, 1, FLOAT, {(0, (1, 0)): math.nextafter(bound, 1.0)})
        assert at.vanishes(tol, scale)
        assert not above.vanishes(tol, scale)

    def test_scale_below_one_clamps_to_one(self):
        at = PolyMap(D11, D11, 1, FLOAT, {(1, (0, 1)): 1e-9})
        above = PolyMap(D11, D11, 1, FLOAT, {(1, (0, 1)): math.nextafter(1e-9, 1.0)})
        assert at.vanishes(1e-9, scale=0.25)
        assert at.vanishes(1e-9)
        assert not above.vanishes(1e-9, scale=0.25)


class TestSerialization:
    def test_roundtrip_rational(self):
        p = worked_p()
        rec = to_records(p)
        back = from_records(rec, D11, D11, p.cap, RATIONAL)
        assert back == p
        assert to_records(back) == rec

    def test_sorted_deterministic(self):
        p = worked_p()
        degrees = [sum(r["exponents"]) for r in to_records(p)]
        assert degrees == sorted(degrees)


DIMS_POOL = [GradedDims([1]), GradedDims([1, 1]), GradedDims([2, 1])]


@given(st.sampled_from(DIMS_POOL), st.data())
def test_compose_associative(dims, data):
    a = data.draw(endo_poly_maps(dims, 3))
    b = data.draw(endo_poly_maps(dims, 3))
    c = data.draw(endo_poly_maps(dims, 3))
    cap = 3
    left = compose(compose(a, b, cap), c, cap)
    right = compose(a, compose(b, c, cap), cap)
    assert left == right


@given(st.sampled_from(DIMS_POOL), st.data())
def test_invert_roundtrip(dims, data):
    p = data.draw(endo_poly_maps(dims, 3))
    inv = invert(p, 3)
    assert compose(p, inv, 3) == identity_map(dims, 3, RATIONAL)
    assert compose(inv, p, 3) == identity_map(dims, 3, RATIONAL)


@given(st.data())
def test_project_partition_random(data):
    dims = GradedDims([1, 1])
    p = data.draw(endo_poly_maps(dims, 3))
    parts = [
        project(p, SPEC21, {cls})
        for cls in (TypeClass.RESONANCE, TypeClass.STRICT_SUB, TypeClass.NON_SUB)
    ]
    assert parts[0].add(parts[1]).add(parts[2]) == p


@given(st.data())
def test_sub_resonance_compose_closure(data):
    # Composition inside the group never leaves it and never exceeds the
    # degree bound, without truncating anything away.
    spec = SpectrumSpec([F(-2), F(-1)], F(1, 5))
    dims = GradedDims([1, 1])
    g1 = data.draw(sub_resonance_elements(spec, dims))
    g2 = data.draw(sub_resonance_elements(spec, dims))
    full = compose(g1.poly, g2.poly, 4)
    assert full.degree() <= 2
    assert is_in_class(full, spec, SUB_RESONANCE)


@given(st.sampled_from(DIMS_POOL), st.data())
def test_float_agrees_with_rational(dims, data):
    a = data.draw(endo_poly_maps(dims, 3))
    b = data.draw(endo_poly_maps(dims, 3))
    exact = compose(a, b, 3).to_float()
    approx = compose(a.to_float(), b.to_float(), 3)
    diff = exact.sub(approx)
    assert diff.max_abs() <= 1e-12

    inv_exact = invert(a, 3).to_float()
    inv_approx = invert(a.to_float(), 3)
    assert inv_exact.sub(inv_approx).max_abs() <= 1e-12


def test_zero_map_and_basis():
    z = zero_map(D11, D11, 2, RATIONAL)
    assert z.is_zero() and z.degree() == 0
    basis = monomial_basis(D11, 2)
    assert len(basis) == 6  # three degree-2 monomials times two coordinates


def test_compose_truncates_linear_outer_monomials():
    # outer linear in a coordinate whose inner component has high degree:
    # the cap must still prune the passed-through terms
    outer = PolyMap(D11, D11, 1, RATIONAL, {(0, (1, 0)): F(2)})
    inner = PolyMap(D11, D11, 3, RATIONAL, {(0, (1, 0)): F(1), (0, (0, 3)): F(5)})
    out = compose(outer, inner, 2)
    assert out.coeffs == {(0, (1, 0)): F(2)}
    assert out.degree() <= 2


@given(st.sampled_from(DIMS_POOL), st.integers(1, 4), st.data())
def test_compose_matches_naive_oracle(dims, cap, data):
    outer = data.draw(endo_poly_maps(dims, 3))
    inner = data.draw(endo_poly_maps(dims, 3))
    assert compose(outer, inner, cap).coeffs == naive_compose(outer, inner, cap)
    approx = compose(outer.to_float(), inner.to_float(), cap)
    exact = naive_compose(outer, inner, cap)
    for key in set(exact) | set(approx.coeffs):
        value = exact.get(key, F(0))
        assert abs(approx.coeffs.get(key, 0.0) - float(value)) <= 1e-12 * max(1.0, abs(value))


@given(st.sampled_from(DIMS_POOL), st.integers(1, 4), st.integers(0, 2), st.data())
def test_compose_part_is_homogeneous_part_of_compose(dims, cap, extra, data):
    outer = data.draw(endo_poly_maps(dims, 3))
    inner = data.draw(endo_poly_maps(dims, 3))
    for mode_outer, mode_inner in ((outer, inner), (outer.to_float(), inner.to_float())):
        table = Powers(mode_inner, cap + extra)
        for n in range(1, cap + 1):
            part = compose_part(mode_outer, table, n)
            full = compose(mode_outer, mode_inner, cap).homogeneous_part(n)
            for key in set(part.coeffs) | set(full.coeffs):
                a, b = part.coeffs.get(key, 0), full.coeffs.get(key, 0)
                if mode_outer.mode == RATIONAL:
                    assert a == b
                else:
                    assert abs(a - b) <= 1e-12 * max(1.0, abs(b))


@given(st.sampled_from(DIMS_POOL), st.integers(1, 4), st.data())
def test_evaluate_batch_matches_evaluate(dims, cap, data):
    drawn = data.draw(endo_poly_maps(dims, cap)).to_float()
    at_cap = dict(drawn.coeffs)
    at_cap[data.draw(st.sampled_from(monomial_basis(dims, cap)))] = data.draw(
        st.floats(-2.0, 2.0).filter(bool)
    )
    maps = [
        zero_map(dims, dims, cap, FLOAT),
        identity_map(dims, cap, FLOAT),
        drawn,
        PolyMap(dims, dims, cap, FLOAT, at_cap),
    ]
    rows = data.draw(
        st.lists(
            st.lists(st.floats(-1.0, 1.0), min_size=dims.total, max_size=dims.total),
            min_size=1,
            max_size=6,
        )
    )
    for pmap in maps:
        batch = pmap.evaluate_batch(np.array(rows))
        assert batch.shape == (len(rows), dims.total)
        scale = max(1.0, sum(abs(v) for v in pmap.coeffs.values()))
        for row, got in zip(rows, batch):
            want = pmap.evaluate(row)
            assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-14 * scale


def test_evaluate_batch_needs_float_map_and_matching_rows():
    with pytest.raises(ValueError, match="float"):
        worked_p().evaluate_batch(np.zeros((1, 2)))
    with pytest.raises(ValueError, match="dimension"):
        worked_p().to_float().evaluate_batch(np.zeros((1, 3)))


@st.composite
def term_dicts(draw, n_vars, exact):
    """{exponents: coefficient} with degrees 1..4 and coefficients that
    often cancel; keys in draw order."""
    exps = st.lists(st.integers(0, 2), min_size=n_vars, max_size=n_vars).map(tuple)
    keys = draw(
        st.lists(exps.filter(lambda e: 1 <= sum(e) <= 4), max_size=8, unique=True)
    )
    if exact:
        values = st.sampled_from([F(-1), F(1), F(1, 2), F(-1, 2), F(3, 7)])
    else:
        values = st.sampled_from([-1.0, 1.0, 0.5, -0.5, 0.1, 1e-300, -3.0])
    return {k: draw(values) for k in keys}


def _items_bits(terms):
    return [(e, v.hex() if isinstance(v, float) else v) for e, v in terms.items()]


@given(st.integers(1, 3), st.booleans(), st.integers(0, 9), st.data())
def test_poly_mul_matches_full_pair_loop(n_vars, exact, cap, data):
    """Same values, float bits and key order as visiting every pair, for
    caps from below the smallest degree sum to above the largest."""
    from nsnf.polymap import _poly_mul

    p = data.draw(term_dicts(n_vars, exact))
    q = data.draw(term_dicts(n_vars, exact))
    got = _poly_mul(p, q, cap)
    assert _items_bits(got) == _items_bits(poly_mul_reference(p, q, cap))


class TestVanishesAgainstReferenceMap:
    class _Unread(PolyMap):
        __slots__ = ()

        def max_abs(self):
            raise AssertionError("reference read in rational mode")

    def test_rational_reference_is_not_read(self):
        ref = self._Unread._trusted(D11, D11, 2, RATIONAL, {(0, (1, 0)): F(10**9)})
        assert zero_map(D11, D11, 1, RATIONAL).vanishes(0, ref)
        assert not worked_p().vanishes(1e-9, ref)

    def test_float_reference_scales_like_its_max_abs(self):
        ref = PolyMap(D11, D11, 1, FLOAT, {(0, (1, 0)): -8.0, (1, (0, 1)): 2.0})
        at = PolyMap(D11, D11, 1, FLOAT, {(0, (1, 0)): 8e-9})
        above = PolyMap(D11, D11, 1, FLOAT, {(0, (1, 0)): math.nextafter(8e-9, 1.0)})
        assert at.vanishes(1e-9, ref) and at.vanishes(1e-9, ref.max_abs())
        assert not above.vanishes(1e-9, ref)


# -- agrees: the equality test of two maps -------------------------------

TINY = F(1, 2**200)


@st.composite
def map_pairs(draw, shape):
    """(a, b) in one of the shapes the checks meet: equal maps, one
    coefficient off by 2^-200, disjoint supports, zero maps, unrelated maps."""
    a = draw(endo_poly_maps(D11, 3))
    if shape == "equal":
        b = PolyMap(D11, D11, 3, RATIONAL, dict(a.coeffs))
    elif shape == "nudged":
        key = draw(st.sampled_from(sorted(a.coeffs)))
        b = PolyMap(D11, D11, 3, RATIONAL, {**a.coeffs, key: a.coeffs[key] + TINY})
    elif shape == "disjoint":
        free = [k for d in (2, 3) for k in monomial_basis(D11, d) if k not in a.coeffs]
        picks = draw(st.lists(st.sampled_from(free), min_size=1, max_size=3, unique=True))
        values = [draw(st.sampled_from([TINY, F(1, 3)])) for _ in picks]
        b = PolyMap(D11, D11, 3, RATIONAL, dict(zip(picks, values)))
    elif shape == "zero":
        a = b = zero_map(D11, D11, 3, RATIONAL)
    elif shape == "one_zero":
        b = zero_map(D11, D11, 3, RATIONAL)
    else:
        b = draw(endo_poly_maps(D11, 3))
    return (b, a) if draw(st.booleans()) else (a, b)


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
@pytest.mark.parametrize("shape", ["equal", "nudged", "disjoint", "zero", "one_zero", "other"])
@given(data=st.data())
def test_agrees_is_the_vanishing_difference(shape, mode, data):
    a, b = data.draw(map_pairs(shape))
    if mode == FLOAT:
        a, b = a.to_float(), b.to_float()
    tol = data.draw(st.sampled_from([0.0, 2.0**-210, 1e-9, 0.5]))
    scale = data.draw(
        st.one_of(
            st.sampled_from([0.0, 0.25, 3.0, 1e12]),
            st.sampled_from([a, b, identity_map(D11, 3, mode).scale(9)]),
        )
    )
    assert agrees(a, b, tol, scale) == a.sub(b).vanishes(tol, scale)


def test_agrees_is_exact_in_rational_mode():
    p = worked_p()
    nudged = PolyMap(D11, D11, 2, RATIONAL, {**p.coeffs, (0, (0, 2)): F(1) + TINY})
    assert agrees(p, PolyMap(D11, D11, 3, RATIONAL, dict(p.coeffs)), 0)
    assert not agrees(p, nudged, 1e-9, 1e9)
    # the same pair in binary64 rounds the nudge away
    assert agrees(p.to_float(), nudged.to_float(), 0.0)
    assert not agrees(p, zero_map(D11, D11, 2, RATIONAL), 1e-9)


def test_agrees_rejects_what_sub_rejects():
    with pytest.raises(ValueError, match="modes differ"):
        agrees(worked_p(), worked_p().to_float(), 1e-9)
    with pytest.raises(ValueError, match="shapes differ"):
        agrees(worked_p(), zero_map(GradedDims([2]), GradedDims([2]), 2, RATIONAL), 1e-9)

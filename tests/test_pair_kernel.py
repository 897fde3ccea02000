"""The integer-pair kernel of rational mode: power tables that hold each
coefficient as a numerator and a denominator in lowest terms, and the sum
kernel that reads those integers for compositions, left-linear products,
conjugation images, cycle steps and rows of I - M.

Against Fraction references (`tests/oracles.py`), exactly, on the 5
shipped rational files and `random_instance` seeds 0-49:

- every image a build memoizes equals the repeated `poly_mul_reference`
  products, in value and term order, each term in lowest terms;
- a rational composition equals the Fraction loop it replaced, key order
  included, and `Sum.to_map` equals the chained PolyMap operations;
- each span image equals `conjugate_reference`, and the rows of I - M on
  each block equal the block's rows of `conjugate_i_minus_m_reference`.
  (`tests/test_solve_paths.py` compares whole-span I - M and cycle steps
  with their references on the same cases.)

Plus explicit cases: products and sums that cancel to exactly zero,
negative numerators, unequal denominators, position sums, `part()` as
canonical Fractions, and the release of a return map's power table.
"""

import functools
import gc
import math
import weakref
from fractions import Fraction as F
from pathlib import Path

import pytest

from nsnf import normal_form as nfm
from nsnf.instance import load_instance
from nsnf.normal_form import plan_taylor, resonance_reduce, solve_taylor
from nsnf.polymap import (
    RATIONAL,
    GradedDims,
    PolyMap,
    Powers,
    Sum,
    _pair_mul,
    left_linear,
)
from nsnf.rand_instances import random_instance

from oracles import (
    compose_reference,
    conjugate_i_minus_m_reference,
    conjugate_reference,
    naive_compose,
    poly_mul_reference,
    power_image_reference,
)

INSTANCES = Path(__file__).resolve().parent.parent / "instances"
SEEDS = range(50)
D11 = GradedDims([1, 1])


@functools.cache
def _cases(group):
    """(ext, spec, N, alpha) of the shipped rational files or the seeds."""
    if group == "shipped":
        cases = []
        for path in sorted(INSTANCES.glob("*.json")):
            inst = load_instance(str(path))
            if inst.ext.mode == RATIONAL:
                cases.append((inst.ext, inst.spec, inst.n_taylor, inst.alpha))
        assert len(cases) == 5
        return tuple(cases)
    return tuple((ri.ext, ri.spec, ri.n_taylor, ri.alpha) for ri in map(random_instance, SEEDS))


def _canonical(num, den) -> bool:
    return num != 0 and den > 0 and math.gcd(num, den) == 1


def _as_fractions(terms: list) -> list:
    """(exponents, Fraction) of a rational table's terms, each checked to
    be in lowest terms."""
    assert all(_canonical(num, den) for _, num, den in terms)
    return [(e, F(num, den)) for e, num, den in terms]


# -- the power tables ------------------------------------------------------


@pytest.mark.parametrize("group", ["shipped", "seeds"])
def test_table_images_equal_repeated_reference_products(group):
    checked = 0
    for ext, spec, n, alpha in _cases(group):
        plan = plan_taylor(ext, spec, n, alpha, force=True)
        nf = solve_taylor(plan)
        for table in [*plan.fiber_powers, *plan.lin_powers, *nf.h_powers]:
            memo = {}
            for exps, image in table._images.items():
                want = power_image_reference(table.inner, exps, table.cap, memo)
                assert _as_fractions(image) == list(want.items())
                checked += 1
    assert checked


@pytest.mark.parametrize("group", ["shipped", "seeds"])
def test_rational_compositions_equal_the_fraction_loop(group):
    for ext, _, n, _ in _cases(group):
        for x in range(ext.base.p):
            outer, inner = ext.fiber(ext.base.image(x)), ext.fiber(x)
            table = Powers(inner, n)
            got = table.compose(outer)
            assert list(got.coeffs.items()) == list(compose_reference(outer, inner, n).items())
            assert got.coeffs == naive_compose(outer, inner, n)
            for degree in range(1, n + 1):
                part = table.compose(outer, degree)
                want = compose_reference(outer, inner, n, degree)
                assert list(part.coeffs.items()) == list(want.items())


@pytest.mark.parametrize("group", ["shipped", "seeds"])
def test_sum_to_map_equals_chained_maps(group):
    """r - F_{f(x)} o F_x + A_x^-1 . F_x as one exact sum, and as maps
    chained by PolyMap.sub and add, left_linear and the Fraction
    composition."""
    for ext, _, n, _ in _cases(group):
        dims = ext.dims
        for x in range(ext.base.p):
            outer, inner = ext.fiber(ext.base.image(x)), ext.fiber(x)
            inv = nfm._linear_data([inner], "fiber")[1][0]
            total = Sum(RATIONAL)
            total.add_map(outer)
            total.add_composition(outer, Powers(inner, n), -1)
            total.add_left_linear(inv, inner)
            got = total.to_map(dims, dims, n)
            composed = PolyMap._trusted(dims, dims, n, RATIONAL, compose_reference(outer, inner, n))
            want = outer.sub(composed, cap=n).add(left_linear(inv, inner), cap=n)
            assert got.coeffs == want.coeffs


# -- conjugation images, cycle steps and I - M -----------------------------


def _rational_systems(monkeypatch, cases):
    """(steps, return pair, span) of every cycle system that the Taylor
    plan and the reduction of each case set up."""
    seen, real = [], nfm._cycle_systems

    def recording(cycles, span, pull):
        seen.extend((steps, ret, span) for _, steps, ret in cycles)
        return real(cycles, span, pull)

    monkeypatch.setattr(nfm, "_cycle_systems", recording)
    for ext, spec, n, alpha in cases:
        nf = solve_taylor(plan_taylor(ext, spec, n, alpha, force=True))
        resonance_reduce(nf)
    monkeypatch.undo()
    assert seen
    return seen


@pytest.mark.parametrize("group", ["shipped", "seeds"])
def test_span_images_and_block_rows_equal_the_references(monkeypatch, group):
    for steps, ret, span in _rational_systems(monkeypatch, _cases(group)):
        one = RATIONAL.one
        for pre, powers in [*steps, ret]:
            columns = nfm._columns(pre)
            for key in span.keys:
                got = span.image(key, columns, powers)
                assert sorted(got) == sorted(conjugate_reference(span, {key: one}, pre, powers))
        whole = conjugate_i_minus_m_reference(span, *ret)
        for block in span.blocks:
            local = {i: k for k, i in enumerate(block)}
            want = [{local[c]: w for c, w in whole[i].items()} for i in block]
            assert nfm._i_minus_m(span, *ret, block) == want


# -- explicit cases ----------------------------------------------------------


def test_pair_products_that_cancel_are_dropped():
    # (x/2 - y/2)(x/3 + y/3) = x^2/6 - y^2/6: the xy terms cancel
    p = [((1, 0), 1, 2), ((0, 1), -1, 2)]
    q = [((1, 0), 1, 3), ((0, 1), 1, 3)]
    got = _pair_mul(p, q, 2)
    assert got == [((2, 0), 1, 6), ((0, 2), -1, 6)]
    fractions = [dict(_as_fractions(terms)) for terms in (p, q)]
    assert _as_fractions(got) == list(poly_mul_reference(*fractions, 2).items())
    # above the cap nothing is formed
    assert _pair_mul(p, q, 1) == []


def test_pair_products_reduce_negative_numerators_and_unequal_denominators():
    assert _pair_mul([((1,), -2, 3)], [((1,), 3, 4)], 2) == [((2,), -1, 2)]
    # xy: 1/2 * 1/2 - 1/3 * 1/3 = 5/36, summed unreduced and reduced once
    p = [((1, 0), 1, 2), ((0, 1), 1, 3)]
    q = [((1, 0), -1, 3), ((0, 1), 1, 2)]
    got = _pair_mul(p, q, 2)
    assert got == [((2, 0), -1, 6), ((1, 1), 5, 36), ((0, 2), 1, 6)]
    assert all(_canonical(num, den) for _, num, den in got)


def test_an_exact_sum_that_cancels_builds_no_fraction():
    m = PolyMap(D11, D11, 2, RATIONAL, {(0, (1, 0)): F(-3, 4), (1, (1, 1)): F(5, 6)})
    identity = PolyMap(D11, D11, 1, RATIONAL, {(0, (1, 0)): F(1), (1, (0, 1)): F(1)})
    total = Sum(RATIONAL)
    total.add_map(m)
    total.add_composition(m, Powers(identity, 2), -1)
    assert total.to_map(D11, D11, 2).is_zero()
    # left-linear products with negative entries cancel the same way
    total.add_left_linear([[F(-1, 2), F(0)], [F(0), F(3)]], m)
    total.add_left_linear([[F(1, 2), F(0)], [F(0), F(-3)]], m)
    assert total.to_map(D11, D11, 2).is_zero()


def test_position_sums_read_back_canonical_fractions():
    # the image of t1 -> coordinate 0 under pre = [[1/2, 0], [-1/3, 1]] and
    # post = identity is 1/2 t1 on coordinate 0 and -1/3 t1 on coordinate 1
    keys = [(0, (1, 0)), (1, (1, 0))]
    span = nfm._SolveSpan(keys, 1, None, frozenset())
    post = Powers(PolyMap(D11, D11, 1, RATIONAL, {(0, (1, 0)): F(1), (1, (0, 1)): F(1)}), 1)
    columns = nfm._columns([[F(1, 2), F(0)], [F(-1, 3), F(1)]])
    assert span.image(keys[0], columns, post) == [(0, F(1, 2)), (1, F(-1, 3))]
    total = Sum(RATIONAL)
    total.add_entries([(0, F(-1, 4)), (1, F(0)), (2, F(7, 5))])
    leaks = []
    total.add_images([(keys[0], F(1, 2))], columns, post, 1, span.index, leaks.append)
    assert leaks == []
    # -1/4 + 1/2 * 1/2 cancels; 0 + 1/2 * -1/3; position 2 is untouched
    got = total.vector(4)
    assert got == [F(0), F(-1, 6), F(7, 5), F(0)]
    assert all(type(v) is F for v in got)
    assert total.entries() == [(0, F(0)), (2, F(7, 5)), (1, F(-1, 6))]


def test_rational_part_returns_fresh_canonical_fractions():
    inner = PolyMap(
        D11, D11, 3, RATIONAL,
        {(0, (1, 0)): F(2, 3), (0, (0, 2)): F(-1, 2), (1, (0, 1)): F(3, 5), (1, (1, 1)): F(-4, 6)},
    )
    table = Powers(inner, 3)
    want = power_image_reference(inner, (1, 1), 3)
    for n in (None, 2, 3):
        got = table.part((1, 1), n)
        expected = [(e, v) for e, v in want.items() if (sum(e) <= 3 if n is None else sum(e) == n)]
        assert got == expected
        assert all(type(v) is F and math.gcd(v.numerator, v.denominator) == 1 for _, v in got)
        # built on demand: the table keeps its integers, not these lists
        assert table.part((1, 1), n) is not got
    for terms in [*table._images.values(), *table._parts.values()]:
        assert all(type(num) is int and type(den) is int for _, num, den in terms)
    # a part that is the whole image is the image's own list
    assert table._terms((1, 1), None) is table.image((1, 1))


def test_return_table_is_released_once_every_block_is_set_up():
    for seed in SEEDS:
        ri = random_instance(seed)
        if max(map(len, ri.ext.base.cycles)) > 1:
            break
    else:
        raise AssertionError("no seed has a cycle longer than one point")
    plan = plan_taylor(ri.ext, ri.spec, ri.n_taylor, ri.alpha)
    assert plan.validation.passed
    systems = [system for _, cycle_systems in plan.systems.values() for _, system in cycle_systems]
    long = [s for s in systems if len(s.steps) > 1]
    fixed = [s for s in systems if len(s.steps) == 1]
    tables = {id(s.ret[1]): s.ret[1] for s in long}
    rows = [nfm._i_minus_m(s.span, *s.ret) for s in long]
    refs = [weakref.ref(t) for t in tables.values()]
    del tables
    for system in systems:
        system.set_up()
    gc.collect()
    assert all(ref() is None for ref in refs)
    # the return pair still assembles the same rows on its fresh table
    assert [nfm._i_minus_m(s.span, *s.ret) for s in long] == rows
    # a fixed point's return pair is its step pair, which the steps keep
    assert all(s.ret is s.steps[0] for s in fixed)

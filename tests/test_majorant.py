"""The coefficient majorants bound what they claim to bound: m_G the sup
norm of G on a sup-ball, Lambda_G its Lipschitz constant there, and the
contraction certificate |F_x(t)|_2 / |t|_2 on the sigma-ball, on random
maps (exactly, in rational arithmetic) and on the shipped instances."""

import math
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nsnf import majorant
from nsnf.instance import load_instance
from nsnf.polymap import GradedDims
from nsnf.rand_instances import random_instance

from strategies import endo_poly_maps

INSTANCES = Path(__file__).resolve().parent.parent / "instances"
SHIPPED = sorted(p.name for p in INSTANCES.glob("*.json"))
DIMS_POOL = [GradedDims([1]), GradedDims([1, 1]), GradedDims([2]), GradedDims([1, 2])]
# the bounds are evaluated in binary64; the maps exactly or in binary64
SLACK = 1 + 1e-9


def _m(pmap, r):
    return float(majorant.at(majorant.table([majorant.sup_bound(pmap)]), r))


def _lam(pmap, r):
    return float(majorant.at(majorant.table([majorant.lipschitz_bound(pmap)]), r))


def _certificate(pmap, sigma):
    """The contraction certificate of `validate_extension`."""
    return majorant.norm2(pmap.linear_matrix()) + majorant.ball_tail(pmap, sigma)


def _sup(v):
    return max(abs(c) for c in v)


def _norm2(v):
    return float(sum(c * c for c in v)) ** 0.5


radii = st.sampled_from([F(1, 50), F(1, 4), F(1), F(3, 2)])
unit = st.fractions(min_value=-1, max_value=1, max_denominator=64)


def _point(data, n, r, corner):
    """A point of the sup-ball of radius r: a corner, or any point."""
    if corner:
        return [r * data.draw(st.sampled_from([-1, 1])) for _ in range(n)]
    return [r * data.draw(unit) for _ in range(n)]


@given(st.sampled_from(DIMS_POOL), radii, st.booleans(), st.data())
def test_sup_bound_holds_on_the_sup_ball(dims, r, corner, data):
    pmap = data.draw(endo_poly_maps(dims, 3))
    t = _point(data, dims.total, r, corner)
    assert float(_sup(pmap.evaluate(t))) <= _m(pmap, float(r)) * SLACK


@given(st.sampled_from(DIMS_POOL), radii, st.booleans(), st.data())
def test_lipschitz_bound_holds_on_the_sup_ball(dims, r, corner, data):
    pmap = data.draw(endo_poly_maps(dims, 3))
    t = _point(data, dims.total, r, corner)
    u = _point(data, dims.total, r, False)
    gap = _sup([a - b for a, b in zip(t, u)])
    if gap:
        change = _sup([a - b for a, b in zip(pmap.evaluate(t), pmap.evaluate(u))])
        assert float(change / gap) <= _lam(pmap, float(r)) * SLACK


@given(st.sampled_from(DIMS_POOL), radii, st.data())
def test_certificate_holds_on_the_sigma_ball(dims, sigma, data):
    pmap = data.draw(endo_poly_maps(dims, 3))
    raw = [data.draw(unit) for _ in range(dims.total)]
    size = _norm2(raw)
    if size:
        # a point of the Euclidean ball of radius sigma, up to one rounding
        scale = sigma * data.draw(st.sampled_from([F(1), F(1, 2), F(1, 9)])) / F(size)
        t = [scale * c for c in raw]
        ratio = _norm2(pmap.evaluate(t)) / _norm2(t)
        assert ratio <= _certificate(pmap, float(sigma)) * SLACK


def _sample(rng, n, count, radius, norm, corners=0):
    """Points with sup (norm=inf) or Euclidean (norm=2) norm at most the
    radius; with norm=inf the first `corners` are corners of the ball."""
    raw = rng.uniform(-1.0, 1.0, (count, n))
    if norm == 2:
        raw /= np.maximum(np.linalg.norm(raw, axis=1, keepdims=True), 1.0)
    raw[:corners] = np.sign(raw[:corners])
    return radius * raw


@pytest.mark.parametrize("name", SHIPPED)
def test_bounds_hold_on_the_shipped_fibers(name):
    inst = load_instance(str(INSTANCES / name))
    rng = np.random.default_rng(0)
    maps = list(inst.ext.fibers)
    if inst.commuting is not None:
        maps += inst.commuting.fibers
    sigma = inst.ext.sigma
    for pmap in maps:
        fmap = pmap.to_float()
        n = pmap.source.total
        for r in (sigma, sigma / 8):
            t = _sample(rng, n, 200, r, np.inf, corners=50)
            u = _sample(rng, n, 200, r, np.inf)
            gt, gu = fmap.evaluate_batch(t), fmap.evaluate_batch(u)
            assert np.abs(gt).max() <= _m(pmap, r) * SLACK
            ratios = np.abs(gt - gu).max(axis=1) / np.abs(t - u).max(axis=1)
            assert ratios.max() <= _lam(pmap, r) * SLACK
        t = _sample(rng, n, 400, sigma, 2)
        ratios = np.linalg.norm(fmap.evaluate_batch(t), axis=1) / np.linalg.norm(t, axis=1)
        assert ratios.max() <= _certificate(pmap, sigma) * SLACK


def _term_loop_tail(pmap, radius):
    """The certificate tail as a loop over terms: each |c| scaled by
    radius^(k-1), then added to its coordinate in the map's order."""
    coord_sums = [0.0] * pmap.target.total
    for (coord, exps), value in pmap.coeffs.items():
        if sum(exps) >= 2:
            coord_sums[coord] += abs(float(value)) * radius ** (sum(exps) - 1)
    square = 0.0
    for coord_sum in coord_sums:
        square += coord_sum * coord_sum
    return math.sqrt(square)


@pytest.mark.parametrize("radius", [0.3, 0.7, 0.1, F(3, 10), 0.25])
def test_ball_tail_keeps_the_term_loops_bits(radius):
    """Summing each coordinate by degree first rounds differently unless the
    radius is a power of two: at 0.3, fiber 4 of random_instance(0) reads
    0.10124999999999998 term by term and 0.10124999999999999 by degree."""
    for seed in range(12):
        for pmap in random_instance(seed).ext.fibers:
            assert majorant.ball_tail(pmap, radius) == _term_loop_tail(pmap, radius)


def test_table_keeps_each_points_low():
    polys = [np.array([0.0, 0.0, 3.0, 1.0]), np.array([0.0, 2.0, 0.0, 0.0, 5.0, 0.0]), np.zeros(3)]
    poly = majorant.table(polys)
    low, coeffs, forms = poly
    assert low == 1 and coeffs.shape == (4, 3) and not coeffs[:, 2].any()
    assert forms == [(2, [3.0, 1.0]), (1, [2.0, 0.0, 0.0, 5.0]), (0, [])]
    r = np.array([0.5, 0.25, 0.125, 2.0])
    for y, c in enumerate(polys):
        assert np.allclose(majorant.at(poly, r, y), np.polynomial.polynomial.polyval(r, c), rtol=1e-15, atol=0)
    # Horner's rule from the point's own lowest degree, then r^low
    assert majorant.at(poly, r, 0).tobytes() == ((r + 3.0) * (r * r)).tobytes()
    assert majorant.at(poly, r, 2).tobytes() == (0.0 * r).tobytes()
    # each entry through its point's row of the table, from the shared low
    ys = np.array([[0, 1, 2, 1], [2, 0, 0, 1]])
    got = majorant.at_each(poly, np.tile(r, (2, 1)), ys)
    want = [np.polynomial.polynomial.polyval(r, c) for c in polys]
    for i, j in np.ndindex(ys.shape):
        assert np.isclose(got[i, j], want[ys[i, j]][j], rtol=1e-15, atol=0)
    # a table of one is its point's majorant
    one = majorant.table(polys[:1])
    assert one[0] == 2 and majorant.at_each(one, r, np.zeros(4, int)).tobytes() == majorant.at(one, r).tobytes()


def test_compose_top_and_power():
    outer, inner = np.array([0.0, 1.0, 2.0]), np.array([0.0, 3.0, 1.0])
    # outer(inner(r)) = (3r + r^2) + 2 (3r + r^2)^2
    composed = majorant.compose(outer, inner)
    assert np.trim_zeros(composed, "b").tolist() == [0.0, 3.0, 19.0, 12.0, 2.0]
    assert majorant.top([outer, inner]).tolist() == [0.0, 3.0, 2.0]
    assert majorant.top([outer, inner], np.add).tolist() == [0.0, 4.0, 3.0]
    assert majorant.top([outer[3:], inner[3:]]).tolist() == [0.0]
    assert majorant.power(np.array([3.0, 1.5]), np.array([2.0, 0.5]), 5).tolist() == [96.0, 1.5 / 32]
    assert majorant.power(3.0, 2.0, 0) == 3.0

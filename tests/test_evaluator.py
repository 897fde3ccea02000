"""Invariance-limit evaluation: convergence, conjugacy residuals, and
contact order against the Taylor jet (with a higher-degree build as oracle)."""

import math
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from nsnf.evaluator import EvalConfig, EvalError, Evaluator
from nsnf.instance import load_instance
from nsnf.normal_form import build_taylor
from nsnf.rand_instances import random_instance

from fixtures import (
    SPEC21,
    scalar_extension,
    strictsub_extension,
    three_cycle_extension,
    worked_extension,
)
from oracles import pointwise_limit

INSTANCES = Path(__file__).resolve().parent.parent / "instances"


def _worked_eval(n_taylor=3, alpha=0, **cfg):
    ext = worked_extension("float")
    nf = build_taylor(ext, SPEC21, n_taylor, alpha)
    return Evaluator(nf, EvalConfig(**cfg) if cfg else None)


def test_zero_section_fixed():
    ev = _worked_eval()
    res = ev.eval_h(0, (0.0, 0.0))
    assert res.value == (0.0, 0.0)
    assert res.iterations == 0
    assert res.converged


def test_linear_extension_is_identity():
    ext = strictsub_extension("float")
    nf = build_taylor(ext, SPEC21, 2, 1, force=True)
    ev = Evaluator(nf)
    t = (0.01, -0.03)
    res = ev.eval_h(0, t)
    assert res.converged
    assert max(abs(a - b) for a, b in zip(res.value, t)) < 1e-14
    assert ev.residual(0, t) < 1e-12
    fit = ev.order_of_contact(0, (1.0, 1.0))
    assert fit.degenerate


def test_worked_residuals_and_one_step_invariance():
    ev = _worked_eval()
    stats = ev.residual_stats(seed=5, samples=100)
    assert stats.max_residual <= 10 * ev.cfg.tol
    assert stats.max_one_step_gap <= 10 * ev.cfg.tol
    assert stats.max_iterations <= ev.cfg.k_max


def test_residual_stats_deterministic():
    ev = _worked_eval()
    a = ev.residual_stats(seed=9, samples=40)
    b = ev.residual_stats(seed=9, samples=40)
    assert a == b


def test_increment_ratio_within_certificate():
    ev = _worked_eval()
    stats = ev.residual_stats(seed=2, samples=60)
    assert stats.max_increment_ratio is not None
    assert stats.max_increment_ratio <= 2 * stats.cert_ratio
    # the certificate composes trajectory decay with inverse growth
    expected = float(ev.ext.xi) ** 4 * math.exp(2.0 + 0.2)
    assert abs(stats.cert_ratio - expected) < 1e-12


def test_gap_halves_like_next_order():
    ev = _worked_eval()
    d = (1.0, 1.0)
    norm = math.sqrt(2.0)
    r = 0.04
    gaps = []
    for radius in (r, r / 2):
        t = tuple(radius * c / norm for c in d)
        limit = ev.eval_h(0, t).value
        jet = ev.eval_taylor(0, t)
        gaps.append(max(abs(a - b) for a, b in zip(limit, jet)))
    ratio = gaps[1] / gaps[0]
    # contact order N+1 = 4: halving the radius shrinks the gap by ~2^-4
    assert 2.0 ** (-4) / 2 <= ratio <= 2.0 ** (-4) * 2


def test_limit_matches_higher_degree_build():
    ext = worked_extension("float")
    low = Evaluator(build_taylor(ext, SPEC21, 3, 0))
    high = build_taylor(ext, SPEC21, 5, 0)
    t = (0.02, 0.03)
    limit = low.eval_h(0, t).value
    rich = high.h_taylor[0].evaluate(t)
    gap_limit = max(abs(a - b) for a, b in zip(limit, low.eval_taylor(0, t)))
    gap_jets = max(abs(a - b) for a, b in zip(rich, low.eval_taylor(0, t)))
    # degree-4..5 terms dominate the limit-vs-jet gap
    assert abs(gap_limit - gap_jets) <= 0.1 * gap_jets + 1e-10


def test_order_of_contact_worked_n3():
    ev = _worked_eval()
    fit = ev.order_of_contact(0, (1.0, 1.0))
    assert not fit.degenerate
    assert 3.5 <= fit.slope <= 4.5


def test_order_of_contact_worked_n2():
    ev = _worked_eval(n_taylor=2, alpha=1)
    fit = ev.order_of_contact(0, (1.0, 1.0))
    assert not fit.degenerate
    assert 2.5 <= fit.slope <= 3.5


@pytest.mark.parametrize(
    "radii, named",
    [
        ([0.01, 0.01], r"\[0\.01, 0\.01\]"),
        ([0.02, 0.01, 0.02], r"\[0\.02, 0\.02\]"),
        ([0.01, -0.01], r"\[-0\.01\]"),
        ([0.0, 0.01], r"\[0\.0\]"),
        ([float("nan"), 0.01], r"\[nan\]"),
        ([float("inf"), 0.01], r"\[inf\]"),
    ],
)
def test_order_of_contact_refuses_bad_radii(radii, named):
    # equal radii made the least-squares fit divide by zero, and a radius
    # that is not positive failed in math.log
    ev = _worked_eval()
    with pytest.raises(ValueError, match=rf"^radii must be positive, finite and distinct, got {named}$"):
        ev.order_of_contact(0, (1.0, 1.0), radii=radii)


def test_order_of_contact_scalar():
    ext, spec = scalar_extension("float")
    ev = Evaluator(build_taylor(ext, spec, 2, 0))
    fit = ev.order_of_contact(0, (1.0,))
    assert not fit.degenerate
    assert 2.5 <= fit.slope <= 3.5


def test_three_cycle_rational_build_evaluates():
    ext = three_cycle_extension()
    nf = build_taylor(ext, SPEC21, 3, 0)
    ev = Evaluator(nf)  # converts to float internally
    stats = ev.residual_stats(seed=1, samples=30)
    assert stats.max_residual <= 10 * ev.cfg.tol


def test_radius_guard_and_config_validation():
    ev = _worked_eval()
    with pytest.raises(ValueError, match="radius"):
        ev.eval_h(0, (0.2, 0.0))
    with pytest.raises(ValueError):
        EvalConfig(tol=0.0)
    with pytest.raises(ValueError, match="certified ball"):
        Evaluator(ev.nf, EvalConfig(radius=0.3))


def test_nonconvergence_raises():
    ev = _worked_eval()
    with pytest.raises(EvalError, match="no convergence"):
        ev.eval_h(0, (0.04, 0.04), EvalConfig(tol=1e-12, k_max=2, radius=0.05))


def _shipped_eval(name):
    inst = load_instance(str(INSTANCES / name))
    nf = build_taylor(
        inst.ext,
        inst.spec,
        inst.n_taylor,
        inst.alpha,
        lift=inst.options.lift_strategy(),
        force=inst.options.force,
    )
    return Evaluator(nf, inst.options.eval_config())


def _random_eval(seed):
    ri = random_instance(seed)
    return Evaluator(build_taylor(ri.ext, ri.spec, ri.n_taylor, ri.alpha))


ORACLE_CASES = {
    "worked_2block": lambda: _shipped_eval("worked_2block.json"),
    "three_cycle": lambda: _shipped_eval("three_cycle.json"),
    # one fiber map is linear: some first increments fall below tol, and
    # the certified stop holds those rows to their k*
    "random_23": lambda: _random_eval(23),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_limits_match_pointwise_oracle(case):
    ev = ORACLE_CASES[case]()
    xs, points = ev.sample_points(seed=3, samples=60, radius=ev.cfg.radius)
    xs = np.append(xs, 0)
    points = np.vstack([points, np.zeros(points.shape[1])])  # the zero point
    lim = ev.limits(xs, points)
    for i, (x, t) in enumerate(zip(xs.tolist(), points)):
        value, k, increments = pointwise_limit(ev, x, t, ev.cfg)
        assert lim.iterations[i] == k
        assert max(abs(a - b) for a, b in zip(lim.values[i], value)) <= 1e-15
        assert np.all(np.abs(lim.increments[:k, i] - increments) <= 1e-15)
        assert np.isnan(lim.increments[k:, i]).all()
    steps = set(lim.iterations[:-1].tolist())
    assert lim.iterations[-1] == 0
    if case == "random_23":
        early = lim.increments[0, :-1] < ev.cfg.tol
        assert early.any() and (lim.iterations[:-1][early] > 1).all()
        assert len(steps) > 1


def test_kmax_exhaustion_names_first_failing_sample():
    ev = _shipped_eval("three_cycle.json")
    cfg = EvalConfig(tol=ev.cfg.tol, k_max=9, radius=ev.cfg.radius)
    xs, points = ev.sample_points(seed=15, samples=40, radius=cfg.radius)
    # residual_stats draws the limit at (x, t), then at (f(x), F_x(t))
    failing = []
    for x, t in zip(xs.tolist(), points):
        there = (ev.base.image(x), ev.ext.fiber(x).evaluate(tuple(t)))
        for y, s in ((x, t), there):
            value, _, increments = pointwise_limit(ev, y, s, cfg)
            if value is None:
                failing.append((y, increments[-1]))
    assert failing and failing[0][0] != xs[0]  # not simply the first sample's point
    x, last = failing[0]
    with pytest.raises(EvalError) as err:
        Evaluator(ev.nf, cfg).residual_stats(seed=15, samples=40)
    assert str(err.value).startswith(
        f"no convergence within 9 iterations at point {x}; last increment {last:.3e}"
    )


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_survey_matches_separate_calls(case):
    ev = ORACLE_CASES[case]()
    n = ev.ext.dims.total
    direction = [1.0 / math.sqrt(n)] * n
    rays = [(x, direction) for x in range(ev.base.p)]
    stats, fits = ev.survey(4, 200, rays)  # residual rows and ray rows in one batch
    alone = ev.residual_stats(seed=4, samples=200)
    assert (stats.samples, stats.seed, stats.max_iterations, stats.cert_ratio) == (
        alone.samples,
        alone.seed,
        alone.max_iterations,
        alone.cert_ratio,
    )
    for got, want in [
        (stats.max_residual, alone.max_residual),
        (stats.mean_residual, alone.mean_residual),
        (stats.max_one_step_gap, alone.max_one_step_gap),
        (stats.max_increment_ratio, alone.max_increment_ratio),
    ]:
        assert got == pytest.approx(want, rel=1e-9, abs=1e-15)
    assert len(fits) == ev.base.p
    for x, fit in enumerate(fits):
        ref = ev.order_of_contact(x, direction)
        assert fit.radii == ref.radii
        assert fit.degenerate == ref.degenerate
        assert np.allclose(fit.gaps, ref.gaps, rtol=0.0, atol=1e-15)
        if not fit.degenerate:
            assert fit.slope == pytest.approx(ref.slope, rel=1e-6)
            assert fit.intercept == pytest.approx(ref.intercept, rel=1e-6)
    assert len({fit.gaps for fit in fits}) == len(fits)  # each base point has its own rays

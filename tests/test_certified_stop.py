"""The evaluator's certified stop: each row runs at least to the first step
whose tail bound is below tol/10, the bound holds against a later iterate,
and the 10*tol residual gate holds on random instances in both modes."""

from pathlib import Path

import numpy as np
import pytest

from nsnf.evaluator import EvalConfig, EvalError, Evaluator
from nsnf.instance import load_instance
from nsnf.normal_form import build_taylor
from nsnf.polymap import FLOAT, RATIONAL
from nsnf.rand_instances import random_instance

INSTANCES = Path(__file__).resolve().parent.parent / "instances"


def _evaluator(seed, mode=RATIONAL, cfg=None):
    ri = random_instance(seed)
    ext = ri.ext if mode == RATIONAL else ri.ext.to_float()
    return Evaluator(build_taylor(ext, ri.spec, ri.n_taylor, ri.alpha), cfg)


@pytest.mark.parametrize("seed", [17, 23, 153, 293])
def test_early_stop_seeds_pass_the_gate(seed):
    """Seeds whose increments fall below tol long before the limit is
    reached: with rows stopped at their first small increment, all four
    fail this gate (residuals 4.0e-9, 5.7e-8, 1.4e-11 and 2.1e-9)."""
    ev = _evaluator(seed)
    stats = ev.residual_stats(seed=0, samples=300)
    assert stats.max_residual <= 10 * ev.cfg.tol
    assert 0.0 < stats.max_bound < ev.cfg.tol / 10
    assert stats.max_k_star <= stats.max_iterations <= ev.cfg.k_max


@pytest.mark.parametrize("seed", [17, 23, 45])
def test_bound_holds_against_a_later_iterate(seed):
    ev = _evaluator(seed)
    xs, points = ev.sample_points(seed=1, samples=100, radius=ev.cfg.radius)
    loose = ev.limits(xs, points, EvalConfig(tol=1e-7))
    tight = ev.limits(xs, points, EvalConfig(tol=1e-13))
    assert (loose.bounds < 1e-8).all() and (tight.bounds < 1e-14).all()
    assert (tight.iterations > loose.iterations).any()
    gap = np.abs(loose.values - tight.values).max(axis=1)
    assert (gap <= loose.bounds + tight.bounds + 1e-15).all()


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
def test_seed_window_passes_the_gate(mode):
    for seed in range(50):
        ev = _evaluator(seed, mode)
        stats = ev.residual_stats(seed=0, samples=60)
        assert stats.max_residual <= 10 * ev.cfg.tol, seed
        assert stats.max_bound < ev.cfg.tol / 10, seed


def test_rows_stop_no_earlier_than_their_k_star():
    ev = _evaluator(23)
    xs, points = ev.sample_points(seed=3, samples=80, radius=ev.cfg.radius)
    lim = ev.limits(xs, points)
    assert (lim.iterations >= lim.k_star).all()
    assert (lim.bounds < ev.cfg.tol / 10).all()
    # a row's stop does not depend on the rest of its batch
    for i in range(0, len(xs), 9):
        alone = ev.limits(xs[i : i + 1], points[i : i + 1])
        assert alone.iterations[0] == lim.iterations[i]
        assert alone.k_star[0] == lim.k_star[i] == ev.certified_stop(int(xs[i]), points[i])


def test_uncertified_row_is_named():
    ev = _evaluator(17, cfg=EvalConfig(k_max=4))
    xs, points = ev.sample_points(seed=0, samples=20, radius=ev.cfg.radius)
    with pytest.raises(EvalError, match=r"^no convergence within 4 iterations at point \d+; .*certified bound"):
        ev.limits(xs, points)
    assert ev.certified_stop(int(xs[0]), points[0]) is None


def test_zero_point_needs_no_steps():
    ev = _evaluator(23)
    lim = ev.limits([0], [[0.0] * ev.ext.dims.total])
    assert (lim.iterations[0], lim.k_star[0], lim.bounds[0]) == (0, 0, 0.0)
    assert ev.certified_stop(0, [0.0] * ev.ext.dims.total) == 0


@pytest.mark.parametrize("name", ["strictsub_linear.json", "strictsub_linear_rational.json"])
def test_empty_defect_needs_no_steps(name):
    """Forced linear builds: H and P are linear, so the defect has no terms
    above N and every bound is 0, although |L_F|_2 > 1 leaves the far tail
    no contraction to sum."""
    inst = load_instance(str(INSTANCES / name))
    nf = build_taylor(inst.ext, inst.spec, inst.n_taylor, inst.alpha, force=True)
    ev = Evaluator(nf, EvalConfig(radius=inst.options.radius))
    xs, points = ev.sample_points(seed=0, samples=50, radius=ev.cfg.radius)
    lim = ev.limits(xs, points)
    assert (lim.bounds == 0.0).all() and (lim.k_star == 0).all()
    assert ev.certified_stop(int(xs[0]), points[0]) == 0


def test_nan_bound_certifies_no_step():
    """With k_max = 3 at the whole sigma-ball the stop evaluates majorants
    where the far tail does not apply, and some bounds come out NaN; a NaN
    bound is no bound, so no row of the sample is certified."""
    inst = load_instance(str(INSTANCES / "worked_2block.json"))
    nf = build_taylor(inst.ext, inst.spec, inst.n_taylor, inst.alpha)
    sigma = float(inst.ext.sigma)
    ev = Evaluator(nf, EvalConfig(radius=sigma, k_max=3))
    xs, points = ev.sample_points(seed=0, samples=200, radius=sigma)
    assert all(ev.certified_stop(int(x), t) is None for x, t in zip(xs, points))

"""The bulk ball sampler against the per-sample loop it replaces, byte for
byte: rejections of randrange, the gauss pair cache across samples, the
word order of getrandbits and the top-up of the word stream."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsnf.evaluator import Evaluator, ball_sample
from nsnf.normal_form import build_taylor

from fixtures import SPEC21, three_cycle_extension
from oracles import ball_sample_loop


def _same_bytes(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@settings(max_examples=300)
@given(
    seed=st.integers(0, 2**64),
    p=st.integers(1, 9),  # every p but a power of two rejects some words; p = 1 half of them
    n=st.integers(1, 8),  # odd n carries a cached normal from one sample to the next
    samples=st.integers(0, 60),
    radius=st.floats(1e-6, 1.0),
)
def test_ball_sample_matches_loop(seed, p, n, samples, radius):
    _same_bytes(ball_sample(seed, p, n, samples, radius), ball_sample_loop(seed, p, n, samples, radius))


@pytest.mark.parametrize("seed, p, n", [(0, 2, 2), (11, 3, 3), (5, 7, 1), (2, 1, 5)])
def test_ball_sample_matches_loop_at_1000_samples(seed, p, n):
    _same_bytes(ball_sample(seed, p, n, 1000, 0.05), ball_sample_loop(seed, p, n, 1000, 0.05))


@pytest.mark.parametrize("seed", range(4))
def test_ball_sample_tops_up_its_words(seed):
    # randrange(1) rejects half its words and the first draw has room for
    # none, so 100 samples outrun it
    _same_bytes(ball_sample(seed, 1, 3, 100, 0.05), ball_sample_loop(seed, 1, 3, 100, 0.05))


def test_sample_points_is_the_loop_on_a_build():
    ev = Evaluator(build_taylor(three_cycle_extension(), SPEC21, 3, 0))
    got = ev.sample_points(seed=8, samples=200, radius=0.04)
    _same_bytes(got, ball_sample_loop(8, ev.base.p, ev.ext.dims.total, 200, 0.04))


def test_ball_sample_refuses_bad_base_sizes():
    with pytest.raises(ValueError):
        ball_sample(0, 0, 2, 10, 0.05)
    with pytest.raises(ValueError):
        ball_sample(0, 2**32, 2, 10, 0.05)

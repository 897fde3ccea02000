"""Machine speed, measured between jobs, to scale timings to one speed.

The benchmark runs on shared virtual CPUs whose speed changes by up to
about 1.5x, for seconds to minutes at a time.  `process_time` follows wall
time, so the CPU itself is slower, not shared out.  Between jobs the
benchmark runs a fixed kernel that does not use nsnf and times it; a job's
time is then scaled by REFERENCE_S over the kernel's time around the job.
A scaled time is the time the job would take on a machine where one kernel
call takes REFERENCE_S seconds.  A change to nsnf moves the job's time and
not the kernel's, so it moves the scaled time by the same factor.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

# Seconds one kernel call took at the speed this scale refers to: the
# median over a minute on a 2-vCPU shared VM (Python 3.11.7).
REFERENCE_S = 0.009
# Calibration after a job lasts this share of the job's time, and at least
# MIN_WINDOW_S, so that it samples the speed the job ran at.
WINDOW_SHARE = 0.15
MIN_WINDOW_S = 0.03


def kernel() -> dict:
    """Product of two sparse 4-variable polynomials with ~150-bit Fraction
    coefficients: the big-integer, tuple-keyed dict work of nsnf's exact
    Taylor build, without nsnf."""
    rng = random.Random(7)

    def poly(terms: int) -> dict:
        return {
            tuple(rng.randrange(3) for _ in range(4)): Fraction(
                rng.getrandbits(150) - (1 << 149), rng.getrandbits(150) | 1
            )
            for _ in range(terms)
        }

    a, b = poly(30), poly(30)
    out: dict = {}
    for ea, x in a.items():
        for eb, y in b.items():
            key = tuple(i + j for i, j in zip(ea, eb))
            out[key] = out.get(key, 0) + x * y
    return out


def sample(window: float) -> float:
    """Mean seconds per kernel call over at least `window` seconds."""
    calls = 0
    start = time.perf_counter()
    end = start + window
    while True:
        kernel()
        calls += 1
        now = time.perf_counter()
        if now >= end:
            return (now - start) / calls


def window_after(seconds: float) -> float:
    return max(MIN_WINDOW_S, WINDOW_SHARE * seconds)


def scaled(seconds: float, before: float, after: float) -> float:
    """`seconds` at the reference speed, given kernel times around it."""
    return seconds * REFERENCE_S / ((before + after) / 2)

"""Concrete extensions reused across the test suite."""

from __future__ import annotations

import importlib.util
import math
import sys
from fractions import Fraction as F
from pathlib import Path

from nsnf.base import Extension, FiniteBase
from nsnf.polymap import FLOAT, RATIONAL, GradedDims, PolyMap
from nsnf.spectrum import SpectrumSpec

D11 = GradedDims([1, 1])
SPEC21 = SpectrumSpec([F(-2), F(-1)], F(1, 5))


def worked_extension(mode: str = FLOAT) -> Extension:
    """Fixed point, two one-dimensional blocks:
    F(t) = (a t1 + t2^2, b t2 + t1 t2) with a ~ e^-2, b ~ e^-1."""
    if mode == FLOAT:
        a, b, one = math.exp(-2.0), math.exp(-1.0), 1.0
    else:
        a, b, one = F(27, 200), F(46, 125), F(1)
    fiber = PolyMap(
        D11,
        D11,
        2,
        mode,
        {(0, (1, 0)): a, (0, (0, 2)): one, (1, (0, 1)): b, (1, (1, 1)): one},
    )
    return Extension(FiniteBase([0]), D11, [fiber], sigma=0.25, xi=0.95, mode=mode)


def scalar_extension(mode: str = FLOAT) -> tuple[Extension, SpectrumSpec]:
    """Single block: F(t) = a t + t^2 with a ~ e^-1."""
    dims = GradedDims([1])
    a = math.exp(-1.0) if mode == FLOAT else F(46, 125)
    one = 1.0 if mode == FLOAT else F(1)
    fiber = PolyMap(dims, dims, 2, mode, {(0, (1,)): a, (0, (2,)): one})
    ext = Extension(FiniteBase([0]), dims, [fiber], sigma=0.25, xi=0.95, mode=mode)
    return ext, SpectrumSpec([F(-1)], F(1, 4))


def strictsub_extension(mode: str = FLOAT) -> Extension:
    """Purely linear fibers with a strict flag-triangular coupling:
    F(t) = (a t1 + t2, b t2).  Fails block-diagonal validation on purpose."""
    if mode == FLOAT:
        a, b, one = math.exp(-2.0), math.exp(-1.0), 1.0
    else:
        a, b, one = F(27, 200), F(46, 125), F(1)
    fiber = PolyMap(
        D11, D11, 1, mode, {(0, (1, 0)): a, (0, (0, 1)): one, (1, (0, 1)): b}
    )
    return Extension(FiniteBase([0]), D11, [fiber], sigma=0.25, xi=0.95, mode=mode)


def three_cycle_extension() -> Extension:
    """Rational three-cycle with varying in-band rates and sparse quadratics."""
    rates0 = [F(27, 200), F(31, 250), F(14, 100)]   # near e^-2
    rates1 = [F(46, 125), F(7, 20), F(39, 100)]     # near e^-1
    fibers = []
    for x in range(3):
        coeffs = {
            (0, (1, 0)): rates0[x],
            (1, (0, 1)): rates1[x],
            (0, (0, 2)): F(1, 2 + x),
            (1, (1, 1)): F(1, 3 + x),
        }
        fibers.append(PolyMap(D11, D11, 2, RATIONAL, coeffs))
    return Extension(FiniteBase([1, 2, 0]), D11, fibers, sigma=0.25, xi=0.95)


def workloads_module(monkeypatch):
    """The benchmark's `perfbench/workloads.py`, imported by path for the
    length of one test."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    return workloads

"""Metamorphic checks from the uniqueness theorem: transformations of the
input whose effect on the conjugacy H and the normal form P the theorem
predicts, over the seeded random instances in rational mode (relabelling
also in float).

- Relabelling the base points relabels H and P and changes nothing else.
- Conjugating the fibers by a sub-resonance family G changes H by a
  sub-resonance transition: H'_x o G_x o H_x^-1 is sub-resonance.
- The q-step return map is a stationary problem whose build H^q differs
  from H by a sub-resonance transition.

Transitions are compared as jets to the Taylor degree N: above the degree
bound d every type is non-sub-resonance, so there they must vanish.
"""

import math
import random
from fractions import Fraction as F

import pytest

from nsnf.base import Extension, FiniteBase, power_extension, validate_extension
from nsnf.normal_form import build_taylor
from nsnf.polymap import (
    PolyMap,
    class_basis,
    compose,
    identity_map,
    invert,
    is_in_class,
)
from nsnf.rand_instances import random_instance
from nsnf.spectrum import SUB_RESONANCE, SpectrumSpec, TypeClass, degree_bound

SEEDS = range(50)
# the one tolerance of the float checks
FLOAT_TOL = 1e-9


def _build(ri, ext=None, spec=None):
    return build_taylor(ext or ri.ext, spec or ri.spec, ri.n_taylor, ri.alpha)


def _relabelled(ext, pi):
    """The extension with base map pi o f o pi^-1 and F'_{pi(x)} = F_x."""
    perm, fibers = [0] * ext.base.p, [None] * ext.base.p
    for x in range(ext.base.p):
        perm[pi[x]] = pi[ext.base.image(x)]
        fibers[pi[x]] = ext.fiber(x)
    return Extension(FiniteBase(perm), ext.dims, fibers, ext.sigma, ext.xi)


def _shuffled(seed, p):
    pi = list(range(p))
    random.Random(seed).shuffle(pi)
    return pi


def _transitions(h_new, g, h_old, n):
    """H'_x o G_x o H_x^-1 to degree n at every point."""
    return [compose(hn, compose(gx, invert(ho, n), n), n) for hn, gx, ho in zip(h_new, g, h_old)]


def _sub_resonance_family(ri, rng):
    """G_x = Id + each sub-resonance monomial of degree 2..d with
    probability 1/2, valued +-1/32."""
    dims, d = ri.ext.dims, degree_bound(ri.spec)
    family = []
    for _ in range(ri.ext.base.p):
        coeffs = {}
        for degree in range(2, d + 1):
            for key in class_basis(ri.spec, dims, degree, SUB_RESONANCE):
                if rng.random() < 0.5:
                    coeffs[key] = F(rng.choice((-1, 1)), 32)
        extra = PolyMap(dims, dims, ri.n_taylor, ri.ext.mode, coeffs)
        family.append(identity_map(dims, ri.n_taylor, ri.ext.mode).add(extra))
    return family


def _conjugated(ext, g, cap):
    """Fibers F'_x = G_{f(x)} o F_x o G_x^-1, truncated at the cap."""
    fibers = [
        compose(g[ext.base.image(x)], compose(ext.fiber(x), invert(g[x], cap), cap), cap)
        for x in range(ext.base.p)
    ]
    return Extension(ext.base, ext.dims, fibers, ext.sigma, ext.xi)


@pytest.mark.parametrize("seed", SEEDS)
def test_relabelled_base_relabels_the_build(seed):
    ri = random_instance(seed)
    pi = _shuffled(seed, ri.ext.base.p)
    for ext in (ri.ext, ri.ext.to_float()):
        nf = _build(ri, ext)
        moved = _build(ri, _relabelled(ext, pi))
        for x in range(ext.base.p):
            pairs = [
                (moved.h_taylor[pi[x]], nf.h_taylor[x]),
                (moved.p_poly(pi[x]), nf.p_poly(x)),
            ]
            for new, old in pairs:
                if ext.mode == "rational":
                    assert new == old
                else:
                    assert new.sub(old).max_abs() <= FLOAT_TOL * max(1.0, old.max_abs())


def _conjugated_transitions(ri, g, g_check=None):
    """H'_x o G_x o H_x^-1 with H' built on the input conjugated by g; G
    is `g_check` when given, else g."""
    ext = _conjugated(ri.ext, g, ri.n_taylor)
    assert validate_extension(ext, ri.spec, ri.n_taylor, ri.alpha).passed
    h_new, h_old = _build(ri, ext).h_taylor, _build(ri).h_taylor
    return _transitions(h_new, g_check or g, h_old, ri.n_taylor)


@pytest.mark.parametrize("seed", SEEDS)
def test_conjugated_input_moves_h_by_a_sub_resonance_transition(seed):
    ri = random_instance(seed)
    g = _sub_resonance_family(ri, random.Random(seed))
    for t in _conjugated_transitions(ri, g):
        assert is_in_class(t, ri.spec, SUB_RESONANCE)


@pytest.mark.parametrize("seed", SEEDS)
def test_conjugation_check_catches_a_non_sub_resonance_term(seed):
    """Negative control: G_0 with one non-sub-resonance degree-2 term added
    fails the check.  The term enters the check only: conjugating the input
    by it too would give H' o G another conjugacy of F to a normal form,
    which the theorem again makes a sub-resonance transition away from H."""
    ri = random_instance(seed)
    dims = ri.ext.dims
    g = _sub_resonance_family(ri, random.Random(seed))
    key = class_basis(ri.spec, dims, 2, {TypeClass.NON_SUB})[0]
    term = PolyMap(dims, dims, ri.n_taylor, ri.ext.mode, {key: F(1, 32)})
    g_check = [g[0].add(term)] + g[1:]
    transitions = _conjugated_transitions(ri, g, g_check)
    assert not is_in_class(transitions[0], ri.spec, SUB_RESONANCE)


@pytest.mark.parametrize("seed", SEEDS)
def test_return_map_build_is_a_sub_resonance_transition(seed):
    ri = random_instance(seed)
    q = math.lcm(*(len(cycle) for cycle in ri.ext.base.cycles))
    ext_q = power_extension(ri.ext, q, cap=ri.n_taylor)
    spec_q = SpectrumSpec([q * c for c in ri.spec.chi], q * ri.spec.epsilon)
    h_q = _build(ri, ext_q, spec_q).h_taylor
    identity = [identity_map(ri.ext.dims, ri.n_taylor, ri.ext.mode)] * ri.ext.base.p
    for t in _transitions(h_q, identity, _build(ri).h_taylor, ri.n_taylor):
        assert is_in_class(t, ri.spec, SUB_RESONANCE)

"""The per-key image kernels of the cycle systems and the inverse-free
transitions of the verify stage, against frozen copies of the paths they
replaced (`tests/oracles.py`), plus the degree-N relations the verify
stage now checks: a probe off at degree N fails them in both modes, and
the seeded instances pass them, also when the resonance check reads the
transitions off the uniqueness witness.

- I - M (`_i_minus_m`) equals the conjugation-based assembly exactly in
  rational mode and bit for bit, in row order, in binary64.
- A cycle step (`_CycleSystem._step`) equals the conjugation-based step
  exactly in rational mode.
- A transition (`verify._transition`) equals compose(a, invert(b, d), d)
  exactly in rational mode, for H and for the reduced changes H' o H, and
  the centralizer's Q equals its formal-inverse route.

Cases: the 5 shipped rational files and `random_instance` seeds 0-49.
"""

import functools
import random
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest

from nsnf import normal_form as nfm
from nsnf import verify
from nsnf.base import power_extension
from nsnf.instance import load_instance
from nsnf.normal_form import build_taylor, resonance_reduce, seeded_lift
from nsnf.polymap import FLOAT, RATIONAL, PolyMap, compose, is_in_class
from nsnf.rand_instances import random_instance
from nsnf.spectrum import SUB_RESONANCE, degree_bound
from nsnf.verify import (
    check_centralizer,
    check_uniqueness,
    check_uniqueness_resonance,
    pinned_rebuild_matches,
)

from fixtures import SPEC21, worked_extension
from oracles import (
    centralizer_reference,
    conjugate_i_minus_m_reference,
    conjugate_step_reference,
    inverse_transition_reference,
)

INSTANCES = Path(__file__).resolve().parent.parent / "instances"
SEEDS = range(50)


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


def _systems(monkeypatch, cases, mode):
    """(steps, return pair, span, system) of every cycle system that the
    Taylor plan and the reduction of each case set up in the mode."""
    seen, real = [], nfm._cycle_systems

    def recording(cycles, span, pull):
        systems = real(cycles, span, pull)
        for (_, steps, ret), (_, system) in zip(cycles, systems):
            seen.append((steps, ret, span, system))
        return systems

    monkeypatch.setattr(nfm, "_cycle_systems", recording)
    for ext, spec, n, alpha in cases:
        ext = ext.to_float() if mode == FLOAT else ext
        resonance_reduce(build_taylor(ext, spec, n, alpha, force=True))
    monkeypatch.undo()
    assert seen
    return seen


def _rows(rows):
    """Rows of I - M in their own order; floats by their bit pattern."""
    return [[(k, v.hex() if isinstance(v, float) else v) for k, v in row.items()] for row in rows]


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
@pytest.mark.parametrize("group", ["shipped", "seeds"])
def test_i_minus_m_equals_the_conjugation_assembly(monkeypatch, group, mode):
    for steps, ret, span, _ in _systems(monkeypatch, _cases(group), mode):
        got = nfm._i_minus_m(span, *ret)
        assert _rows(got) == _rows(conjugate_i_minus_m_reference(span, *ret))


@pytest.mark.parametrize("group", ["shipped", "seeds"])
def test_cycle_step_equals_the_conjugation_step(monkeypatch, group):
    rng = random.Random(group)
    stepped = 0
    for steps, _, span, system in _systems(monkeypatch, _cases(group), RATIONAL):
        n = len(span.keys)
        for j, pair in enumerate(steps):
            # about half the entries zero, so the step skips them
            vec = [F(rng.randint(-9, 9), rng.randint(1, 7)) * rng.randint(0, 1) for _ in range(n)]
            rhs = [[F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(n)] for _ in steps]
            assert system._step(j, vec, rhs) == conjugate_step_reference(span, pair, vec, rhs[j])
            stepped += 1
    assert stepped


@functools.cache
def _builds(group):
    """Per case: two builds under different lifts and their reductions."""
    out = []
    for ext, spec, n, alpha in _cases(group):
        nf = build_taylor(ext, spec, n, alpha, force=True)
        other = nf.rebuild(seeded_lift(5))
        out.append((nf, resonance_reduce(nf), other, resonance_reduce(other)))
    return tuple(out)


def _full(nf, red, d):
    return [compose(hp.poly, h, d) for hp, h in zip(red.h_prime, nf.h_taylor)]


@pytest.mark.parametrize("group", ["shipped", "seeds"])
def test_transitions_equal_the_inverse_route(group):
    for nf, red, other, red_other in _builds(group):
        d, n = degree_bound(nf.spec), nf.n_taylor
        want = [inverse_transition_reference(a, b, d) for a, b in zip(nf.h_taylor, other.h_taylor)]
        for a, b, ref in zip(nf.h_taylor, other.h_taylor, want):
            t, gap = verify._transition(a, b, d, n)
            assert t == ref and gap is None
        assert list(check_uniqueness(nf, other).maps) == want
        full_a, full_b = _full(nf, red, d), _full(other, red_other, d)
        want = [inverse_transition_reference(a, b, d) for a, b in zip(full_a, full_b)]
        assert list(check_uniqueness_resonance(nf, red, other, red_other).maps) == want


@pytest.mark.parametrize("group", ["shipped", "seeds"])
def test_centralizer_maps_equal_the_inverse_route(group):
    checked = 0
    for nf, red, _, _ in _builds(group):
        if not nf.certified:
            continue  # the centralizer check refuses an uncertified build's criticality
        d, n = degree_bound(nf.spec), nf.n_taylor
        g = power_extension(nf.ext, 2)
        for reduced, changes in ((None, nf.h_taylor), (red, _full(nf, red, d))):
            w = check_centralizer(nf, g, n, nf.alpha, reduced=reduced)
            assert w.ok, w.detail
            assert list(w.maps) == centralizer_reference(changes, g, d)
            checked += 1
    assert checked


# -- the degree-N relations ---------------------------------------------


def _probe_cases():
    """(name, ext, spec, N, alpha) of builds with d < N: worked_2block, the
    single-block seeds 0-2 and the seeds among 0-5 with d < N."""
    cases = [("worked_2block", worked_extension(RATIONAL), SPEC21, 3, F(0))]
    for seed in range(3):
        ri = random_instance(seed, single_block=True)
        cases.append((f"single_{seed}", ri.ext, ri.spec, ri.n_taylor, ri.alpha))
    for seed in range(6):
        ri = random_instance(seed)
        if degree_bound(ri.spec) < ri.n_taylor:
            cases.append((f"seed_{seed}", ri.ext, ri.spec, ri.n_taylor, ri.alpha))
    return cases


def _off_at_n(nf):
    """The build with t_0^N added to coordinate 0 of H_0."""
    dims, n, mode = nf.ext.dims, nf.n_taylor, nf.ext.mode
    probe = PolyMap(dims, dims, n, mode, {(0, (n,) + (0,) * (dims.total - 1)): mode.one})
    return replace(nf, h_taylor=(nf.h_taylor[0].add(probe),) + nf.h_taylor[1:])


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
def test_a_term_off_at_degree_n_fails_every_relation(mode):
    cases = _probe_cases()
    assert len(cases) >= 6
    for name, ext, spec, n, alpha in cases:
        ext = ext.to_float() if mode == FLOAT else ext
        nf = build_taylor(ext, spec, n, alpha)
        red = resonance_reduce(nf)
        changed = _off_at_n(nf)
        clean = check_uniqueness(nf, nf)
        got = check_uniqueness(nf, changed)
        assert not got.ok and got.stage == "degree", name
        assert got.detail.startswith("point 0: H_a - T o H_b keeps a term of size 1.000e+00 ")
        # the witness is what the clean relation gives: above d, T is blind to the probe
        assert got.maps == clean.maps and got.off_class == clean.off_class, name
        res = check_uniqueness_resonance(nf, red, changed, red)
        assert not res.ok and res.stage == "degree", name
        cz = check_centralizer(changed, power_extension(ext, 2), n, alpha)
        assert not cz.ok and cz.stage == "degree", name
        assert "H_g(x) o G_x - Q_x o H_x" in cz.detail


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
def test_the_probe_fails_the_resonance_check_on_the_uniqueness_witness(mode):
    for name, ext, spec, n, alpha in _probe_cases():
        ext = ext.to_float() if mode == FLOAT else ext
        nf = build_taylor(ext, spec, n, alpha)
        red = resonance_reduce(nf)
        changed = _off_at_n(nf)
        uniq = check_uniqueness(nf, changed)
        one = check_uniqueness_resonance(nf, red, changed, red, uniq)
        alone = check_uniqueness_resonance(nf, red, changed, red)
        assert not one.ok and one.stage == "degree", name
        assert one.maps == alone.maps and one.off_class == alone.off_class, name
        assert (one.ok, one.stage, one.detail) == (alone.ok, alone.stage, alone.detail), name
        # the probe sits above d, so the pinned solve on the plan misses it
        assert not pinned_rebuild_matches(changed), name


@pytest.mark.parametrize("seed", range(60))
def test_transitions_hold_to_degree_n_on_seeds(seed):
    ri = random_instance(seed)
    nf = build_taylor(ri.ext, ri.spec, ri.n_taylor, ri.alpha, lift=seeded_lift(5))
    other = nf.rebuild(seeded_lift(9))
    red, red_other = resonance_reduce(nf), resonance_reduce(other)
    for w in (check_uniqueness(nf, other), check_uniqueness_resonance(nf, red, other, red_other)):
        assert w.ok and w.stage == "class", w.detail
    g = power_extension(ri.ext, 2)
    for reduced in (None, red):
        w = check_centralizer(nf, g, ri.n_taylor, ri.alpha, reduced=reduced)
        assert w.ok and w.stage == "class", w.detail
    assert all(is_in_class(t, ri.spec, SUB_RESONANCE) for t in check_uniqueness(nf, other).maps)

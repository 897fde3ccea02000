"""The verify stage reuses what the job has already computed, with the
same results:

- a rebuild keeps the power tables of H from its jet check, and the
  uniqueness transitions solved on them equal those on fresh tables (bit
  for bit in binary64) and the formal-inverse route (exactly, rational);
- the resonance check fed the uniqueness witness gives the witness it
  gives when it solves the transitions itself;
- the pinned rebuild on a build's plan compares the bare solve, still
  fails on a perturbed section, and a plan-less result is rebuilt with
  its jet check;
- `nsnf all` leaves no rebuilt result holding tables;
- `PolyMap.to_float` builds the map the validating constructor built.

Cases: the 5 shipped rational files and `random_instance` seeds 0-49.
"""

import functools
import json
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest

from nsnf import cli
from nsnf import normal_form as nfm
from nsnf import verify
from nsnf.instance import load_instance
from nsnf.normal_form import (
    NormalFormResult,
    build_taylor,
    pinned_lift,
    resonance_reduce,
    seeded_lift,
)
from nsnf.polymap import FLOAT, RATIONAL, GradedDims, PolyMap
from nsnf.rand_instances import random_instance
from nsnf.spectrum import degree_bound
from nsnf.verify import check_uniqueness, check_uniqueness_resonance, pinned_rebuild_matches

from fixtures import SPEC21, three_cycle_extension
from oracles import inverse_transition_reference

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


@functools.cache
def _builds(group, mode):
    """Per case: a build and its rebuild under a seeded lift, in `mode`."""
    out = []
    for ext, spec, n, alpha in _cases(group):
        ext = ext.to_float() if mode == FLOAT else ext
        nf = build_taylor(ext, spec, n, alpha, force=True)
        out.append((nf, nf.rebuild(seeded_lift(5))))
    return tuple(out)


def _bits(pmap):
    """The terms of a map in order, each coefficient as its exact value."""
    return [(k, v.hex() if isinstance(v, float) else v) for k, v in pmap.coeffs.items()]


def _same_witness(a, b):
    assert [_bits(m) for m in a.maps] == [_bits(m) for m in b.maps]
    assert (a.off_class, a.ok, a.stage, a.detail) == (b.off_class, b.ok, b.stage, b.detail)


# -- the rebuild's power tables -------------------------------------------


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
@pytest.mark.parametrize("group", ["shipped", "seeds"])
def test_uniqueness_on_the_rebuilds_tables(group, mode):
    for nf, other in _builds(group, mode):
        assert nf.h_powers is None
        assert [t.inner for t in other.h_powers] == list(other.h_taylor)
        on_tables = check_uniqueness(nf, other)
        fresh = check_uniqueness(nf, replace(other, h_powers=None))
        _same_witness(on_tables, fresh)
        assert on_tables.ok, on_tables.detail
        if mode == RATIONAL:
            d = degree_bound(nf.spec)
            want = [
                inverse_transition_reference(a, b, d)
                for a, b in zip(nf.h_taylor, other.h_taylor)
            ]
            assert list(on_tables.maps) == want


def test_tables_of_other_maps_are_not_read():
    nf, other = next(b for b in _builds("shipped", RATIONAL) if b[0].h_taylor != b[1].h_taylor)
    # a result whose H was replaced keeps tables of the old H
    changed = replace(other, h_taylor=nf.h_taylor)
    assert check_uniqueness(nf, changed).maps == check_uniqueness(nf, nf).maps


def test_float_copy_drops_the_tables():
    nf, other = _builds("shipped", RATIONAL)[0]
    assert other.h_powers is not None and other.to_float().h_powers is None


# -- one transition solve ---------------------------------------------------


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
@pytest.mark.parametrize("group", ["shipped", "seeds"])
def test_resonance_check_on_the_uniqueness_witness(group, mode):
    for nf, other in _builds(group, mode):
        red, red_other = resonance_reduce(nf), resonance_reduce(other)
        uniq = check_uniqueness(nf, other)
        one = check_uniqueness_resonance(nf, red, other, red_other, uniq)
        alone = check_uniqueness_resonance(nf, red, other, red_other)
        _same_witness(one, alone)
        assert one.ok, one.detail


# -- the pinned rebuild ---------------------------------------------------


def _counting_checks(monkeypatch):
    calls = []
    real = nfm._check_conjugacy

    def counted(*args, **kwargs):
        calls.append(args[-1])
        return real(*args, **kwargs)

    monkeypatch.setattr(nfm, "_check_conjugacy", counted)
    return calls


def test_pinned_rebuild_on_the_plan_runs_no_jet_check(monkeypatch):
    nf = build_taylor(three_cycle_extension(), SPEC21, 3, 0, lift=seeded_lift(4))
    calls = _counting_checks(monkeypatch)
    assert pinned_rebuild_matches(nf)
    assert calls == []


def test_float_copy_gets_the_rebuilds_jet_check(monkeypatch):
    nf = build_taylor(three_cycle_extension(), SPEC21, 3, 0, lift=seeded_lift(4))
    flt = nf.to_float()
    assert flt.plan is None
    calls = _counting_checks(monkeypatch)
    # the copy holds rounded rational maps, which no binary64 solve
    # produces, so pinning its jets cannot reproduce it bit for bit
    assert not pinned_rebuild_matches(flt)
    assert calls == ["jet conjugacy"]
    # a binary64 build without its plan is planned afresh and reproduced
    native = build_taylor(flt.ext, SPEC21, 3, 0, lift=seeded_lift(4))
    calls.clear()
    assert pinned_rebuild_matches(replace(native, plan=None))
    assert calls == ["jet conjugacy"]


@pytest.mark.parametrize("mode, eps", [(RATIONAL, F(1, 10**30)), (FLOAT, 1e-6)])
def test_a_perturbed_pinned_section_fails(monkeypatch, mode, eps):
    ext = three_cycle_extension()
    ext = ext.to_float() if mode == FLOAT else ext
    nf = build_taylor(ext, SPEC21, 3, 0, lift=seeded_lift(4))
    assert pinned_rebuild_matches(nf)

    def nudged(sections):
        key = min(sections)
        section = sections[key]
        term = next(iter(section.coeffs))
        bump = PolyMap(section.source, section.target, section.cap, mode, {term: eps})
        return pinned_lift({**sections, key: section.add(bump)})

    monkeypatch.setattr(verify, "pinned_lift", nudged)
    assert not pinned_rebuild_matches(nf)


# -- the CLI ----------------------------------------------------------------


def test_all_leaves_no_rebuild_holding_tables(monkeypatch, tmp_path):
    rebuilt = []
    real = NormalFormResult.rebuild

    def recording(self, lift):
        again = real(self, lift)
        assert again.h_powers is not None
        rebuilt.append(again)
        return again

    monkeypatch.setattr(NormalFormResult, "rebuild", recording)
    out = tmp_path / "report.json"
    assert cli.main(["all", str(INSTANCES / "three_cycle.json"), "--out", str(out)]) == 0
    verdicts = json.loads(out.read_text())["verification"]
    assert all(verdicts[k]["ok"] for k in ("uniqueness", "uniqueness_resonance", "pinned_rebuild"))
    assert rebuilt and all(r.h_powers is None for r in rebuilt)


# -- float conversion -----------------------------------------------------


def _validated_float(pmap):
    """The binary64 map as the validating constructor builds it."""
    coeffs = {k: FLOAT.from_fraction(v) for k, v in pmap.coeffs.items()}
    return PolyMap(pmap.source, pmap.target, pmap.cap, FLOAT, coeffs)


@pytest.mark.parametrize("group", ["shipped", "seeds"])
def test_to_float_equals_the_validated_map(group):
    converted = 0
    for nf, _ in _builds(group, RATIONAL):
        red = resonance_reduce(nf)
        maps = list(nf.h_taylor) + list(nf.ext.fibers)
        maps += [g.poly for g in nf.p_normal] + [g.poly for g in red.h_prime]
        for pm in maps:
            got, want = pm.to_float(), _validated_float(pm)
            assert got.mode == FLOAT and got.cap == want.cap
            assert _bits(got) == _bits(want)
            converted += len(pm.coeffs)
    assert converted


def test_to_float_drops_an_underflowing_term():
    dims = GradedDims([2])
    pm = PolyMap(dims, dims, 2, RATIONAL, {(0, (1, 0)): F(1), (1, (1, 1)): F(1, 10**400)})
    got = pm.to_float()
    assert got.coeffs == {(0, (1, 0)): 1.0}
    assert _bits(got) == _bits(_validated_float(pm))

"""Cycle systems solved one type block at a time, and one reduction plan
per Taylor plan, with the results of the whole-span solves:

- every solve of a build, its seeded rebuild and its pinned rebuild on
  lazily set-up blocks equals one whole-span elimination of I - M,
  exactly in rational mode and bit for bit in binary64;
- a block that no right-hand side reaches is never set up, a block that
  one reaches is set up once, and a partition that separates two keys the
  operator couples is refused;
- a plan without a contraction certificate sets up every block when it
  is made, and refuses a singular one there;
- `resonance_reduce` on the Taylor plan's reduction plan equals
  `reduce_family` planned afresh and the whole-composition reference;
  `nsnf all` makes one reduction plan per job, and a family with other
  linear parts is reduced on a plan of its own.

Cases: the 5 shipped rational files, `strictsub_linear_rational.json`
among them (with `strictsub_linear.json` too for the reduction), and
`random_instance` seeds 0-49.
"""

import functools
import itertools
import json
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest

from nsnf import cli, linsolve
from nsnf import normal_form as nfm
from nsnf.base import FiniteBase
from nsnf.instance import load_instance
from nsnf.normal_form import (
    build_taylor,
    pinned_lift,
    plan_taylor,
    reduce_family,
    resonance_reduce,
    seeded_lift,
)
from nsnf.polymap import (
    FLOAT,
    RATIONAL,
    GradedDims,
    PolyMap,
    Powers,
    class_basis,
    identity_map,
    make_group_element,
)
from nsnf.rand_instances import random_instance
from nsnf.spectrum import SpectrumSpec, TypeClass

from fixtures import SPEC21, strictsub_extension, three_cycle_extension
from oracles import reduce_family_reference

INSTANCES = Path(__file__).resolve().parent.parent / "instances"
SEEDS = range(50)


@functools.cache
def _cases(group):
    """(ext, spec, N, alpha) of the shipped rational files, of those and
    the float file strictsub_linear.json, or of the seeds."""
    if group == "seeds":
        return tuple((ri.ext, ri.spec, ri.n_taylor, ri.alpha) for ri in map(random_instance, SEEDS))
    cases = []
    for path in sorted(INSTANCES.glob("*.json")):
        inst = load_instance(str(path))
        if inst.ext.mode == RATIONAL or (group, path.name) == ("reduction", "strictsub_linear.json"):
            cases.append((inst.ext, inst.spec, inst.n_taylor, inst.alpha))
    assert len(cases) == (6 if group == "reduction" else 5)
    return tuple(cases)


def _in(mode, ext):
    return ext.to_float() if mode == FLOAT else ext


def _bits(pmap):
    """The terms of a map in order, each coefficient as its exact value."""
    return [(k, v.hex() if isinstance(v, float) else v) for k, v in pmap.coeffs.items()]


def _whole_span_solutions(span, systems, polys):
    """The solutions of `_solve_on` with one whole-span elimination of
    I - M per cycle: c accumulated and the steps taken by the system's own
    steps, h_0 from `Elimination.of_rows(_i_minus_m(span, *ret))`."""
    dims, mode = polys[0].source, polys[0].mode
    out = [None] * len(polys)
    for cycle, system in systems:
        rhs = [[polys[x].coeffs.get(k, mode.zero) for k in span.keys] for x in cycle]
        q, order = len(rhs), system.order
        c = rhs[order[0]]
        for j in order[1:]:
            c = system._step(j, c, rhs)
        whole = linsolve.Elimination.of_rows(nfm._i_minus_m(span, *system.ret), mode)
        h = [None] * q
        h[0] = whole.solve(c)
        for j in order[:-1]:
            src, dst = ((j + 1) % q, j) if system.pull else (j, j + 1)
            h[dst] = system._step(j, h[src], rhs)
        for x, sol in zip(cycle, h):
            out[x] = PolyMap._trusted(dims, dims, span.degree, mode, dict(zip(span.keys, sol)))
    return out


def _recorded_solves(monkeypatch):
    """Every (span, systems, right-hand sides, solutions) of `_solve_on`."""
    seen, real = [], nfm._solve_on

    def recording(span, systems, polys):
        out = real(span, systems, polys)
        seen.append((span, systems, polys, out))
        return out

    monkeypatch.setattr(nfm, "_solve_on", recording)
    return seen


# -- type blocks ------------------------------------------------------------


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
@pytest.mark.parametrize("group", ["shipped", "seeds"])
def test_block_solves_equal_one_whole_span_elimination(monkeypatch, group, mode):
    seen = _recorded_solves(monkeypatch)
    plans = []
    for ext, spec, n, alpha in _cases(group):
        nf = build_taylor(_in(mode, ext), spec, n, alpha, force=True)
        nf.rebuild(seeded_lift(5))
        nf.rebuild(pinned_lift(nf.sub_res_jets()))
        plans.append(nf.plan)
    monkeypatch.undo()
    solved = 0
    for span, systems, polys, out in seen:
        want = _whole_span_solutions(span, systems, polys)
        assert [_bits(m) for m in out] == [_bits(m) for m in want]
        solved += 1
    assert solved == 3 * sum(len(plan.systems) for plan in plans)
    # the blocks are set up lazily: some of them were never reached
    setups = [e is not None for plan in plans for _, systems in plan.systems.values()
              for _, system in systems for e in system.eliminations]
    assert any(setups) and not all(setups)


def _split_degree():
    """(plan, span, systems) at the first degree of a certified plan of a
    seed whose span has at least two blocks."""
    for seed in SEEDS:
        ri = random_instance(seed)
        plan = plan_taylor(ri.ext, ri.spec, ri.n_taylor, ri.alpha)
        assert plan.validation.passed
        for span, systems in plan.systems.values():
            if len(span.blocks) >= 2:
                return plan, span, systems
    raise AssertionError("no seed has a span of two blocks")


def _counting_setups(monkeypatch):
    calls = []
    real = linsolve.Elimination.of_rows.__func__

    def counted(cls, rows, scalars):
        calls.append(len(rows))
        return real(cls, rows, scalars)

    monkeypatch.setattr(linsolve.Elimination, "of_rows", classmethod(counted))
    return calls


def test_a_block_is_set_up_once_and_only_when_reached(monkeypatch):
    plan, span, systems = _split_degree()
    dims, mode, p = plan.ext.dims, plan.ext.mode, plan.ext.base.p
    assert all(e is None for _, system in systems for e in system.eliminations)
    calls = _counting_setups(monkeypatch)

    zero = [PolyMap._trusted(dims, dims, span.degree, mode, {}) for _ in range(p)]
    assert all(sol.is_zero() for sol in nfm._solve_on(span, systems, zero))
    assert calls == []
    assert all(e is None for _, system in systems for e in system.eliminations)

    block = span.blocks[1]
    for scale in (1, 3):
        rhs = [
            PolyMap._trusted(dims, dims, span.degree, mode,
                             {span.keys[i]: F(scale * (i + x + 1), 7) for i in block})
            for x in range(p)
        ]
        sols = nfm._solve_on(span, systems, rhs)
        assert not all(sol.is_zero() for sol in sols)
        # every solution stays on the block's keys
        assert all(set(sol.coeffs) <= {span.keys[i] for i in block} for sol in sols)
        assert calls == [len(block)] * len(systems)
        for _, system in systems:
            assert [e is not None for e in system.eliminations] == [
                b == 1 for b in range(len(span.blocks))
            ]


def _coupled_system(labels):
    """A fixed-point cycle system on the linear t1-terms of three
    coordinates.  Column c of the pre matrix holds the image of key c: key
    0 reaches keys 0 and 2, key 1 reaches 0 and 1, key 2 only itself, so
    no partition into two or more blocks is invariant."""
    dims = GradedDims([3])
    spec = SpectrumSpec([F(-1)], F(1, 5))
    keys = [(c, (1, 0, 0)) for c in range(3)]
    span = nfm._SolveSpan(keys, 1, spec, nfm._NON_SUB, labels)
    pre = [[F(1, 2), F(1, 3), F(0)], [F(0), F(-1, 4), F(0)], [F(1, 7), F(0), F(1, 3)]]
    post = Powers(identity_map(dims, 1, RATIONAL), 1)
    ((cycle, steps, ret),) = nfm._cycle_maps(FiniteBase([0]), [(pre, post)], True)
    ((_, system),) = nfm._cycle_systems([(cycle, steps, ret)], span, True)
    return span, system


def test_a_partition_that_splits_a_coupling_is_refused():
    # key 0's image reaches key 2, which the partition puts in another block
    span, system = _coupled_system([0, 0, 1])
    assert span.blocks == [[0, 1], [2]]
    with pytest.raises(nfm.BuildError, match="type block"):
        system.elimination(0)
    # asked for the whole span, the rows are those of the whole I - M
    assert len(nfm._i_minus_m(span, *system.ret)) == 3
    # key 1 reaches key 0, which this partition puts in another block
    span, system = _coupled_system([0, 1, 0])
    with pytest.raises(nfm.BuildError, match="type block"):
        system.set_up()
    span, system = _coupled_system([0, 0, 0])
    system.set_up()
    assert len(span.blocks) == 1


def test_a_singular_block_is_refused_when_first_reached_or_set_up():
    dims = GradedDims([2])
    spec = SpectrumSpec([F(-1)], F(1, 5))
    keys = [(0, (1, 0)), (1, (0, 1))]
    # pre is the identity on coordinate 0, so that block's I - M is zero
    pre = [[F(1), F(0)], [F(0), F(1, 2)]]
    post = Powers(identity_map(dims, 1, RATIONAL), 1)
    cycles = nfm._cycle_maps(FiniteBase([0]), [(pre, post)], True)
    span = nfm._SolveSpan(keys, 1, spec, nfm._NON_SUB, [0, 1])
    ((_, lazy),) = nfm._cycle_systems(cycles, span, True)
    # the block of coordinate 1 solves; the singular block is not reached
    assert lazy.solve([[F(0), F(1)]]) == [[F(0), F(2)]]
    message = r"^singular cycle solve at degree 1, cycle \(0,\)$"
    with pytest.raises(nfm.BuildError, match=message):
        lazy.solve([[F(1), F(0)]])
    with pytest.raises(nfm.BuildError, match=message):
        nfm._plan_systems(cycles, span, True, certified=False)


def _failing_validation(monkeypatch):
    real = nfm.validate_extension

    def failing(*args):
        report = real(*args)
        report.record("made to fail", False)
        return report

    monkeypatch.setattr(nfm, "validate_extension", failing)


def test_a_forced_plan_sets_up_every_block(monkeypatch):
    certified, _, _ = _split_degree()
    ext, spec, n, alpha = certified.ext, certified.spec, certified.n_taylor, certified.alpha
    _failing_validation(monkeypatch)
    forced = plan_taylor(ext, spec, n, alpha, force=True)
    assert not forced.validation.passed
    blocks = [system.eliminations for _, systems in forced.systems.values() for _, system in systems]
    assert sum(map(len, blocks)) > len(blocks)
    assert all(e is not None for elims in blocks for e in elims)
    # the solves on either plan are the same
    nf = nfm.solve_taylor(forced)
    assert nf.h_taylor == nfm.solve_taylor(certified).h_taylor
    # the reduction plan of a forced Taylor plan sets up every block too
    red = resonance_reduce(nf)
    reduction = forced.reduction
    assert reduction is not None and reduction.systems
    assert all(
        e is not None
        for _, systems in reduction.systems.values() for _, system in systems
        for e in system.eliminations
    )
    assert red == resonance_reduce(nfm.solve_taylor(certified))


def test_a_flag_triangular_plan_is_one_block_and_set_up_at_once():
    nf = build_taylor(strictsub_extension(RATIONAL), SPEC21, 2, 1, force=True)
    assert not nf.certified
    resonance_reduce(nf)
    for plan in (nf.plan, nf.plan.reduction):
        assert plan.systems
        for span, systems in plan.systems.values():
            assert len(span.blocks) == 1
            assert all(system.eliminations[0] is not None for _, system in systems)


@pytest.mark.parametrize("case", range(0, 50, 7))
def test_span_labels_serve_the_sort_the_blocks_and_the_exponent(case):
    ri = random_instance(case)
    plan = plan_taylor(ri.ext, ri.spec, ri.n_taylor, ri.alpha)
    dims = ri.ext.dims
    for degree, (span, _) in plan.systems.items():
        assert sorted(span.keys) == sorted(class_basis(ri.spec, dims, degree, {TypeClass.NON_SUB}))
        labels = [(dims.block_of[c], dims.block_degrees(e)) for c, e in span.keys]
        assert labels == sorted(labels)
        # one contiguous block per type, in the order of the keys
        runs = [list(g) for _, g in itertools.groupby(range(len(labels)), labels.__getitem__)]
        assert [list(block) for block in span.blocks] == runs
        if span.keys:
            want = nfm._certified_exponent(ri.spec, labels, "forward")
            assert plan.certified_exponents[degree] == want


# -- one reduction plan per build --------------------------------------------


def _same_reduction(got, want):
    assert [_bits(g.poly) for g in got.h_prime] == [_bits(g.poly) for g in want.h_prime]
    assert [_bits(g.poly) for g in got.p_res] == [_bits(g.poly) for g in want.p_res]
    assert got.certified_exponents == want.certified_exponents
    assert got.lift_sections == want.lift_sections


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
@pytest.mark.parametrize("group", ["reduction", "seeds"])
def test_shared_reduction_plan_equals_a_fresh_one(group, mode):
    for ext, spec, n, alpha in _cases(group):
        nf = build_taylor(_in(mode, ext), spec, n, alpha, force=True)
        other = nf.rebuild(seeded_lift(5))
        for build, lift in ((nf, None), (other, seeded_lift(3))):
            shared = resonance_reduce(build, lift)
            fresh = reduce_family(build.ext.base, spec, build.p_normal, lift=lift)
            _same_reduction(shared, fresh)
            h_ref, p_ref = reduce_family_reference(build.ext.base, spec, build.p_normal, lift=lift)
            assert [_bits(g.poly) for g in shared.h_prime] == [_bits(h) for h in h_ref]
            assert [_bits(g.poly) for g in shared.p_res] == [_bits(pm) for pm in p_ref]
        assert nf.plan.reduction is not None and other.plan is nf.plan


def _counting(monkeypatch, name):
    calls = []
    real = getattr(nfm, name)

    def counted(*args, **kwargs):
        calls.append(kwargs.get("plan"))
        return real(*args, **kwargs)

    monkeypatch.setattr(nfm, name, counted)
    return calls


@pytest.mark.parametrize("command, reductions", [("all", 2), ("reduce", 1)])
def test_one_reduction_plan_per_job(monkeypatch, tmp_path, command, reductions):
    plans = _counting(monkeypatch, "plan_reduction")
    reduced = _counting(monkeypatch, "reduce_family")
    out = tmp_path / "report.json"
    assert cli.main([command, str(INSTANCES / "three_cycle.json"), "--out", str(out)]) == 0
    assert len(plans) == 1
    assert len(reduced) == reductions and all(plan is not None for plan in reduced)
    if command == "all":
        verdicts = json.loads(out.read_text())["verification"]
        assert verdicts["uniqueness_resonance"]["ok"]


def test_other_linear_parts_get_a_fresh_plan(monkeypatch):
    nf = build_taylor(three_cycle_extension(), SPEC21, 3, 0)
    # P with its linear part halved: still a sub-resonance family
    halved = tuple(
        make_group_element(g.poly.scale(F(1, 2)), nf.spec, "sub-resonance") for g in nf.p_normal
    )
    moved = replace(nf, p_normal=halved)
    plans = _counting(monkeypatch, "plan_reduction")
    got = resonance_reduce(moved, seeded_lift(2))
    assert len(plans) == 1 and nf.plan.reduction is None
    # the build itself is reduced on the Taylor plan's reduction plan
    resonance_reduce(nf)
    assert len(plans) == 2 and nf.plan.reduction is not None
    _same_reduction(got, reduce_family(nf.ext.base, nf.spec, halved, lift=seeded_lift(2)))

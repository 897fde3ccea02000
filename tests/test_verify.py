"""Uniqueness, centralizer, flag-preservation, and linearization checks."""

from fractions import Fraction as F

import pytest
from hypothesis import given

from nsnf.base import Extension, FiniteBase, power_extension
from nsnf.normal_form import build_taylor, resonance_reduce, seeded_lift
from nsnf.polymap import (
    RATIONAL,
    GradedDims,
    PolyMap,
    compose,
    identity_map,
)
from nsnf.rand_instances import random_instance
from nsnf.spectrum import SpectrumSpec, degree_bound
from nsnf.verify import (
    VerifyError,
    check_centralizer,
    check_flag_preservation,
    check_linearization,
    check_uniqueness,
    check_uniqueness_resonance,
    pinned_rebuild_matches,
    transition_jets,
)

from fixtures import (
    D11,
    SPEC21,
    scalar_extension,
    strictsub_extension,
    three_cycle_extension,
    worked_extension,
)
from strategies import sub_resonance_elements


# -- uniqueness ---------------------------------------------------------


def test_self_transition_is_identity():
    ext = worked_extension(RATIONAL)
    nf = build_taylor(ext, SPEC21, 3, 0)
    w = check_uniqueness(nf, nf)
    assert w.ok
    assert all(g == identity_map(D11, 2, RATIONAL) for g in w.maps)
    assert w.off_class == (0.0,)


def test_perturbed_lift_transition_is_sub_resonance():
    ext = worked_extension(RATIONAL)
    nf_a = build_taylor(ext, SPEC21, 3, 0)
    nf_b = build_taylor(ext, SPEC21, 3, 0, lift=seeded_lift(21))
    w = check_uniqueness(nf_a, nf_b)
    assert w.ok
    assert w.off_class == (0.0,)
    assert any(g != identity_map(D11, 2, RATIONAL) for g in w.maps)


def test_transition_cocycle_coherence():
    ext = three_cycle_extension()
    nf = {s: build_taylor(ext, SPEC21, 3, 0, lift=seeded_lift(s)) for s in (1, 2, 3)}
    g_ab = transition_jets(nf[1], nf[2])
    g_bc = transition_jets(nf[2], nf[3])
    g_ac = transition_jets(nf[1], nf[3])
    for x in range(3):
        assert compose(g_ab[x], g_bc[x], 2) == g_ac[x]


def test_pinned_rebuild_bitwise():
    ext = three_cycle_extension()
    nf = build_taylor(ext, SPEC21, 3, 0, lift=seeded_lift(4))
    assert pinned_rebuild_matches(nf)


def test_uniqueness_rejects_mismatched_instances():
    nf_a = build_taylor(worked_extension(RATIONAL), SPEC21, 3, 0)
    nf_b = build_taylor(three_cycle_extension(), SPEC21, 3, 0)
    with pytest.raises(VerifyError, match="inputs"):
        check_uniqueness(nf_a, nf_b)


def test_resonance_transition_stays_resonance():
    ext = worked_extension(RATIONAL)
    nf_a = build_taylor(ext, SPEC21, 3, 0)
    nf_b = build_taylor(ext, SPEC21, 3, 0, lift=seeded_lift(8))
    red_a = resonance_reduce(nf_a)
    red_b = resonance_reduce(nf_b)
    w = check_uniqueness_resonance(nf_a, red_a, nf_b, red_b)
    assert w.ok
    assert w.off_class == (0.0,)


def test_scalar_transitions_are_identity_for_all_seeds():
    ext, spec = scalar_extension(RATIONAL)
    builds = [build_taylor(ext, spec, 2, 0, lift=seeded_lift(s)) for s in (1, 9)]
    w = check_uniqueness(builds[0], builds[1])
    assert w.ok
    assert all(g == identity_map(GradedDims([1]), 1, RATIONAL) for g in w.maps)


# -- centralizer --------------------------------------------------------


def test_centralizer_with_itself_echoes_p():
    ext = three_cycle_extension()
    nf = build_taylor(ext, SPEC21, 3, 0)
    w = check_centralizer(nf, ext, 3, 0)
    assert w.ok
    for x in range(3):
        assert w.maps[x] == nf.p_poly(x)


def test_centralizer_square_composes_p():
    ext = three_cycle_extension()
    nf = build_taylor(ext, SPEC21, 3, 0)
    ext2 = power_extension(ext, 2)
    w = check_centralizer(nf, ext2, 3, 0)
    assert w.ok
    f = ext.base
    for x in range(3):
        expected = compose(nf.p_poly(f.image(x)), nf.p_poly(x), 2)
        assert w.maps[x] == expected


def test_centralizer_square_resonance_variant():
    ext = worked_extension(RATIONAL)
    nf = build_taylor(ext, SPEC21, 3, 0)
    red = resonance_reduce(nf)
    ext2 = power_extension(ext, 2)
    w = check_centralizer(nf, ext2, 3, 0, reduced=red)
    assert w.ok
    assert w.tag == "resonance"


def test_centralizer_pointwise_cross_check():
    ext = worked_extension("float")
    nf = build_taylor(ext, SPEC21, 3, 0)
    ext2 = power_extension(ext, 2)
    w = check_centralizer(nf, ext2, 3, 0, samples=50, seed=3)
    assert w.ok
    assert "max pointwise gap" in w.detail


@pytest.mark.parametrize("seed", [15, 26, 29])
def test_centralizer_pointwise_in_resonance_coordinates(seed):
    """With a reduction H' that is not the identity, Q_x lives in H' o H
    coordinates and the limits in H coordinates; the pointwise stage must
    carry both limits through H' before comparing them."""
    ri = random_instance(seed)
    ext = ri.ext.to_float()
    nf = build_taylor(ext, ri.spec, ri.n_taylor, ri.alpha)
    red = resonance_reduce(nf)
    ident = identity_map(ext.dims, degree_bound(ri.spec), "float")
    assert any(g.poly != ident for g in red.h_prime)
    ext2 = power_extension(ext, 2)
    w = check_centralizer(nf, ext2, ri.n_taylor, ri.alpha, reduced=red, samples=50)
    assert w.ok, w.detail
    assert "max pointwise gap" in w.detail


def test_noncommuting_rejected_at_commutation():
    ext = three_cycle_extension()
    nf = build_taylor(ext, SPEC21, 3, 0)
    ext2 = power_extension(ext, 2)
    fibers = list(ext2.fibers)
    broken = fibers[0].add(PolyMap(D11, D11, 2, RATIONAL, {(1, (1, 1)): F(1, 50)}))
    fibers[0] = broken
    bad = Extension(ext2.base, D11, fibers, ext2.sigma, ext2.xi)
    with pytest.raises(VerifyError) as err:
        check_centralizer(nf, bad, 3, 0)
    assert err.value.stage == "commutation"


def test_noncommuting_base_rejected():
    ext = three_cycle_extension()
    nf = build_taylor(ext, SPEC21, 3, 0)
    # 2-cycle-plus-fixed-point permutation does not commute with the 3-cycle
    bad_base = FiniteBase([1, 0, 2])
    bad = Extension(bad_base, D11, ext.fibers, ext.sigma, ext.xi)
    with pytest.raises(VerifyError) as err:
        check_centralizer(nf, bad, 3, 0)
    assert err.value.stage == "commutation"


def test_criticality_gate():
    ext = worked_extension(RATIONAL)
    nf = build_taylor(ext, SPEC21, 3, 0)
    with pytest.raises(VerifyError) as err:
        check_centralizer(nf, ext, 2, 0)  # nu' = 0 fails strict positivity
    assert err.value.stage == "criticality"
    with pytest.raises(VerifyError) as err:
        check_centralizer(nf, ext, 5, 0)  # claims more regularity than the build
    assert err.value.stage == "criticality"


def test_forced_triangular_rejected_at_derivative_stage():
    ext = strictsub_extension(RATIONAL)
    nf = build_taylor(ext, SPEC21, 2, 1, force=True)
    with pytest.raises(VerifyError) as err:
        check_centralizer(nf, ext, 2, 1)
    assert err.value.stage == "derivative"


# -- flag preservation and linearization --------------------------------

SPEC31 = SpectrumSpec([F(-2), F(-1)], F(1, 5))


def test_flag_preservation_worked_p():
    ext = worked_extension(RATIONAL)
    nf = build_taylor(ext, SPEC21, 3, 0)
    assert check_flag_preservation(nf.p_poly(0), SPEC21)


@given(sub_resonance_elements(SPEC31, D11))
def test_flag_preservation_on_random_sub_resonance(elem):
    assert check_flag_preservation(elem.poly, SPEC31)


def test_flag_violation_detected():
    bad = PolyMap(D11, D11, 1, RATIONAL, {(1, (1, 0)): F(1)})
    assert not check_flag_preservation(bad, SPEC21)


def test_linearization_scalar():
    ext, spec = scalar_extension(RATIONAL)
    nf = build_taylor(ext, spec, 2, 0)
    assert check_linearization(nf)


def test_linearization_single_block_two_dim():
    dims = GradedDims([2])
    spec = SpectrumSpec([F(-1)], F(1, 4))
    fiber = PolyMap(
        dims,
        dims,
        2,
        RATIONAL,
        {
            (0, (1, 0)): F(46, 125),
            (1, (0, 1)): F(9, 25),
            (0, (0, 2)): F(1, 3),
            (1, (2, 0)): F(1, 4),
            (1, (1, 1)): F(1, 5),
        },
    )
    ext = Extension(FiniteBase([0]), dims, [fiber], sigma=0.25, xi=0.95)
    builds = [build_taylor(ext, spec, 2, 0, lift=seeded_lift(s)) for s in (2, 7)]
    for nf in builds:
        assert check_linearization(nf)
        assert nf.p_poly(0) == fiber.jet(1)
    assert builds[0].h_taylor == builds[1].h_taylor  # absolute uniqueness


def test_linearization_requires_single_block():
    ext = worked_extension(RATIONAL)
    nf = build_taylor(ext, SPEC21, 3, 0)
    with pytest.raises(VerifyError, match="inputs"):
        check_linearization(nf)

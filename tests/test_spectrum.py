from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsnf.spectrum import (
    CriticalityCheck,
    HomogeneousType,
    SpectrumSpec,
    TypeClass,
    check_narrowness,
    classify_type,
    compositions,
    criticality,
    degree_bound,
    enumerate_types,
    phi_contraction_bound,
    spectral_constants,
)

from oracles import brute_force_constants


def spec21():
    return SpectrumSpec([F(-2), F(-1)], F(1, 5))


class TestConstruction:
    def test_rejects_float_exponents(self):
        with pytest.raises(TypeError):
            SpectrumSpec([-2.0, -1.0], F(1, 5))

    def test_rejects_float_epsilon(self):
        with pytest.raises(TypeError):
            SpectrumSpec([F(-2), F(-1)], 0.2)

    def test_rejects_nonnegative_exponent(self):
        with pytest.raises(ValueError):
            SpectrumSpec([F(-1), F(0)], F(1, 5))

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            SpectrumSpec([F(-1), F(-2)], F(1, 5))

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ValueError):
            SpectrumSpec([F(-1)], F(0))


class TestClassification:
    def test_resonance(self):
        t = HomogeneousType(0, (0, 2))
        assert classify_type(spec21(), t) is TypeClass.RESONANCE

    def test_strict_sub(self):
        t = HomogeneousType(0, (0, 1))
        assert classify_type(spec21(), t) is TypeClass.STRICT_SUB

    def test_non_sub(self):
        t = HomogeneousType(1, (1, 0))
        assert classify_type(spec21(), t) is TypeClass.NON_SUB

    def test_degree_bounds(self):
        assert degree_bound(spec21()) == 2
        assert degree_bound(SpectrumSpec([F(-1)], F(1, 5))) == 1
        assert degree_bound(SpectrumSpec([F(-3, 2), F(-1)], F(1, 10))) == 1

    def test_enumeration_order(self):
        types = enumerate_types(spec21(), 2, 0)
        assert [t.s for t, _ in types] == [(2, 0), (1, 1), (0, 2)]
        assert [cls for _, cls in types] == [
            TypeClass.NON_SUB,
            TypeClass.NON_SUB,
            TypeClass.RESONANCE,
        ]


class TestConstants:
    def test_two_block(self):
        c = spectral_constants(spec21())
        assert c.d == 2
        assert c.lam_tilde == F(-1)
        assert c.lam == F(-1)
        assert c.mu == F(-1)
        assert c.eps0 == F(1, 4)

    def test_single_block(self):
        c = spectral_constants(SpectrumSpec([F(-1)], F(1, 5)))
        assert c.d == 1
        assert c.lam_tilde == F(-1)
        assert c.lam == F(-1)
        assert c.mu is None  # no strict sub-resonance type for one block
        assert c.eps0 == F(1, 3)

    def test_mu_five_halves(self):
        c = spectral_constants(SpectrumSpec([F(-5, 2), F(-1)], F(1, 10)))
        assert c.mu == F(-1, 2)

    def test_matches_oracle_on_frozen_spectra(self):
        for chi in ([F(-2), F(-1)], [F(-1)], [F(-5, 2), F(-1)], [F(-3), F(-2), F(-1)]):
            spec = SpectrumSpec(chi, F(1, 100))
            c = spectral_constants(spec)
            d, lam_tilde, lam, mu, eps0 = brute_force_constants(chi)
            assert (c.d, c.lam_tilde, c.lam, c.mu, c.eps0) == (d, lam_tilde, lam, mu, eps0)


class TestNarrowness:
    def test_strictly_below(self):
        spec = spec21()
        assert check_narrowness(spec, spectral_constants(spec))

    def test_boundary_fails(self):
        spec = SpectrumSpec([F(-2), F(-1)], F(1, 4))
        assert not check_narrowness(spec, spectral_constants(spec))


class TestCriticality:
    def test_ok(self):
        out = criticality(spec21(), 3, F(0))
        assert out == CriticalityCheck(nu=F(1), eps_bound=F(1, 4), ok=True)

    def test_exactly_critical(self):
        out = criticality(spec21(), 2, F(0))
        assert out.nu == 0 and not out.ok

    def test_holder_rescues_degree_two(self):
        out = criticality(spec21(), 2, F(1))
        assert out.nu == F(1) and out.ok

    def test_single_block_threshold(self):
        # For one exponent chi and regularity (1, alpha) the epsilon gate is
        # -alpha*chi/(2+alpha); alpha=1 gives 1/3.
        spec = SpectrumSpec([F(-1)], F(1, 5))
        out = criticality(spec, 1, F(1))
        assert out.eps_bound == F(1, 3)
        alpha, chi = F(1), F(-1)
        assert out.eps_bound == -alpha * chi / (2 + alpha)


class TestPhiBounds:
    def test_forward_mixed_type(self):
        spec = spec21()
        assert phi_contraction_bound(spec, HomogeneousType(0, (1, 1)), "forward") == F(-2, 5)
        assert phi_contraction_bound(spec, HomogeneousType(1, (1, 1)), "forward") == F(-7, 5)

    def test_backward_linear_type(self):
        assert phi_contraction_bound(spec21(), HomogeneousType(0, (0, 1)), "backward") == F(-3, 5)

    def test_resonance_forward_is_band_only(self):
        t = HomogeneousType(0, (0, 2))
        assert phi_contraction_bound(spec21(), t, "forward") == 3 * F(1, 5)


def rational_spectra():
    """Strictly increasing negative rationals with a bounded fast/slow ratio."""

    def build(vals):
        chi = sorted(set(vals))
        return chi if len(chi) == len(vals) and chi[0] / chi[-1] <= 8 else None

    return (
        st.lists(
            st.fractions(min_value=F(-4), max_value=F(-1, 4), max_denominator=6),
            min_size=1,
            max_size=3,
        )
        .map(build)
        .filter(lambda chi: chi is not None)
    )


@given(rational_spectra())
def test_constants_match_brute_force(chi):
    spec = SpectrumSpec(chi, F(1, 1000))
    c = spectral_constants(spec)
    d, lam_tilde, lam, mu, eps0 = brute_force_constants(chi)
    assert (c.d, c.lam_tilde, c.lam, c.mu, c.eps0) == (d, lam_tilde, lam, mu, eps0)


@given(rational_spectra(), st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=9))
def test_classification_scale_invariant(chi, num, den):
    spec = SpectrumSpec(chi, F(1, 1000))
    scaled = SpectrumSpec([c * F(num, den) for c in chi], F(1, 1000))
    for degree in range(1, degree_bound(spec) + 2):
        for block in range(spec.ell):
            for t, cls in enumerate_types(spec, degree, block):
                assert classify_type(scaled, t) is cls


@given(rational_spectra())
def test_sub_resonance_support_and_degree(chi):
    # Sub-resonance types never involve faster blocks than the target and
    # have total degree at most chi_1/chi_ell.
    spec = SpectrumSpec(chi, F(1, 1000))
    ratio = spec.chi[0] / spec.chi[-1]
    for degree in range(1, degree_bound(spec) + 2):
        for block in range(spec.ell):
            for t, cls in enumerate_types(spec, degree, block):
                if cls is TypeClass.NON_SUB:
                    continue
                assert all(t.s[j] == 0 for j in range(block))
                assert t.degree <= ratio


@given(rational_spectra(), st.integers(min_value=1, max_value=6))
def test_certified_exponents_negative_below_threshold(chi, n_taylor):
    spec_probe = SpectrumSpec(chi, F(1, 1000))
    c = spectral_constants(spec_probe)
    eps = c.eps0 * F(1, 2)
    spec = SpectrumSpec(chi, eps)
    d = c.d
    for degree in range(1, min(n_taylor, d) + 1):
        for block in range(spec.ell):
            for t, cls in enumerate_types(spec, degree, block):
                if cls is TypeClass.NON_SUB:
                    assert phi_contraction_bound(spec, t, "forward") < 0
                if cls is TypeClass.STRICT_SUB:
                    assert phi_contraction_bound(spec, t, "backward") < 0
    for degree in range(d + 1, n_taylor + 1):
        assert -spec.chi[0] + degree * spec.chi[-1] + (degree + 1) * eps < 0


def test_classification_memo_lives_on_the_spec():
    spec, fresh = spec21(), spec21()
    for degree in range(1, 5):
        for block in range(spec.ell):
            for t, cls in enumerate_types(fresh, degree, block):
                assert classify_type(spec, t) is cls
                assert spec.type_class(t.block, t.s) is cls
    # the memo is not part of the value
    assert spec == fresh and hash(spec) == hash(fresh) and repr(spec) == repr(fresh)
    for _ in range(2):
        with pytest.raises(ValueError, match="does not fit"):
            classify_type(spec, HomogeneousType(2, (1, 0)))
        with pytest.raises(ValueError, match="does not fit"):
            spec.type_class(0, (1, 0, 0))

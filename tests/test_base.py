import math
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from nsnf.base import Extension, FiniteBase, orbit_compose, validate_extension
from nsnf.instance import load_instance, parse_instance
from nsnf.polymap import FLOAT, RATIONAL, GradedDims, PolyMap, compose, identity_map
from nsnf.rand_instances import _draw
from nsnf.spectrum import SpectrumSpec

from fixtures import (
    D11,
    SPEC21,
    scalar_extension,
    three_cycle_extension,
    workloads_module,
    worked_extension,
)
from oracles import grid_expansions

ROOT = Path(__file__).resolve().parent.parent


class TestFiniteBase:
    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            FiniteBase([0, 0, 1])

    def test_cycles(self):
        assert FiniteBase([1, 2, 0]).cycles == ((0, 1, 2),)
        assert FiniteBase([1, 0, 2]).cycles == ((0, 1), (2,))

    def test_orbit_point(self):
        base = FiniteBase([1, 2, 0])
        assert base.orbit_point(0, 2) == 2
        assert base.orbit_point(0, 3) == 0

    def test_compose_with(self):
        f = FiniteBase([1, 2, 0])
        assert f.compose_with(f).perm == (2, 0, 1)


class TestExtensionConstruction:
    def test_fiber_count_checked(self):
        fiber = worked_extension().fiber(0)
        with pytest.raises(ValueError):
            Extension(FiniteBase([1, 0]), D11, [fiber], sigma=0.25, xi=0.95)

    def test_xi_range(self):
        fiber = worked_extension().fiber(0)
        with pytest.raises(ValueError):
            Extension(FiniteBase([0]), D11, [fiber], sigma=0.25, xi=1.0)

    def test_mode_uniform(self):
        ext = three_cycle_extension()
        mixed = list(ext.fibers[:2]) + [ext.fibers[2].to_float()]
        with pytest.raises(ValueError):
            Extension(ext.base, D11, mixed, sigma=0.25, xi=0.95)


class TestValidation:
    def test_worked_instance_passes(self):
        report = validate_extension(worked_extension(), SPEC21, 3, F(0))
        assert report.passed, report.failures()

    def test_worked_rational_passes(self):
        report = validate_extension(worked_extension(RATIONAL), SPEC21, 3, F(0))
        assert report.passed, report.failures()

    def test_three_cycle_passes(self):
        report = validate_extension(three_cycle_extension(), SPEC21, 3, F(0))
        assert report.passed, report.failures()

    def test_scalar_passes(self):
        ext, spec = scalar_extension()
        report = validate_extension(ext, spec, 2, F(0))
        assert report.passed, report.failures()

    def test_off_block_entry_fails(self):
        fiber = PolyMap(
            D11,
            D11,
            2,
            FLOAT,
            {(0, (1, 0)): math.exp(-2.0), (0, (0, 1)): 1.0, (1, (0, 1)): math.exp(-1.0)},
        )
        ext = Extension(FiniteBase([0]), D11, [fiber], sigma=0.25, xi=0.95)
        report = validate_extension(ext, SPEC21, 3, F(0))
        names = {c.name for c in report.failures()}
        assert "block-diagonal" in names

    def test_out_of_band_rate_fails(self):
        fiber = PolyMap(
            D11,
            D11,
            2,
            FLOAT,
            {(0, (1, 0)): math.exp(-2.5), (1, (0, 1)): math.exp(-1.0)},
        )
        ext = Extension(FiniteBase([0]), D11, [fiber], sigma=0.25, xi=0.95)
        report = validate_extension(ext, SPEC21, 3, F(0))
        names = {c.name for c in report.failures()}
        assert names == {"spectral-band"}

    def test_narrowness_failure_reported(self):
        wide = SpectrumSpec([F(-2), F(-1)], F(1, 4))
        report = validate_extension(worked_extension(), wide, 3, F(0))
        names = {c.name for c in report.failures()}
        assert "narrowness" in names

    def test_critical_degree_fails(self):
        report = validate_extension(worked_extension(), SPEC21, 2, F(0))
        names = {c.name for c in report.failures()}
        assert "criticality" in names

    def test_holder_exponent_rescues_degree_two(self):
        report = validate_extension(worked_extension(), SPEC21, 2, F(1))
        assert report.passed, report.failures()

    def test_expansion_fails_contraction(self):
        fiber = PolyMap(D11, D11, 2, FLOAT, {(0, (1, 0)): math.exp(-2.0), (1, (0, 1)): math.exp(-1.0), (0, (0, 2)): 40.0})
        ext = Extension(FiniteBase([0]), D11, [fiber], sigma=0.25, xi=0.95)
        report = validate_extension(ext, SPEC21, 3, F(0))
        names = {c.name for c in report.failures()}
        assert "contraction" in names


class TestOrbitCompose:
    def test_zero_steps_identity(self):
        ext = three_cycle_extension()
        assert orbit_compose(ext, 0, 0, 2) == identity_map(D11, 2, RATIONAL)

    def test_single_step_is_fiber(self):
        ext = three_cycle_extension()
        assert orbit_compose(ext, 1, 1, 2) == ext.fiber(1)

    def test_cocycle_identity(self):
        ext = three_cycle_extension()
        cap = 3
        for x in range(3):
            for j in range(4):
                for k in range(4):
                    whole = orbit_compose(ext, x, j + k, cap)
                    first = orbit_compose(ext, x, j, cap)
                    second = orbit_compose(ext, ext.base.orbit_point(x, j), k, cap)
                    assert whole == compose(second, first, cap)

    def test_return_map_linear_part(self):
        ext = three_cycle_extension()
        ret = orbit_compose(ext, 0, 3, 2)
        matrix = ret.linear_matrix()
        assert matrix[0][0] == F(27, 200) * F(31, 250) * F(14, 100)
        assert matrix[1][1] == F(46, 125) * F(7, 20) * F(39, 100)


class TestCertificateDecidesContraction:
    """The contraction check is decided by its certificate alone.  The grid
    sample it once ran on top (`oracles.grid_expansions`) could only add
    detail lines to a failed certificate: wherever the certificate passes,
    every grid point satisfies |F_x(t)|_2 <= xi |t|_2, so adding the sample
    changes no verdict."""

    @staticmethod
    def contraction(ext, spec, n_taylor, alpha):
        """The validation report's contraction outcome, and the report."""
        report = validate_extension(ext, spec, n_taylor, alpha)
        (outcome,) = [c for c in report.checks if c.name == "contraction"]
        if outcome.ok:
            assert grid_expansions(ext) == []
        return outcome, report

    def test_expanding_fiber(self):
        """The grid finds expansion on a fiber with a large quadratic term,
        and the certificate fails there first."""
        coeffs = {(0, (1, 0)): math.exp(-2.0), (1, (0, 1)): math.exp(-1.0), (0, (0, 2)): 40.0}
        fiber = PolyMap(D11, D11, 2, FLOAT, coeffs)
        ext = Extension(FiniteBase([0]), D11, [fiber], sigma=0.25, xi=0.95)
        assert grid_expansions(ext)
        outcome, _ = self.contraction(ext, SPEC21, 3, F(0))
        assert not outcome.ok and outcome.detail.startswith("point 0: certificate ")

    @pytest.mark.parametrize("single_block", [False, True], ids=["default", "single_block"])
    def test_random_instance_draws(self, single_block):
        """Every extension random_instance draws for seeds 0-199, up to the
        first that passes validation, as random_instance draws them."""
        for seed in range(200):
            for attempt in range(32):
                try:
                    inst = _draw(random.Random((seed << 5) + attempt), seed, single_block)
                except RuntimeError:
                    continue
                _, report = self.contraction(inst.ext, inst.spec, inst.n_taylor, inst.alpha)
                if report.passed:
                    break
            else:
                pytest.fail(f"seed {seed}: no draw passes validation")

    @pytest.mark.parametrize("name", sorted(p.name for p in (ROOT / "instances").glob("*.json")))
    def test_shipped_instances(self, name):
        """Each shipped file in its own mode and in float.  Only the two
        strictsub_linear files fail contraction (and validation); every
        commuting extension contracts, though a power G = F^k falls outside
        the spectral bands of F."""
        own = load_instance(str(ROOT / "instances" / name))
        for inst in (own, own.with_mode(FLOAT)):
            outcome, report = self.contraction(inst.ext, inst.spec, inst.n_taylor, inst.alpha)
            assert outcome.ok == report.passed == (not name.startswith("strictsub_linear"))
            if inst.commuting is not None:
                outcome, _ = self.contraction(
                    inst.commuting, inst.spec, inst.commuting_n, inst.commuting_alpha
                )
                assert outcome.ok

    def test_ladder_rungs(self, monkeypatch):
        """The benchmark's ladder rungs at seeds 0-3; `ladder_instance`
        refuses a rung that fails validation."""
        workloads = workloads_module(monkeypatch)
        for seed in range(4):
            for rung in workloads.ladder_rungs():
                inst = parse_instance(workloads.ladder_instance(rung, seed))
                _, report = self.contraction(inst.ext, inst.spec, inst.n_taylor, inst.alpha)
                assert report.passed

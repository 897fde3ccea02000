"""Finite permutation bases and contracting polynomial extensions over them.

An Extension assigns to every base point x a polynomial fiber map F_x sending
the fiber over x into the fiber over f(x).  Validation realizes the standing
assumptions numerically: per-block singular-value bands around e^{chi_i},
a uniform contraction bound on the sigma-ball, and the narrowness and
criticality gates.  Coordinates are assumed adapted, so linear parts must be
block-diagonal; inputs that fail any check are reported, not repaired.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import majorant
from .polymap import GradedDims, PolyMap, compose, identity_map
from .spectrum import (
    CriticalityCheck,
    SpectralConstants,
    SpectrumSpec,
    check_narrowness,
    criticality,
    spectral_constants,
)


@dataclass(frozen=True)
class FiniteBase:
    """A permutation f of {0, ..., p-1}."""

    perm: tuple[int, ...]

    def __init__(self, perm: Sequence[int]) -> None:
        perm_t = tuple(int(v) for v in perm)
        if not perm_t:
            raise ValueError("empty permutation: the base needs at least one point")
        if sorted(perm_t) != list(range(len(perm_t))):
            raise ValueError(f"not a permutation of 0..{len(perm_t) - 1}: {perm_t}")
        object.__setattr__(self, "perm", perm_t)

    @property
    def p(self) -> int:
        return len(self.perm)

    def image(self, x: int) -> int:
        return self.perm[x]

    def orbit_point(self, x: int, k: int) -> int:
        for _ in range(k):
            x = self.perm[x]
        return x

    @property
    def cycles(self) -> tuple[tuple[int, ...], ...]:
        seen, cycles = set(), []
        for start in range(self.p):
            if start in seen:
                continue
            cycle, x = [], start
            while x not in seen:
                seen.add(x)
                cycle.append(x)
                x = self.perm[x]
            cycles.append(tuple(cycle))
        return tuple(cycles)

    def compose_with(self, other: "FiniteBase") -> "FiniteBase":
        """Permutation x -> self(other(x))."""
        if other.p != self.p:
            raise ValueError("permutation sizes differ")
        return FiniteBase([self.perm[other.perm[x]] for x in range(self.p)])


class Extension:
    """Per-point polynomial fiber maps over a finite base.

    Fibers share one block grading; F_x maps the fiber over x to the fiber
    over perm(x).  sigma is the working ball radius, xi the contraction
    bound certified on that ball.
    """

    def __init__(
        self,
        base: FiniteBase,
        dims: GradedDims,
        fibers: Sequence[PolyMap],
        sigma: float,
        xi: float,
        mode: str | None = None,
    ) -> None:
        if len(fibers) != base.p:
            raise ValueError(f"need {base.p} fiber maps, got {len(fibers)}")
        modes = {pm.mode for pm in fibers}
        if len(modes) != 1:
            raise ValueError(f"fiber maps mix scalar modes: {modes}")
        if mode and mode not in modes:
            raise ValueError("fiber scalar mode mismatch")
        for x, pm in enumerate(fibers):
            if pm.source.dims != dims.dims or pm.target.dims != dims.dims:
                raise ValueError(f"fiber {x} does not match the declared grading {dims.dims}")
        if not sigma > 0:
            raise ValueError(f"ball radius must be positive, got {sigma}")
        if not 0 < xi < 1:
            raise ValueError(f"contraction bound must lie in (0, 1), got {xi}")
        self.base = base
        self.dims = dims
        self.fibers = tuple(fibers)
        self.sigma = float(sigma)
        self.xi = float(xi)
        self.mode = modes.pop()  # the fibers' policy, also where `mode` is a name

    def fiber(self, x: int) -> PolyMap:
        return self.fibers[x]

    def to_float(self) -> "Extension":
        if not self.mode.exact:
            return self
        fibers = [pm.to_float() for pm in self.fibers]
        return Extension(self.base, self.dims, fibers, self.sigma, self.xi)


def orbit_compose(ext: Extension, x: int, k: int, cap: int) -> PolyMap:
    """Truncated k-step composition F_{f^{k-1}x} o ... o F_x."""
    if k < 0:
        raise ValueError("orbit length must be nonnegative")
    out = identity_map(ext.dims, cap, ext.mode)
    point = x
    for _ in range(k):
        out = compose(ext.fiber(point), out, cap)
        point = ext.base.image(point)
    return out


def power_extension(ext: Extension, k: int, cap: int | None = None) -> Extension:
    """The k-step extension over the k-th power of the base map.

    With cap omitted the composite is exact: polynomial degrees multiply.
    """
    if k < 1:
        raise ValueError("power must be at least 1")
    if cap is None:
        step = max(max(pm.degree() for pm in ext.fibers), 1)
        cap = step**k
    base_k = ext.base
    for _ in range(k - 1):
        base_k = ext.base.compose_with(base_k)
    fibers = [orbit_compose(ext, x, k, cap) for x in range(ext.base.p)]
    return Extension(base_k, ext.dims, fibers, ext.sigma, ext.xi, mode=ext.mode)


# -- validation ---------------------------------------------------------


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class ValidationReport:
    checks: list[CheckOutcome] = field(default_factory=list)
    constants: SpectralConstants | None = None
    crit: CriticalityCheck | None = None

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append(CheckOutcome(name=name, ok=ok, detail=detail))

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list[CheckOutcome]:
        return [c for c in self.checks if not c.ok]


def validate_extension(
    ext: Extension, spec: SpectrumSpec, n_taylor: int, alpha
) -> ValidationReport:
    """Check the standing assumptions; numeric comparisons are strict.

    Singular-value bands realize the adapted-norm estimates per block; the
    contraction check is a coefficient-sum certificate, which bounds
    |F_x(t)|_2 by certificate * |t|_2 on the whole sigma-ball; the
    narrowness and criticality gates use exact rational arithmetic.
    """
    report = ValidationReport()
    constants = spectral_constants(spec)
    report.constants = constants

    if spec.ell != ext.dims.ell:
        report.record(
            "grading",
            False,
            f"spectrum has {spec.ell} blocks but fibers have {ext.dims.ell}",
        )
        return report
    report.record("grading", True)

    lo = [math.exp(float(c - spec.epsilon)) for c in spec.chi]
    hi = [math.exp(float(c + spec.epsilon)) for c in spec.chi]

    diag_detail, band_detail, contraction_detail = [], [], []
    for x, pm in enumerate(ext.fibers):
        matrix = pm.linear_matrix()
        for r, c, entry in ext.dims.off_block(matrix):
            if entry:
                diag_detail.append(f"point {x}: off-block entry at ({r}, {c})")
        full = np.array([[float(v) for v in row] for row in matrix], dtype=float)
        for i in range(ext.dims.ell):
            sl = ext.dims.block_slice(i)
            svals = np.linalg.svd(full[sl, sl], compute_uv=False)
            smin, smax = float(svals[-1]), float(svals[0])
            if not (lo[i] <= smin and smax <= hi[i]):
                band_detail.append(
                    f"point {x} block {i}: singular values [{smin:.6g}, {smax:.6g}] "
                    f"outside [{lo[i]:.6g}, {hi[i]:.6g}]"
                )
        certificate = majorant.norm2(full) + majorant.ball_tail(pm, ext.sigma)
        if not certificate <= ext.xi:
            contraction_detail.append(
                f"point {x}: certificate {certificate:.6g} exceeds xi {ext.xi:.6g}"
            )
    report.record("block-diagonal", not diag_detail, "; ".join(diag_detail))
    report.record("spectral-band", not band_detail, "; ".join(band_detail))
    report.record("contraction", not contraction_detail, "; ".join(contraction_detail))

    narrow = check_narrowness(spec, constants)
    report.record(
        "narrowness",
        narrow,
        "" if narrow else f"epsilon {spec.epsilon} is not below eps0 {constants.eps0}",
    )

    crit = criticality(spec, n_taylor, alpha)
    report.crit = crit
    report.record(
        "criticality",
        crit.ok,
        "" if crit.ok else f"nu={crit.nu}, bound={crit.eps_bound}, epsilon={spec.epsilon}",
    )

    report.record(
        "taylor-degree",
        n_taylor >= constants.d,
        "" if n_taylor >= constants.d else f"N={n_taylor} below degree bound d={constants.d}",
    )
    return report

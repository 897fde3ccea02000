"""Exponent arithmetic for block-graded contracting spectra.

Everything here is exact rational arithmetic.  A spectrum is a strictly
increasing tuple of negative exponents chi_1 < ... < chi_ell < 0 together
with a band half-width epsilon; each block of coordinates contracts at rate
e^{chi_i} up to the band.  Homogeneous monomial types are classified as
resonance, strict sub-resonance or non-sub-resonance by comparing the target
block's exponent with the weighted sum of the source exponents, and the
derived constants (degree bound, narrowness threshold, criticality margin)
certify the contraction factors used by the normal-form solvers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterator, Sequence


def exact(value) -> Fraction:
    """Coerce to an exact rational.  Floats are rejected, not rounded."""
    if isinstance(value, float):
        raise TypeError(f"expected an exact rational, got float {value!r}")
    return Fraction(value)


class TypeClass(Enum):
    RESONANCE = "resonance"
    STRICT_SUB = "strict-sub-resonance"
    NON_SUB = "non-sub-resonance"


#: The two classes forming the sub-resonance family.
SUB_RESONANCE = frozenset({TypeClass.RESONANCE, TypeClass.STRICT_SUB})


@dataclass(frozen=True)
class SpectrumSpec:
    """Strictly increasing negative exponents plus a band half-width.

    chi[0] is the fastest (most negative) rate, chi[-1] the slowest.
    """

    chi: tuple[Fraction, ...]
    epsilon: Fraction

    def __init__(self, chi: Sequence, epsilon) -> None:
        chi_t = tuple(exact(c) for c in chi)
        eps = exact(epsilon)
        if not chi_t:
            raise ValueError("spectrum needs at least one exponent")
        if any(c >= 0 for c in chi_t):
            raise ValueError(f"exponents must be negative, got {chi_t}")
        if any(a >= b for a, b in zip(chi_t, chi_t[1:])):
            raise ValueError(f"exponents must be strictly increasing, got {chi_t}")
        if eps <= 0:
            raise ValueError(f"band half-width must be positive, got {eps}")
        object.__setattr__(self, "chi", chi_t)
        object.__setattr__(self, "epsilon", eps)
        # (block, block-degree vector) -> TypeClass, and the derived
        # constants once computed; not fields, so equality, hashing and
        # repr ignore them
        object.__setattr__(self, "_classes", {})
        object.__setattr__(self, "_constants", None)

    @property
    def ell(self) -> int:
        return len(self.chi)

    def weight(self, s: Sequence[int]) -> Fraction:
        """Weighted exponent sum(s_j chi_j) of a block-degree vector."""
        if len(s) != self.ell:
            raise ValueError(f"block-degree vector {s} has wrong length")
        return sum((k * c for k, c in zip(s, self.chi)), Fraction(0))

    def type_class(self, block: int, s: tuple[int, ...]) -> "TypeClass":
        """`classify_type` of HomogeneousType(block, s), memoized on the
        spectrum by its label (block, s)."""
        got = self._classes.get((block, s))
        if got is None:
            if block >= self.ell or len(s) != self.ell:
                t = HomogeneousType(block, s)
                raise ValueError(f"type {t} does not fit an {self.ell}-block spectrum")
            w = self.weight(s)
            target = self.chi[block]
            if target == w:
                got = TypeClass.RESONANCE
            elif target < w:
                got = TypeClass.STRICT_SUB
            else:
                got = TypeClass.NON_SUB
            self._classes[(block, s)] = got
        return got


@dataclass(frozen=True)
class HomogeneousType:
    """A target block together with per-block source degrees of a monomial."""

    block: int
    s: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "s", tuple(int(k) for k in self.s))
        if self.block < 0:
            raise ValueError(f"negative block index {self.block}")
        if any(k < 0 for k in self.s):
            raise ValueError(f"negative degree in {self.s}")
        if self.degree < 1:
            raise ValueError("types have total degree >= 1")

    @property
    def degree(self) -> int:
        return sum(self.s)


def classify_type(spec: SpectrumSpec, t: HomogeneousType) -> TypeClass:
    """Compare the target exponent with the weighted source exponents.

    chi_i = sum s_j chi_j is a resonance, chi_i < sum a strict sub-resonance,
    chi_i > sum falls outside the sub-resonance family.  Raises ValueError
    on a type that does not fit the spectrum.
    """
    return spec.type_class(t.block, t.s)


def degree_bound(spec: SpectrumSpec) -> int:
    """Largest possible degree of a sub-resonance type: floor(chi_1/chi_ell)."""
    return math.floor(spec.chi[0] / spec.chi[-1])


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All ways to write total as an ordered sum of `parts` nonnegative ints.

    Emitted in lexicographically descending order, e.g. (2,0), (1,1), (0,2).
    """
    if parts < 1:
        raise ValueError("need at least one part")
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def enumerate_types(
    spec: SpectrumSpec, degree: int, block: int
) -> list[tuple[HomogeneousType, TypeClass]]:
    """All homogeneous types of the given degree targeting one block."""
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    if not 0 <= block < spec.ell:
        raise ValueError(f"block {block} out of range for ell={spec.ell}")
    out = []
    for s in compositions(degree, spec.ell):
        t = HomogeneousType(block, s)
        out.append((t, classify_type(spec, t)))
    return out


@dataclass(frozen=True)
class SpectralConstants:
    """Derived constants of a spectrum.

    d         largest sub-resonance degree
    lam_tilde best (largest) negative value of -chi_i + sum s_j chi_j
    lam       max of lam_tilde and -chi_1 + (d+1) chi_ell
    mu        best negative value of chi_i - sum s_j chi_j over strict
              sub-resonance types, or None when no such type exists
    eps0      narrowness threshold min(-chi_ell, -lam/(d+2), -mu/(d+1))
    """

    d: int
    lam_tilde: Fraction
    lam: Fraction
    mu: Fraction | None
    eps0: Fraction


def spectral_constants(spec: SpectrumSpec) -> SpectralConstants:
    """The derived constants, computed once per spectrum and kept on it."""
    if spec._constants is None:
        object.__setattr__(spec, "_constants", _derive_constants(spec))
    return spec._constants


def _derive_constants(spec: SpectrumSpec) -> SpectralConstants:
    d = degree_bound(spec)
    chi_fast, chi_slow = spec.chi[0], spec.chi[-1]
    # The pure slow-block type of degree d+1 targeting the fastest block
    # realizes this value, so the scan below starts from it.  A type of
    # degree n has value at most -chi_fast + n*chi_slow, so only degrees with
    # -chi_fast + n*chi_slow above the current best can still improve.
    floor_value = -chi_fast + (d + 1) * chi_slow
    best = floor_value
    degree = 1
    while -chi_fast + degree * chi_slow > best:
        for block in range(spec.ell):
            for s in compositions(degree, spec.ell):
                value = -spec.chi[block] + spec.weight(s)
                if value < 0 and value > best:
                    best = value
        degree += 1
    lam_tilde = best
    lam = max(lam_tilde, floor_value)

    mu: Fraction | None = None
    for degree in range(1, d + 1):
        for block in range(spec.ell):
            for t, cls in enumerate_types(spec, degree, block):
                if cls is TypeClass.STRICT_SUB:
                    value = spec.chi[block] - spec.weight(t.s)
                    if mu is None or value > mu:
                        mu = value

    terms = [-chi_slow, -lam / (d + 2)]
    if mu is not None:
        terms.append(-mu / (d + 1))
    eps0 = min(terms)
    return SpectralConstants(d=d, lam_tilde=lam_tilde, lam=lam, mu=mu, eps0=eps0)


def check_narrowness(spec: SpectrumSpec, constants: SpectralConstants) -> bool:
    """Strict inequality epsilon < eps0; the boundary case fails."""
    return spec.epsilon < constants.eps0


@dataclass(frozen=True)
class CriticalityCheck:
    """Margin nu and the induced strict bound on epsilon for regularity (N, alpha)."""

    nu: Fraction
    eps_bound: Fraction
    ok: bool


def criticality(spec: SpectrumSpec, n_taylor: int, alpha) -> CriticalityCheck:
    """Margin nu = chi_1 - (N + alpha) chi_ell and the limit-convergence gate.

    The evaluator's orbit series converges when nu > 0 and
    epsilon < nu / (N + alpha + 1); both inequalities are strict.
    """
    a = exact(alpha)
    if not 0 <= a <= 1:
        raise ValueError(f"Hoelder exponent must lie in [0, 1], got {a}")
    if n_taylor < 1:
        raise ValueError(f"Taylor degree must be >= 1, got {n_taylor}")
    nu = spec.chi[0] - (n_taylor + a) * spec.chi[-1]
    eps_bound = nu / (n_taylor + a + 1)
    ok = nu > 0 and spec.epsilon < eps_bound
    return CriticalityCheck(nu=nu, eps_bound=eps_bound, ok=ok)


def phi_contraction_bound(
    spec: SpectrumSpec, t: HomogeneousType, direction: str
) -> Fraction:
    """Exponent bounding the conjugation operator on one homogeneous type.

    'forward' bounds R -> F^{-1} o R o F along the map by
    -chi_i + sum s_j chi_j + (n+1) eps; 'backward' bounds the inverse
    conjugation by chi_i - sum s_j chi_j + (n+1) eps.  The returned value is
    the exponent; the operator norm bound is its exp.
    """
    w = spec.weight(t.s)
    target = spec.chi[t.block]
    n = t.degree
    if direction == "forward":
        return -target + w + (n + 1) * spec.epsilon
    if direction == "backward":
        return target - w + (n + 1) * spec.epsilon
    raise ValueError(f"direction must be 'forward' or 'backward', got {direction!r}")

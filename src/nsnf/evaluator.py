"""Pointwise evaluation of the full coordinate change via its invariance limit.

The Taylor conjugacy is polynomial, but the true coordinate change is only
C^{N,alpha}; it is reached pointwise as the limit of pulled-back Taylor
evaluations along the forward orbit.  Forward orbits are computed by exact
fiber-map evaluation, never by truncated composition, and the normal-form
composites are undone stepwise through exact degree-d group inverses.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .normal_form import NormalFormResult
from .polymap import group_inverse


class EvalError(RuntimeError):
    """The invariance iteration failed to converge within its budget."""


@dataclass(frozen=True)
class EvalConfig:
    tol: float = 1e-12
    k_max: int = 200
    radius: float = 0.05

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.k_max < 1:
            raise ValueError("k_max must be at least 1")
        if not self.radius > 0:
            raise ValueError("radius must be positive")


@dataclass
class EvalResult:
    value: tuple[float, ...]
    iterations: int
    converged: bool
    last_increment: float
    increments: tuple[float, ...]


@dataclass
class OrderFit:
    """Least-squares slope of log gap against log radius."""

    slope: float | None
    intercept: float | None
    radii: tuple[float, ...]
    gaps: tuple[float, ...]
    degenerate: bool


@dataclass
class ResidualStats:
    samples: int
    seed: int
    max_residual: float
    mean_residual: float
    max_iterations: int
    max_increment_ratio: float | None
    cert_ratio: float
    max_one_step_gap: float


def _sup(v) -> float:
    return max((abs(c) for c in v), default=0.0)


class Evaluator:
    """Evaluates the limit coordinate change of one build at fiber points.

    Rational builds are converted to binary64 once at construction; the
    limit itself is inherently numeric.
    """

    def __init__(self, nf: NormalFormResult, cfg: EvalConfig | None = None):
        self.cfg = cfg or EvalConfig()
        nf = nf.to_float()
        if self.cfg.radius > float(nf.ext.sigma):
            raise ValueError("sample radius exceeds the certified ball")
        self.nf = nf
        self.ext = nf.ext
        self.spec = nf.spec
        self.base = nf.ext.base
        self.p_inv = [
            group_inverse(g, nf.spec, tol=1e-9).poly for g in nf.p_normal
        ]

    @property
    def cert_ratio(self) -> float:
        """Certified bound on the ratio of successive iterate increments:
        trajectory decay xi^(N+1) against the slowest inverse growth."""
        xi = float(self.ext.xi)
        grow = math.exp(float(-self.spec.chi[0] + self.spec.epsilon))
        return xi ** (self.nf.n_taylor + 1) * grow

    def eval_taylor(self, x: int, t) -> tuple[float, ...]:
        return tuple(self.nf.h_taylor[x].evaluate(tuple(t)))

    def eval_h(self, x: int, t, cfg: EvalConfig | None = None) -> EvalResult:
        cfg = cfg or self.cfg
        t = tuple(float(c) for c in t)
        if _sup(t) > cfg.radius:
            raise ValueError(f"|t| = {_sup(t):.4g} exceeds the sample radius {cfg.radius}")
        if all(c == 0.0 for c in t):
            return EvalResult(t, 0, True, 0.0, ())

        w = t
        y = x
        chain: list[int] = []
        prev = self.nf.h_taylor[x].evaluate(w)
        increments: list[float] = []
        for k in range(1, cfg.k_max + 1):
            w = self.ext.fiber(y).evaluate(w)
            chain.append(y)
            y = self.base.image(y)
            u = self.nf.h_taylor[y].evaluate(w)
            for idx in reversed(chain):
                u = self.p_inv[idx].evaluate(u)
            delta = _sup(tuple(a - b for a, b in zip(u, prev)))
            increments.append(delta)
            if delta < cfg.tol:
                return EvalResult(tuple(u), k, True, delta, tuple(increments))
            prev = u
        raise EvalError(
            f"no convergence within {cfg.k_max} iterations at point {x}; "
            f"last increment {increments[-1]:.3e} (hypothesis violated or radius too large)"
        )

    def _there(self, x: int, t, cfg: EvalConfig) -> tuple[float, ...]:
        """The limit one step on: H_{fx}(F_x(t))."""
        ft = self.ext.fiber(x).evaluate(t)
        return self.eval_h(self.base.image(x), ft, cfg).value

    def _residual(self, x: int, here, there) -> float:
        right = self.nf.p_poly(x).evaluate(here)
        return _sup(tuple(a - b for a, b in zip(there, right)))

    def _one_step_gap(self, x: int, here, there) -> float:
        pulled = self.p_inv[x].evaluate(there)
        return _sup(tuple(a - b for a, b in zip(here, pulled)))

    def residual(self, x: int, t, cfg: EvalConfig | None = None) -> float:
        """Defect of the conjugacy identity at the converged limit."""
        cfg = cfg or self.cfg
        t = tuple(float(c) for c in t)
        there = self._there(x, t, cfg)
        return self._residual(x, self.eval_h(x, t, cfg).value, there)

    def one_step_gap(self, x: int, t, cfg: EvalConfig | None = None) -> float:
        """Single-step invariance: H_x(t) against P_x^{-1}(H_{fx}(F_x(t)))."""
        cfg = cfg or self.cfg
        t = tuple(float(c) for c in t)
        there = self._there(x, t, cfg)
        return self._one_step_gap(x, self.eval_h(x, t, cfg).value, there)

    def order_of_contact(
        self,
        x: int,
        direction,
        radii=None,
        cfg: EvalConfig | None = None,
    ) -> OrderFit:
        """Fit the contact order of the limit against its Taylor jet along a ray.

        Gaps below 100x the stopping tolerance sit at the noise floor and are
        excluded; with fewer than two usable radii the fit is degenerate.
        """
        cfg = cfg or self.cfg
        direction = tuple(float(c) for c in direction)
        norm = math.sqrt(sum(c * c for c in direction))
        if norm == 0:
            raise ValueError("direction must be nonzero")
        direction = tuple(c / norm for c in direction)
        if radii is None:
            radii = [cfg.radius * 2.0 ** (-j) for j in range(4)]
        radii = tuple(float(r) for r in radii)

        gaps = []
        for r in radii:
            t = tuple(r * c for c in direction)
            limit = self.eval_h(x, t, cfg).value
            jet = self.eval_taylor(x, t)
            gaps.append(_sup(tuple(a - b for a, b in zip(limit, jet))))
        gaps = tuple(gaps)

        floor = 100.0 * cfg.tol
        usable = [(r, g) for r, g in zip(radii, gaps) if g > floor]
        if len(usable) < 2:
            return OrderFit(None, None, radii, gaps, True)
        xs = [math.log(r) for r, _ in usable]
        ys = [math.log(g) for _, g in usable]
        n = len(xs)
        mx, my = sum(xs) / n, sum(ys) / n
        sxx = sum((u - mx) ** 2 for u in xs)
        sxy = sum((u - mx) * (v - my) for u, v in zip(xs, ys))
        slope = sxy / sxx
        return OrderFit(slope, my - slope * mx, radii, gaps, False)

    def residual_stats(
        self,
        seed: int = 0,
        samples: int = 1000,
        cfg: EvalConfig | None = None,
        one_step_every: int = 20,
    ) -> ResidualStats:
        """Conjugacy residuals over a deterministic ball sample.

        Points are drawn uniformly over base points; fiber vectors uniformly
        from the Euclidean ball of the configured radius (which keeps the
        sup norm inside it too).  The same seed reproduces the same stats.
        """
        cfg = cfg or self.cfg
        rng = random.Random(seed)
        n = self.ext.dims.total
        total = 0.0
        worst = 0.0
        worst_iter = 0
        worst_gap = 0.0
        ratios: list[float] = []
        for j in range(samples):
            x = rng.randrange(self.base.p)
            raw = [rng.gauss(0.0, 1.0) for _ in range(n)]
            nrm = math.sqrt(sum(c * c for c in raw)) or 1.0
            scale = cfg.radius * rng.random() ** (1.0 / n) / nrm
            t = tuple(scale * c for c in raw)

            res = self.eval_h(x, t, cfg)
            worst_iter = max(worst_iter, res.iterations)
            for d1, d2 in zip(res.increments, res.increments[1:]):
                if d1 > 100.0 * cfg.tol and d2 > 100.0 * cfg.tol:
                    ratios.append(d2 / d1)
            there = self._there(x, t, cfg)
            r = self._residual(x, res.value, there)
            total += r
            worst = max(worst, r)
            if one_step_every and j % one_step_every == 0:
                worst_gap = max(worst_gap, self._one_step_gap(x, res.value, there))
        return ResidualStats(
            samples=samples,
            seed=seed,
            max_residual=worst,
            mean_residual=total / max(samples, 1),
            max_iterations=worst_iter,
            max_increment_ratio=max(ratios) if ratios else None,
            cert_ratio=self.cert_ratio,
            max_one_step_gap=worst_gap,
        )

"""Pointwise evaluation of the full coordinate change via its invariance limit.

The Taylor conjugacy is polynomial, but the true coordinate change is only
C^{N,alpha}; it is reached pointwise as the limit of pulled-back Taylor
evaluations along the forward orbit.  Forward orbits are computed by
binary64 evaluation of the fiber maps themselves, never by truncated
composition, and the normal-form composites are undone stepwise through the
degree-d group inverses.  All samples of a call advance in lockstep through
batched evaluation (`PolyMap.evaluate_batch`), each frozen at its own step
of convergence.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

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


@dataclass
class Limits:
    """Invariance limits of a batch of samples, row by row."""

    values: np.ndarray  # (samples, n)
    iterations: np.ndarray  # (samples,): steps to convergence, 0 at the zero point
    increments: np.ndarray  # (steps, samples): row k-1 holds step k, nan past a sample's last


def _sup(rows: np.ndarray) -> np.ndarray:
    """Sup norm of every row."""
    return np.abs(rows).max(axis=1, initial=0.0)


def evaluate_at(maps, xs: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Row i is maps[xs[i]] evaluated at points[i], one batch per point."""
    out = np.empty((len(xs), maps[0].target.total))
    for x in sorted(set(xs.tolist())):
        rows = xs == x
        out[rows] = maps[x].evaluate_batch(points[rows])
    return out


def interleave(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[0], b[0], a[1], b[1], ...: pairs of limits in draw order."""
    return np.stack([a, b], axis=1).reshape(-1, *a.shape[1:])


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
        self.p_maps = [g.poly for g in nf.p_normal]
        self._perm = np.array(self.base.perm, dtype=np.intp)

    @property
    def cert_ratio(self) -> float:
        """Certified bound on the ratio of successive iterate increments:
        trajectory decay xi^(N+1) against the slowest inverse growth."""
        xi = float(self.ext.xi)
        grow = math.exp(float(-self.spec.chi[0] + self.spec.epsilon))
        return xi ** (self.nf.n_taylor + 1) * grow

    def eval_taylor(self, x: int, t) -> tuple[float, ...]:
        return tuple(self.nf.h_taylor[x].evaluate(tuple(t)))

    def limits(self, xs, points, cfg: EvalConfig | None = None) -> Limits:
        """The limit at every row (xs[i], points[i]), all rows in lockstep.

        Rows sharing a start point share the map sequence x, f(x), ...; each
        row freezes at the first step whose increment falls below tol.  A
        row still moving after k_max steps raises EvalError, naming the
        first such row.
        """
        cfg = cfg or self.cfg
        xs = np.asarray(xs, dtype=np.intp)
        points = np.asarray(points, dtype=float).reshape(len(xs), self.ext.dims.total)
        size = _sup(points)
        over = np.flatnonzero(size > cfg.radius)
        if over.size:
            raise ValueError(
                f"|t| = {size[over[0]]:.4g} exceeds the sample radius {cfg.radius}"
            )
        values = points.copy()
        iterations = np.zeros(len(xs), dtype=np.intp)
        steps: list[np.ndarray] = []
        stuck: list[tuple[int, int, float]] = []
        h, p_inv = self.nf.h_taylor, self.p_inv
        for x in sorted(set(xs.tolist())):
            rows = np.flatnonzero((xs == x) & (size > 0.0))  # the zero point is fixed
            w = points[rows]
            prev = h[x].evaluate_batch(w)
            chain: list[int] = []
            y = int(x)
            for k in range(1, cfg.k_max + 1):
                if not rows.size:
                    break
                w = self.ext.fiber(y).evaluate_batch(w)
                chain.append(y)
                y = self.base.image(y)
                u = h[y].evaluate_batch(w)
                for idx in reversed(chain):
                    u = p_inv[idx].evaluate_batch(u)
                delta = _sup(u - prev)
                if len(steps) < k:
                    steps.append(np.full(len(xs), np.nan))
                steps[k - 1][rows] = delta
                done = delta < cfg.tol  # the stopping rule
                values[rows[done]] = u[done]
                iterations[rows[done]] = k
                moving = ~done
                rows, w, prev = rows[moving], w[moving], u[moving]
            else:
                if rows.size:
                    stuck.append((int(rows[0]), int(x), float(steps[-1][rows[0]])))
        if stuck:
            _, x, last = min(stuck)
            raise EvalError(
                f"no convergence within {cfg.k_max} iterations at point {x}; "
                f"last increment {last:.3e} (hypothesis violated or radius too large)"
            )
        increments = np.array(steps) if steps else np.empty((0, len(xs)))
        return Limits(values, iterations, increments)

    def eval_h(self, x: int, t, cfg: EvalConfig | None = None) -> EvalResult:
        """The limit at one point: `limits` on a batch of one."""
        lim = self.limits([x], [t], cfg)
        k = int(lim.iterations[0])
        increments = tuple(lim.increments[:k, 0].tolist())
        last = increments[-1] if increments else 0.0
        return EvalResult(tuple(lim.values[0].tolist()), k, True, last, increments)

    def _here_and_there(self, xs, points, cfg: EvalConfig) -> tuple[Limits, np.ndarray, np.ndarray]:
        """Limits at (x, t) and one step on, at (f(x), F_x(t)), evaluated as
        one batch in draw order."""
        xs = np.asarray(xs, dtype=np.intp)
        points = np.asarray(points, dtype=float).reshape(len(xs), self.ext.dims.total)
        ft = evaluate_at(self.ext.fibers, xs, points)
        lim = self.limits(interleave(xs, self._perm[xs]), interleave(points, ft), cfg)
        return lim, lim.values[0::2], lim.values[1::2]

    def _residuals(self, xs, here, there) -> np.ndarray:
        """|H_{fx}(F_x(t)) - P_x(H_x(t))| per row."""
        return _sup(there - evaluate_at(self.p_maps, xs, here))

    def _one_step_gaps(self, xs, here, there) -> np.ndarray:
        """|H_x(t) - P_x^{-1}(H_{fx}(F_x(t)))| per row."""
        return _sup(here - evaluate_at(self.p_inv, xs, there))

    def residual(self, x: int, t, cfg: EvalConfig | None = None) -> float:
        """Defect of the conjugacy identity at the converged limit."""
        xs = np.array([x], dtype=np.intp)
        _, here, there = self._here_and_there(xs, [t], cfg or self.cfg)
        return float(self._residuals(xs, here, there)[0])

    def one_step_gap(self, x: int, t, cfg: EvalConfig | None = None) -> float:
        """Single-step invariance: H_x(t) against P_x^{-1}(H_{fx}(F_x(t)))."""
        xs = np.array([x], dtype=np.intp)
        _, here, there = self._here_and_there(xs, [t], cfg or self.cfg)
        return float(self._one_step_gaps(xs, here, there)[0])

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

        points = np.array([[r * c for c in direction] for r in radii])
        points = points.reshape(len(radii), self.ext.dims.total)
        limit = self.limits([x] * len(radii), points, cfg).values
        jet = self.nf.h_taylor[x].evaluate_batch(points)
        gaps = tuple(_sup(limit - jet).tolist())

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

    def sample_points(self, seed: int, samples: int, radius: float) -> tuple[np.ndarray, np.ndarray]:
        """A deterministic ball sample: base points uniformly, fiber vectors
        uniformly from the Euclidean ball of the radius (which keeps the sup
        norm inside it too), drawn from random.Random(seed)."""
        rng = random.Random(seed)
        n = self.ext.dims.total
        xs, points = [], []
        for _ in range(samples):
            xs.append(rng.randrange(self.base.p))
            raw = [rng.gauss(0.0, 1.0) for _ in range(n)]
            nrm = math.sqrt(sum(c * c for c in raw)) or 1.0
            scale = radius * rng.random() ** (1.0 / n) / nrm
            points.append([scale * c for c in raw])
        return np.array(xs, dtype=np.intp), np.array(points, dtype=float).reshape(samples, n)

    def residual_stats(
        self,
        seed: int = 0,
        samples: int = 1000,
        cfg: EvalConfig | None = None,
        one_step_every: int = 20,
    ) -> ResidualStats:
        """Conjugacy residuals over the deterministic ball sample of
        `sample_points`; the same seed reproduces the same stats."""
        cfg = cfg or self.cfg
        xs, points = self.sample_points(seed, samples, cfg.radius)
        lim, here, there = self._here_and_there(xs, points, cfg)
        residuals = self._residuals(xs, here, there).tolist()
        checked = slice(None, None, one_step_every) if one_step_every else slice(0)
        gaps = self._one_step_gaps(xs[checked], here[checked], there[checked])

        inc = lim.increments[:, 0::2]
        floor = 100.0 * cfg.tol
        both = (inc[:-1] > floor) & (inc[1:] > floor)
        ratios = inc[1:][both] / inc[:-1][both]
        return ResidualStats(
            samples=samples,
            seed=seed,
            max_residual=max(residuals, default=0.0),
            mean_residual=sum(residuals) / max(samples, 1),
            max_iterations=int(lim.iterations[0::2].max(initial=0)),
            max_increment_ratio=float(ratios.max()) if ratios.size else None,
            cert_ratio=self.cert_ratio,
            max_one_step_gap=float(gaps.max(initial=0.0)),
        )

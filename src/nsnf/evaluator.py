"""Pointwise evaluation of the full coordinate change via its invariance limit.

The Taylor conjugacy is polynomial, but the true coordinate change is only
C^{N,alpha}; it is reached pointwise as the limit of pulled-back Taylor
evaluations along the forward orbit.  Forward orbits are computed by
binary64 evaluation of the fiber maps themselves, never by truncated
composition, and the normal-form composites are undone stepwise through the
degree-d group inverses.  All samples of a call advance in lockstep through
batched evaluation (`PolyMap.evaluate_batch`), each frozen at its own step
of convergence; `Evaluator.survey` sends every limit of a run, residual
pairs and contact-order rays alike, through one such batch.

The residual sample is drawn from random.Random(seed), bit for bit as a
per-sample loop of randrange, gauss and random draws it, but decoded in
bulk from the generator's raw 32-bit words (`ball_sample`).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .normal_form import NormalFormResult
from .polymap import group_inverse


# `survey` also checks the one-step gap at every this-many-th residual sample.
ONE_STEP_EVERY = 20


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


_TWOPI = 2.0 * math.pi  # as random.TWOPI


def _uniforms(words: np.ndarray, at: np.ndarray) -> np.ndarray:
    """random() of the word pairs (words[at], words[at + 1]): their top 27
    and 26 bits joined into a 53-bit fraction, as CPython builds it."""
    a = (words[at] >> 5).astype(float)
    b = (words[at + 1] >> 6).astype(float)
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0)


def _next_accepted(words: np.ndarray, shift: int, p: int) -> memoryview:
    """For every word index i, and one past the last, the first index >= i
    whose word randrange(p) accepts, or len(words) if there is none."""
    size = len(words)
    hit = np.append(np.where((words >> shift) < p, np.arange(size), size), size)
    return memoryview(np.minimum.accumulate(hit[::-1])[::-1])


def _libm(fn, values: np.ndarray, *args) -> np.ndarray:
    """fn(value, *args) at every entry, through the interpreter's libm."""
    return np.fromiter(map(fn, values.tolist(), *(repeat(a) for a in args)), float, len(values))


def ball_sample(seed: int, p: int, n: int, samples: int, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Base points below p and fiber vectors in the Euclidean ball of the
    radius, bit for bit as this loop over random.Random(seed) draws them:

        for _ in range(samples):
            x = rng.randrange(p)
            raw = [rng.gauss(0.0, 1.0) for _ in range(n)]
            nrm = math.sqrt(sum(c * c for c in raw)) or 1.0
            scale = radius * rng.random() ** (1.0 / n) / nrm
            t = [scale * c for c in raw]

    The values are decoded in bulk from the generator's 32-bit words.  Per
    sample, randrange(p) reads one word per attempt and keeps its top
    p.bit_length() bits, rejecting values >= p; gauss() makes its normals
    in pairs from two random() values (4 words) and caches the second, so
    with odd n a pair straddles two samples; random() reads 2 words.  The
    arithmetic runs vectorized in the loop's order, while log, cos, sin,
    ** and the sum of squares (compensated from Python 3.12 on) stay the
    interpreter's own.  The first draw holds the words the samples read
    when randrange rejects nothing; a top-up after the first rejection
    leaves room for the rest.
    """
    k = p.bit_length()
    if not 0 < k <= 32:
        raise ValueError("base point count must lie in [1, 2**32)")
    shift = 32 - k
    rng = random.Random(seed)
    # sample j starts the normal pairs ceil(j n / 2) .. ceil((j + 1) n / 2) - 1
    first_pair = -(-np.arange(samples + 1) * n // 2)
    pairs = np.diff(first_pair)
    tails = (4 * pairs + 2).tolist()  # words a sample reads after its base point
    per_sample = 4 * -(-n // 2) + 2 + (1 << k) // p + 1  # randrange reads 2**k / p words on average

    def draw(count: int) -> np.ndarray:
        # getrandbits fills its integer least significant word first
        raw = rng.getrandbits(32 * count).to_bytes(4 * count, "little")
        return np.frombuffer(raw, dtype="<u4")

    words = draw(sum(tails) + samples)
    accepted = _next_accepted(words, shift, p)
    size = len(words)
    starts = []  # the index of each sample's base-point word
    pos = 0
    for j, tail in enumerate(tails):
        i = accepted[pos]
        while i + tail >= size:
            words = np.concatenate([words, draw((samples - j) * per_sample + 16)])
            accepted = _next_accepted(words, shift, p)
            size = len(words)
            i = accepted[pos]
        starts.append(i)
        pos = i + 1 + tail
    starts = np.array(starts, dtype=np.intp)

    owner = np.repeat(np.arange(samples), pairs)
    at = starts[owner] + 1 + 4 * (np.arange(len(owner)) - first_pair[owner])
    x2pi = _uniforms(words, at) * _TWOPI
    g2rad = np.sqrt(-2.0 * _libm(math.log, 1.0 - _uniforms(words, at + 2)))
    normals = np.stack([_libm(math.cos, x2pi) * g2rad, _libm(math.sin, x2pi) * g2rad], axis=1)
    raw = 0.0 + normals.reshape(-1)[: samples * n].reshape(samples, n)  # mu + z * sigma
    nrm = np.sqrt(np.fromiter(map(sum, (raw * raw).tolist()), float, samples))
    nrm[nrm == 0.0] = 1.0
    grow = _libm(pow, _uniforms(words, starts + 1 + 4 * pairs), 1.0 / n)
    scale = radius * grow / nrm
    return (words[starts] >> shift).astype(np.intp), scale[:, None] * raw


def _unit(direction) -> tuple[float, ...]:
    """The direction scaled to Euclidean length 1."""
    direction = tuple(float(c) for c in direction)
    norm = math.sqrt(sum(c * c for c in direction))
    if norm == 0:
        raise ValueError("direction must be nonzero")
    return tuple(c / norm for c in direction)


def _contact_fit(radii: tuple[float, ...], gaps: tuple[float, ...], floor: float) -> OrderFit:
    """Least-squares fit of log gap against log radius over the gaps above
    the noise floor; degenerate with fewer than two."""
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
        self.p_inv = [group_inverse(g, nf.spec).poly for g in nf.p_normal]
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

    def _paired(self, xs: np.ndarray, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Rows (x, t) and one step on, (f(x), F_x(t)), interleaved in draw order."""
        ft = evaluate_at(self.ext.fibers, xs, points)
        return interleave(xs, self._perm[xs]), interleave(points, ft)

    def _residuals(self, xs, here, there) -> np.ndarray:
        """|H_{fx}(F_x(t)) - P_x(H_x(t))| per row."""
        return _sup(there - evaluate_at(self.p_maps, xs, here))

    def residual(self, x: int, t) -> float:
        """Defect of the conjugacy identity at the converged limit: the
        limits at (x, t) and one step on, at (f(x), F_x(t)), in one batch."""
        xs = np.array([x], dtype=np.intp)
        points = np.asarray(t, dtype=float).reshape(1, self.ext.dims.total)
        values = self.limits(*self._paired(xs, points)).values
        return float(self._residuals(xs, values[0::2], values[1::2])[0])

    def sample_points(self, seed: int, samples: int, radius: float) -> tuple[np.ndarray, np.ndarray]:
        """A deterministic ball sample: base points uniformly, fiber vectors
        uniformly from the Euclidean ball of the radius (which keeps the sup
        norm inside it too), drawn from random.Random(seed) bit for bit as
        the per-sample loop of `ball_sample` draws them."""
        return ball_sample(seed, self.base.p, self.ext.dims.total, samples, radius)

    def survey(
        self, seed: int, samples: int, rays=(), radii=None
    ) -> tuple[ResidualStats, list[OrderFit]]:
        """Residual statistics over the ball sample of `sample_points` and a
        contact-order fit along each ray (x, direction), all limits in one
        `limits` batch: the sample's pairs (x, t), (f(x), F_x(t)) in draw
        order, then each ray's points at the radii (by default the sample
        radius halved three times).

        Gaps of the limit against the Taylor jet below 100x the stopping
        tolerance sit at the noise floor and are left out of the fits; a fit
        with fewer than two usable radii is degenerate.
        """
        cfg = self.cfg
        if radii is None:
            radii = [cfg.radius * 2.0 ** (-j) for j in range(4)]
        radii = tuple(float(r) for r in radii)
        n = self.ext.dims.total
        ray_xs = np.repeat(np.array([x for x, _ in rays], dtype=np.intp), len(radii))
        ray_points = np.array(
            [[r * c for c in _unit(d)] for _, d in rays for r in radii], dtype=float
        ).reshape(len(ray_xs), n)
        xs, points = self.sample_points(seed, samples, cfg.radius)
        pair_xs, pair_points = self._paired(xs, points)
        lim = self.limits(
            np.concatenate([pair_xs, ray_xs]), np.concatenate([pair_points, ray_points])
        )

        m = 2 * samples
        here, there = lim.values[0:m:2], lim.values[1:m:2]
        residuals = self._residuals(xs, here, there).tolist()
        checked = slice(None, None, ONE_STEP_EVERY)
        # |H_x(t) - P_x^{-1}(H_{fx}(F_x(t)))| at every checked sample
        gaps = _sup(here[checked] - evaluate_at(self.p_inv, xs[checked], there[checked]))
        inc = lim.increments[:, 0:m:2]
        floor = 100.0 * cfg.tol
        both = (inc[:-1] > floor) & (inc[1:] > floor)
        ratios = inc[1:][both] / inc[:-1][both]
        stats = ResidualStats(
            samples=samples,
            seed=seed,
            max_residual=max(residuals, default=0.0),
            mean_residual=sum(residuals) / max(samples, 1),
            max_iterations=int(lim.iterations[0:m:2].max(initial=0)),
            max_increment_ratio=float(ratios.max()) if ratios.size else None,
            cert_ratio=self.cert_ratio,
            max_one_step_gap=float(gaps.max(initial=0.0)),
        )

        jets = evaluate_at(self.nf.h_taylor, ray_xs, ray_points)
        ray_gaps = _sup(lim.values[m:] - jets).reshape(len(rays), len(radii))
        fits = [_contact_fit(radii, tuple(g), floor) for g in ray_gaps.tolist()]
        return stats, fits

    def residual_stats(self, seed: int = 0, samples: int = 1000) -> ResidualStats:
        """Conjugacy residuals over the deterministic ball sample of
        `sample_points`; the same seed reproduces the same stats."""
        return self.survey(seed, samples)[0]

    def order_of_contact(self, x: int, direction, radii=None) -> OrderFit:
        """Fit the contact order of the limit against its Taylor jet along a
        ray, as `survey` does for each of its rays."""
        return self.survey(0, 0, [(x, direction)], radii)[1][0]

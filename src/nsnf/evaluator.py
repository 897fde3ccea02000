"""Pointwise evaluation of the full coordinate change via its invariance limit.

The Taylor conjugacy is polynomial, but the true coordinate change is only
C^{N,alpha}; it is reached pointwise as the limit of pulled-back Taylor
evaluations along the forward orbit.  Forward orbits are computed by
binary64 evaluation of the fiber maps themselves, never by truncated
composition, and the normal-form composites are undone stepwise through the
degree-d group inverses.  All samples of a call advance in lockstep through
batched evaluation (`PolyMap.evaluate_batch`), each frozen at its own step:
no earlier than its first small increment and than the step a certified
bound on its distance to the limit allows (`_CertifiedStop`).
`Evaluator.survey` sends every limit of a run, residual pairs and
contact-order rays alike, through one such batch.

The residual sample is drawn from random.Random(seed), bit for bit as a
per-sample loop of randrange, gauss and random draws it, but decoded in
bulk from the generator's raw 32-bit words (`ball_sample`).
"""

from __future__ import annotations

import math
import numbers
import random
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from . import majorant
from .normal_form import NormalFormResult
from .polymap import _is_int, group_inverse


# `survey` also checks the one-step gap at every this-many-th residual sample.
ONE_STEP_EVERY = 20
# The certified stop sorts rows into this many classes by initial radius,
# radius * 2^(-m/4) for m = 0, 1, ...
CLASSES = 48


class EvalError(RuntimeError):
    """The invariance iteration failed to converge within its budget."""


@dataclass(frozen=True)
class EvalConfig:
    tol: float = 1e-12
    k_max: int = 200
    radius: float = 0.05

    def __post_init__(self):
        for name in ("tol", "radius"):
            value = getattr(self, name)
            if not _is_real(value) or not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if not _is_int(self.k_max) or self.k_max < 1:
            raise ValueError(f"k_max must be an integer of at least 1, got {self.k_max!r}")


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_samples(samples) -> None:
    if not _is_int(samples):
        raise ValueError(f"samples must be an integer, got {samples!r}")
    if samples < 0:
        raise ValueError(f"samples must be non-negative, got {samples}")


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
    max_bound: float
    max_k_star: int


@dataclass
class Limits:
    """Invariance limits of a batch of samples, row by row."""

    values: np.ndarray  # (samples, n)
    iterations: np.ndarray  # (samples,): steps to convergence, 0 at the zero point
    increments: np.ndarray  # (steps, samples): row k-1 holds step k, nan past a sample's last
    bounds: np.ndarray  # (samples,): certified bound on |value - limit|, 0 at the zero point
    k_star: np.ndarray  # (samples,): first step whose bound is below tol/10, 0 at the zero point


def _sup(rows: np.ndarray) -> np.ndarray:
    """Sup norm of every row, a column at a time: numpy reduces along short
    rows slowly."""
    out = np.zeros(len(rows))
    for column in np.abs(rows).T:
        np.maximum(out, column, out=out)
    return out


def _sum_sq(rows: np.ndarray) -> np.ndarray:
    """Sum of squares of every row, a column at a time."""
    out = np.zeros(len(rows))
    for column in rows.T:
        out += column * column
    return out


def evaluate_at(maps, xs: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Row i is maps[xs[i]] evaluated at points[i], one batch per point."""
    present = np.flatnonzero(np.bincount(xs, minlength=len(maps))).tolist()
    if len(present) == 1:
        return maps[present[0]].evaluate_batch(points)
    out = np.empty((len(xs), maps[0].target.total))
    for x in present:
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


# -- the certified stop -------------------------------------------------


class _CertifiedStop:
    """A bound on |step-k value - limit| along each row's own orbit, and the
    first step k* where it falls below tol/10.

    For a row (x, t) let w_j = F^j_x(t), y_j = f^j(x), r_j = |w_j|_inf and
    s_j = |w_j|_2.  The step-k value is P^{-1}_{y_0} o ... o P^{-1}_{y_{k-1}}
    applied to H_{y_k}(w_k); the limit is the same chain applied to the
    true coordinate change at w_k.  m_G is the univariate majorant of a map
    G and Lambda_G its Lipschitz bound (`majorant.py` forms both).

    - Defect.  R_y = H_{f(y)} o F_y - P_y o H_y has no terms of degree <= N
      (in float builds those are round-off, which this bound leaves out), so
      |R_y(w)|_inf <= d_y(|w|_inf), where d_y keeps the degrees above N of
      m_{H_{f(y)}} o m_{F_y} + m_{P_y} o m_{H_y}.  The row's own defect is
      d_j = d_{y_j}(r_j).
    - Backward recursion.  e_j = Lambda_j (d_j + e_{j+1}) bounds the gap
      between the true change and H at w_j, where Lambda_j is the Lipschitz
      bound of P^{-1}_{y_j} on a sup-ball that holds the true change,
      P_{y_j}(H_{y_j}(w_j)) and the value pulled back to j + 1:
      m_H(r_{j+1}) + d_j + 2 e_{j+1} is enough.  Stopping at step k then
      costs at most c_k = Lambda_0 ... Lambda_{k-1} e_k, and c_k does not
      grow with k.
    - Classes.  The Lipschitz bounds are taken per class, not per row: a
      row whose r_0 is at most rho = radius 2^(-m/4) has r_j <= R_j and
      s_j <= S_j, where R_0 = rho, S_0 = sqrt(n) rho, S_{j+1} = min(theta(S_j)
      S_j, sqrt(n) R_{j+1}) and R_{j+1} = min(m_{F_{y_j}}(R_j), theta(S_j)
      S_j), theta as in the far tail below, so the ball of class m,
      m_H(R_{j+1}) + D_j + 2 E_{j+1} with D_j = d_{y_j}(R_j) and E the
      recursion run on R, holds every ball of its rows.  A row's bound thus
      depends on its own orbit and class, never on the other rows of a
      batch; the classes of an evaluator are computed once per config.
    - Far tail.  Past a step J the recursion is summed in closed form, in
      the Euclidean norm, where the spectral bands bound the linear parts:
      |L_y|_2 <= e^(chi_ell + eps) and |L_y^{-1}|_2 <= e^(-chi_1 + eps).  On
      the 2-ball of radius s = s_J every |w_m|_2, m >= J, is at most
      s theta^(m - J), theta = max_y |L_{F_y}|_2 + sqrt(n) m_F-tail(s) < 1;
      the pullbacks are lam-Lipschitz, lam = max_y |L_{P_y^{-1}}|_2 +
      sqrt(n) Lambda-tail(B) on the ball of radius B = sqrt(n) (m_H(s) +
      d(s)) + 2s; and every defect is at most sqrt(n) d(s) theta^((N+1)(m-J)),
      d starting at degree N + 1.  So
          e_J <= sqrt(n) lam d(s) / (1 - lam theta^(N+1)),
      provided lam theta^(N+1) < 1, which the criticality gate makes true
      for small s, and the result is at most s, the room B leaves for it.
      Elsewhere the tail is infinite.  A class takes J at the first step
      where its tail at S_J, times its Lipschitz product without e-terms,
      is below tol/20; its rows take the tail at their own s_J.
    """

    def __init__(self, ev: "Evaluator") -> None:
        ext, nf = ev.ext, ev.nf
        self.n_taylor = nf.n_taylor
        self.root_n = math.sqrt(ext.dims.total)
        self.perm = ev._perm
        h = [majorant.sup_bound(m) for m in nf.h_taylor]
        f = [majorant.sup_bound(m) for m in ext.fibers]
        p = [majorant.sup_bound(m) for m in ev.p_maps]
        lip = [majorant.lipschitz_bound(m) for m in ev.p_inv]
        defect = []
        for y, fy in enumerate(ext.base.perm):
            both = majorant.top([majorant.compose(h[fy], f[y]), majorant.compose(p[y], h[y])], np.add)
            both[: self.n_taylor + 1] = 0.0
            defect.append(both)
        self.f, self.h, self.d, self.lip = (majorant.table(c) for c in (f, h, defect, lip))
        # the far tail, uniform over base points
        self.d_all = majorant.table([majorant.top(defect)])
        self.h_all = majorant.table([majorant.top(h)])
        self.f_rate = max(majorant.norm2(m.linear_matrix()) for m in ext.fibers)
        self.p_rate = max(majorant.norm2(m.linear_matrix()) for m in ev.p_inv)
        # nonlinear parts as polynomials in s (resp. B) of one degree less
        self.f_more = majorant.table([majorant.top([c[2:] for c in f])])
        self.lip_more = majorant.table([majorant.top([c[1:] for c in lip])])
        self._classes: dict = {}

    def tail(self, s):
        """The closed-form bound on e_J at s = s_J, inf where it does not
        apply."""
        if not self.d_all[1].any():
            return 0.0 * s
        d = majorant.at(self.d_all, s)
        theta = self.f_rate + self.root_n * s * majorant.at(self.f_more, s)
        ball = self.root_n * (majorant.at(self.h_all, s) + d) + 2.0 * s
        lam = self.p_rate + self.root_n * ball * majorant.at(self.lip_more, ball)
        q = majorant.power(lam, theta, self.n_taylor + 1)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            e = self.root_n * lam * d / (1.0 - q)
        return np.where((theta < 1.0) & (q < 1.0) & (e <= s), e, np.inf)

    def classes(self, cfg: EvalConfig) -> tuple[np.ndarray, np.ndarray]:
        """For every start point x and class m: J, and the Lipschitz
        products Lambda_0 ... Lambda_j for j < J, indexed [j, x, m]."""
        key = (cfg.tol, cfg.k_max, cfg.radius)
        if key in self._classes:
            return self._classes[key]
        target = cfg.tol / 10.0
        ys = [np.repeat(np.arange(len(self.perm))[:, None], CLASSES, axis=1)]
        r = [cfg.radius * 2.0 ** (-np.arange(CLASSES) / 4.0) + 0.0 * ys[0]]
        s = [self.root_n * r[0]]
        # the majorant orbits, eight steps at a time, until every class has
        # its J: the tail times the Lipschitz product without e-terms.  The
        # sup radius R is also bounded by the 2-norm radius S, which the
        # spectral bands contract: |F(w)|_2 <= theta(S) |w|_2 (see `tail`)
        while True:
            for _ in range(min(8, cfg.k_max + 1 - len(r))):
                theta = self.f_rate + self.root_n * s[-1] * majorant.at(self.f_more, s[-1])
                r.append(np.minimum(majorant.at_each(self.f, r[-1], ys[-1]), theta * s[-1]))
                s.append(np.minimum(theta * s[-1], self.root_n * r[-1]))
                ys.append(self.perm[ys[-1]])
            at, radii = np.array(ys), np.array(r)
            m_h, d = majorant.at_each(self.h, radii, at), majorant.at_each(self.d, radii, at)
            tails = self.tail(np.array(s))
            with np.errstate(over="ignore", invalid="ignore"):
                rough = np.cumprod(majorant.at_each(self.lip, m_h[1:] + d[:-1], at[:-1]), axis=0)
                passed = rough * tails[1:] < target / 2.0
            if passed.any(axis=0).all() or len(r) > cfg.k_max:
                break
        last = np.where(passed.any(axis=0), passed.argmax(axis=0) + 1, cfg.k_max)
        # E_j down from E_J = the tail at J, and the products of Lambda_j
        size = int(last.max()) + 1
        e = tails[size - 1]
        lams = np.empty((size - 1,) + e.shape)
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(size - 2, -1, -1):
                lams[j] = majorant.at_each(self.lip, m_h[j + 1] + d[j] + 2.0 * e, at[j])
                e = np.where(j < last, lams[j] * (d[j] + e), tails[j])
            products = np.cumprod(lams, axis=0)
        products[np.arange(size - 1)[:, None, None] >= last] = 0.0
        self._classes[key] = got = (last, products.reshape(size - 1, -1))
        return got

    def certify(self, ev: "Evaluator", xs: np.ndarray, w: np.ndarray, cfg: EvalConfig):
        """For rows (xs[i], w[i]), sorted by start point: the orbit
        w_0..w_J, each row's k* (k_max + 1 where none is found), and its
        bounds c_k, k = 0..J, one array row per step; a row's bound past J
        is its bound at J."""
        last, products = self.classes(cfg)
        r = [_sup(w)]
        with np.errstate(divide="ignore"):
            m = np.floor(4.0 * np.log2(cfg.radius / r[0]))
        m = np.clip(np.nan_to_num(m, posinf=CLASSES), 0, CLASSES - 1).astype(np.intp)
        m = np.maximum(m - (cfg.radius * 2.0 ** (-m / 4.0) < r[0]), 0)  # rho_m >= r_0
        cell = xs * CLASSES + m
        stop = last.ravel()[cell]  # each row's J
        cuts = [*np.flatnonzero(np.diff(xs, prepend=-1)).tolist(), len(xs)]
        ys = xs[cuts[:-1]]  # the point each run of rows is at
        orbit = np.empty((int(stop.max(initial=1)) + 1,) + w.shape)  # w_0 .. w_J of every row
        orbit[0] = w
        d, terms = np.empty(len(xs)), []
        # c_k = sum_{k <= j < J} Lambda_0 ... Lambda_j d_j + Lambda_0 ... Lambda_{J-1} e_J;
        # the products are 0 past a class's J
        for j in range(len(orbit) - 1):
            for y, a, b in zip(ys.tolist(), cuts, cuts[1:]):
                d[a:b] = majorant.at(self.d, r[j][a:b], y)
                orbit[j + 1, a:b] = ev.ext.fibers[y].evaluate_batch(orbit[j, a:b])
            ys = self.perm.take(ys)
            terms.append(products[j, cell] * d)
            r.append(_sup(orbit[j + 1]))
        at_stop = orbit[stop, np.arange(len(xs))]
        bounds = np.empty((len(orbit), len(xs)))
        target = cfg.tol / 10.0
        with np.errstate(over="ignore", invalid="ignore"):
            c = products[stop - 1, cell] * self.tail(np.sqrt(_sum_sq(at_stop)))
        c[np.isnan(c)] = np.inf  # 0 * inf: no bound
        bounds[-1] = c
        # c_k does not grow with k, so k* counts the steps still above target or NaN
        k_star = (~(c < target)).astype(np.intp)
        for k in range(len(terms) - 1, -1, -1):
            c = bounds[k] = c + terms[k]
            k_star += ~(c < target)
        k_star[k_star == len(orbit)] = cfg.k_max + 1
        return orbit, k_star, bounds


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
        self._stop = _CertifiedStop(self)

    @property
    def cert_ratio(self) -> float:
        """Certified bound on the ratio of successive iterate increments:
        trajectory decay xi^(N+1) against the slowest inverse growth."""
        xi = float(self.ext.xi)
        grow = math.exp(float(-self.spec.chi[0] + self.spec.epsilon))
        return xi ** (self.nf.n_taylor + 1) * grow

    def eval_taylor(self, x: int, t) -> tuple[float, ...]:
        xs, points, _ = self._rows([x], [t], self.cfg.radius)
        return tuple(self.nf.h_taylor[xs[0]].evaluate(tuple(points[0].tolist())))

    def _rows(self, xs, points, radius: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Caller rows (xs[i], points[i]) as arrays, with their sup norms,
        each refused with a ValueError naming the argument: a base point that
        is not an integer in 0..p-1, a point without n finite coordinates,
        and a point whose sup norm exceeds the radius."""
        p, n = self.base.p, self.ext.dims.total
        xs = np.asarray(xs)
        if xs.ndim != 1 or (xs.size and xs.dtype.kind not in "iu"):
            raise ValueError(f"xs: expected integer base points, got {xs.dtype} {xs.shape}")
        bad = np.flatnonzero((xs < 0) | (xs >= p))
        if bad.size:
            raise ValueError(f"xs[{bad[0]}]: {xs[bad[0]]} is not a base point in 0..{p - 1}")
        try:
            points = np.asarray(points, dtype=float)
            ok = points.shape == (len(xs), n) or points.size == len(xs) == 0
        except (TypeError, ValueError):
            ok = False
        if not ok:
            raise ValueError(f"points: expected one row of {n} coordinates per base point")
        points = points.reshape(len(xs), n)
        size = _sup(points)
        over = np.flatnonzero(~(size <= radius))
        if over.size:
            i = over[0]
            why = f"exceeds the sample radius {radius}" if np.isfinite(size[i]) else "is not finite"
            raise ValueError(f"points[{i}]: |t| = {size[i]:.4g} {why}")
        return xs.astype(np.intp, copy=False), points, size

    def limits(self, xs, points, cfg: EvalConfig | None = None) -> Limits:
        """The limit at every row (xs[i], points[i]), all rows in lockstep.

        Rows sharing a start point share the map sequence x, f(x), ...; each
        row freezes at the later of the first step whose increment falls
        below tol and its k*, the first step whose certified bound is below
        tol/10 (`_CertifiedStop`).  A row not frozen after k_max steps
        raises EvalError, naming the first such row.
        """
        cfg = cfg or self.cfg
        return self._limits(*self._rows(xs, points, cfg.radius), cfg)

    def _limits(self, xs, points, size, cfg: EvalConfig) -> Limits:
        """`limits` on rows checked by `_rows` or built inside the radius, sup norms `size`."""
        values = points.copy()
        iterations = np.zeros(len(xs), dtype=np.intp)
        bounds = np.zeros(len(xs))
        k_star = np.zeros(len(xs), dtype=np.intp)
        steps: list[np.ndarray] = []
        stuck: list[tuple[int, int, float, float]] = []
        h, p_inv = self.nf.h_taylor, self.p_inv
        # the rows away from the fixed zero point, by start point
        moving = np.flatnonzero(size > 0.0)
        moving = moving[np.argsort(xs[moving], kind="stable")]
        if moving.size:
            orbit, all_k_star, table = self._stop.certify(self, xs[moving], points[moving], cfg)
            k_star[moving] = np.minimum(all_k_star, cfg.k_max)
        for x in sorted(set(xs[moving].tolist())):
            group = np.flatnonzero(xs[moving] == x)  # this start point's rows, in `moving`
            live = np.arange(len(group))  # the rows still moving, in `group`
            reached = np.zeros(len(group), dtype=bool)  # an increment fell below tol
            prev = h[x].evaluate_batch(points[moving[group]])
            w = points[moving[group]]
            chain = [int(x)]
            for k in range(1, cfg.k_max + 1):
                if not live.size:
                    break
                # the certified stop has walked the orbit up to its J
                if k < len(orbit):
                    w = orbit[k][group[live]]
                else:
                    w = self.ext.fiber(chain[-1]).evaluate_batch(w)
                chain.append(self.base.image(chain[-1]))
                u = h[chain[-1]].evaluate_batch(w)
                for y in reversed(chain[:-1]):
                    u = p_inv[y].evaluate_batch(u)
                at = moving[group[live]]
                delta = _sup(u - prev)
                if len(steps) < k:
                    steps.append(np.full(len(xs), np.nan))
                steps[k - 1][at] = delta
                reached |= delta < cfg.tol
                done = reached & (k >= all_k_star[group[live]])  # the stopping rule
                if done.any():
                    values[at[done]] = u[done]
                    iterations[at[done]] = k
                    bounds[at[done]] = table[min(k, len(table) - 1), group[live[done]]]
                    kept = ~done
                    live, reached, u, w = live[kept], reached[kept], u[kept], w[kept]
                prev = u
            else:
                if live.size:
                    first = group[live[0]]
                    stuck.append(
                        (
                            int(moving[first]),
                            int(x),
                            float(steps[-1][moving[first]]),
                            float(table[-1, first]),
                        )
                    )
        if stuck:
            _, x, last, bound = min(stuck)
            raise EvalError(
                f"no convergence within {cfg.k_max} iterations at point {x}; "
                f"last increment {last:.3e}, certified bound {bound:.3e} against tol/10 "
                f"(hypothesis violated or radius too large)"
            )
        increments = np.array(steps) if steps else np.empty((0, len(xs)))
        return Limits(values, iterations, increments, bounds, k_star)

    def certified_stop(self, x: int, t, cfg: EvalConfig | None = None) -> int | None:
        """k* of the one row (x, t), as `limits` finds it; None where the
        bound stays above tol/10 through k_max, 0 at the zero point."""
        cfg = cfg or self.cfg
        xs, w, size = self._rows([x], [t], cfg.radius)
        if not size[0] > 0.0:
            return 0
        k_star = int(self._stop.certify(self, xs, w, cfg)[1][0])
        return k_star if k_star <= cfg.k_max else None

    def eval_h(self, x: int, t, cfg: EvalConfig | None = None) -> EvalResult:
        """The limit at one point: `limits` on a batch of one."""
        lim = self.limits([x], [t], cfg)
        k = int(lim.iterations[0])
        increments = tuple(lim.increments[:k, 0].tolist())
        last = increments[-1] if increments else 0.0
        return EvalResult(tuple(lim.values[0].tolist()), k, True, last, increments)

    def _paired(self, xs: np.ndarray, points: np.ndarray, size: np.ndarray):
        """Rows (x, t) and one step on, (f(x), F_x(t)), interleaved in draw
        order, with their sup norms.  A step that leaves the sample radius,
        where the certified stop has no bound, is refused."""
        ft = evaluate_at(self.ext.fibers, xs, points)
        ft_size = _sup(ft)
        if not (ft_size <= self.cfg.radius).all():
            raise ValueError(f"|F_x(t)| = {ft_size.max():.4g} exceeds the radius {self.cfg.radius}")
        return interleave(xs, self._perm[xs]), interleave(points, ft), interleave(size, ft_size)

    def _residuals(self, xs, here, there) -> np.ndarray:
        """|H_{fx}(F_x(t)) - P_x(H_x(t))| per row."""
        return _sup(there - evaluate_at(self.p_maps, xs, here))

    def residual(self, x: int, t) -> float:
        """Defect of the conjugacy identity at the converged limit: the
        limits at (x, t) and one step on, at (f(x), F_x(t)), in one batch."""
        xs, points, size = self._rows([x], [t], self.cfg.radius)
        values = self._limits(*self._paired(xs, points, size), self.cfg).values
        return float(self._residuals(xs, values[0::2], values[1::2])[0])

    def sample_points(self, seed: int, samples: int, radius: float) -> tuple[np.ndarray, np.ndarray]:
        """A deterministic ball sample: base points uniformly, fiber vectors
        uniformly from the Euclidean ball of the radius (which keeps the sup
        norm inside it too), drawn from random.Random(seed) bit for bit as
        the per-sample loop of `ball_sample` draws them.  A sample count
        that is not a non-negative integer, or a radius that is not
        positive and finite, is refused by name."""
        _check_samples(samples)
        if not _is_real(radius) or not 0 < radius < math.inf:
            raise ValueError(f"radius must be positive and finite, got {radius!r}")
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
        with fewer than two usable radii is degenerate.  Radii that are not
        positive and finite, or that repeat, are refused: the fit takes
        their logarithms and divides by their spread, and so are radii above
        the sample radius.  So are a negative sample count and a ray whose
        base point or direction `_rows` would refuse, before anything is
        drawn.
        """
        cfg = self.cfg
        if radii is None:
            radii = [cfg.radius * 2.0 ** (-j) for j in range(4)]
        radii = tuple(float(r) for r in radii)
        bad = [r for r in radii if not 0.0 < r < math.inf or radii.count(r) > 1]
        if bad:
            raise ValueError(f"radii must be positive, finite and distinct, got {bad}")
        if max(radii, default=0.0) > cfg.radius:
            raise ValueError(f"radii must be at most the sample radius {cfg.radius}, got {radii}")
        n = self.ext.dims.total
        _check_samples(samples)
        try:
            ray_xs, units, _ = self._rows([x for x, _ in rays], [_unit(d) for _, d in rays], 1.0)
        except ValueError as err:
            raise ValueError(f"rays: {err}") from None
        ray_xs = np.repeat(ray_xs, len(radii))
        ray_points = (units[:, None, :] * np.array(radii)[:, None]).reshape(len(ray_xs), n)
        xs, points = self.sample_points(seed, samples, cfg.radius)
        # the sample's pairs, then the rays: xs, points and sup norms
        rows = zip(self._paired(xs, points, _sup(points)), (ray_xs, ray_points, _sup(ray_points)))
        lim = self._limits(*(np.concatenate(both) for both in rows), cfg)

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
            max_bound=float(lim.bounds[:m].max(initial=0.0)),
            max_k_star=int(lim.k_star[:m].max(initial=0)),
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

"""Sparse polynomial maps between block-graded spaces, with truncated
composition, formal inversion and resonance-class projections.

A PolyMap sends a block-graded source space to a block-graded target space
and is stored as {(target coordinate, exponent tuple): coefficient} with no
constant terms, so the zero section is always preserved.  `mode` is the
map's scalar policy (`scalars`): coefficients are all exact rationals or
all binary64, and the modes never mix.  Every operation that can grow
degree takes an explicit truncation cap.

Monomials are ordered graded-lexicographically (total degree first, then the
exponent tuple) and serialization follows that order, so equal maps always
serialize identically.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations_with_replacement
from math import gcd
from operator import add
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import linsolve
from .scalars import FLOAT, FLOAT_TOL, RATIONAL, policy  # noqa: F401 (FLOAT_TOL re-exported)
from .spectrum import (
    SUB_RESONANCE,
    HomogeneousType,
    SpectrumSpec,
    TypeClass,
    degree_bound,
)

@dataclass(frozen=True)
class GradedDims:
    """Coordinate block sizes, fastest block first."""

    dims: tuple[int, ...]

    def __init__(self, dims: Sequence[int]) -> None:
        dims_t = tuple(int(m) for m in dims)
        if not dims_t or any(m < 1 for m in dims_t):
            raise ValueError(f"block dimensions must be positive, got {dims_t}")
        object.__setattr__(self, "dims", dims_t)

    @property
    def ell(self) -> int:
        return len(self.dims)

    @cached_property
    def total(self) -> int:
        return sum(self.dims)

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        out, acc = [], 0
        for m in self.dims:
            out.append(acc)
            acc += m
        return tuple(out)

    @cached_property
    def block_of(self) -> tuple[int, ...]:
        out = []
        for i, m in enumerate(self.dims):
            out.extend([i] * m)
        return tuple(out)

    def block_slice(self, i: int) -> slice:
        return slice(self.offsets[i], self.offsets[i] + self.dims[i])

    @cached_property
    def _spans(self) -> tuple[tuple[int, int], ...]:
        return tuple((o, o + m) for o, m in zip(self.offsets, self.dims))

    def block_degrees(self, exponents: Sequence[int]) -> tuple[int, ...]:
        """Per-block total degrees of an exponent tuple."""
        return tuple([sum(exponents[a:b]) for a, b in self._spans])

    def off_block(self, matrix) -> Iterator[tuple[int, int, object]]:
        """(row, column, entry) for every entry of a square matrix outside
        the diagonal blocks, row by row."""
        block_of = self.block_of
        for r in range(self.total):
            for c in range(self.total):
                if block_of[r] != block_of[c]:
                    yield r, c, matrix[r][c]


def monomial_key(coord: int, exponents: tuple[int, ...]):
    return (sum(exponents), exponents, coord)


class PolyMap:
    """A polynomial map with no constant term between graded spaces.

    The public constructor validates every term; maps computed from maps
    that were already validated go through `_trusted`.  `coeffs` is never
    changed after construction.
    """

    __slots__ = ("source", "target", "cap", "mode", "coeffs", "_terms", "_compiled")

    def __init__(
        self,
        source: GradedDims,
        target: GradedDims,
        cap: int,
        mode: str,
        coeffs: Mapping[tuple[int, tuple[int, ...]], object],
    ) -> None:
        if cap < 1:
            raise ValueError(f"degree cap must be >= 1, got {cap}")
        mode = policy(mode)
        clean = {}
        for (coord, exps), value in coeffs.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != source.total:
                raise ValueError(
                    f"exponent tuple {exps} does not match source dimension {source.total}"
                )
            if not 0 <= coord < target.total:
                raise ValueError(f"target coordinate {coord} out of range")
            deg = sum(exps)
            if deg < 1:
                raise ValueError("constant terms are not allowed")
            if deg > cap:
                raise ValueError(f"monomial degree {deg} exceeds cap {cap}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            value = mode.coerce(value)
            if value:
                clean[(coord, exps)] = value
        self.source = source
        self.target = target
        self.cap = cap
        self.mode = mode
        self.coeffs = clean
        self._terms = None
        self._compiled = None

    @classmethod
    def _trusted(cls, source, target, cap, mode, coeffs) -> "PolyMap":
        """Internal constructor for coefficients computed from validated maps:
        no validation, but zero coefficients are still dropped."""
        return cls._kept(source, target, cap, mode, {k: v for k, v in coeffs.items() if v})

    @classmethod
    def _kept(cls, source, target, cap, mode, coeffs: dict) -> "PolyMap":
        """Internal constructor for a new dict of terms kept from a map:
        they are nonzero already, so nothing is filtered."""
        self = object.__new__(cls)
        self.source = source
        self.target = target
        self.cap = cap
        self.mode = mode
        self.coeffs = coeffs
        self._terms = None
        self._compiled = None
        return self

    # -- basics ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        # The cap is bookkeeping, not part of the polynomial's identity.
        if not isinstance(other, PolyMap):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.mode == other.mode
            and self.coeffs == other.coeffs
        )

    __hash__ = None  # mutable container semantics

    def __repr__(self) -> str:
        return (
            f"PolyMap({self.source.dims}->{self.target.dims}, cap={self.cap}, "
            f"mode={self.mode}, terms={len(self.coeffs)})"
        )

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Largest degree with a nonzero term (0 for the zero map)."""
        return max((sum(e) for _, e in self.coeffs), default=0)

    def sorted_items(self):
        return sorted(self.coeffs.items(), key=lambda kv: monomial_key(*kv[0]))

    def _sorted_terms(self):
        """sorted_items(), computed once per map."""
        if self._terms is None:
            self._terms = self.sorted_items()
        return self._terms

    def map_coeffs(self, fn, mode=None) -> "PolyMap":
        return PolyMap(
            self.source,
            self.target,
            self.cap,
            mode or self.mode,
            {k: fn(v) for k, v in self.coeffs.items()},
        )

    def to_float(self) -> "PolyMap":
        """The map in binary64; a coefficient that underflows to zero is
        dropped.  The terms are valid already, so they are not checked."""
        if not self.mode.exact:
            return self
        coeffs = {k: FLOAT.from_fraction(v) for k, v in self.coeffs.items()}
        return PolyMap._trusted(self.source, self.target, self.cap, FLOAT, coeffs)

    def add(self, other: "PolyMap", cap: int | None = None) -> "PolyMap":
        self._check_compatible(other)
        cap = cap if cap is not None else max(self.cap, other.cap)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            w = out.get(k)
            out[k] = v if w is None else w + v
        if max(self.cap, other.cap) > cap:
            out = {k: v for k, v in out.items() if sum(k[1]) <= cap}
        return PolyMap._trusted(self.source, self.target, cap, self.mode, out)

    def sub(self, other: "PolyMap", cap: int | None = None) -> "PolyMap":
        # w + (-v) is w - v, bit for bit in binary64 too
        neg = {k: -v for k, v in other.coeffs.items()}
        return self.add(PolyMap._kept(other.source, other.target, other.cap, other.mode, neg), cap)

    def scale(self, factor) -> "PolyMap":
        factor = self.mode.coerce(factor)
        return self.map_coeffs(lambda v: v * factor)

    def _check_compatible(self, other: "PolyMap") -> None:
        if self.mode != other.mode:
            raise ValueError(f"scalar modes differ: {self.mode} vs {other.mode}")
        if self.source != other.source or self.target != other.target:
            raise ValueError("graded shapes differ")

    def homogeneous_part(self, degree: int) -> "PolyMap":
        kept = {k: v for k, v in self.coeffs.items() if sum(k[1]) == degree}
        return PolyMap._kept(self.source, self.target, max(degree, 1), self.mode, kept)

    def jet(self, cap: int) -> "PolyMap":
        if cap < 1:
            raise ValueError(f"degree cap must be >= 1, got {cap}")
        kept = {k: v for k, v in self.coeffs.items() if sum(k[1]) <= cap}
        return PolyMap._kept(self.source, self.target, cap, self.mode, kept)

    def max_abs(self) -> float:
        return max((abs(v) for v in self.coeffs.values()), default=0.0)

    def vanishes(self, tol=None, scale=0.0) -> bool:
        """The coefficients pass the mode's vanishing test (`Scalars.vanishes`),
        at its own tolerance unless tol is given.  `scale` is a number or a
        reference map whose max_abs() is the scale; exact modes read
        neither, so it is not computed for them."""
        if isinstance(scale, PolyMap):
            scale = 0.0 if self.mode.exact else scale.max_abs()
        return self.mode.vanishes(self.coeffs.values(), scale, tol)

    # -- linear part ----------------------------------------------------

    def linear_matrix(self):
        """Row-major matrix of the degree-1 part."""
        zero = self.mode.zero
        n_s, n_t = self.source.total, self.target.total
        rows = [[zero] * n_s for _ in range(n_t)]
        for (coord, exps), value in self.coeffs.items():
            if sum(exps) != 1:
                continue
            rows[coord][exps.index(1)] = value
        return rows

    # -- evaluation -----------------------------------------------------

    def evaluate(self, point: Sequence):
        """Value at a point; exact when both map and point are rational."""
        if len(point) != self.source.total:
            raise ValueError("point dimension mismatch")
        out = [self.mode.zero] * self.target.total
        for (coord, exps), value in self._sorted_terms():
            term = value
            for x, e in zip(point, exps):
                if e:
                    term = term * x**e
            out[coord] = out[coord] + term
        return out

    def evaluate_batch(self, points) -> np.ndarray:
        """Values at the rows of an (m, source) binary64 array, as an
        (m, target) array; float maps only.  Equal to `evaluate` row by row
        up to round-off: powers are repeated products and each coordinate
        is one matrix product over the monomials."""
        if self.mode.exact:
            raise ValueError("batch evaluation needs a float map")
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.source.total:
            raise ValueError("point dimension mismatch")
        if self._compiled is None:
            self._compiled = _compile(self)
        exps, coef, top = self._compiled
        if not top:
            return np.zeros((len(points), self.target.total))
        cols = points.T
        table = np.empty((cols.shape[0], top + 1, cols.shape[1]))  # (variable, power, row)
        table[:, 0] = 1.0
        table[:, 1] = cols
        for e in range(2, top + 1):
            np.multiply(table[:, e - 1], cols, out=table[:, e])
        mono = table[0].take(exps[0], axis=0)
        for j in range(1, len(exps)):
            mono *= table[j].take(exps[j], axis=0)
        return mono.T @ coef

    # -- class structure ------------------------------------------------

    def type_of(self, coord: int, exps: tuple[int, ...]) -> HomogeneousType:
        if self.source.dims != self.target.dims:
            raise ValueError("homogeneous types need an endomorphism shape")
        return HomogeneousType(self.target.block_of[coord], self.source.block_degrees(exps))


def _compile(pmap: PolyMap) -> tuple[np.ndarray, np.ndarray, int]:
    """Exponent table (variable, monomial), coefficient matrix (monomial,
    target coordinate) and largest single exponent of a float map,
    monomials in sorted order."""
    index: dict[tuple[int, ...], int] = {}
    for (_, e), _value in pmap._sorted_terms():
        index.setdefault(e, len(index))
    exps = np.array(list(index), dtype=np.intp).reshape(len(index), pmap.source.total)
    coef = np.zeros((len(index), pmap.target.total))
    for (coord, e), value in pmap.coeffs.items():
        coef[index[e], coord] = value
    return np.ascontiguousarray(exps.T), coef, int(exps.max(initial=0))


def agrees(a: PolyMap, b: PolyMap, tol=None, scale=0.0) -> bool:
    """a.sub(b).vanishes(tol, scale), the one equality test for maps.

    Exact coefficients are canonical fractions with the zeros dropped, so
    there the difference vanishes exactly when the term dicts are equal and
    nothing is subtracted."""
    if a.mode.exact:
        a._check_compatible(b)
        return a.coeffs == b.coeffs
    return a.sub(b).vanishes(tol, scale)


def zero_map(source: GradedDims, target: GradedDims, cap: int, mode: str) -> PolyMap:
    return PolyMap(source, target, cap, mode, {})


def identity_map(dims: GradedDims, cap: int, mode: str) -> PolyMap:
    # integer entries, coerced to the mode's one by the constructor
    return from_linear(linsolve.identity(dims.total, 1), dims, dims, cap, mode)


def from_linear(matrix, source: GradedDims, target: GradedDims, cap: int, mode: str) -> PolyMap:
    coeffs = {}
    for c, row in enumerate(matrix):
        for j, value in enumerate(row):
            if value:
                exps = tuple(1 if k == j else 0 for k in range(source.total))
                coeffs[(c, exps)] = value
    return PolyMap(source, target, cap, mode, coeffs)


def monomials(n_vars: int, degree: int) -> Iterator[tuple[int, ...]]:
    """All exponent tuples of the given total degree, graded-lex order."""
    for combo in combinations_with_replacement(range(n_vars), degree):
        exps = [0] * n_vars
        for idx in combo:
            exps[idx] += 1
        yield tuple(exps)


def monomial_basis(dims: GradedDims, degree: int) -> list[tuple[int, tuple[int, ...]]]:
    """(coordinate, exponents) pairs of one homogeneous degree, sorted."""
    out = []
    for exps in monomials(dims.total, degree):
        for c in range(dims.total):
            out.append((c, exps))
    out.sort(key=lambda k: monomial_key(*k))
    return out


def class_basis(
    spec: SpectrumSpec, dims: GradedDims, degree: int, classes: Iterable[TypeClass]
) -> list[tuple[int, tuple[int, ...]]]:
    classes = frozenset(classes)
    return [
        (c, exps)
        for c, exps in monomial_basis(dims, degree)
        if spec.type_class(dims.block_of[c], dims.block_degrees(exps)) in classes
    ]


# -- composition and inversion ------------------------------------------


def _poly_mul(p: dict, q: dict, cap: int) -> dict:
    """p * q truncated at the cap, for {exponents: coefficient} dicts.

    Each term of p meets only the terms of q that fit under the cap with
    it, in q's order: the products, their accumulation order and the
    result's key order are those of the full double loop with the pairs
    above the cap skipped.
    """
    out: dict = {}
    # fitting[b]: q's terms of degree at most b, in q's order
    fitting: dict[int, list] = {}
    q_items = [(e, sum(e), v) for e, v in q.items()]
    for e1, v1 in p.items():
        budget = cap - sum(e1)
        q_fit = fitting.get(budget)
        if q_fit is None:
            q_fit = fitting[budget] = [(e, v) for e, d, v in q_items if d <= budget]
        for e2, v2 in q_fit:
            e = tuple(map(add, e1, e2))
            w = out.get(e)
            out[e] = v1 * v2 if w is None else w + v1 * v2
    return {e: v for e, v in out.items() if v}


def _pair_mul(p: list, q: list, cap: int) -> list:
    """`_poly_mul` for lists of (exponents, numerator, denominator) terms,
    each coefficient in lowest terms with a positive denominator: the same
    pairs of terms in the same order and the same term order, each product
    added with no gcd, and each nonzero entry of the result reduced once."""
    out: dict = {}
    get = out.get
    fitting: dict[int, list] = {}
    q_items = [(e, sum(e), c, d) for e, c, d in q]
    for e1, a, b in p:
        budget = cap - sum(e1)
        q_fit = fitting.get(budget)
        if q_fit is None:
            q_fit = fitting[budget] = [(e, c, d) for e, deg, c, d in q_items if deg <= budget]
        for e2, c, d in q_fit:
            e = tuple(map(add, e1, e2))
            num, den = a * c, b * d
            got = get(e)
            if got is None:
                out[e] = (num, den)
            else:
                n0, d0 = got
                out[e] = (n0 + num, den) if d0 == den else (n0 * den + num * d0, d0 * den)
    terms = []
    for e, (num, den) in out.items():
        if num:
            g = gcd(num, den)
            terms.append((e, num, den) if g == 1 else (e, num // g, den // g))
    return terms


class Powers:
    """Memoized images t^beta -> prod_j G_j^{beta_j} of the monomials under
    one inner map G, truncated at a cap: the one composition kernel.

    Each image is one product of memoized entries, associated as
    (G_{j1}^{b1} G_{j2}^{b2}) G_{j3}^{b3} ... with G_j^b = G_j^{b-1} G_j, so
    float results do not depend on which images were built before.  An
    image's terms of degree at most n do not depend on the cap once the cap
    is at least n, so one table serves every degree up to its cap.

    A binary64 table holds each image as an {exponents: float} dict,
    multiplied by `_poly_mul`.  A rational table holds each image once, as
    a list of (exponents, numerator, denominator) terms in lowest terms,
    multiplied by `_pair_mul`: one gcd per term of an image, none per
    product, and the degree parts share the image's terms.  The sum kernel
    reads the integers (`_terms`); `part` gives Fractions, built when asked
    and not kept.
    """

    def __init__(self, inner: PolyMap, cap: int) -> None:
        if cap < 1:
            raise ValueError(f"degree cap must be >= 1, got {cap}")
        self.inner = inner
        self.cap = cap
        if inner.mode.exact:
            self._mul = _pair_mul
            self._components: list = [[] for _ in range(inner.target.total)]
            for (coord, exps), value in inner.coeffs.items():
                self._components[coord].append((exps, value.numerator, value.denominator))
        else:
            self._mul = _poly_mul
            self._components = [{} for _ in range(inner.target.total)]
            for (coord, exps), value in inner.coeffs.items():
                self._components[coord][exps] = value
        self._images: dict = {}
        self._parts: dict[tuple[tuple[int, ...], int | None], list] = {}

    def image(self, exps: tuple[int, ...]):
        """The terms of prod_j G_j^{exps_j} in the table's form; for
        exps = e_j it is G_j itself, terms above the cap included."""
        got = self._images.get(exps)
        if got is not None:
            return got
        last = max(j for j, e in enumerate(exps) if e)
        e = exps[last]
        rest = exps[:last] + (0,) * (len(exps) - last)
        if any(rest):
            power = (0,) * last + (e,) + (0,) * (len(exps) - last - 1)
            got = self._mul(self.image(rest), self.image(power), self.cap)
        elif e == 1:
            got = self._components[last]
        else:
            lower = exps[:last] + (e - 1,) + exps[last + 1 :]
            got = self._mul(self.image(lower), self._components[last], self.cap)
        self._images[exps] = got
        return got

    def _terms(self, exps: tuple[int, ...], n: int | None):
        """The terms of the image of degree n, or of every degree up to the
        cap when n is None, in the image's order: (exponents, coefficient)
        in binary64, (exponents, numerator, denominator) in rational mode;
        memoized.  A part that is the whole image, as every image of a
        linear map is, is the image's own terms, not a second copy."""
        key = (exps, n)
        got = self._parts.get(key)
        if got is None:
            image = self.image(exps)
            terms = image if self.inner.mode.exact else image.items()
            if n is None:
                cap = self.cap
                got = [t for t in terms if sum(t[0]) <= cap]
            else:
                got = [t for t in terms if sum(t[0]) == n]
            if len(got) == len(image):
                got = terms
            self._parts[key] = got
        return got

    def part(self, exps: tuple[int, ...], n: int | None) -> list:
        """(exponents, coefficient) terms of the image of degree n, or of
        every degree up to the cap when n is None, in the image's order;
        a list made for this call, exact coefficients as Fractions."""
        terms = self._terms(exps, n)
        if self.inner.mode.exact:
            return [(e, Fraction(num, den)) for e, num, den in terms]
        return list(terms)

    def compose(self, outer: PolyMap, n: int | None = None) -> PolyMap:
        """outer(G(t)) truncated at the cap, or only its degree-n part.
        Rational compositions are summed by the exact sum kernel."""
        inner = self.inner
        if outer.mode != inner.mode:
            raise ValueError("scalar modes differ in composition")
        if outer.source.dims != inner.target.dims:
            raise ValueError("composition shape mismatch")
        top = self.cap if n is None else n
        if inner.mode.exact:
            total = Sum(inner.mode)
            total.add_composition(outer, self, 1, n)
            return total.to_map(inner.source, outer.target, top)
        acc: dict = {}
        get, parts = acc.get, self._parts
        for (coord, exps), value in outer.coeffs.items():
            # no constant terms: an outer monomial only reaches its degree and up
            if sum(exps) > top:
                continue
            terms = parts.get((exps, n))
            for e_out, v in self._terms(exps, n) if terms is None else terms:
                key = (coord, e_out)
                w = get(key)
                acc[key] = value * v if w is None else w + value * v
        return PolyMap._trusted(inner.source, outer.target, top, outer.mode, acc)


class Sum:
    """A signed sum of maps, compositions and left-linear products: the one
    kernel that forms or zero-tests a defect, a residue or the difference
    of two sides.  Terms have a sign of +1 or -1; `to_map(...).vanishes`
    is the zero test.  The constructor picks the mode's accumulator.

    In binary64 (this class) terms are formed by `Powers.compose` and
    `left_linear` and added as `PolyMap.add` adds them, zeros dropped after
    each term: the bits and key order of the chained maps.  `_ExactSum`
    keeps numerators and denominators apart, with no gcd while terms
    arrive, reads the pairs of rational power tables as they are, and
    reduces each nonzero coefficient once in `to_map`, so a zero sum
    builds no Fraction.  `add_*` returns the term as a map where one is
    built (binary64), as the scale of a gate; None in rational mode.

    A sum can instead be keyed by the positions of a cycle solve's vector:
    `add_entries` adds scalars at positions, `add_images` the images of
    monomials under a conjugation, and `vector` or `entries` reads the
    sum, one scalar per position that terms reached; `unit_columns` reads
    columns of I + weight M one image at a time.
    """

    __slots__ = ("acc",)
    _unit = 1.0  # one, as the accumulator holds it

    def __new__(cls, mode):
        self = object.__new__(_ExactSum if mode.exact else cls)
        self.acc = {}
        return self

    def add_map(self, pmap: PolyMap, sign: int = 1) -> PolyMap:
        acc = self.acc
        get = acc.get
        for key, v in pmap.coeffs.items():
            if sign < 0:
                v = -v  # w + (-v) is w - v, bit for bit
            w = get(key)
            acc[key] = v if w is None else w + v
        if 0.0 in acc.values():
            self.acc = {k: v for k, v in acc.items() if v}
        return pmap

    def add_composition(self, outer: PolyMap, powers: "Powers", sign: int = 1, n=None) -> PolyMap:
        """outer(G(t)) for the inner map G of `powers`, truncated as
        `powers.compose(outer, n)` truncates it."""
        return self.add_map(powers.compose(outer, n), sign)

    def add_left_linear(self, matrix, pmap: PolyMap, sign: int = 1) -> PolyMap:
        """matrix . pmap, as `left_linear` forms it."""
        return self.add_map(left_linear(matrix, pmap), sign)

    def to_map(self, source: GradedDims, target: GradedDims, cap: int) -> PolyMap:
        return PolyMap._kept(source, target, cap, FLOAT, dict(self.acc))

    # -- sums keyed by position ------------------------------------------

    def add_entries(self, entries) -> None:
        """Add (position, scalar) entries at positions that no term has
        reached yet, each position once; a zero is kept as it is."""
        self.acc.update(entries)

    def add_images(self, items, columns, powers: "Powers", n: int, index, guard) -> None:
        """For each (key, weight) of `items` in turn, add weight times the
        image pre . R o G of the monomial R = key (coordinate c, exponents
        beta), its degree-n part, at the positions `index` gives its terms
        (row, exponents): pre's column c, whose nonzero (row, entry) pairs
        are columns[c], times the degree-n part of G's image of t^beta, G
        the inner map of `powers`.  Terms of an image at keys that `index`
        lacks are not added; before the next key, guard(outside, size) is
        called with them, as (row, exponents, coefficient), and with the
        largest magnitude of that image (zero in exact modes, which do not
        read it)."""
        acc = self.acc
        get, locate, parts = acc.get, index.get, powers._terms
        for (c, exps), weight in items:
            column, terms, outside = columns[c], parts(exps, n), []
            for e, v in terms:
                for r, m in column:
                    w = m * v
                    if w:
                        pos = locate((r, e))
                        if pos is None:
                            outside.append((r, e, w))
                        else:
                            t = weight * w
                            got = get(pos)
                            acc[pos] = t if got is None else got + t
            if outside:
                guard(outside, max(abs(m * v) for _, v in terms for _, m in column))

    def unit_columns(self, items, columns, powers: "Powers", n: int, index, guard) -> Iterator:
        """Yield, for each (key, weight) of `items` in turn, the (position,
        scalar) entries of u + weight * image, u the unit vector at the
        key's own position and the image as `add_images` adds it (guard
        included): a column of I + weight M for the conjugation M, the
        unit's entry first, then the others in order of their first term.
        Each column is summed afresh in this sum when it is asked for."""
        for item in items:
            self.acc = {index[item[0]]: self._unit}
            self.add_images((item,), columns, powers, n, index, guard)
            yield self.entries()

    def vector(self, size: int) -> list:
        """The scalars at positions 0 .. size-1, zero where nothing was added."""
        get = self.acc.get
        return [get(i, 0.0) for i in range(size)]

    def entries(self) -> list:
        """(position, scalar) for every position reached, in order of the
        first term there."""
        return list(self.acc.items())


class _ExactSum(Sum):
    __slots__ = ()
    _unit = (1, 1)

    def add_map(self, pmap: PolyMap, sign: int = 1) -> None:
        acc = self.acc
        get = acc.get
        for key, v in pmap.coeffs.items():
            num, den = sign * v.numerator, v.denominator
            got = get(key)
            if got is None:
                acc[key] = (num, den)
            else:
                n0, d0 = got
                acc[key] = (n0 + num, den) if d0 == den else (n0 * den + num * d0, d0 * den)

    def add_composition(self, outer: PolyMap, powers: "Powers", sign: int = 1, n=None) -> None:
        top = powers.cap if n is None else n
        acc, parts = self.acc, powers._parts
        get = acc.get
        for (coord, exps), value in outer.coeffs.items():
            if sum(exps) > top:
                continue
            a, b = sign * value.numerator, value.denominator
            terms = parts.get((exps, n))
            for e_out, c, d in powers._terms(exps, n) if terms is None else terms:
                key = (coord, e_out)
                num, den = a * c, b * d
                got = get(key)
                if got is None:
                    acc[key] = (num, den)
                else:
                    n0, d0 = got
                    acc[key] = (n0 + num, den) if d0 == den else (n0 * den + num * d0, d0 * den)

    def add_left_linear(self, matrix, pmap: PolyMap, sign: int = 1) -> None:
        acc = self.acc
        get = acc.get
        columns = [
            [(r, m.numerator, m.denominator) for r, m in enumerate(col) if m]
            for col in zip(*matrix)
        ]
        for (coord, exps), value in pmap.coeffs.items():
            a, b = sign * value.numerator, value.denominator
            for r, c, d in columns[coord]:
                key = (r, exps)
                num, den = a * c, b * d
                got = get(key)
                if got is None:
                    acc[key] = (num, den)
                else:
                    n0, d0 = got
                    acc[key] = (n0 + num, den) if d0 == den else (n0 * den + num * d0, d0 * den)

    def to_map(self, source: GradedDims, target: GradedDims, cap: int) -> PolyMap:
        coeffs = {key: Fraction(num, den) for key, (num, den) in self.acc.items() if num}
        return PolyMap._kept(source, target, cap, RATIONAL, coeffs)

    def add_entries(self, entries) -> None:
        self.acc.update((pos, (v.numerator, v.denominator)) for pos, v in entries if v)

    def add_images(self, items, columns, powers: "Powers", n: int, index, guard) -> None:
        acc = self.acc
        get, locate, parts = acc.get, index.get, powers._terms
        pairs: dict = {}  # the columns read, as (row, entry, numerator, denominator)
        for (c, exps), weight in items:
            a, b = weight.numerator, weight.denominator
            col = pairs.get(c)
            if col is None:
                col = pairs[c] = [(r, m, m.numerator, m.denominator) for r, m in columns[c]]
            column = [(r, m, a * mn, b * md) for r, m, mn, md in col]
            outside = []
            for e, tn, td in parts(exps, n):
                for r, m, mn, md in column:
                    pos = locate((r, e))
                    if pos is None:
                        outside.append((r, e, m * Fraction(tn, td)))
                        continue
                    num, den = mn * tn, md * td
                    got = get(pos)
                    if got is None:
                        acc[pos] = (num, den)
                    else:
                        n0, d0 = got
                        acc[pos] = (n0 + num, den) if d0 == den else (n0 * den + num * d0, d0 * den)
            if outside:
                guard(outside, 0)

    def vector(self, size: int) -> list:
        zero, get, out = RATIONAL.zero, self.acc.get, []
        for i in range(size):
            num, den = get(i, (0, 1))
            out.append(Fraction(num, den) if num else zero)
        return out

    def entries(self) -> list:
        return [(pos, Fraction(num, den)) for pos, (num, den) in self.acc.items()]


def compose(outer: PolyMap, inner: PolyMap, cap: int) -> PolyMap:
    """Truncated composition outer(inner(t)) up to total degree cap.

    Exact in rational mode: truncation only discards monomials above the cap,
    never rounds what it keeps.
    """
    return Powers(inner, cap).compose(outer)


def compose_part(outer: PolyMap, powers: Powers, n: int) -> PolyMap:
    """Degree-n part of outer(G(t)) for the inner map G of `powers`; equal to
    compose(outer, G, cap).homogeneous_part(n) for any cap >= n."""
    if not 1 <= n <= powers.cap:
        raise ValueError(f"degree {n} outside 1..{powers.cap}")
    return powers.compose(outer, n)


def left_linear(matrix, pmap: PolyMap, target: GradedDims | None = None) -> PolyMap:
    """Compose a linear map (as a matrix) with a PolyMap on the left.
    Rational products are summed by the exact sum kernel."""
    target = target or pmap.target
    if pmap.mode.exact:
        total = Sum(pmap.mode)
        total.add_left_linear(matrix, pmap)
        return total.to_map(pmap.source, target, pmap.cap)
    acc: dict = {}
    columns: dict = {}  # the nonzero (row, entry) pairs of each column read
    for (coord, exps), value in pmap.coeffs.items():
        column = columns.get(coord)
        if column is None:
            column = [(r, row[coord]) for r, row in enumerate(matrix) if row[coord]]
            columns[coord] = column
        for r, m in column:
            key = (r, exps)
            w = acc.get(key)
            acc[key] = m * value if w is None else w + m * value
    return PolyMap._trusted(pmap.source, target, pmap.cap, pmap.mode, acc)


def invert(pmap: PolyMap, cap: int) -> PolyMap:
    """Formal compositional inverse up to the cap.

    Degree-by-degree back substitution; the result is verified against the
    identity (exactly in rational mode) before it is returned.
    """
    if pmap.source.dims != pmap.target.dims:
        raise ValueError("can only invert maps between equally graded spaces")
    a = pmap.linear_matrix()
    try:
        a_inv = linsolve.invert(a)
    except linsolve.SingularMatrix as err:
        raise ValueError("linear part is not invertible") from err
    inv = from_linear(a_inv, pmap.target, pmap.source, cap, pmap.mode)
    higher = pmap.sub(pmap.jet(1), cap=pmap.cap)
    for degree in range(2, cap + 1):
        defect = compose_part(higher, Powers(inv, degree), degree)
        if defect.is_zero():
            continue
        correction = left_linear(a_inv, defect.scale(-1), target=pmap.source)
        inv = inv.add(correction, cap=cap)
    _assert_identity(pmap, inv, cap, "formal inverse")
    return inv


def _assert_identity(outer: PolyMap, inner: PolyMap, cap: int, what: str) -> None:
    """Raise AssertionError unless outer o inner is the identity to cap,
    relative to the size of inner."""
    total = Sum(inner.mode)
    total.add_composition(outer, Powers(inner, cap))
    total.add_map(identity_map(inner.source, cap, inner.mode), -1)
    residual = total.to_map(inner.source, outer.target, cap)
    if not residual.vanishes(scale=inner):
        raise AssertionError(f"{what} residual {float(residual.max_abs()):.3e} beyond tolerance")


# -- class projections --------------------------------------------------


def _class_of(pmap: PolyMap, spec: SpectrumSpec):
    """(coord, exps) -> TypeClass of the terms of an endomorphism, looked up
    by label on the spectrum's memo; `type_of` without the object."""
    if pmap.source.dims != pmap.target.dims:
        raise ValueError("homogeneous types need an endomorphism shape")
    block_of, block_degrees = pmap.target.block_of, pmap.source.block_degrees
    return lambda c, exps: spec.type_class(block_of[c], block_degrees(exps))


def project(pmap: PolyMap, spec: SpectrumSpec, classes: Iterable[TypeClass]) -> PolyMap:
    """Keep exactly the monomials whose homogeneous type lies in `classes`."""
    classes = frozenset(classes)
    class_of = _class_of(pmap, spec)
    kept = {k: v for k, v in pmap.coeffs.items() if class_of(*k) in classes}
    return PolyMap._kept(pmap.source, pmap.target, pmap.cap, pmap.mode, kept)


def max_off_class(pmap: PolyMap, spec: SpectrumSpec, classes: Iterable[TypeClass]):
    """Largest coefficient magnitude outside the given classes."""
    classes = frozenset(classes)
    class_of = _class_of(pmap, spec)
    worst = 0
    for k, v in pmap.coeffs.items():
        if class_of(*k) not in classes:
            worst = max(worst, abs(v))
    return worst


def is_in_class(pmap: PolyMap, spec: SpectrumSpec, classes: Iterable[TypeClass], tol=0) -> bool:
    return max_off_class(pmap, spec, classes) <= tol


# -- the polynomial groups ----------------------------------------------

GROUP_TAGS = {
    "sub-resonance": SUB_RESONANCE,
    "resonance": frozenset({TypeClass.RESONANCE}),
}


@dataclass(frozen=True)
class GroupElement:
    """Member of the sub-resonance (or resonance) polynomial group.

    Invariants checked at construction: every monomial lies in the tagged
    class, the linear part is invertible, and the degree stays within the
    spectrum's bound.
    """

    poly: PolyMap
    tag: str

    @property
    def dims(self) -> GradedDims:
        return self.poly.source


def make_group_element(poly: PolyMap, spec: SpectrumSpec, tag: str) -> GroupElement:
    """`poly` as a member of the tagged group.  Off-class coefficients must
    pass the mode's vanishing test at scale 0: exactly zero in rational
    mode, at most the float tolerance in float mode."""
    if tag not in GROUP_TAGS:
        raise ValueError(f"unknown group tag {tag!r}")
    if poly.source.dims != poly.target.dims:
        raise ValueError("group elements are self-maps")
    d = degree_bound(spec)
    if poly.degree() > d:
        raise ValueError(f"degree {poly.degree()} exceeds the bound {d}")
    off = max_off_class(poly, spec, GROUP_TAGS[tag])
    if not poly.mode.vanishes((off,)):
        raise ValueError(f"off-class coefficient of size {off} under tag {tag!r}")
    try:
        linsolve.Elimination(poly.linear_matrix())
    except linsolve.SingularMatrix as err:
        raise ValueError("linear part not invertible") from err
    return GroupElement(poly=poly, tag=tag)


def group_inverse(g: GroupElement, spec: SpectrumSpec) -> GroupElement:
    """Exact group inverse: degree stays <= d and the class is preserved.

    The closure g o g^{-1} = Id is asserted on the untruncated composition
    (degree cap d*d), not truncated away.
    """
    d = degree_bound(spec)
    inv = invert(g.poly, d).jet(d)
    _assert_identity(g.poly, inv, d * d, "group inverse")
    return make_group_element(inv, spec, g.tag)


# -- serialization ------------------------------------------------------


def to_records(pmap: PolyMap) -> list[dict]:
    records = []
    for (coord, exps), value in pmap.sorted_items():
        rec = {"coord": coord, "exponents": list(exps)}
        if pmap.mode.exact:
            rec["num"] = value.numerator
            rec["den"] = value.denominator
        else:
            rec["value"] = value
        records.append(rec)
    return records


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def record_ratio(rec: Mapping, where: str, error=ValueError) -> Fraction:
    """num/den of the integer fields `num` (0 when absent) and `den` (1 when
    absent); a refusal raises error(where + field + ": " + reason)."""
    num, den = rec.get("num", 0), rec.get("den", 1)
    for field, v in (("num", num), ("den", den)):
        if not _is_int(v):
            raise error(f"{where}{field}: expected an integer, got {v!r}")
    if den == 0:
        raise error(f"{where}den: zero denominator")
    return Fraction(num, den)


def record_term(rec: Mapping, mode, where: str, error=ValueError):
    """((coord, exponents), coefficient) of one coefficient record of the
    given scalar policy, nothing coerced: a boolean or a float where an
    integer belongs is refused, and so is a float that is not finite.  A
    refusal raises error(where + field + ": " + reason)."""
    coord, exps = rec.get("coord"), rec.get("exponents")
    if not _is_int(coord):
        raise error(f"{where}coord: expected an integer, got {coord!r}")
    if not isinstance(exps, list) or not all(_is_int(e) for e in exps):
        raise error(f"{where}exponents: expected a list of integers")
    if mode.exact:
        if "value" in rec:
            raise error(f"{where}value: rational records use num/den")
        return (coord, tuple(exps)), record_ratio(rec, where, error)
    if "num" in rec or "den" in rec:
        raise error(f"{where}value: float records use 'value', not num/den")
    value = rec.get("value")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise error(f"{where}value: expected a number, got {type(value).__name__}")
    if not abs(value) <= sys.float_info.max:
        raise error(f"{where}value: not a finite binary64 number")
    return (coord, tuple(exps)), float(value)


def from_records(
    records: Iterable[Mapping],
    source: GradedDims,
    target: GradedDims,
    cap: int,
    mode: str,
) -> PolyMap:
    mode, coeffs = policy(mode), {}
    for j, rec in enumerate(records):
        key, value = record_term(rec, mode, f"record {j}: ")
        if key in coeffs:
            raise ValueError(f"duplicate record for {key}")
        coeffs[key] = value
    return PolyMap(source, target, cap, mode, coeffs)

"""Inductive construction of sub-resonance Taylor conjugacies and their
further reduction to resonance normal forms.

Degree by degree, the conjugacy defect against the fiber maps is projected
to the quotient by the sub-resonance subspace and killed by a fixed point of
a contracting conjugation operator; on a finite base the fixed point is a
per-cycle linear solve.  The sub-resonance component of each Taylor term is
a free lift: zero by default, caller-pinned, or a seeded random section.
The same cycle-solve machinery, run with the backward-contracting operator,
strips strict sub-resonance terms from the normal form afterwards.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import reduce
from typing import Mapping, Sequence

from . import linsolve
from .base import Extension, FiniteBase, ValidationReport, validate_extension
from .polymap import (
    SUB_RESONANCE,
    GradedDims,
    GroupElement,
    PolyMap,
    Powers,
    Sum,
    class_basis,
    compose_part,
    from_linear,
    identity_map,
    left_linear,
    make_group_element,
    monomial_basis,
    project,
    zero_map,
)
from .scalars import of_values
from .spectrum import (
    HomogeneousType,
    SpectrumSpec,
    TypeClass,
    degree_bound,
    phi_contraction_bound,
)


class BuildRefused(ValueError):
    """Validation failed and no force flag was given."""


class BuildError(RuntimeError):
    """Internal consistency failure; certified preconditions were violated."""


_NON_SUB = frozenset({TypeClass.NON_SUB})
_STRICT = frozenset({TypeClass.STRICT_SUB})
# Classes the backward operator on the strict subspace must not reach.
_LEAVES_STRICT = frozenset({TypeClass.RESONANCE, TypeClass.NON_SUB})


# -- lift strategies ----------------------------------------------------


@dataclass(frozen=True)
class LiftStrategy:
    """Choice of the free sub-resonance component of each Taylor term.

    kind 'complement' pins every section to zero, 'pinned' reads sections
    from a caller-supplied table, 'seeded' adds deterministic random offsets
    (drawn from `seed`) on top of optional base sections.
    """

    kind: str = "complement"
    sections: Mapping[tuple[int, int], PolyMap] = field(default_factory=dict)
    seed: int | None = None
    amplitude: Fraction = Fraction(1, 8)


def complement_lift() -> LiftStrategy:
    return LiftStrategy(kind="complement")


def pinned_lift(sections: Mapping[tuple[int, int], PolyMap]) -> LiftStrategy:
    return LiftStrategy(kind="pinned", sections=dict(sections))


def seeded_lift(
    seed: int,
    base_sections: Mapping[tuple[int, int], PolyMap] | None = None,
    amplitude: Fraction = Fraction(1, 8),
) -> LiftStrategy:
    return LiftStrategy(
        kind="seeded", sections=dict(base_sections or {}), seed=seed, amplitude=amplitude
    )


def _lift_table(strategy: LiftStrategy, spec, dims, mode, p, d, classes):
    """Every nonzero lift section, keyed (point, degree) over degrees 2..d,
    in the order the solves reach them.

    A key that names no point of the base, or a degree below 2, is refused.
    Each pinned section is checked once, whatever its degree: above d every
    type is non-sub-resonance, so a nonzero section there leaves its class.
    Seeded offsets are drawn in a fixed order over degrees, points and
    basis monomials, so one seed always yields one build, and are added to
    the pinned section.
    """
    if strategy.kind == "seeded" and strategy.seed is None:
        raise ValueError("seeded lift needs a seed")
    if strategy.kind not in ("complement", "pinned", "seeded"):
        raise ValueError(f"unknown lift kind {strategy.kind!r}")
    for (x, degree), section in strategy.sections.items():
        if not (0 <= x < p and degree >= 2):
            raise ValueError(
                f"lift section key {(x, degree)} is not a point in 0..{p - 1} "
                "with a degree of at least 2"
            )
        if section.mode != mode:
            raise ValueError("lift section scalar mode mismatch")
        if section.source.dims != dims.dims or section.target.dims != dims.dims:
            raise ValueError("lift section grading mismatch")
        for c, exps in section.coeffs:
            if sum(exps) != degree:
                raise ValueError(f"lift section for degree {degree} is not homogeneous")
            if spec.type_class(dims.block_of[c], dims.block_degrees(exps)) not in classes:
                raise ValueError("lift section leaves its resonance class")

    rng = random.Random(strategy.seed) if strategy.kind == "seeded" else None
    table: dict[tuple[int, int], PolyMap] = {}
    for degree in range(2, d + 1):
        basis = class_basis(spec, dims, degree, classes) if rng else ()
        for x in range(p):
            section = strategy.sections.get((x, degree))
            coeffs = {}
            for key in basis:
                value = Fraction(rng.randint(-8, 8), 8) * strategy.amplitude
                if value:
                    coeffs[key] = mode.from_fraction(value)
            if coeffs:
                offset = PolyMap(dims, dims, degree, mode, coeffs)
                section = offset if section is None else section.add(offset)
            if section is not None and not section.is_zero():
                table[(x, degree)] = section
    return table


# -- the conjugation operator and its cycle solves ----------------------


class _SolveSpan:
    """span(keys), the degree-n maps on which the cycle solves run, one
    vector entry per key; `index` gives each key's position.

    A conjugation R -> pre . R o post must keep a map of the span inside
    it: image terms outside `keys` whose class lies in `guard` must vanish
    (by the mode's test, relative to the size of the image).

    `blocks` partitions the positions into the blocks that the cycle
    solves eliminate one at a time: the positions of each label in
    `labels` (one label per key), in order of first appearance, or one
    block of every position when no labels are given.  Each block must be
    invariant under the conjugations, as a homogeneous type (target block,
    block degrees) is when the linear parts are block-diagonal.
    """

    __slots__ = ("keys", "index", "degree", "spec", "guard", "blocks")

    def __init__(self, keys, degree, spec, guard, labels=None):
        self.keys, self.index = keys, {k: i for i, k in enumerate(keys)}
        self.degree, self.spec, self.guard = degree, spec, guard
        if labels is None:
            self.blocks = [range(len(keys))]
        else:
            blocks: dict = {}
            for i, label in enumerate(labels):
                blocks.setdefault(label, []).append(i)
            self.blocks = list(blocks.values())

    def leak_guard(self, post: PolyMap):
        """guard(outside, size) for the images of a conjugation by post
        (`Sum.add_images`): the image terms outside the span whose class
        lies in `guard` must vanish relative to the size of their image,
        or BuildError is raised.  Each key's image is guarded alone."""
        dims, mode = post.source, post.mode

        def guard(outside, size):
            type_class = self.spec.type_class
            leaked = [
                w for r, e, w in outside
                if type_class(dims.block_of[r], dims.block_degrees(e)) in self.guard
            ]
            if leaked and not mode.vanishes(leaked, size):
                raise BuildError("conjugation left its solve subspace")

        return guard

    def image(self, key, columns, powers: Powers) -> list:
        """(position, coefficient) pairs of pre . R o post on the span for
        the monomial R = `key` (coordinate c, exponents beta): pre's column
        c times the degree-n part of post's image of t^beta, one product
        per entry (`Sum.add_images`).  `columns` holds the nonzero (row,
        entry) pairs of each column of the matrix pre (`_columns`), and
        `powers` is the power table of the linear map post."""
        mode = powers.inner.mode
        total = Sum(mode)
        guard = self.leak_guard(powers.inner)
        total.add_images(((key, mode.one),), columns, powers, self.degree, self.index, guard)
        return total.entries()


def _columns(matrix) -> list:
    """The nonzero (row, entry) pairs of each column of a square matrix."""
    return [[(r, m) for r, m in enumerate(column) if m] for column in zip(*matrix)]


def _cycle_maps(base: FiniteBase, pairs, pull: bool):
    """(cycle, steps, return pair) for every base cycle: the pairs (pre
    matrix, post power table) of its points in cycle order, and the pair
    of its return maps, which conjugates once around the cycle: by
    pre_0 ... pre_{q-1} and post_{q-1} o ... o post_0 (pull), or by
    pre_{q-1} ... pre_0 and post_0 o ... o post_{q-1} (push), multiplied as
    matrices.  The return map's power table has the cap of the points'
    tables; a fixed point's return pair is its own pair."""
    out = []
    for cycle in base.cycles:
        steps = [pairs[x] for x in cycle]
        ret = steps[0]
        if len(steps) > 1:
            pres = [pre for pre, _ in steps]
            posts = [powers.inner.linear_matrix() for _, powers in steps]
            (posts if pull else pres).reverse()
            inner, post = ret[1].inner, reduce(linsolve.mat_mul, posts)
            post = from_linear(post, inner.source, inner.target, 1, inner.mode)
            ret = (reduce(linsolve.mat_mul, pres), Powers(post, ret[1].cap))
        out.append((cycle, steps, ret))
    return out


def _i_minus_m(span: _SolveSpan, pre, powers: Powers, block=None) -> list[dict]:
    """Rows {column: entry} of I - M on one block of the span's positions
    (the whole span unless given), numbered within the block, for M the
    conjugation R -> pre . R o post by a return pair, assembled from the
    image of each of the block's keys, one sum per column.  An image
    entry on a key outside the block raises BuildError: a partition that
    separated two keys the operator couples would otherwise drop the
    coupling."""
    mode = powers.inner.mode
    one = mode.one
    block = range(len(span.keys)) if block is None else block
    local = {i: row for row, i in enumerate(block)}
    rows = [{row: one} for row in range(len(block))]
    columns = Sum(mode).unit_columns(
        [(span.keys[i], -one) for i in block], _columns(pre), powers,
        span.degree, span.index, span.leak_guard(powers.inner),
    )
    for col, entries in enumerate(columns):
        for pos, w in entries:
            row = local.get(pos)
            if row is None:
                raise BuildError(f"conjugation left its type block at degree {span.degree}")
            rows[row][col] = w
    return [{k: w for k, w in row.items() if w} for row in rows]


class _CycleSystem:
    """Fixed points of h_j = A_j h_{j+1} + b_j (pull) or h_{j+1} = A_j h_j + b_j
    (push) around one cycle, indices mod the cycle length q, where A_j is
    the conjugation R -> pre_j . R o post_j on the span by the j-th step
    pair (pre matrix, power table of post).

    Once around, h_0 = M h_0 + c, with M the conjugation by the return
    pair.  M maps each block of the span into itself, so I - M is the
    direct sum of its blocks' rows.  Each solve accumulates c in Horner
    form, solves for h_0 on the blocks where c has a nonzero entry, and
    steps around the cycle.  A block's elimination does not depend on the
    b_j: it is set up the first time a solve reaches the block and kept.
    On a block that c does not reach, h_0 is zero, the exact solution
    when that block's I - M is invertible, as the contraction certificate
    of a validated plan makes it; a plan without one sets every block up
    at once (`set_up`).  Pivots never cross blocks, so the eliminations
    make the operations of one whole-span elimination in the same order.
    Once every block is set up, the return pair keeps a fresh power table
    of its map, so the memoized images of a cycle's return map are freed
    when all of its systems have been set up.

    Each step sums the images of the vector's nonzero entries onto b_j in
    one position-keyed `Sum`, and I - M is assembled one such sum per
    column: in rational mode both run on integer pairs and build one
    Fraction per entry that terms reached.
    """

    __slots__ = ("steps", "ret", "span", "pull", "cycle", "order", "eliminations")

    def __init__(self, steps, ret, span: _SolveSpan, pull: bool, cycle=None):
        self.steps, self.ret, self.span, self.pull, self.cycle = steps, ret, span, pull, cycle
        q = len(steps)
        # pull: M = A_0 (A_1 (... A_{q-1})), c = b_0 + A_0 (b_1 + ... A_{q-2} b_{q-1});
        # push: M = A_{q-1} (... (A_1 A_0)), c = b_{q-1} + A_{q-1} (... + A_1 b_0)
        self.order = list(range(q - 1, -1, -1)) if pull else list(range(q))
        self.eliminations = [None] * len(span.blocks)

    def elimination(self, b) -> linsolve.Elimination:
        """The elimination of block b's rows of I - M, set up on first use."""
        elim = self.eliminations[b]
        if elim is None:
            pre, powers = self.ret
            rows = _i_minus_m(self.span, pre, powers, self.span.blocks[b])
            try:
                elim = linsolve.Elimination.of_rows(rows, powers.inner.mode)
            except linsolve.SingularMatrix as err:
                what = "cycle solve" if self.pull else "reduction solve"
                raise BuildError(
                    f"singular {what} at degree {self.span.degree}, cycle {self.cycle}"
                ) from err
            self.eliminations[b] = elim
            if len(self.steps) > 1 and all(e is not None for e in self.eliminations):
                # Every block is set up, so no solve reads the return map's
                # images again: a fresh table lets the memoized one go.
                pre, powers = self.ret
                self.ret = (pre, Powers(powers.inner, powers.cap))
        return elim

    def set_up(self):
        """Set up every block's elimination now."""
        for b in range(len(self.eliminations)):
            self.elimination(b)

    def _step(self, j, vec, rhs):
        """b_j plus A_j applied to vec: the images of vec's nonzero entries,
        summed onto b_j by position."""
        pre, powers = self.steps[j]
        span = self.span
        total = Sum(powers.inner.mode)
        total.add_entries(enumerate(rhs[j]))
        items = [(key, v) for key, v in zip(span.keys, vec) if v]
        guard = span.leak_guard(powers.inner)
        total.add_images(items, _columns(pre), powers, span.degree, span.index, guard)
        return total.vector(len(rhs[j]))

    def solve(self, rhs):
        """Per-point solutions h_0, ..., h_{q-1} for the inhomogeneities b_j."""
        q = len(rhs)
        c = rhs[self.order[0]]
        for j in self.order[1:]:
            c = self._step(j, c, rhs)
        h0 = [self.steps[0][1].inner.mode.zero] * len(c)
        for b, block in enumerate(self.span.blocks):
            part = [c[i] for i in block]
            if any(part):
                for i, v in zip(block, self.elimination(b).solve(part)):
                    h0[i] = v
        out = [None] * q
        out[0] = h0
        # pull: h_j from h_{j+1}, j = q-1, ..., 1; push: h_{j+1} from h_j, j = 0, ..., q-2
        for j in self.order[:-1]:
            src, dst = ((j + 1) % q, j) if self.pull else (j, j + 1)
            out[dst] = self._step(j, out[src], rhs)
        return out


def _cycle_systems(cycles, span: _SolveSpan, pull: bool):
    """(cycle, system) for every (cycle, steps, return pair) of `cycles`;
    no block is set up yet."""
    return [(cycle, _CycleSystem(steps, ret, span, pull, cycle)) for cycle, steps, ret in cycles]


def _plan_systems(cycles, span: _SolveSpan, pull: bool, certified: bool):
    """The cycle systems of a plan: blocks set up on first use under a
    contraction certificate, every block now without one, so that such a
    plan refuses a singular system when it is made."""
    systems = _cycle_systems(cycles, span, pull)
    if not certified:
        for _, system in systems:
            system.set_up()
    return systems


def _solve_on(span: _SolveSpan, systems, polys: Sequence[PolyMap]) -> list[PolyMap]:
    """Solve every cycle system on the span with the right-hand side at
    base point x read off `polys[x]`; the solutions as degree-n maps."""
    dims, mode, keys = polys[0].source, polys[0].mode, span.keys
    out = [None] * len(polys)
    for cycle, system in systems:
        rhs = [[polys[x].coeffs.get(k, mode.zero) for k in keys] for x in cycle]
        for x, sol in zip(cycle, system.solve(rhs)):
            out[x] = PolyMap._trusted(dims, dims, span.degree, mode, dict(zip(keys, sol)))
    return out


def _defects(h, fixed_powers, normal, base: FiniteBase, degree) -> list[PolyMap]:
    """Degree-n part of H_{f(x)} o F_x - P_x o H_x at every base point x,
    with F_x the inner map of `fixed_powers[x]` and P_x = `normal[x]`.  H
    grows every degree, so P o H is composed on a fresh table."""
    out = []
    for x in range(base.p):
        outer = h[base.image(x)]
        total = Sum(outer.mode)
        total.add_composition(outer, fixed_powers[x], 1, degree)
        total.add_composition(normal[x], Powers(h[x], degree), -1, degree)
        out.append(total.to_map(outer.source, outer.target, degree))
    return out


def _check_conjugacy(h, fixed_powers, normal, base: FiniteBase, cap, what) -> list[Powers]:
    """H_{f(x)} o F_x = P_x o H_x at every base point, as jets: the left
    side truncated at the cap of `fixed_powers`, the right at `cap`, and
    the difference relative to the size of the left side.  Both sides are
    composed afresh from H, P and F; the power tables of the H_x at `cap`
    that the right sides read are returned."""
    tables = []
    for x in range(base.p):
        outer = h[base.image(x)]
        total = Sum(outer.mode)
        lhs = total.add_composition(outer, fixed_powers[x])
        tables.append(Powers(h[x], cap))
        total.add_composition(normal[x], tables[x], -1)
        residual = total.to_map(outer.source, outer.target, cap)
        if not residual.vanishes(scale=lhs):
            raise BuildError(f"{what} residual {float(residual.max_abs()):.3e}")
    return tables


def _residue(r, lin_powers: Powers, h_next, matrix, h_here, degree) -> PolyMap:
    """r + h_next o L - matrix . h_here at one degree, L the inner map of
    `lin_powers`: the residue of a solve, h_here at a point, h_next at its image."""
    total = Sum(r.mode)
    total.add_map(r)
    total.add_composition(h_next, lin_powers, 1, degree)
    total.add_left_linear(matrix, h_here, -1)
    return total.to_map(r.source, r.target, degree)


# -- the Taylor build ---------------------------------------------------


@dataclass
class NormalFormResult:
    """Per-point Taylor conjugacy H_x (degree N, unit linear part) and the
    sub-resonance polynomial normal form P_x it conjugates the fibers to."""

    ext: Extension
    spec: SpectrumSpec
    n_taylor: int
    alpha: Fraction
    h_taylor: tuple[PolyMap, ...]
    p_normal: tuple[GroupElement, ...]
    lift_kind: str
    lift_seed: int | None
    lift_sections: dict[tuple[int, int], PolyMap]
    certified_exponents: dict[int, Fraction]
    certified: bool
    validation: ValidationReport
    # the lift-independent part of the build, shared by its rebuilds
    plan: "TaylorPlan | None" = field(default=None, compare=False, repr=False)
    # the power tables Powers(H_x, N) of the final jet check, kept by
    # `solve_taylor` for a check of this result against another build
    # (see `verify.check_uniqueness`); `build_taylor` drops them
    h_powers: "list[Powers] | None" = field(default=None, compare=False, repr=False)

    def p_poly(self, x: int) -> PolyMap:
        return self.p_normal[x].poly

    def sub_res_jets(self) -> dict[tuple[int, int], PolyMap]:
        """Sub-resonance components of the Taylor terms, keyed (point, degree).

        Pinning these into a fresh build reproduces this result exactly.
        """
        d = degree_bound(self.spec)
        out = {}
        for x, h in enumerate(self.h_taylor):
            for degree in range(2, d + 1):
                part = project(h.homogeneous_part(degree), self.spec, SUB_RESONANCE)
                if not part.is_zero():
                    out[(x, degree)] = part
        return out

    def rebuild(self, lift: LiftStrategy) -> "NormalFormResult":
        """This build's extension solved under another lift, on this
        result's plan; a result without one (see `to_float`) plans afresh.
        The rebuild keeps the power tables of its jet check (`h_powers`)."""
        plan = self.plan or plan_taylor(
            self.ext, self.spec, self.n_taylor, self.alpha, force=not self.certified
        )
        return solve_taylor(plan, lift)

    def to_float(self) -> "NormalFormResult":
        """The result in binary64; the rational plan and power tables are
        not carried over."""
        if not self.ext.mode.exact:
            return self
        return replace(
            self,
            ext=self.ext.to_float(),
            h_taylor=tuple(h.to_float() for h in self.h_taylor),
            p_normal=tuple(replace(g, poly=g.poly.to_float()) for g in self.p_normal),
            lift_sections={k: v.to_float() for k, v in self.lift_sections.items()},
            certified_exponents=dict(self.certified_exponents),
            plan=None,
            h_powers=None,
        )


def _linear_data(polys: Sequence[PolyMap], what: str):
    """Linear matrices of the maps, their inverses, and both as linear maps."""
    mats, invs, lin_polys, inv_polys = [], [], [], []
    for pm in polys:
        m = pm.linear_matrix()
        try:
            m_inv = linsolve.invert(m)
        except linsolve.SingularMatrix as err:
            raise BuildError(f"{what} is singular") from err
        mats.append(m)
        invs.append(m_inv)
        lin_polys.append(from_linear(m, pm.source, pm.target, 1, pm.mode))
        inv_polys.append(from_linear(m_inv, pm.target, pm.source, 1, pm.mode))
    return mats, invs, lin_polys, inv_polys


def _all_block_diagonal(mats, dims: GradedDims) -> bool:
    return not any(entry for m in mats for _, _, entry in dims.off_block(m))


def _typed_basis(spec, dims: GradedDims, degree, classes):
    """(keys, labels): the degree-n basis monomials (coordinate, exponents)
    whose type lies in `classes`, in `class_basis` order, and the label
    (target block, block degrees) of each; every key is classified once."""
    keys, labels = [], []
    for c, exps in monomial_basis(dims, degree):
        label = (dims.block_of[c], dims.block_degrees(exps))
        if spec.type_class(*label) in classes:
            keys.append((c, exps))
            labels.append(label)
    return keys, labels


def _certified_exponent(spec, labels, direction) -> Fraction | None:
    return max(
        (phi_contraction_bound(spec, HomogeneousType(*label), direction) for label in set(labels)),
        default=None,
    )


@dataclass
class TaylorPlan:
    """The part of a Taylor build that does not depend on the lift (see
    `build_taylor`), shared by every `solve_taylor` on it.  Two builds of
    one extension differ only in their sub-resonance sections, which enter
    the degree-by-degree solves as right-hand sides."""

    ext: Extension
    spec: SpectrumSpec
    n_taylor: int
    alpha: Fraction
    validation: ValidationReport
    mats: list
    invs: list
    lin_polys: list[PolyMap]
    inv_polys: list[PolyMap]
    # per base point: the fiber's power table and its linear part's, at cap N
    fiber_powers: list[Powers]
    lin_powers: list[Powers]
    certified_exponents: dict[int, Fraction]
    # degree -> (solve span, [(cycle, _CycleSystem)])
    systems: dict[int, tuple]
    # the reduction plan of the fibers' linear parts, which are the linear
    # parts of P under every lift; made by the first `resonance_reduce`
    reduction: "ReductionPlan | None" = None


def plan_taylor(
    ext: Extension, spec: SpectrumSpec, n_taylor: int, alpha, force: bool = False
) -> TaylorPlan:
    """Validate the extension and set up every lift-independent part of
    its Taylor build up to degree N.

    Refuses to run when validation fails, unless `force` is set.  Each
    degree's solve keys are its whole non-sub-resonance basis, so no image
    term leaves the solve subspace.  A validated plan sets each cycle
    system's blocks up when a solve first reaches them; a forced plan
    whose validation failed sets them all up here.
    """
    alpha = Fraction(alpha)
    validation = validate_extension(ext, spec, n_taylor, alpha)
    if not validation.passed and not force:
        names = ", ".join(c.name for c in validation.failures())
        raise BuildRefused(f"validation failed ({names}); pass force to override")
    d = validation.constants.d
    if n_taylor < d:
        raise BuildRefused(f"Taylor degree {n_taylor} is below the degree bound {d}")

    dims, base, p = ext.dims, ext.base, ext.base.p
    mats, invs, lin_polys, inv_polys = _linear_data(ext.fibers, "fiber linear part")
    diagonal = _all_block_diagonal(mats, dims)

    # A linear map's images are homogeneous, so one table per point at cap
    # N serves every degree's conjugation steps and every solve's hn o L.
    lin_powers = [Powers(lin_polys[x], n_taylor) for x in range(p)]
    # the pull step at x: R -> L_x^{-1} . R o L_x
    cycles = _cycle_maps(base, list(zip(invs, lin_powers)), True)
    certified_exponents: dict[int, Fraction] = {}
    systems: dict[int, tuple] = {}
    for degree in range(2, n_taylor + 1):
        keys, labels = _typed_basis(spec, dims, degree, _NON_SUB)
        cert = _certified_exponent(spec, labels, "forward")
        if cert is not None:
            certified_exponents[degree] = cert
            if validation.passed and not cert < 0:
                raise BuildError(
                    f"certified exponent {cert} at degree {degree} is not negative"
                )
        if diagonal:
            # With block-diagonal linear parts the operator maps each type
            # into itself, so each type is a block of the cycle systems.
            # Keys sorted stably by type make the blocks contiguous, and
            # they fix the order of the solutions and so of the terms of
            # every solved map.
            order = sorted(range(len(keys)), key=labels.__getitem__)
            keys, labels = [keys[i] for i in order], [labels[i] for i in order]
        span = _SolveSpan(keys, degree, spec, _NON_SUB, labels if diagonal else None)
        systems[degree] = (span, _plan_systems(cycles, span, True, validation.passed))

    return TaylorPlan(
        ext=ext,
        spec=spec,
        n_taylor=n_taylor,
        alpha=alpha,
        validation=validation,
        mats=mats,
        invs=invs,
        lin_polys=lin_polys,
        inv_polys=inv_polys,
        # one power table per fiber serves every degree's H o F and the
        # final check of every solve on this plan
        fiber_powers=[Powers(ext.fiber(x), n_taylor) for x in range(p)],
        lin_powers=lin_powers,
        certified_exponents=certified_exponents,
        systems=systems,
    )


def _solve(plan: TaylorPlan, lift: LiftStrategy):
    """(H, P, sections): the degree-by-degree solve of `solve_taylor`,
    every per-degree residue gate included, without the final jet check."""
    ext, spec, n_taylor = plan.ext, plan.spec, plan.n_taylor
    dims, mode, base, p = ext.dims, ext.mode, ext.base, ext.base.p
    d = plan.validation.constants.d
    mats, invs, lin_polys = plan.mats, plan.invs, plan.lin_polys

    h = [identity_map(dims, n_taylor, mode) for _ in range(p)]
    p_poly = [lin_polys[x].jet(d) for x in range(p)]
    sections = _lift_table(lift, spec, dims, mode, p, d, SUB_RESONANCE)

    fiber_powers, lin_powers = plan.fiber_powers, plan.lin_powers
    for degree in range(2, n_taylor + 1):
        rn = _defects(h, fiber_powers, p_poly, base, degree)
        span, systems = plan.systems[degree]
        pulled = [left_linear(invs[x], rn[x]) for x in range(p)]
        hbar = _solve_on(span, systems, pulled)
        zero = zero_map(dims, dims, degree, mode)
        hn = [hbar[x].add(sections.get((x, degree), zero)) for x in range(p)]

        for x in range(p):
            pn = _residue(rn[x], lin_powers[x], hn[base.image(x)], mats[x], hn[x], degree)
            # above d every type is non-sub-resonance: for tol < 1 the gate is max|pn| <= tol
            if not project(pn, spec, _NON_SUB).vanishes(scale=pn):
                if degree > d:
                    raise BuildError(
                        f"normal form degree-{degree} residue {float(pn.max_abs()):.3e}"
                    )
                raise BuildError(f"non-sub-resonance residue in the normal form at degree {degree}")
            if degree <= d:
                # drops float dust below tolerance; keeps all of pn in rational mode
                p_poly[x] = p_poly[x].add(project(pn, spec, SUB_RESONANCE))
            h[x] = h[x].add(hn[x], cap=n_taylor)
    return h, p_poly, sections


def solve_taylor(plan: TaylorPlan, lift: LiftStrategy | None = None) -> NormalFormResult:
    """Solve the conjugacy degree by degree up to N on a plan, under one
    lift, and check the jets of the result.  All class and vanishing
    assertions are exact in rational mode.  The result keeps the check's
    power tables of H (`h_powers`)."""
    lift = lift or complement_lift()
    h, p_poly, sections = _solve(plan, lift)
    base, spec = plan.ext.base, plan.spec
    h_powers = _check_conjugacy(
        h, plan.fiber_powers, p_poly, base, plan.n_taylor, "jet conjugacy"
    )

    p_group = tuple(make_group_element(pm, spec, "sub-resonance") for pm in p_poly)
    return NormalFormResult(
        ext=plan.ext,
        spec=spec,
        n_taylor=plan.n_taylor,
        alpha=plan.alpha,
        h_taylor=tuple(h),
        p_normal=p_group,
        lift_kind=lift.kind,
        lift_seed=lift.seed,
        lift_sections=sections,
        certified_exponents=dict(plan.certified_exponents),
        certified=plan.validation.passed,
        validation=plan.validation,
        plan=plan,
        h_powers=h_powers,
    )


def build_taylor(
    ext: Extension,
    spec: SpectrumSpec,
    n_taylor: int,
    alpha,
    lift: LiftStrategy | None = None,
    force: bool = False,
) -> NormalFormResult:
    """Solve the conjugacy degree by degree up to the Taylor degree N.

    Refuses to run when validation fails, unless `force` is set, in which
    case the result carries certified=False.  All class and vanishing
    assertions are exact in rational mode.

    The build is `plan_taylor` then `solve_taylor`.  Only the sub-resonance
    sections depend on the lift; the validation, the linear data, the
    fiber power tables, the solve keys and certified exponents of every
    degree, and the cycle systems (each the elimination of I - M for its
    cycle's return-map operator M) do not.  They make up the plan kept on
    the result, on which `NormalFormResult.rebuild` solves other lifts.
    The power tables of the jet check are dropped: the build lives as long
    as its job.
    """
    plan = plan_taylor(ext, spec, n_taylor, alpha, force=force)
    nf = solve_taylor(plan, lift)
    nf.h_powers = None
    return nf


def perturb_lift(
    nf: NormalFormResult, seed: int, amplitude: Fraction = Fraction(1, 8)
) -> NormalFormResult:
    """Re-solve on the result's plan with seeded random sub-resonance
    offsets added to the sections it used.  Amplitude zero reproduces the
    input."""
    if amplitude == 0:
        return nf.rebuild(pinned_lift(nf.sub_res_jets()))
    return nf.rebuild(seeded_lift(seed, base_sections=nf.sub_res_jets(), amplitude=amplitude))


# -- resonance reduction ------------------------------------------------


@dataclass
class ResonanceResult:
    """Sub-resonance change H'_x taking the normal form to resonance form."""

    spec: SpectrumSpec
    base: FiniteBase
    h_prime: tuple[GroupElement, ...]
    p_res: tuple[GroupElement, ...]
    lift_kind: str
    lift_seed: int | None
    lift_sections: dict[tuple[int, int], PolyMap]
    certified_exponents: dict[int, Fraction]


def _block_diag_part(matrix, dims: GradedDims):
    out = [list(row) for row in matrix]
    zero = of_values(v for row in matrix for v in row).zero
    for r, c, _ in dims.off_block(matrix):
        out[r][c] = zero
    return out


@dataclass
class ReductionPlan:
    """The part of `reduce_family` that does not depend on the lift: it
    reads only the linear parts A_x of P.  Every family with these linear
    parts over this base and spectrum is reduced on it."""

    d_mats: list
    # per base point: the power tables of A_x, A_x^{-1} and the degree-1
    # change of coordinates G1_x and its inverse, at cap d
    a_powers: list[Powers]
    a_inv_powers: list[Powers]
    g1_powers: list[Powers]
    g1_inv_powers: list[Powers]
    # the degree-1 strip of the strict flag-triangular part, per point
    h1: list[PolyMap]
    certified_exponents: dict[int, Fraction]
    # degree -> (solve span, [(cycle, _CycleSystem)]) on the strict basis,
    # for the degrees that have one
    systems: dict[int, tuple]


def plan_reduction(base: FiniteBase, spec: SpectrumSpec, linear, certified: bool = False):
    """Set up the lift-independent part of the resonance reduction of a
    family whose linear data (matrices, inverses, and both as linear maps,
    as `_linear_data` returns them) is `linear`.

    With block-diagonal linear parts the backward operator maps each type
    into itself, so each degree's strict keys, kept in `class_basis`
    order, are split into one block per type.  `certified` says that the
    linear parts are those of a validated Taylor plan, whose backward
    exponents make every block's I - M invertible: blocks are then set up
    when a solve first reaches them, and otherwise all here.
    """
    mats, _, polys, inv_polys = linear
    dims, mode = polys[0].source, polys[0].mode
    d = degree_bound(spec)
    diagonal = _all_block_diagonal(mats, dims)
    d_mats = [_block_diag_part(m, dims) for m in mats]
    # One power table per fixed inner map, read at every degree and by the
    # backward conjugation steps; the images of linear maps are
    # homogeneous, so cap d keeps all of them.
    a_powers = [Powers(a, d) for a in polys]
    a_inv_powers = [Powers(a_inv, d) for a_inv in inv_polys]
    # the push step at x: R -> D_x . R o A_x^{-1}
    cycles = _cycle_maps(base, list(zip(d_mats, a_inv_powers)), False)
    certified_exponents: dict[int, Fraction] = {}
    systems: dict[int, tuple] = {}

    def strict_span(degree):
        keys, labels = _typed_basis(spec, dims, degree, _STRICT)
        if keys:
            certified_exponents[degree] = _certified_exponent(spec, labels, "backward")
            span = _SolveSpan(keys, degree, spec, _LEAVES_STRICT, labels if diagonal else None)
            systems[degree] = (span, _plan_systems(cycles, span, False, certified))

    # Degree 1: strip the strict flag-triangular part of the linear term.
    h1 = [zero_map(dims, dims, 1, mode) for _ in range(base.p)]
    if not diagonal:
        strict_span(1)
    if 1 in systems:
        rhs = []
        for x in range(base.p):
            u = [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(mats[x], d_mats[x])]
            u_poly = from_linear(u, dims, dims, 1, mode)
            rhs.append(compose_part(u_poly.scale(-1), a_inv_powers[x], 1))
        h1 = _solve_on(*systems[1], rhs)

    g1_polys = [identity_map(dims, d, mode).add(h1[x]).jet(1) for x in range(base.p)]
    *_, g1_inv_polys = _linear_data(g1_polys, "degree-1 change of coordinates")
    for degree in range(2, d + 1):
        strict_span(degree)

    return ReductionPlan(
        d_mats=d_mats,
        a_powers=a_powers,
        a_inv_powers=a_inv_powers,
        g1_powers=[Powers(g1, d) for g1 in g1_polys],
        g1_inv_powers=[Powers(g1_inv, d) for g1_inv in g1_inv_polys],
        h1=h1,
        certified_exponents=certified_exponents,
        systems=systems,
    )


def reduce_family(
    base: FiniteBase,
    spec: SpectrumSpec,
    p_elems: Sequence[GroupElement],
    lift: LiftStrategy | None = None,
    *,
    plan: ReductionPlan | None = None,
) -> ResonanceResult:
    """Conjugate a sub-resonance family to pure resonance form.

    Handles flag-triangular linear parts: the block-diagonal part becomes
    the resonance linear term and the strict part is absorbed into H'.
    The resonance component of each degree >= 2 term of H' is the free
    lift; the linear term of H' is normalized to identity plus a strict
    part.

    The reduction is `plan_reduction` then a solve under the lift.  A
    given plan must be that of the family's linear parts (see
    `resonance_reduce`); without one the family is planned afresh, every
    block set up.
    """
    lift = lift or complement_lift()
    if len(p_elems) != base.p:
        raise ValueError("one group element per base point required")
    if plan is None:
        linear = _linear_data([g.poly for g in p_elems], "normal form linear part")
        plan = plan_reduction(base, spec, linear)
    dims = p_elems[0].dims
    mode = p_elems[0].poly.mode
    d = degree_bound(spec)
    res_only = frozenset({TypeClass.RESONANCE})
    d_mats, a_powers = plan.d_mats, plan.a_powers
    # P's table serves every degree's defect and the final check at d*d.
    p_powers = [Powers(g.poly, d * d) for g in p_elems]
    sections = _lift_table(lift, spec, dims, mode, base.p, d, res_only)

    h_prime = [identity_map(dims, d, mode).add(plan.h1[x]) for x in range(base.p)]
    p_res = [from_linear(d_mats[x], dims, dims, 1, mode).jet(1) for x in range(base.p)]

    for degree in range(2, d + 1):
        k_parts = _defects(h_prime, p_powers, p_res, base, degree)
        for k in k_parts:
            if not project(k, spec, _NON_SUB).vanishes(scale=k):
                raise BuildError(f"unexpected non-sub-resonance terms: defect at degree {degree}")
        zero = zero_map(dims, dims, degree, mode)
        deltas = [sections.get((x, degree), zero) for x in range(base.p)]

        h_n = [zero] * base.p
        if degree in plan.systems:
            rhs = []
            for x in range(base.p):
                # Known inhomogeneity: strict part of the defect plus the
                # lift's interaction with the triangular linear term, minus
                # the correction aligning the resonance complement with the
                # degree-1 change of coordinates.
                w_known = _residue(
                    k_parts[x], a_powers[x], deltas[base.image(x)], d_mats[x], deltas[x], degree
                )
                rho = project(w_known, spec, res_only)
                correction = compose_part(rho, plan.g1_powers[x], degree).sub(rho)
                c_poly = correction.sub(project(w_known, spec, _STRICT))
                rhs.append(compose_part(c_poly, plan.a_inv_powers[x], degree))
            h_n = _solve_on(*plan.systems[degree], rhs)

        h_new = [deltas[x].add(h_n[x]) for x in range(base.p)]
        for x in range(base.p):
            h_prime[x] = h_prime[x].add(h_new[x])
            v = _residue(k_parts[x], a_powers[x], h_new[base.image(x)], d_mats[x], h_new[x], degree)
            p_n = compose_part(v, plan.g1_inv_powers[x], degree)
            off = project(p_n, spec, {TypeClass.STRICT_SUB, TypeClass.NON_SUB})
            if not off.vanishes(scale=p_n):
                raise BuildError(f"resonance form keeps a strict term at degree {degree}")
            # drops float dust below tolerance; keeps all of p_n in rational mode
            p_res[x] = p_res[x].add(project(p_n, spec, res_only), cap=d)

    _check_conjugacy(h_prime, p_powers, p_res, base, d * d, "resonance conjugacy")

    return ResonanceResult(
        spec=spec,
        base=base,
        h_prime=tuple(make_group_element(pm.jet(d), spec, "sub-resonance") for pm in h_prime),
        p_res=tuple(make_group_element(pm.jet(d), spec, "resonance") for pm in p_res),
        lift_kind=lift.kind,
        lift_seed=lift.seed,
        lift_sections=sections,
        certified_exponents=dict(plan.certified_exponents),
    )


def resonance_reduce(nf: NormalFormResult, lift: LiftStrategy | None = None) -> ResonanceResult:
    """Reduce a build's normal form under a lift.  The reduction plan is
    kept on the build's Taylor plan and shared by every build on it: P's
    linear parts are the fibers' for every lift, so the plan's linear data
    serve without another inversion.  A result without a plan, or whose P
    has other linear parts, is reduced on a fresh plan."""
    plan = nf.plan
    if plan is None or [g.poly.linear_matrix() for g in nf.p_normal] != plan.mats:
        return reduce_family(nf.ext.base, nf.spec, nf.p_normal, lift=lift)
    if plan.reduction is None:
        linear = (plan.mats, plan.invs, plan.lin_polys, plan.inv_polys)
        plan.reduction = plan_reduction(
            nf.ext.base, nf.spec, linear, certified=plan.validation.passed
        )
    return reduce_family(nf.ext.base, nf.spec, nf.p_normal, lift=lift, plan=plan.reduction)

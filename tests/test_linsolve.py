"""The recorded elimination against a frozen copy of the elimination of the
augmented matrix it replaced: bitwise-equal solutions, and singular
matrices refused when the elimination is recorded."""

from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nsnf import linsolve
from nsnf.scalars import FLOAT, RATIONAL, of_values

from oracles import solve_columns_reference

# Zeros are drawn often, so pivot swaps and skipped updates are exercised.
rational_entries = st.one_of(
    st.just(F(0)), st.fractions(min_value=F(-3), max_value=F(3), max_denominator=12)
)
float_entries = st.one_of(
    st.just(0.0),
    st.floats(min_value=-4.0, max_value=4.0, allow_nan=False, allow_subnormal=False),
)


@st.composite
def systems(draw, entries):
    n = draw(st.integers(min_value=1, max_value=6))
    k = draw(st.integers(min_value=1, max_value=3))
    row = st.lists(entries, min_size=n, max_size=n)
    a = draw(st.lists(row, min_size=n, max_size=n))
    b = draw(st.lists(st.lists(entries, min_size=k, max_size=k), min_size=n, max_size=n))
    return a, b


def _bits(rows):
    """Floats by their bit pattern, so 0.0 and -0.0 differ; Fractions as is."""
    return [[v.hex() if isinstance(v, float) else v for v in row] for row in rows]


def _check_against_reference(a, b):
    try:
        expected = solve_columns_reference(a, b)
    except linsolve.SingularMatrix:
        with pytest.raises(linsolve.SingularMatrix):
            linsolve.Elimination(a)
        return
    elim = linsolve.Elimination(a)
    assert _bits(elim.solve_columns(b)) == _bits(expected)
    assert _bits(linsolve.solve_columns(a, b)) == _bits(expected)
    for j in range(len(b[0])):
        column = [row[j] for row in b]
        want = _bits([[row[j] for row in expected]])
        assert _bits([elim.solve(column)]) == want
        assert _bits([linsolve.solve(a, column)]) == want
    one = F(1) if isinstance(a[0][0], F) else 1.0
    identity = linsolve.identity(len(a), one)
    assert _bits(linsolve.invert(a)) == _bits(solve_columns_reference(a, identity))


@given(systems(rational_entries))
def test_rational_replay_matches_reference(system):
    _check_against_reference(*system)


@given(systems(float_entries))
def test_float_replay_matches_reference(system):
    _check_against_reference(*system)


@given(systems(rational_entries), st.data())
def test_rational_singular_refused_when_recorded(system, data):
    a, b = system
    n = len(a)
    # the last row a combination of the others: singular over the rationals
    weights = data.draw(st.lists(rational_entries, min_size=n - 1, max_size=n - 1))
    a = a[:-1] + [[sum((w * row[j] for w, row in zip(weights, a)), F(0)) for j in range(n)]]
    with pytest.raises(linsolve.SingularMatrix):
        solve_columns_reference(a, b)
    with pytest.raises(linsolve.SingularMatrix):
        linsolve.Elimination(a)


@given(systems(float_entries), st.data())
def test_float_singular_refused_when_recorded(system, data):
    a, b = system
    col = data.draw(st.integers(min_value=0, max_value=len(a) - 1))
    a = [[0.0 if j == col else v for j, v in enumerate(row)] for row in a]
    with pytest.raises(linsolve.SingularMatrix):
        solve_columns_reference(a, b)
    with pytest.raises(linsolve.SingularMatrix):
        linsolve.Elimination(a)


def test_shapes():
    assert linsolve.solve([], []) == []
    assert linsolve.solve_columns([], []) == []
    assert linsolve.invert([]) == []
    with pytest.raises(ValueError, match="shape"):
        linsolve.Elimination([[F(1), F(0)]])
    with pytest.raises(ValueError, match="shape"):
        linsolve.solve([[F(1)]], [F(1), F(2)])
    with pytest.raises(ValueError, match="shape"):
        linsolve.Elimination([[1.0]]).solve_columns([[1.0], [2.0]])


# -- sparse systems: 70-95% zeros, row swaps, fill-in that cancels ---------


@st.composite
def sparse_systems(draw, exact):
    """A square system whose nonzeros sit on a permuted diagonal, so most
    columns need a row swap, plus a few entries from a small set of values,
    so that updates often cancel to exactly zero."""
    n = draw(st.integers(min_value=4, max_value=10))
    one = F(1) if exact else 1.0
    values = [one, -one, 2 * one, one / 2] if exact else [1.0, -1.0, 2.0, 0.5, 0.1, -3.0]
    zero = one * 0
    a = [[zero] * n for _ in range(n)]
    perm = draw(st.permutations(range(n)))
    for col, row in enumerate(perm):
        a[row][col] = draw(st.sampled_from(values))
    cell = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for i, j in draw(st.lists(cell, max_size=(3 * n * n) // 10 - n, unique=True)):
        a[i][j] = draw(st.sampled_from(values))
    b = [[draw(st.sampled_from(values + [zero]))] for _ in range(n)]
    return a, b


def _sparse_rows(a):
    return [{j: v for j, v in enumerate(row) if v} for row in a]


def _check_sparse(a, b):
    zeros = sum(1 for row in a for v in row if not v) / len(a) ** 2
    assert 0.7 <= zeros <= 0.95
    _check_against_reference(a, b)
    scalars = of_values(v for row in a for v in row)
    try:
        expected = solve_columns_reference(a, b)
    except linsolve.SingularMatrix:
        with pytest.raises(linsolve.SingularMatrix):
            linsolve.Elimination.of_rows(_sparse_rows(a), scalars)
        return
    elim = linsolve.Elimination.of_rows(_sparse_rows(a), scalars)
    assert _bits(elim.solve_columns(b)) == _bits(expected)


@given(sparse_systems(exact=True))
def test_rational_sparse_matches_reference(system):
    _check_sparse(*system)


@given(sparse_systems(exact=False))
def test_float_sparse_matches_reference(system):
    _check_sparse(*system)


def test_fill_in_that_cancels_is_not_a_pivot():
    # eliminating column 0 cancels entry (1, 1) to exactly zero, so the
    # pivot of column 1 comes from row 2 by a swap
    for scalars in (RATIONAL, FLOAT):
        one, zero = scalars.one, scalars.zero
        a = [
            [one, one, zero, zero],
            [one, one, one, zero],
            [zero, one, zero, one],
            [zero, zero, one, one + one],
        ]
        b = [[one], [zero], [one + one], [-one]]
        expected = solve_columns_reference(a, b)
        assert _bits(linsolve.Elimination(a).solve_columns(b)) == _bits(expected)
        elim = linsolve.Elimination.of_rows(_sparse_rows(a), scalars)
        assert elim.steps[1][0] == 2
        assert _bits(elim.solve_columns(b)) == _bits(expected)


def test_sparse_singular_refused_when_recorded():
    for scalars in (RATIONAL, FLOAT):
        one, zero = scalars.one, scalars.zero
        # row 3 is row 0 + row 1: its elimination leaves column 3 empty
        a = [
            [one, zero, zero, one, zero],
            [zero, one, zero, -one, zero],
            [zero, zero, one, zero, zero],
            [one, one, zero, zero, zero],
            [zero, zero, zero, zero, one],
        ]
        with pytest.raises(linsolve.SingularMatrix):
            solve_columns_reference(a, [[one]] * 5)
        with pytest.raises(linsolve.SingularMatrix):
            linsolve.Elimination(a)
        with pytest.raises(linsolve.SingularMatrix):
            linsolve.Elimination.of_rows(_sparse_rows(a), scalars)

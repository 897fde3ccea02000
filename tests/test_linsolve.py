"""The recorded elimination against a frozen copy of the elimination of the
augmented matrix it replaced: bitwise-equal solutions, and singular
matrices refused when the elimination is recorded."""

from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nsnf import linsolve

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

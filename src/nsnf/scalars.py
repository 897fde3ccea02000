"""The scalar modes: exact rationals (`RATIONAL`) and binary64 (`FLOAT`).

Each mode is one policy object that holds every decision depending on it:
zero and one, coercion of input scalars, conversion of an exact value, the
one vanishing test, the pivot rule of an elimination and the division by
its pivots, and whether checks are exact.  A policy is its mode's name as
a `str` subclass, so it compares equal to "rational" or "float" and
reports write it as that string.
"""

from __future__ import annotations

from fractions import Fraction

# The one tolerance of every binary64 residue and class check.
FLOAT_TOL = 1e-9


class Scalars(str):
    """A scalar mode.  Each mode defines `type` (the class of its
    coefficients), `exact`, `zero`, `one`, `from_fraction`, `vanishes`,
    `pivot` and `divide`."""

    __slots__ = ()

    def coerce(self, value):
        """An input scalar as a coefficient: the mode's type as is, an int
        converted; anything else is refused."""
        if isinstance(value, self.type):
            return value
        if isinstance(value, int):
            return self.type(value)
        raise TypeError(f"{self} mode got {value!r}")


class _Rational(Scalars):
    __slots__ = ()
    type, exact = Fraction, True
    zero, one = Fraction(0), Fraction(1)

    def from_fraction(self, value: Fraction):
        return value

    def vanishes(self, values, scale=0.0, tol=None) -> bool:
        """Every value exactly zero; neither scale nor tol is read."""
        return not any(values)

    def pivot(self, rows, work, col):
        """The first candidate row: any nonzero pivot is exact."""
        return min(rows, default=None)

    def divide(self, values, pivots) -> list:
        """values[i] / pivots[i]; a zero value gives the exact zero with no
        division, an int zero included."""
        zero = self.zero
        return [v / p if v else zero for v, p in zip(values, pivots)]


class _Float(Scalars):
    __slots__ = ()
    type, exact = float, False
    zero, one = 0.0, 1.0
    from_fraction = float

    def vanishes(self, values, scale=0.0, tol=None) -> bool:
        """The largest magnitude at most tol * max(1, scale), tol FLOAT_TOL
        unless given."""
        tol = FLOAT_TOL if tol is None else tol
        return max((abs(v) for v in values), default=0.0) <= tol * max(1.0, scale)

    def pivot(self, rows, work, col):
        """The candidate row of largest magnitude in column col, the first
        in ascending order on ties; None when every entry is zero."""
        best, pick = 0.0, None
        for r in sorted(rows):
            mag = abs(work[r][col])
            if mag > best:
                best, pick = mag, r
        return pick

    def divide(self, values, pivots) -> list:
        """values[i] / pivots[i], zeros divided too: a signed zero takes
        the sign of its quotient."""
        return [v / p for v, p in zip(values, pivots)]


RATIONAL = _Rational("rational")
FLOAT = _Float("float")
_MODES = {RATIONAL: RATIONAL, FLOAT: FLOAT}


def policy(mode) -> Scalars:
    """The policy of a mode given by its policy or its name."""
    try:
        return _MODES[mode]
    except (KeyError, TypeError):
        raise ValueError(f"unknown scalar mode {mode!r}") from None


def of_values(values) -> Scalars:
    """The policy of a matrix with these entries: exact when any entry is a
    Fraction, binary64 otherwise (an all-int matrix included)."""
    return RATIONAL if any(isinstance(v, Fraction) for v in values) else FLOAT

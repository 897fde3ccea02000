"""Small dense linear algebra over exact rationals or binary64.

Each matrix gets one scalar policy (`scalars.of_values`): exact when any
entry is a Fraction, binary64 otherwise.  Gauss-Jordan elimination pivots
by the policy's rule, on the first nonzero entry when exact so no rounding
is introduced.  One elimination is recorded per matrix and replayed on
every right-hand side.  Matrices are lists of row lists; the elimination
itself works on sparse rows, since cycle systems are mostly zeros.
Everything here is small (cycle solves and block inversions), so no
external linear algebra is pulled in and both modes share one code path.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain

from .scalars import of_values


class SingularMatrix(ArithmeticError):
    pass


def mat_vec(a, v):
    zero = of_values(chain.from_iterable(a)).zero
    out = []
    for row in a:
        acc = zero
        for r, x in zip(row, v):
            if r:
                acc = acc + r * x
        out.append(acc)
    return out


def mat_mul(a, b):
    """Product of two row-major matrices, skipping zero entries."""
    if not a:
        return []
    n_inner = len(b)
    n_cols = len(b[0]) if b else 0
    zero = of_values(chain.from_iterable(a)).zero
    out = []
    for row in a:
        acc = [zero] * n_cols
        for k in range(n_inner):
            r = row[k]
            if not r:
                continue
            bk = b[k]
            for j in range(n_cols):
                if bk[j]:
                    acc[j] = acc[j] + r * bk[j]
        out.append(acc)
    return out


def identity(n, one=Fraction(1)):
    zero = one * 0
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


class Elimination:
    """A recorded Gauss-Jordan elimination of a square matrix; raises
    SingularMatrix when constructed, before any solve.

    Each step keeps the row swapped into the pivot position and the
    (row, factor) updates made with the pivot row; replaying them on a
    right-hand side performs the same operations in the same order as
    eliminating the augmented matrix, so solutions are bitwise equal.

    The elimination runs on sparse rows and touches only nonzero entries:
    the dense loop it replaces reads zeros only to skip them, or to
    subtract from them, and a fill-in entry here is `zero - scale * v` as
    there.  Entries that become exactly zero are dropped.
    """

    __slots__ = ("scalars", "steps", "pivots")

    def __init__(self, a):
        n = len(a)
        if any(len(row) != n for row in a):
            raise ValueError("shape mismatch in linear solve")
        # one policy per matrix, its entries coerced to it
        scalars = of_values(chain.from_iterable(a))
        rows = [{j: scalars.coerce(v) for j, v in enumerate(row) if v} for row in a]
        self._eliminate(rows, scalars)

    @classmethod
    def of_rows(cls, rows, scalars) -> "Elimination":
        """The elimination of the square matrix whose row i is the dict
        rows[i] of its nonzero entries {column: value}, all of the scalar
        policy `scalars`.  The rows are consumed."""
        self = object.__new__(cls)
        self._eliminate(rows, scalars)
        return self

    def _eliminate(self, work, scalars):
        n = len(work)
        self.scalars, zero = scalars, scalars.zero
        # rows with a nonzero entry in each column
        in_col = [set() for _ in range(n)]
        for r, row in enumerate(work):
            for j in row:
                in_col[j].add(r)
        steps = []
        for col in range(n):
            pivot_row = scalars.pivot((r for r in in_col[col] if r >= col), work, col)
            if pivot_row is None:
                raise SingularMatrix(f"singular system at column {col}")
            if pivot_row != col:
                upper, lower = work[col], work[pivot_row]
                for j in upper:
                    in_col[j].discard(col)
                for j in lower:
                    in_col[j].discard(pivot_row)
                for j in upper:
                    in_col[j].add(pivot_row)
                for j in lower:
                    in_col[j].add(col)
                work[col], work[pivot_row] = lower, upper
            row_c = work[col]
            pivot = row_c[col]
            tail = [(j, v) for j, v in row_c.items() if j > col]
            updates = []
            for r in sorted(in_col[col]):
                if r == col:
                    continue
                row_r = work[r]
                # column col of row r is never read again
                scale = row_r.pop(col) / pivot
                updates.append((r, scale))
                for j, v in tail:
                    w = row_r.get(j)
                    w = (zero if w is None else w) - scale * v
                    if w:
                        row_r[j] = w
                        in_col[j].add(r)
                    elif j in row_r:
                        del row_r[j]
                        in_col[j].discard(r)
            steps.append((pivot_row, updates))
        self.steps = steps
        self.pivots = [work[i][i] for i in range(n)]

    def solve(self, b):
        """x with a x = b for one right-hand-side vector."""
        if len(b) != len(self.pivots):
            raise ValueError("shape mismatch in linear solve")
        x = list(b)
        for col, (swap, updates) in enumerate(self.steps):
            if swap != col:
                x[col], x[swap] = x[swap], x[col]
            v = x[col]
            if v:
                for r, scale in updates:
                    x[r] = x[r] - scale * v
        return self.scalars.divide(x, self.pivots)

    def solve_columns(self, b):
        """X with a X = B, B given as a list of rows; column by column, as
        the elimination of [a | B] treats each column on its own."""
        if len(b) != len(self.pivots):
            raise ValueError("shape mismatch in linear solve")
        cols = [self.solve(list(col)) for col in zip(*b)]
        return [[col[i] for col in cols] for i in range(len(b))]


def solve(a, b):
    """Solve a x = b for one right-hand-side vector."""
    return Elimination(a).solve(b) if a else []


def solve_columns(a, b):
    """Solve a X = B where B is given as a list of rows."""
    return Elimination(a).solve_columns(b) if a else []


def invert(a):
    if not a:
        return []
    elim = Elimination(a)
    return elim.solve_columns(identity(len(a), elim.scalars.one))

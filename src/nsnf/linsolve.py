"""Small dense linear algebra over exact rationals or binary64.

Gauss-Jordan elimination with partial pivoting; exact mode pivots on the
first nonzero entry so no rounding is introduced.  One elimination is
recorded per matrix and replayed on every right-hand side.  Matrices are
lists of row lists.  Everything here is tiny (cycle solves and block
inversions), so no external linear algebra is pulled in and both scalar
modes share one code path.
"""

from __future__ import annotations

from fractions import Fraction


class SingularMatrix(ArithmeticError):
    pass


def mat_vec(a, v):
    out = []
    for row in a:
        acc = _zero_like(row, v)
        for r, x in zip(row, v):
            if r:
                acc = acc + r * x
        out.append(acc)
    return out


def _zero_like(row, v):
    probe = row[0] if row else (v[0] if v else 0)
    return probe * 0


def mat_mul(a, b):
    """Product of two row-major matrices, skipping zero entries."""
    if not a:
        return []
    n_inner = len(b)
    n_cols = len(b[0]) if b else 0
    zero = _zero_like(a[0], [])
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
    """

    __slots__ = ("steps", "pivots")

    def __init__(self, a):
        n = len(a)
        if any(len(row) != n for row in a):
            raise ValueError("shape mismatch in linear solve")
        exact = n > 0 and isinstance(a[0][0], Fraction)
        work = [list(row) for row in a]
        steps = []
        for col in range(n):
            pivot_row = None
            if exact:
                for r in range(col, n):
                    if work[r][col] != 0:
                        pivot_row = r
                        break
            else:
                best = 0.0
                for r in range(col, n):
                    mag = abs(work[r][col])
                    if mag > best:
                        best = mag
                        pivot_row = r
            if pivot_row is None:
                raise SingularMatrix(f"singular system at column {col}")
            if pivot_row != col:
                work[col], work[pivot_row] = work[pivot_row], work[col]
            row_c = work[col]
            pivot = row_c[col]
            updates = []
            for r in range(n):
                if r == col:
                    continue
                factor = work[r][col]
                if not factor:
                    continue
                scale = factor / pivot
                updates.append((r, scale))
                # column col of row r is never read again
                row_r = work[r]
                for j in range(col + 1, n):
                    if row_c[j]:
                        row_r[j] = row_r[j] - scale * row_c[j]
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
        return [v / p for v, p in zip(x, self.pivots)]

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
    n = len(a)
    if n == 0:
        return []
    one = Fraction(1) if isinstance(a[0][0], Fraction) else 1.0
    return Elimination(a).solve_columns(identity(n, one))

"""Exact dense linear algebra over the rationals and the integers.

Matrices are sequences of row sequences with int or Fraction entries;
results come back as tuples of tuples.  Shapes with zero rows or columns
are legal, which is why the rational routines take the column count
explicitly instead of guessing it from a possibly empty row list.

The matrices of this package are small (most of the representation
oracle's are 1 x 1 or 1 x 2), so a kernel costs its calls and its
bytecode per entry, not its arithmetic, and each kernel runs its
per-entry loop in a builtin: `dot`, `mat_vec` and `mat_mul` take each
entry as one `sum(map(mul, ...))`, `sub_outer` (the rank-one update of a
Weyl element) rebuilds each row with u_i != 0 by one `map(sub, ...)`,
and `transpose` is `zip`.

The rational routines `rref` and `nullspace` return canonical exact
values: an int wherever a value is integral, and a Fraction only where a
denominator remains, so each entry's type follows from its value.

All elimination runs over the integers in one routine, `_eliminate`: an
all-int row is copied as it is, any other row is scaled by the lcm of
its denominators, Gauss-Jordan clears every pivot column with integer
row operations, and each changed row is divided by the gcd of its
entries so the numbers stay small.  `rank` counts its pivots and builds
no Fraction; `rref` divides each pivot row by its pivot once at the end,
which gives the unique reduced row echelon form, so `nullspace` gets the
same exact values a rational elimination would give.
A pivot of 1 leaves its row as it is, and otherwise an entry the pivot
divides stays an int.  Integer systems
known to have an integer solution go through `int_solve`, which reads
that solution off the eliminated rows with no Fraction: the Euler form
solves (1 - c)^T E^T = G with it, and `int_inverse` is the case b = 1.
Ranks of integer matrices, such as the `w - 1` of absolute length, go
through `rank` too; only the determinant `int_det` keeps its own
(Bareiss) loop.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from operator import mul, sub

from .errors import StructuralError

Row = Sequence
Mat = Sequence[Sequence]


def freeze(rows: Mat) -> tuple[tuple, ...]:
    return tuple(tuple(r) for r in rows)


def identity(n: int) -> tuple[tuple[int, ...], ...]:
    zeros = (0,) * n
    return tuple([zeros[:i] + (1,) + zeros[i + 1:] for i in range(n)])


def dot(u: Sequence, v: Sequence):
    """Sum of u_i v_i over the shorter length."""
    return sum(map(mul, u, v))


def mat_mul(a: Mat, b: Mat) -> tuple[tuple, ...]:
    """Product of a (r x k) and b (k x c); b must have at least one row."""
    bt = tuple(zip(*b))
    return tuple([tuple([sum(map(mul, row, col)) for col in bt]) for row in a])


def mat_vec(a: Mat, v: Sequence) -> tuple:
    return tuple([sum(map(mul, row, v)) for row in a])


def sub_outer(m: Mat, u: Sequence, v: Sequence) -> tuple[tuple, ...]:
    """m - u (x) v; the rows with u_i = 0 come back as they are.

    Row i is map(sub, m_i, u_i v), with v itself for the int u_i = 1 (a
    Fraction(1) still multiplies, so entry types stay those of
    a - u_i * b).  The list in between gives each row tuple its exact
    size; a tuple built from the iterator keeps a larger allocation.
    """
    out = []
    for row, x in zip(m, u):
        if x:
            row = tuple([*map(sub, row, v if x == 1 and type(x) is int else [x * b for b in v])])
        out.append(row)
    return tuple(out)


def transpose(a: Mat, ncols: int) -> tuple[tuple, ...]:
    """The transpose of a, whose rows have ncols entries each."""
    return tuple(zip(*a)) if a else ((),) * ncols


def _eliminate(rows: Mat, ncols: int) -> tuple[list[list[int]], list[int]]:
    """Gauss-Jordan over Z on the first ncols columns.

    Returns integer rows with the row span of `rows`, each changed row
    primitive, and the pivot columns: row r has a positive entry at
    pivots[r] and zeros in every other pivot column; rows past
    len(pivots) are zero in the first ncols columns.  An all-int row is
    copied as it is; any other is scaled by the lcm of its denominators.
    """
    m = []
    for row in rows:
        if set(map(type, row)) <= {int}:
            m.append(list(row))
        else:
            d = math.lcm(*(x.denominator for x in row))
            m.append([x.numerator * (d // x.denominator) for x in row])
    nrows = len(m)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        for i in range(r, nrows):
            if m[i][c]:
                break
        else:
            continue
        m[r], m[i] = m[i], m[r]
        prow = m[r]
        g = math.gcd(*prow)
        if prow[c] < 0:
            g = -g
        if g != 1:
            prow = m[r] = [x // g for x in prow]
        p = prow[c]
        for i, row in enumerate(m):
            f = row[c]
            if f and i != r:
                g = math.gcd(p, f)
                a, b = p // g, f // g
                new = [a * x - b * y for x, y in zip(row, prow)]
                g = math.gcd(*new)
                m[i] = [x // g for x in new] if g > 1 else new
        pivots.append(c)
        r += 1
    return m, pivots


def rref(rows: Mat, ncols: int) -> tuple[list[list], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices).

    The integer form of `_eliminate` with each pivot row divided by its
    pivot, the only step that can make fractions: a row with pivot 1
    comes back as it is, and an entry its pivot divides stays an int.
    Zero rows come last.
    """
    m, pivots = _eliminate(rows, ncols)
    for r, c in enumerate(pivots):
        p = m[r][c]
        if p != 1:
            m[r] = [x // p if x % p == 0 else Fraction(x, p) for x in m[r]]
    return m, pivots


def rank(rows: Mat, ncols: int) -> int:
    return len(_eliminate(rows, ncols)[1])


def nullspace(rows: Mat, ncols: int) -> tuple[tuple, ...]:
    """Basis of the right kernel, one vector per free column."""
    if ncols == 0:
        return ()
    if not rows:
        return identity(ncols)
    m, pivots = rref(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for r, c in enumerate(pivots):
            v[c] = -m[r][f]
        basis.append(tuple(v))
    return tuple(basis)


def int_solve(a: Mat, b: Mat) -> tuple[tuple[int, ...], ...]:
    """The integer x with a @ x = b, for a square integer a and integer b.

    One `_eliminate` on [a | b]: every eliminated row is primitive, so
    its pivot divides the row's right-hand side exactly when the pivot
    is 1.  Raises StructuralError when a is singular or x is not integral.
    """
    n = len(a)
    m, pivots = _eliminate([list(ra) + list(rb) for ra, rb in zip(a, b)], n)
    if len(pivots) != n:
        raise StructuralError("matrix not invertible")
    if any(m[r][r] != 1 for r in range(n)):
        raise StructuralError("solution is not integral")
    return freeze(row[n:] for row in m)


def int_inverse(a: Mat) -> tuple[tuple[int, ...], ...]:
    """Inverse of an integer matrix known to be invertible over Z."""
    return int_solve(a, identity(len(a)))


def int_det(a: Mat) -> int:
    """Determinant of a square integer matrix (Bareiss)."""
    m = [list(row) for row in a]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for c in range(n - 1):
        pivot = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            sign = -sign
        piv = m[c][c]
        for i in range(c + 1, n):
            f = m[i][c]
            m[i] = [(piv * x - f * y) // prev for x, y in zip(m[i], m[c])]
        prev = piv
    return sign * m[n - 1][n - 1]

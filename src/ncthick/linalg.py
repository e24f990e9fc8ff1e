"""Exact dense linear algebra over the integers.

Matrices are sequences of row sequences with int entries; results come
back as tuples of tuples.  Shapes with zero rows or columns are legal,
which is why the elimination routines take the column count explicitly
instead of guessing it from a possibly empty row list.  Numbers from
outside the package are checked to be ints where they enter (the maps
of a `repcat.Representation`, a `WeylElement` at `cartan.check_rank`),
so nothing here sees any other type.

The matrices of this package are small (most of the representation
oracle's are 1 x 1 or 1 x 2), so a kernel costs its calls and its
bytecode per entry, not its arithmetic, and each kernel runs its
per-entry loop in a builtin: `dot`, `mat_vec` and `mat_mul` take each
entry as one `sum(map(mul, ...))`, `sub_outer` (the rank-one update of a
Weyl element) rebuilds each row with u_i != 0 by one `map(sub, ...)`,
and `transpose` is `zip`.

All elimination runs in one routine, `rref`: Gauss-Jordan over Z with
integer row operations, each changed row divided by the gcd of its
entries so the numbers stay small, each pivot positive and every other
pivot column cleared.  Each pivot row is so the primitive positive
multiple of the row a rational reduced echelon form would give, and no
division is ever needed: `rank` counts the pivots, `nullspace` returns
primitive integer kernel vectors, and `int_solve` reads the solution of
a system known to be integral off the eliminated rows (the Euler form
solves (1 - c)^T E^T = G with it, and `int_inverse` is the case b = 1).
Only the determinant `int_det` keeps its own (Bareiss) loop.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from operator import mul, sub

from .errors import StructuralError

Row = Sequence[int]
Mat = Sequence[Sequence[int]]


def freeze(rows: Mat) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(r) for r in rows)


def identity(n: int) -> tuple[tuple[int, ...], ...]:
    zeros = (0,) * n
    return tuple([zeros[:i] + (1,) + zeros[i + 1:] for i in range(n)])


def dot(u: Row, v: Row) -> int:
    """Sum of u_i v_i over the shorter length."""
    return sum(map(mul, u, v))


def mat_mul(a: Mat, b: Mat) -> tuple[tuple[int, ...], ...]:
    """Product of a (r x k) and b (k x c); b must have at least one row."""
    bt = tuple(zip(*b))
    return tuple([tuple([sum(map(mul, row, col)) for col in bt]) for row in a])


def mat_vec(a: Mat, v: Row) -> tuple[int, ...]:
    return tuple([sum(map(mul, row, v)) for row in a])


def sub_outer(m: Mat, u: Row, v: Row) -> tuple[tuple[int, ...], ...]:
    """m - u (x) v; the rows with u_i = 0 come back as they are.

    Row i is map(sub, m_i, u_i v), with v itself for u_i = 1.  The list
    in between gives each row tuple its exact size; a tuple built from
    the iterator keeps a larger allocation.
    """
    out = []
    for row, x in zip(m, u):
        if x:
            row = tuple([*map(sub, row, v if x == 1 else [x * b for b in v])])
        out.append(row)
    return tuple(out)


def transpose(a: Mat, ncols: int) -> tuple[tuple[int, ...], ...]:
    """The transpose of a, whose rows have ncols entries each."""
    return tuple(zip(*a)) if a else ((),) * ncols


def rref(rows: Mat, ncols: int) -> tuple[list[list[int]], list[int]]:
    """Gauss-Jordan over Z on the first ncols columns; returns (rows,
    pivot column indices).

    The rows come back as new lists with the row span of `rows`: row r
    has a positive entry at pivots[r] and zeros in every other pivot
    column, and rows past len(pivots) are zero in the first ncols
    columns.  Every row that elimination changes is primitive, so a
    pivot row is the primitive positive multiple of its row in the
    rational reduced echelon form.
    """
    m = [list(row) for row in rows]
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


def rank(rows: Mat, ncols: int) -> int:
    return len(rref(rows, ncols)[1])


def nullspace(rows: Mat, ncols: int) -> tuple[tuple[int, ...], ...]:
    """Basis of the right kernel: for each free column f, the primitive
    integer kernel vector that is positive at f and zero at every other
    free column.

    It is the rational vector with 1 at f, times the lcm of the pivots
    that vector divides by, over the gcd; where the rational vector is
    integral (every such pivot 1) it is that vector itself.
    """
    m, pivots = rref(rows, ncols)
    basis = []
    for f in [c for c in range(ncols) if c not in pivots]:
        d = math.lcm(*(row[c] for row, c in zip(m, pivots) if row[f]))
        v = [0] * ncols
        v[f] = d
        for row, c in zip(m, pivots):
            v[c] = -row[f] * d // row[c]
        g = math.gcd(*v)
        basis.append(tuple([x // g for x in v] if g > 1 else v))
    return tuple(basis)


def int_solve(a: Mat, b: Mat) -> tuple[tuple[int, ...], ...]:
    """The integer x with a @ x = b, for a square integer a and integer b.

    One `rref` of [a | b]: every eliminated row is primitive, so its
    pivot divides the row's right-hand side exactly when the pivot is 1.
    Raises StructuralError when a is singular or x is not integral.
    """
    n = len(a)
    m, pivots = rref([list(ra) + list(rb) for ra, rb in zip(a, b)], n)
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

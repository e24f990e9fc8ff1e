import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncthick import linalg
from ncthick.errors import StructuralError


def rational_rref(rows, ncols):
    """The rational reduced row echelon form: `linalg.rref` with each pivot
    row divided by its pivot on the test side, an int wherever a value is
    integral and a Fraction otherwise."""
    m, pivots = linalg.rref(rows, ncols)
    for r, c in enumerate(pivots):
        p = m[r][c]
        if p != 1:
            m[r] = [x // p if x % p == 0 else Fraction(x, p) for x in m[r]]
    return m, pivots


def inverse(a):
    """Inverse of a square matrix over the rationals, by one `rational_rref`
    of [a | 1]: the reference of `int_inverse` and of the Euler form."""
    n = len(a)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    m, pivots = rational_rref(aug, 2 * n)
    if pivots[:n] != list(range(n)):
        raise StructuralError("matrix not invertible")
    return linalg.freeze(row[n:] for row in m[:n])


def solve_columns(a, ncols_a, b, ncols_b):
    """Solve a @ x = b for x over the rationals, where a has full column rank.

    Raises StructuralError when the system is inconsistent or the rank
    assumption fails; shapes: a is (r x ncols_a), b is (r x ncols_b),
    result is (ncols_a x ncols_b).  The kernel and cokernel references
    of the representation tests solve each arrow's map with it.
    """
    if not a:
        # no equations: rank 0, full column rank only with no unknowns
        if ncols_a:
            raise StructuralError("solve_columns: matrix not of full column rank or inconsistent")
        if any(any(x != 0 for x in row) for row in b):
            raise StructuralError("inconsistent empty system")
        return ()
    aug = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    m, pivots = rational_rref(aug, ncols_a + ncols_b)
    if len(pivots) != ncols_a or any(p >= ncols_a for p in pivots):
        raise StructuralError("solve_columns: matrix not of full column rank or inconsistent")
    x = [[0] * ncols_b for _ in range(ncols_a)]
    for r, c in enumerate(pivots):
        for j in range(ncols_b):
            x[c][j] = m[r][ncols_a + j]
    return linalg.freeze(x)


def _reference_rref(rows, ncols):
    """Gauss-Jordan over Fraction: the rational reduced echelon form."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def _reference(fn, *args):
    """fn run with `linalg.rref` replaced by the rational reference; its
    result or its error type."""
    with mock.patch.object(linalg, "rref", _reference_rref):
        try:
            return fn(*args)
        except StructuralError as exc:
            return type(exc)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except StructuralError as exc:
        return type(exc)


def _check_rref(rows, ncols):
    """`linalg.rref` against the rational reference: the same pivots, every
    entry an int, each pivot row primitive and the positive multiple of the
    reference's row (so both span the same space), the other rows zero on
    the first ncols columns, and the rank its pivot count."""
    got, pivots = linalg.rref(rows, ncols)
    ref, ref_pivots = _reference_rref(rows, ncols)
    assert pivots == ref_pivots
    assert len(got) == len(rows)
    assert all(type(x) is int for row in got for x in row)
    for r, c in enumerate(pivots):
        row = got[r]
        assert row[c] > 0 and math.gcd(*row) == 1
        assert row == [row[c] * x for x in ref[r]]
    assert not any(any(row[:ncols]) for row in got[len(pivots):])
    assert linalg.rank(rows, ncols) == len(pivots)


def _reference_nullspace(rows, ncols):
    """The rational kernel basis off the reference: for each free column f,
    1 at f, 0 at the other free columns, minus column f at the pivots."""
    if ncols == 0:
        return []
    m, pivots = _reference_rref(rows, ncols)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[f] = 1
        for r, c in enumerate(pivots):
            v[c] = -m[r][f]
        basis.append((f, v))
    return basis


def _check_nullspace(rows, ncols):
    """Each `linalg.nullspace` vector is int, primitive, positive at its
    free column, in the kernel, and the positive multiple of the reference
    vector; where that vector is integral it is that vector itself."""
    got = linalg.nullspace(rows, ncols)
    ref = _reference_nullspace(rows, ncols)
    assert len(got) == len(ref)
    for v, (f, w) in zip(got, ref):
        assert type(v) is tuple and all(type(x) is int for x in v)
        assert v[f] > 0 and math.gcd(*v) == 1
        assert not any(linalg.mat_vec(rows, v))
        assert list(v) == [v[f] * x for x in w]
        if all(Fraction(x).denominator == 1 for x in w):
            assert list(v) == w


ints = st.integers(-4, 4)


@st.composite
def matrices(draw, nrows=st.integers(0, 6), ncols=st.integers(0, 6), elements=ints, repeat=True):
    r, c = draw(nrows), draw(ncols)
    # sparse rows and repeated rows make rank deficiency and zero rows common
    zero_heavy = st.one_of(st.just(0), elements)
    rows = [draw(st.lists(zero_heavy, min_size=c, max_size=c)) for _ in range(r)]
    if repeat and rows and draw(st.booleans()):
        rows.append(list(rows[draw(st.integers(0, len(rows) - 1))]))
    return rows, c


def _unimodular(a, n, data):
    """A unimodular matrix: lower times upper unitriangular, the lower part read off a."""
    lower = [[1 if i == j else a[i][j] if j < i else 0 for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else data.draw(ints) if j > i else 0 for j in range(n)] for i in range(n)]
    return [list(row) for row in linalg.mat_mul(lower, upper)] if n else []


EDGE_CASES = [
    ([], 0),
    ([], 3),
    ([[], []], 0),
    ([[0, 0, 0]], 3),
    ([[0, 0], [0, 0], [0, 0]], 2),
    ([[1, 0, 2], [0, 0, 0], [2, 0, 4]], 3),
    ([[0, 3], [0, 6], [0, -1], [0, 2]], 2),
    ([[1, 2], [3, 4], [5, 6], [7, 8]], 2),
    ([[3, 2], [9, 6]], 2),
    ([[0, -2, 4, 0], [3, 0, 0, 6]], 4),
]


class TestAgainstRationalElimination:
    @settings(max_examples=300, deadline=None)
    @given(matrices())
    def test_rref_and_rank(self, case):
        _check_rref(*case)

    @pytest.mark.parametrize("rows, ncols", EDGE_CASES)
    def test_edge_cases(self, rows, ncols):
        _check_rref(rows, ncols)
        _check_nullspace(rows, ncols)

    @settings(max_examples=300, deadline=None)
    @given(matrices())
    def test_nullspace(self, case):
        _check_nullspace(*case)

    @settings(max_examples=200, deadline=None)
    @given(matrices(), st.integers(0, 3), st.booleans(), st.data())
    def test_solve_columns(self, case, ncols_b, consistent, data):
        a, ncols_a = case
        if consistent and ncols_a:
            row = st.lists(ints, min_size=ncols_b, max_size=ncols_b)
            x = data.draw(st.lists(row, min_size=ncols_a, max_size=ncols_a))
            b = [list(r) for r in linalg.mat_mul(a, x)]
        else:
            b = [data.draw(st.lists(ints, min_size=ncols_b, max_size=ncols_b)) for _ in a]
        got = _outcome(solve_columns, a, ncols_a, b, ncols_b)
        assert got == _reference(solve_columns, a, ncols_a, b, ncols_b)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 5).flatmap(lambda n: matrices(st.just(n), st.just(n), repeat=False)))
    def test_inverse(self, case):
        a, _ = case
        assert _outcome(inverse, a) == _reference(inverse, a)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 5).flatmap(lambda n: matrices(st.just(n), st.just(n), ints, repeat=False)), st.data())
    def test_int_inverse(self, case, data):
        a, n = case
        if data.draw(st.booleans()):
            a = _unimodular(a, n, data)
        expected = _reference(inverse, a)
        got = _outcome(linalg.int_inverse, a)
        if expected is StructuralError or any(x.denominator != 1 for row in expected for x in row):
            assert got is StructuralError
        else:
            assert got == expected
            assert all(type(x) is int for row in got for x in row)

    @settings(max_examples=200, deadline=None)
    @given(matrices(), st.booleans())
    def test_rows_are_fresh_lists(self, case, as_tuples):
        # every row is copied, so rref hands back no row of its input and
        # leaves the input as it was
        rows, ncols = case
        if as_tuples:
            rows = [tuple(row) for row in rows]
        before = tuple(map(tuple, rows))
        got, _ = linalg.rref(rows, ncols)
        assert all(type(row) is list for row in got)
        assert not any(new is old for new in got for old in rows)
        assert tuple(map(tuple, rows)) == before

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 4), st.integers(1, 3), st.data())
    def test_augmented_rows(self, n, k, data):
        # [a | b] eliminated on the first n columns, as int_solve does: the
        # pivot rows are primitive over the whole row and the positive
        # multiples of the reference's, right-hand side included
        a, _ = data.draw(matrices(st.just(n), st.just(n), repeat=False))
        rows = [list(r) + data.draw(st.lists(ints, min_size=k, max_size=k)) for r in a]
        _check_rref(rows, n)

class TestSolveColumnsWithoutEquations:
    # the reference above shares this branch, so these cases are pinned here

    @pytest.mark.parametrize("a", [(), ((0, 0),)])
    def test_unknowns_without_rank_raise(self, a):
        # rank 0 < 2 unknowns, whether there are no rows or only a zero row
        with pytest.raises(StructuralError, match="full column rank"):
            solve_columns(a, 2, tuple((0,) for _ in a), 1)

    def test_no_unknowns(self):
        assert solve_columns((), 0, (), 3) == ()
        assert solve_columns(((),), 0, ((0, 0),), 2) == ()
        with pytest.raises(StructuralError):
            solve_columns(((),), 0, ((0, 1),), 2)


class TestIntSolve:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 5).flatmap(lambda n: matrices(st.just(n), st.just(n), ints, repeat=False)),
        st.integers(0, 3),
        st.data(),
    )
    def test_against_inverse_times_b(self, case, k, data):
        a, n = case
        if data.draw(st.booleans()):
            a = _unimodular(a, n, data)
        column = st.lists(ints, min_size=k, max_size=k)
        b = [data.draw(column) for _ in range(n)]
        if n and data.draw(st.booleans()):
            # b = a x for an integer x: integral whenever a is invertible
            x = [data.draw(column) for _ in range(n)]
            b = [list(row) for row in linalg.mat_mul(a, x)]
        inv = _reference(inverse, a)
        got = _outcome(linalg.int_solve, a, b)
        if inv is StructuralError:
            assert got is StructuralError
            return
        expected = linalg.mat_mul(inv, b) if n else ()
        if any(x.denominator != 1 for row in expected for x in row):
            assert got is StructuralError
        else:
            assert got == expected
            assert all(type(x) is int for row in got for x in row)

    def test_unimodular(self):
        assert linalg.int_solve(((2, 1), (1, 1)), ((3, 0), (2, 1))) == ((1, -1), (1, 2))

    def test_integral_solution_of_a_non_unimodular_matrix(self):
        assert linalg.int_solve(((2, 0), (0, 3)), ((4,), (-3,))) == ((2,), (-1,))

    def test_singular(self):
        with pytest.raises(StructuralError, match="invertible"):
            linalg.int_solve(((1, 2), (2, 4)), ((1,), (2,)))

    def test_not_integral(self):
        with pytest.raises(StructuralError, match="integral"):
            linalg.int_solve(((2, 0), (0, 1)), ((1,), (0,)))


class TestIntInverse:
    def test_unimodular(self):
        a = ((2, 1), (1, 1))
        inv = linalg.int_inverse(a)
        assert inv == ((1, -1), (-1, 2))
        assert linalg.mat_mul(a, inv) == linalg.identity(2)

    def test_not_integral(self):
        with pytest.raises(StructuralError, match="integral"):
            linalg.int_inverse(((2, 0), (0, 1)))

    def test_singular(self):
        with pytest.raises(StructuralError, match="invertible"):
            linalg.int_inverse(((1, 2), (2, 4)))


def _reference_mat_mul(a, b):
    """The generator loop `mat_mul` used to run."""
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def _reference_mat_vec(a, v):
    """The generator loop `mat_vec` used to run."""
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def _typed(value):
    """A nested result with each entry paired with its type, so an int and
    an equal value of another type (a bool, a float) count as different."""
    if isinstance(value, tuple):
        return tuple(_typed(x) for x in value)
    return (type(value), value)


class TestDotKernel:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(ints, max_size=6), st.data())
    def test_dot_matches_generator_loop(self, u, data):
        v = data.draw(st.lists(ints, min_size=len(u), max_size=len(u)))
        assert _typed(linalg.dot(u, v)) == _typed(sum(x * y for x, y in zip(u, v)))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 5), st.integers(1, 5), st.integers(0, 5), st.data())
    def test_mat_mul_matches_generator_loop(self, r, k, c, data):
        a, _ = data.draw(matrices(st.just(r), st.just(k), repeat=False))
        b, _ = data.draw(matrices(st.just(k), st.just(c), repeat=False))
        assert _typed(linalg.mat_mul(a, b)) == _typed(_reference_mat_mul(a, b))

    @settings(max_examples=300, deadline=None)
    @given(matrices(repeat=False), st.data())
    def test_mat_vec_matches_generator_loop(self, case, data):
        a, k = case
        v = data.draw(st.lists(ints, min_size=k, max_size=k))
        assert _typed(linalg.mat_vec(a, v)) == _typed(_reference_mat_vec(a, v))

    @pytest.mark.parametrize(
        "a,b",
        [
            ([], [[1, 2], [3, 4]]),
            ([[1, 2], [3, 4]], [[], []]),
            ([[3, 1]], [[2], [-1]]),
            ([[0]], [[0]]),
        ],
    )
    def test_mat_mul_edge_shapes(self, a, b):
        assert _typed(linalg.mat_mul(a, b)) == _typed(_reference_mat_mul(a, b))

    def test_empty_vectors(self):
        assert _typed(linalg.dot((), ())) == (int, 0)
        assert linalg.mat_vec([[], []], ()) == (0, 0)
        assert linalg.mat_vec([], (1, 2)) == ()


def _reference_sub_outer(m, u, v):
    """The comprehension `sub_outer` used to run: a - x * b per entry."""
    return tuple(
        row if not x else tuple(a - x * b for a, b in zip(row, v)) for row, x in zip(m, u)
    )


def _reference_transpose(a, ncols):
    """The generator loop `transpose` used to run."""
    return tuple(tuple(row[j] for row in a) for j in range(ncols))


# the values a rank-one update meets: 1 takes sub_outer's shortcut
multipliers = st.one_of(st.sampled_from([0, 1, -1, 2]), ints)


class TestRankOneUpdate:
    @settings(max_examples=300, deadline=None)
    @given(matrices(repeat=False), st.data())
    def test_sub_outer_matches_comprehension(self, case, data):
        rows, k = case
        m = tuple(tuple(row) for row in rows)
        u = data.draw(st.lists(multipliers, min_size=len(m), max_size=len(m)))
        v = data.draw(st.lists(ints, min_size=k, max_size=k))
        got = linalg.sub_outer(m, u, v)
        assert _typed(got) == _typed(_reference_sub_outer(m, u, v))
        assert all(new is old for new, old, x in zip(got, m, u) if not x)

    @pytest.mark.parametrize(
        "m,u,v",
        [
            (((1, 2), (3, 4)), (1, 0), (1, 1)),
            (((1, 2), (3, 4)), (0, 1), (1, 1)),
            (((1, 2), (3, 4)), (-1, 2), (1, -1)),
            (((5, 2),), (1,), (5, 2)),
            (((1, 2),), (-3,), (3, 0)),
            (((1, 2),), (2,), (-3, 0)),
        ],
    )
    def test_sub_outer_types(self, m, u, v):
        assert _typed(linalg.sub_outer(m, u, v)) == _typed(_reference_sub_outer(m, u, v))

    def test_sub_outer_zero_rows_kept(self):
        m = ((1, 2), (3, 4), (5, 6))
        got = linalg.sub_outer(m, (0, 1, 0), (1, 1))
        assert got == ((1, 2), (2, 3), (5, 6))
        assert got[0] is m[0] and got[2] is m[2]

    def test_sub_outer_edge_shapes(self):
        assert linalg.sub_outer((), (), (1, 2)) == ()
        assert linalg.sub_outer(((), ()), (1, 0), ()) == ((), ())

    @settings(max_examples=300, deadline=None)
    @given(matrices(repeat=False))
    def test_transpose_matches_generator_loop(self, case):
        rows, ncols = case
        a = tuple(tuple(row) for row in rows)
        assert _typed(linalg.transpose(a, ncols)) == _typed(_reference_transpose(a, ncols))
        assert _typed(linalg.transpose(rows, ncols)) == _typed(_reference_transpose(a, ncols))

    @pytest.mark.parametrize(
        "a,ncols,expected",
        [
            ((), 3, ((), (), ())),
            ([], 0, ()),
            (((), ()), 0, ()),
            (((1, -2),), 2, ((1,), (-2,))),
        ],
    )
    def test_transpose_edge_shapes(self, a, ncols, expected):
        assert _typed(linalg.transpose(a, ncols)) == _typed(expected)

    @pytest.mark.parametrize("n", range(7))
    def test_identity(self, n):
        expected = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        assert _typed(linalg.identity(n)) == _typed(expected)

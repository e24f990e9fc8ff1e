from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncthick import linalg
from ncthick.errors import StructuralError
from test_repcat import solve_columns  # the test-side solver of the kernel references


def inverse(a):
    """Inverse of a square matrix over the rationals, by one `linalg.rref`
    of [a | 1]: the reference of `int_inverse` and of the Euler form."""
    n = len(a)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    m, pivots = linalg.rref(aug, 2 * n)
    if pivots[:n] != list(range(n)):
        raise StructuralError("matrix not invertible")
    return linalg.freeze(row[n:] for row in m[:n])


def _reference_rref(rows, ncols):
    """Gauss-Jordan over Fraction: the rational loop `rref` used to run."""
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
    """fn run on the reference elimination; its result or its error type."""
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


def _is_canonical_table(rows):
    """Each entry's type is pinned by its value: an int when integral,
    otherwise a Fraction with a denominator above 1."""
    return all(
        type(x) is int if x.denominator == 1 else type(x) is Fraction
        for row in rows
        for x in row
    )


ints = st.integers(-4, 4)
fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
entries = st.one_of(ints, fractions)


@st.composite
def matrices(draw, nrows=st.integers(0, 6), ncols=st.integers(0, 6), elements=entries, repeat=True):
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
    ([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]], 2),
    ([[0, -2, 4, 0], [3, 0, 0, 6]], 4),
]


class TestAgainstRationalElimination:
    @settings(max_examples=300, deadline=None)
    @given(matrices())
    def test_rref_and_rank(self, case):
        rows, ncols = case
        got, pivots = linalg.rref(rows, ncols)
        assert (got, pivots) == _reference_rref(rows, ncols)
        assert _is_canonical_table(got)
        assert linalg.rank(rows, ncols) == len(pivots)

    @pytest.mark.parametrize("rows, ncols", EDGE_CASES)
    def test_edge_cases(self, rows, ncols):
        assert linalg.rref(rows, ncols) == _reference_rref(rows, ncols)
        assert linalg.rank(rows, ncols) == len(_reference_rref(rows, ncols)[1])
        assert linalg.nullspace(rows, ncols) == _reference(linalg.nullspace, rows, ncols)

    @settings(max_examples=200, deadline=None)
    @given(matrices())
    def test_nullspace(self, case):
        rows, ncols = case
        got = linalg.nullspace(rows, ncols)
        assert got == _reference(linalg.nullspace, rows, ncols)
        assert _is_canonical_table(got)

    @settings(max_examples=200, deadline=None)
    @given(matrices(), st.integers(0, 3), st.booleans(), st.data())
    def test_solve_columns(self, case, ncols_b, consistent, data):
        a, ncols_a = case
        if consistent and ncols_a:
            row = st.lists(entries, min_size=ncols_b, max_size=ncols_b)
            x = data.draw(st.lists(row, min_size=ncols_a, max_size=ncols_a))
            b = [list(r) for r in linalg.mat_mul(a, x)]
        else:
            b = [data.draw(st.lists(entries, min_size=ncols_b, max_size=ncols_b)) for _ in a]
        got = _outcome(solve_columns, a, ncols_a, b, ncols_b)
        assert got == _reference(solve_columns, a, ncols_a, b, ncols_b)
        if got is not StructuralError:
            assert _is_canonical_table(got)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 5).flatmap(lambda n: matrices(st.just(n), st.just(n), repeat=False)))
    def test_inverse(self, case):
        a, _ = case
        got = _outcome(inverse, a)
        assert got == _reference(inverse, a)
        if got is not StructuralError:
            assert _is_canonical_table(got)

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
    """A nested result with each entry paired with its type, so int 0 and
    Fraction(0) count as different."""
    if isinstance(value, tuple):
        return tuple(_typed(x) for x in value)
    return (type(value), value)


class TestDotKernel:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(entries, max_size=6), st.data())
    def test_dot_matches_generator_loop(self, u, data):
        v = data.draw(st.lists(entries, min_size=len(u), max_size=len(u)))
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
        v = data.draw(st.lists(entries, min_size=k, max_size=k))
        assert _typed(linalg.mat_vec(a, v)) == _typed(_reference_mat_vec(a, v))

    @pytest.mark.parametrize(
        "a,b",
        [
            ([], [[1, 2], [3, 4]]),
            ([[1, 2], [3, 4]], [[], []]),
            ([[Fraction(1, 2), 1]], [[2], [Fraction(-1, 3)]]),
            ([[0]], [[Fraction(0)]]),
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


# the values a rank-one update meets: the int 1 takes sub_outer's shortcut,
# Fraction(1) must not
multipliers = st.one_of(st.sampled_from([0, 1, -1, 2, Fraction(1)]), entries)


class TestRankOneUpdate:
    @settings(max_examples=300, deadline=None)
    @given(matrices(repeat=False), st.data())
    def test_sub_outer_matches_comprehension(self, case, data):
        rows, k = case
        m = tuple(tuple(row) for row in rows)
        u = data.draw(st.lists(multipliers, min_size=len(m), max_size=len(m)))
        v = data.draw(st.lists(entries, min_size=k, max_size=k))
        got = linalg.sub_outer(m, u, v)
        assert _typed(got) == _typed(_reference_sub_outer(m, u, v))
        assert all(new is old for new, old, x in zip(got, m, u) if not x)

    @pytest.mark.parametrize(
        "m,u,v",
        [
            (((1, 2), (3, 4)), (1, 0), (1, 1)),
            (((1, 2), (3, 4)), (Fraction(1), 0), (1, 1)),
            (((1, 2), (3, 4)), (-1, 2), (1, -1)),
            (((Fraction(1, 2), 2),), (1,), (Fraction(1, 2), 2)),
            (((1, 2),), (Fraction(1),), (Fraction(1, 3), 0)),
            (((1, 2),), (Fraction(2, 3),), (3, 0)),
        ],
    )
    def test_sub_outer_types(self, m, u, v):
        assert _typed(linalg.sub_outer(m, u, v)) == _typed(_reference_sub_outer(m, u, v))

    def test_sub_outer_fraction_one_multiplies(self):
        # Fraction(1) * b is a Fraction, so the updated row holds Fractions
        # even where a - b would be an int
        got = linalg.sub_outer(((1, 2),), (Fraction(1),), (1, 1))
        assert _typed(got) == (((Fraction, Fraction(0)), (Fraction, Fraction(1))),)

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
            (((1, Fraction(1, 2)),), 2, ((1,), (Fraction(1, 2),))),
        ],
    )
    def test_transpose_edge_shapes(self, a, ncols, expected):
        assert _typed(linalg.transpose(a, ncols)) == _typed(expected)

    @pytest.mark.parametrize("n", range(7))
    def test_identity(self, n):
        expected = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        assert _typed(linalg.identity(n)) == _typed(expected)


class TestDenominatorOneFractions:
    # a Fraction with denominator 1 is not an int: its row takes the scaled
    # path of the elimination, and the result must still be canonical

    @pytest.mark.parametrize(
        "rows,ncols",
        [
            ([[Fraction(4, 2), 1], [2, Fraction(3, 1)]], 2),
            ([[Fraction(4, 2), 2, 6]], 3),
            ([[Fraction(-3), 0], [0, 0], [1, Fraction(6, 3)]], 2),
            ([[Fraction(2), 4], [1, 2]], 2),
            ([[1, 2, Fraction(3)], [Fraction(2), 4, 7]], 3),
        ],
    )
    def test_rref_and_rank(self, rows, ncols):
        got, pivots = linalg.rref(rows, ncols)
        assert (got, pivots) == _reference_rref(rows, ncols)
        assert _is_canonical_table(got)
        assert linalg.rank(rows, ncols) == len(pivots)

    @settings(max_examples=200, deadline=None)
    @given(matrices(elements=st.one_of(ints, st.builds(Fraction, ints))))
    def test_mixed_rows(self, case):
        rows, ncols = case
        got, pivots = linalg.rref(rows, ncols)
        assert (got, pivots) == _reference_rref(rows, ncols)
        assert _is_canonical_table(got)
        assert linalg.rank(rows, ncols) == len(pivots)

    @settings(max_examples=200, deadline=None)
    @given(matrices(), st.booleans())
    def test_rows_are_fresh_lists(self, case, as_tuples):
        # an all-int row is copied, so rref hands back no row of its input
        # and leaves the input as it was
        rows, ncols = case
        if as_tuples:
            rows = [tuple(row) for row in rows]
        before = _typed(tuple(map(tuple, rows)))
        got, _ = linalg.rref(rows, ncols)
        assert all(type(row) is list for row in got)
        assert not any(new is old for new in got for old in rows)
        assert _typed(tuple(map(tuple, rows))) == before

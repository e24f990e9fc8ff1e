import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncthick import braid, linalg
from ncthick import cartan as cw
from ncthick import noncrossing as nc
from ncthick import thicklat as tl
from ncthick.errors import (
    DimensionMismatchError,
    InfiniteGroupError,
    IsotropicVectorError,
    NonIntegralReflectionError,
    NotInPosetError,
    NotIntegerError,
    NotRealRootError,
    NotReflectionError,
    PermutationError,
    ResourceLimitError,
    UnsupportedLabelError,
)


class TestBuildCartan:
    def test_a2(self):
        cd = cw.build_cartan("A2")
        assert cd.matrix == ((2, -1), (-1, 2))
        assert cd.symmetrizer == (1, 1)

    def test_a1(self):
        cd = cw.build_cartan("A1")
        assert cd.matrix == ((2,),)
        assert cd.symmetrizer == (1,)

    def test_kronecker(self):
        cd = cw.build_cartan("KRONECKER")
        assert cd.matrix == ((2, -2), (-2, 2))
        assert cd.symmetrizer == (1, 1)

    def test_b2_symmetrizable(self):
        cd = cw.build_cartan("B2")
        assert cd.matrix == ((2, -1), (-2, 2))
        assert cd.symmetrizer == (2, 1)

    def test_g2(self):
        cd = cw.build_cartan("G2")
        assert cd.matrix == ((2, -3), (-1, 2))
        assert cd.symmetrizer == (1, 3)

    @pytest.mark.parametrize("label", ["A5", "B3", "C4", "D5", "E6", "E7", "E8", "F4"])
    def test_symmetrizability(self, label):
        cd = cw.build_cartan(label)
        n = cd.rank
        for i in range(n):
            for j in range(n):
                assert cd.symmetrizer[i] * cd.matrix[i][j] == cd.symmetrizer[j] * cd.matrix[j][i]

    # a trailing newline, a non-ASCII digit or a leading zero would each
    # name a second, unequal CartanDatum of the same type
    @pytest.mark.parametrize(
        "label",
        ["H3", "A0", "E9", "D2", "F5", "nonsense", "a2", "A3\n", "A\u0663", "A01", "E08", " A3", "A3 "],
    )
    def test_rejects_unknown(self, label):
        with pytest.raises(UnsupportedLabelError):
            cw.build_cartan(label)


class TestForm:
    def test_a2_values(self):
        cd = cw.build_cartan("A2")
        assert cw.form(cd, (1, 0), (1, 0)) == 2
        assert cw.form(cd, (1, 0), (0, 1)) == -1

    def test_kronecker_null_vector(self):
        cd = cw.build_cartan("KRONECKER")
        assert cw.form(cd, (1, 1), (1, 1)) == 0

    def test_symmetry(self):
        cd = cw.build_cartan("G2")
        assert cw.form(cd, (2, 1), (1, 3)) == cw.form(cd, (1, 3), (2, 1))

    def test_dimension_mismatch(self):
        cd = cw.build_cartan("A2")
        with pytest.raises(DimensionMismatchError):
            cw.form(cd, (1, 0, 0), (0, 1))


class TestReflect:
    def test_negates_root(self):
        cd = cw.build_cartan("A2")
        assert cw.reflect(cd, (1, 0), (1, 0)) == (-1, 0)

    def test_a2_simple(self):
        cd = cw.build_cartan("A2")
        assert cw.reflect(cd, (1, 0), (0, 1)) == (1, 1)

    def test_kronecker(self):
        cd = cw.build_cartan("KRONECKER")
        assert cw.reflect(cd, (1, 0), (0, 1)) == (2, 1)

    def test_involutive(self):
        cd = cw.build_cartan("B2")
        for alpha in cw.positive_roots(cd):
            for xi in [(1, 0), (0, 1), (3, -2)]:
                assert cw.reflect(cd, alpha, cw.reflect(cd, alpha, xi)) == xi

    def test_isotropic_rejected(self):
        cd = cw.build_cartan("KRONECKER")
        with pytest.raises(IsotropicVectorError):
            cw.reflect(cd, (1, 1), (1, 0))

    def test_non_integral_rejected(self):
        # (2, 0) is no root of A2: 2((0, 1), alpha) = -4 and (alpha, alpha) = 8
        cd = cw.build_cartan("A2")
        assert cw.reflect(cd, (2, 0), (1, 0)) == (-1, 0)
        with pytest.raises(NonIntegralReflectionError):
            cw.reflect(cd, (2, 0), (0, 1))

    @pytest.mark.parametrize("alpha,xi", [((1, 0, 0), (0, 1)), ((1, 0), (0, 1, 0)), ((1,), (1,))])
    def test_dimension_mismatch(self, alpha, xi):
        cd = cw.build_cartan("A2")
        with pytest.raises(DimensionMismatchError):
            cw.reflect(cd, alpha, xi)


class TestReflectionElement:
    def test_a2_simple(self):
        cd = cw.build_cartan("A2")
        assert cw.reflection_element(cd, (1, 0)).matrix == ((-1, 1), (0, 1))

    def test_a2_highest(self):
        cd = cw.build_cartan("A2")
        assert cw.reflection_element(cd, (1, 1)).matrix == ((0, -1), (-1, 0))

    def test_sign_of_root_irrelevant(self):
        cd = cw.build_cartan("A3")
        for alpha in cw.positive_roots(cd):
            neg = tuple(-x for x in alpha)
            assert cw.reflection_element(cd, alpha) == cw.reflection_element(cd, neg)

    def test_determinant(self):
        cd = cw.build_cartan("G2")
        for alpha in cw.positive_roots(cd):
            assert cw.reflection_element(cd, alpha).det() == -1

    def test_non_root_rejected(self):
        cd = cw.build_cartan("A2")
        with pytest.raises(NotRealRootError):
            cw.reflection_element(cd, (2, 0))


FINITE_LABELS = [
    "A1", "A2", "A3", "A4", "A5", "A6", "B2", "B3", "B4", "C3", "C4",
    "D4", "D5", "D6", "E6", "E7", "E8", "F4", "G2",
]


def _reflect_closure(cd):
    """Reference: close the simple roots under `reflect` in every simple root."""
    n = cd.rank
    simples = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    roots, frontier = set(simples), list(simples)
    while frontier:
        nxt = []
        for v in frontier:
            for alpha in simples:
                w = cw.reflect(cd, alpha, v)
                if w not in roots:
                    roots.add(w)
                    nxt.append(w)
        frontier = nxt
    return frozenset(roots)


class TestRealRoots:
    def test_a2(self):
        cd = cw.build_cartan("A2")
        assert cw.real_roots(cd) == frozenset(
            {(1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1)}
        )

    def test_a3(self):
        assert len(cw.real_roots(cw.build_cartan("A3"))) == 12

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_an_count(self, n):
        assert len(cw.real_roots(cw.build_cartan(f"A{n}"))) == n * (n + 1)

    def test_kronecker_bound1(self):
        cd = cw.build_cartan("KRONECKER")
        assert cw.positive_roots(cd, 1) == ((0, 1), (1, 0), (1, 2), (2, 1))

    @pytest.mark.parametrize("label,bound", [("A4", 0), ("E8", 0), ("G2", 0), ("KRONECKER", 3)])
    def test_positive_roots_sorted_once(self, label, bound):
        cd = cw.build_cartan(label)
        roots = cw.positive_roots(cd, bound)
        assert roots == tuple(sorted(v for v in cw.real_roots(cd, bound) if min(v) >= 0))
        assert all(cw.positive_roots(cd, bound) is roots for _ in range(3))
        assert cw.positive_roots(cw.build_cartan(label), bound) is roots

    def test_one_cache_entry_per_label(self):
        # enumerate_nc reads the roots of A5 through is_real_root,
        # positive_roots and NCLattice; lru_cache keys f(cd) and f(cd, 0)
        # apart, so each must be asked one way.  The caches in front of
        # them are cleared too, so that every route runs
        caches = (cw.real_roots, cw.positive_roots, cw.coroot, cw.reflection_element)
        for cache in caches + (nc.euler_form, nc.perp_masks):
            cache.cache_clear()
        nc.enumerate_nc(cw.build_cartan("A5"))
        assert cw.real_roots.cache_info().currsize == 1
        assert cw.positive_roots.cache_info().currsize == 1

    @pytest.mark.parametrize("label", FINITE_LABELS)
    def test_cartan_rows_match_reflect_closure(self, label):
        cd = cw.build_cartan(label)
        assert cw.real_roots(cd) == _reflect_closure(cd)

    @pytest.mark.parametrize("label", FINITE_LABELS)
    def test_no_reflect_call(self, label, monkeypatch):
        # the closure reads Cartan rows, never the O(n^2) Gram reflection
        cd = cw.build_cartan(label)
        expected = _reflect_closure(cd)
        monkeypatch.setattr(cw, "reflect", lambda *args: pytest.fail("reflect called"))
        assert cw.real_roots.__wrapped__(cd) == expected


# every finite label up to rank 8
_LABELS_TO_RANK_8 = (
    [f"A{n}" for n in range(1, 9)]
    + [f"{f}{n}" for f in "BC" for n in range(2, 9)]
    + [f"D{n}" for n in range(3, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


class TestDegrees:
    @pytest.mark.parametrize("label", _LABELS_TO_RANK_8)
    def test_closed_forms(self, label):
        # h is the multiplicative order of c, |Phi+| counts the roots the
        # Cartan matrix generates, and the reflections number sum (d_i - 1)
        cd = cw.build_cartan(label)
        d = cw.degrees(cd)
        c = cw.coxeter_element(cd)
        power, h = c, 1
        while not power.is_identity():
            power, h = power * c, h + 1
        assert len(d) == cd.rank and list(d) == sorted(d) and d[0] == 2
        assert max(d) == cw.coxeter_number(cd) == h
        assert cd.rank * h // 2 == len(cw.positive_roots(cd)) == sum(x - 1 for x in d)

    @pytest.mark.parametrize("label", ["A1", "A3", "A4", "B3", "C3", "D4", "F4", "G2"])
    def test_group_order(self, label):
        cd = cw.build_cartan(label)
        assert len(cw.weyl_group(cd)) == math.prod(cw.degrees(cd))

    def test_kronecker_has_none(self):
        with pytest.raises(InfiniteGroupError):
            cw.degrees(cw.build_cartan("KRONECKER"))


class TestWeylGroup:
    @pytest.mark.parametrize(
        "label,order", [("A1", 2), ("A2", 6), ("A3", 24), ("B2", 8), ("G2", 12), ("D4", 192)]
    )
    def test_orders(self, label, order):
        assert len(cw.weyl_group(cw.build_cartan(label))) == order

    def test_kronecker_infinite(self):
        with pytest.raises(InfiniteGroupError):
            cw.weyl_group(cw.build_cartan("KRONECKER"))

    def test_cap(self, monkeypatch):
        monkeypatch.setattr(cw, "MAX_WEYL_ORDER", 10)
        with pytest.raises(ResourceLimitError, match="exceeds cap 10"):
            cw.weyl_group(cw.build_cartan("A4"))

    @pytest.mark.parametrize("label", ["E7", "E8"])
    def test_refused_before_the_first_product(self, label, monkeypatch):
        # |W| = prod d_i is known from the label: 2,903,040 and 696,729,600
        cd = cw.build_cartan(label)
        cw._bfs_length_table.cache_clear()
        monkeypatch.setattr(cw.WeylElement, "__mul__", lambda *args: pytest.fail("multiplied"))
        order = math.prod(cw.degrees(cd))
        match = f"group order {order} exceeds cap {cw.MAX_WEYL_ORDER}"
        with pytest.raises(ResourceLimitError, match=match):
            cw.weyl_group(cd)
        with pytest.raises(ResourceLimitError, match=match):
            cw.absolute_length_bfs(cd, cw.identity_element(cd))
        assert cw._bfs_length_table.cache_info().currsize == 0

    def test_bfs_length_table_cap(self, monkeypatch):
        # the length oracle enumerates the whole group too, and its cache
        # would keep the table: past the cap it stops, and caches nothing
        monkeypatch.setattr(cw, "MAX_WEYL_ORDER", 10)
        cw._bfs_length_table.cache_clear()
        cd = cw.build_cartan("A4")
        with pytest.raises(ResourceLimitError, match="exceeds cap 10"):
            cw.absolute_length_bfs(cd, cw.coxeter_element(cd))
        assert cw._bfs_length_table.cache_info().currsize == 0


class TestAbsoluteLength:
    def test_identity(self):
        cd = cw.build_cartan("A3")
        assert cw.absolute_length(cd, cw.identity_element(cd)) == 0

    def test_reflections(self):
        cd = cw.build_cartan("B2")
        for t in cw.reflections(cd):
            assert cw.absolute_length(cd, t) == 1

    def test_coxeter_a2(self):
        cd = cw.build_cartan("A2")
        assert cw.absolute_length(cd, cw.coxeter_element(cd)) == 2

    @pytest.mark.parametrize("label", ["A2", "A3", "B2", "G2"])
    def test_equals_bfs_oracle(self, label):
        cd = cw.build_cartan(label)
        for w in cw.weyl_group(cd):
            assert cw.absolute_length(cd, w) == cw.absolute_length_bfs(cd, w)

    @pytest.mark.parametrize("label", ["A2", "B2"])
    def test_conjugation_invariant(self, label):
        cd = cw.build_cartan(label)
        group = cw.weyl_group(cd)
        for g in group:
            gi = g.inverse()
            for w in group:
                assert cw.absolute_length(cd, g * w * gi) == cw.absolute_length(cd, w)

    def test_kronecker_cases(self):
        cd = cw.build_cartan("KRONECKER")
        assert cw.absolute_length(cd, cw.identity_element(cd)) == 0
        s1 = cw.simple_reflection(cd, 1)
        s2 = cw.simple_reflection(cd, 2)
        assert cw.absolute_length(cd, s1) == 1
        assert cw.absolute_length(cd, s1 * s2) == 2
        assert cw.absolute_length(cd, s1 * s2 * s1 * s2) == 2


class TestAbsLeq:
    def test_identity_below_everything(self):
        cd = cw.build_cartan("A3")
        ident = cw.identity_element(cd)
        for w in cw.weyl_group(cd):
            assert cw.abs_leq(cd, ident, w)

    def test_a2_examples(self):
        cd = cw.build_cartan("A2")
        c = cw.coxeter_element(cd)
        s1 = cw.simple_reflection(cd, 1)
        assert cw.abs_leq(cd, s1, c)
        assert not cw.abs_leq(cd, c * c, c)


class TestCoxeterElement:
    def test_a2_matrix(self):
        # column convention, s_2 applied first: c(e1) = e2, c(e2) = -e1-e2
        cd = cw.build_cartan("A2")
        assert cw.coxeter_element(cd).matrix == ((0, -1), (1, -1))

    def test_a1(self):
        cd = cw.build_cartan("A1")
        assert cw.coxeter_element(cd) == cw.simple_reflection(cd, 1)

    @pytest.mark.parametrize("label", ["A2", "A3", "B2", "G2", "D4", "F4"])
    def test_length_is_rank(self, label):
        cd = cw.build_cartan(label)
        assert cw.absolute_length(cd, cw.coxeter_element(cd)) == cd.rank

    def test_any_permutation(self):
        cd = cw.build_cartan("A3")
        for perm in [(3, 1, 2), (2, 3, 1), (1, 3, 2)]:
            c = cw.coxeter_element(cd, perm)
            assert cw.is_coxeter_element(cd, c)

    def test_bad_permutation(self):
        cd = cw.build_cartan("A3")
        with pytest.raises(PermutationError):
            cw.coxeter_element(cd, (1, 1, 2))

    def test_rejects_minus_id_in_b2(self):
        cd = cw.build_cartan("B2")
        c = cw.coxeter_element(cd)
        assert not cw.is_coxeter_element(cd, c * c)  # -id has length 2 but order 2


class TestFormInvariance:
    @settings(max_examples=50, deadline=None)
    @given(
        st.sampled_from(["A2", "A3", "B2", "G2"]),
        st.lists(st.integers(-5, 5), min_size=4, max_size=4),
        st.lists(st.integers(-5, 5), min_size=4, max_size=4),
        st.lists(st.integers(0, 100), min_size=1, max_size=4),
    )
    def test_random_products_preserve_form(self, label, xs, ys, picks):
        cd = cw.build_cartan(label)
        n = cd.rank
        xi, eta = tuple(xs[:n]), tuple(ys[:n])
        refs = cw.reflections(cd)
        w = cw.identity_element(cd)
        for p in picks:
            w = w * refs[p % len(refs)]
        assert cw.form(cd, w.apply(xi), w.apply(eta)) == cw.form(cd, xi, eta)


class TestReflectionRoot:
    @pytest.mark.parametrize("label", ["A2", "A3", "B2", "G2"])
    def test_round_trip(self, label):
        cd = cw.build_cartan(label)
        for alpha in cw.positive_roots(cd):
            t = cw.reflection_element(cd, alpha)
            assert cw.reflection_root(cd, t) == alpha


class TestRootOfReflection:
    @pytest.fixture(scope="class")
    def a2(self):
        return cw.build_cartan("A2")

    @pytest.fixture(scope="class")
    def a3(self):
        return cw.build_cartan("A3")

    def test_simple(self, a2):
        assert cw.reflection_root(a2, cw.simple_reflection(a2, 1)) == (1, 0)

    def test_conjugate(self, a2):
        s1 = cw.simple_reflection(a2, 1)
        s2 = cw.simple_reflection(a2, 2)
        assert cw.reflection_root(a2, s1 * s2 * s1) == (1, 1)

    def test_round_trip_a3(self, a3):
        for t in cw.reflections(a3):
            assert cw.reflection_element(a3, cw.reflection_root(a3, t)) == t

    def test_bijection(self, a3):
        roots = {cw.reflection_root(a3, t) for t in cw.reflections(a3)}
        assert roots == set(cw.positive_roots(a3))

    def test_non_reflection_rejected(self, a2):
        with pytest.raises(NotReflectionError):
            cw.reflection_root(a2, cw.coxeter_element(a2))


def _root_by_nullspace(cd, w):
    """Reference: the kernel of w + 1, scaled to a primitive positive vector."""
    n = cd.rank
    plus = [[w.matrix[i][j] + int(i == j) for j in range(n)] for i in range(n)]
    (vec,) = linalg.nullspace(plus, n)
    denom = math.lcm(*(x.denominator for x in vec))
    ints = [int(x * denom) for x in vec]
    g = math.gcd(*ints)
    if any(x < 0 for x in ints):
        g = -g
    return tuple(x // g for x in ints)


def _is_reflection_by_rank(cd, w):
    """Reference: rank(w - 1) == 1 and w an involution (finite types)."""
    n = cd.rank
    diff = [[w.matrix[i][j] - int(i == j) for j in range(n)] for i in range(n)]
    return linalg.rank(diff, n) == 1 and (w * w).is_identity()


class TestRootFromColumn:
    @pytest.mark.parametrize(
        "label",
        ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C3", "C4", "D4", "D5", "E6", "F4", "G2"],
    )
    def test_matches_nullspace_route(self, label):
        cd = cw.build_cartan(label)
        for t in cw.reflections(cd):
            assert cw.reflection_root(cd, t) == _root_by_nullspace(cd, t)

    @pytest.mark.parametrize("bound", [0, 1, 2, 3])
    def test_matches_nullspace_route_kronecker(self, bound):
        cd = cw.build_cartan(cw.KRONECKER)
        for t in cw.reflections(cd, bound):
            assert cw.reflection_root(cd, t) == _root_by_nullspace(cd, t)

    @pytest.mark.parametrize("label", ["A3", "B3", "G2"])
    def test_is_reflection_matches_rank_test_on_whole_group(self, label):
        cd = cw.build_cartan(label)
        for w in cw.weyl_group(cd):
            assert cw.is_reflection(cd, w) == _is_reflection_by_rank(cd, w)

    def test_is_reflection_matches_determinant_in_kronecker(self):
        cd = cw.build_cartan(cw.KRONECKER)
        s = (cw.simple_reflection(cd, 1), cw.simple_reflection(cd, 2))
        for length in range(1, 9):
            for word in itertools.product((0, 1), repeat=length):
                w = cw.identity_element(cd)
                for k in word:
                    w = w * s[k]
                assert cw.is_reflection(cd, w) == (w.det() == -1)

    def test_non_reflections(self):
        a3 = cw.build_cartan("A3")
        b2 = cw.build_cartan("B2")
        assert not cw.is_reflection(a3, cw.identity_element(a3))
        assert not cw.is_reflection(a3, cw.coxeter_element(a3))
        assert not cw.is_reflection(a3, cw.coxeter_element(a3, (3, 1, 2)))
        c = cw.coxeter_element(b2)
        assert (c * c).matrix == ((-1, 0), (0, -1))
        assert not cw.is_reflection(b2, c * c)
        assert not cw.is_reflection(a3, cw.simple_reflection(a3, 1) * cw.simple_reflection(a3, 3))
        kron = cw.build_cartan(cw.KRONECKER)
        assert not cw.is_reflection(kron, cw.coxeter_element(kron))

    def test_identity_has_no_root(self):
        a2 = cw.build_cartan("A2")
        with pytest.raises(NotReflectionError):
            cw.reflection_root(a2, cw.identity_element(a2))


def _reflection_by_columns(cd, alpha):
    """Reference: the matrix whose column j is reflect(alpha, e_j)."""
    n = cd.rank
    cols = [cw.reflect(cd, alpha, tuple(int(i == j) for i in range(n))) for j in range(n)]
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


class TestReflectionFromGramVector:
    LABELS = [
        "A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C3", "C4",
        "D4", "D5", "E6", "E7", "E8", "F4", "G2",
    ]

    @pytest.mark.parametrize("label", LABELS)
    def test_matches_column_route(self, label):
        cd = cw.build_cartan(label)
        for alpha in cw.positive_roots(cd):
            assert cw.reflection_element(cd, alpha).matrix == _reflection_by_columns(cd, alpha)

    @pytest.mark.parametrize("bound", [0, 1, 2, 3])
    def test_matches_column_route_kronecker(self, bound):
        cd = cw.build_cartan(cw.KRONECKER)
        for alpha in cw.positive_roots(cd, bound):
            assert cw.reflection_element(cd, alpha).matrix == _reflection_by_columns(cd, alpha)

    @pytest.mark.parametrize("label", ["A3", "B3", "G2", "KRONECKER"])
    def test_makes_no_reflect_call(self, label, monkeypatch):
        cd = cw.build_cartan(label)
        roots = cw.positive_roots(cd, 2) if label == cw.KRONECKER else cw.positive_roots(cd)

        def forbidden(*args, **kwargs):
            raise AssertionError("reflection_element called reflect")

        monkeypatch.setattr(cw, "reflect", forbidden)
        for alpha in roots:
            # __wrapped__ skips the cache, so every root is built here
            assert cw.reflection_element.__wrapped__(cd, alpha).det() == -1

    def test_non_integral_coroot_rejected(self, monkeypatch):
        # past the real-root gate, (2, 0) in A2 has 2 G alpha = (8, -4) and (alpha, alpha) = 8
        cd = cw.build_cartan("A2")
        monkeypatch.setattr(cw, "is_real_root", lambda cd, v: True)
        with pytest.raises(NonIntegralReflectionError):
            cw.reflection_element.__wrapped__(cd, (2, 0))



_A3 = cw.build_cartan("A3")
_C3, _C2 = cw.coxeter_element(_A3), cw.coxeter_element(cw.build_cartan("A2"))
_S2 = cw.simple_reflection(cw.build_cartan("A2"), 1)
_ID3 = cw.identity_element(_A3)


class TestRankCheck:
    """An A2 element met by the A3 datum, at every entry point a matrix
    reaches one: each raises DimensionMismatchError, not an IndexError
    from deep in the arithmetic."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: cw.absolute_length(_A3, _S2),
            lambda: cw.absolute_length_bfs(_A3, _S2),
            lambda: cw.abs_leq(_A3, _S2, _C3),
            lambda: cw.abs_leq(_A3, _ID3, _C2),
            lambda: cw.is_coxeter_element(_A3, _C2),
            lambda: cw.reflection_root(_A3, _S2),
            lambda: cw.is_reflection(_A3, _S2),
            lambda: nc.euler_form(_A3, _C2),
            lambda: nc.perp_masks(_A3, _C2),
            lambda: nc.enumerate_nc(_A3, _C2),
            lambda: tl.thick_from_nc(_A3, _S2),
            lambda: tl.thick_from_nc(_A3, _ID3, _C2),
            lambda: tl.ThickSubcategory(_A3, _C3, _S2, ()),
            lambda: tl.ThickSubcategory(_A3, _C2, _ID3, ()),
            lambda: braid.Factorization(_A3, (_S2,), _C3),
            lambda: braid.Factorization(_A3, (), _C2),
            lambda: braid.enumerate_factorizations(_A3, _C2),
        ],
    )
    def test_a2_element_in_a3(self, call):
        with pytest.raises(DimensionMismatchError, match="2-row matrix against rank 3"):
            call()

    @pytest.mark.parametrize("x", [Fraction(1, 2), Fraction(-1), -1.0, True])
    @pytest.mark.parametrize(
        "call",
        [
            lambda w: cw.absolute_length(_A3, w),
            lambda w: tl.thick_from_nc(_A3, w),
            lambda w: nc.euler_form(_A3, w),
        ],
    )
    def test_entries_must_be_ints(self, call, x):
        # s_1 of A3 with its -1 replaced: a rational (integral or not), a
        # float or a bool is refused where the matrix meets the datum,
        # before it reaches the integer elimination
        rows = [list(row) for row in cw.simple_reflection(_A3, 1).matrix]
        assert rows[0][0] == -1
        rows[0][0] = x
        with pytest.raises(NotIntegerError, match="entries must be ints"):
            call(cw.WeylElement(linalg.freeze(rows)))

    def test_bfs_length_outside_w(self):
        double = cw.WeylElement(((2, 0, 0), (0, 1, 0), (0, 0, 1)))
        with pytest.raises(NotInPosetError, match="does not lie in W"):
            cw.absolute_length_bfs(_A3, double)
        assert cw.absolute_length_bfs(_A3, _C3) == 3

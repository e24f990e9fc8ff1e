import functools
import itertools
import json
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncthick import braid
from ncthick import cartan as cw
from ncthick import linalg
from ncthick.errors import NotInPosetError, NotReflectionError, OutOfRangeError, ResourceLimitError


def _standard(label):
    cd = cw.build_cartan(label)
    c = cw.coxeter_element(cd)
    parts = tuple(cw.simple_reflection(cd, i) for i in range(1, cd.rank + 1))
    return braid.Factorization(cd, parts, c)


class TestFactorization:
    def test_validates_product(self):
        cd = cw.build_cartan("A2")
        s1 = cw.simple_reflection(cd, 1)
        with pytest.raises(NotInPosetError):
            braid.Factorization(cd, (s1, s1), cw.coxeter_element(cd))

    def test_validates_reflections(self):
        cd = cw.build_cartan("A2")
        c = cw.coxeter_element(cd)
        with pytest.raises(NotReflectionError):
            braid.Factorization(cd, (c, c), c * c)

    def test_roots(self):
        f = _standard("A2")
        assert f.roots() == ((1, 0), (0, 1))

    @pytest.mark.parametrize("label", ["B3", "C3", "G2"])
    def test_rank_one_check_against_products(self, label):
        # coroot entries of 2: each reordering of a factorization is accepted
        # exactly when its matrix product is the target
        cd = cw.build_cartan(label)
        c = cw.coxeter_element(cd)
        for f in braid.enumerate_factorizations(cd):
            assert f.roots() == tuple(cw.reflection_root(cd, x) for x in f.parts)
            for parts in itertools.permutations(f.parts):
                if functools.reduce(operator.mul, parts) == c:
                    assert braid.Factorization(cd, parts, c).parts == parts
                else:
                    with pytest.raises(NotInPosetError, match="multiply"):
                        braid.Factorization(cd, parts, c)

    def test_non_reflection_message(self):
        cd = cw.build_cartan("G2")
        c = cw.coxeter_element(cd)
        for bad in (c, cw.identity_element(cd)):
            with pytest.raises(NotReflectionError, match="factorization entry is not a reflection"):
                braid.Factorization(cd, (cw.simple_reflection(cd, 1), bad), c)

    def test_key_hashes_no_matrix(self):
        # the key is the parts, whose hashes were computed once in __init__:
        # comparing sets of keys rehashes no matrix
        class CountingMatrix(tuple):
            hashes = 0

            def __hash__(self):
                CountingMatrix.hashes += 1
                return tuple.__hash__(self)

        cd = cw.build_cartan("A3")
        facts = braid.enumerate_factorizations(cd)
        copies = [
            braid.Factorization(
                cd, tuple(cw.WeylElement(CountingMatrix(x.matrix)) for x in f.parts), f.target
            )
            for f in facts
        ]
        built = CountingMatrix.hashes
        assert built >= 3 * len(facts)  # once per part, in WeylElement.__init__
        for _ in range(5):
            assert {f.key() for f in copies} == {f.key() for f in facts}
            assert [f.key() for f in copies] == [f.key() for f in facts]
        assert CountingMatrix.hashes == built


class TestBraidAct:
    def test_a2_forward(self):
        cd = cw.build_cartan("A2")
        f = _standard("A2")
        g = braid.braid_act(f, 1)
        s1 = cw.simple_reflection(cd, 1)
        s2 = cw.simple_reflection(cd, 2)
        assert g.parts == (s1 * s2 * s1, s1)

    def test_product_invariant(self):
        f = _standard("A3")
        for i in (1, 2):
            assert braid.braid_act(f, i).target == f.target

    def test_round_trip_all_a3(self):
        cd = cw.build_cartan("A3")
        for f in braid.enumerate_factorizations(cd):
            for i in (1, 2):
                assert braid.braid_act(braid.braid_act(f, i), i, True).key() == f.key()
                assert braid.braid_act(braid.braid_act(f, i, True), i).key() == f.key()

    def test_index_out_of_range(self):
        f = _standard("A2")
        with pytest.raises(OutOfRangeError, match="braid index 2 out of range for length 2"):
            braid.braid_act(f, 2)
        with pytest.raises(OutOfRangeError, match="braid index 0 out of range"):
            braid.braid_act(f, 0)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 2), st.booleans()), min_size=1, max_size=12))
    def test_random_words_undo(self, word):
        f = _standard("A3")
        g = f
        for i, inv in word:
            g = braid.braid_act(g, i, inv)
        for i, inv in reversed(word):
            g = braid.braid_act(g, i, not inv)
        assert g.key() == f.key()


class TestEnumerate:
    @pytest.mark.parametrize("label,count", [("A1", 1), ("A2", 3), ("A3", 16), ("B2", 4), ("G2", 6)])
    def test_counts(self, label, count):
        assert len(braid.enumerate_factorizations(cw.build_cartan(label))) == count

    def test_rank_cap(self):
        with pytest.raises(ResourceLimitError):
            braid.enumerate_factorizations(cw.build_cartan("A5"))

    def test_prefix_lengths(self):
        cd = cw.build_cartan("A3")
        for f in braid.enumerate_factorizations(cd):
            prefix = cw.identity_element(cd)
            for r, x in enumerate(f.parts, start=1):
                prefix = prefix * x
                assert cw.absolute_length(cd, prefix) == r
                assert cw.abs_leq(cd, prefix, f.target)


def _factorizations_by_inverse(cd):
    """Reference: the brute force that inverted each prefix product at its leaf."""
    c = cw.coxeter_element(cd)
    refs = cw.reflections(cd)
    out = []

    def grow(prefix, prod):
        if len(prefix) == cd.rank - 1:
            last = prod.inverse() * c
            if cw.is_reflection(cd, last):
                out.append(tuple(x.matrix for x in prefix + (last,)))
            return
        for t in refs:
            grow(prefix + (t,), prod * t)

    grow((), cw.identity_element(cd))
    return sorted(out)


def _factorizations_by_products(cd, c=None):
    """Reference: every n-tuple of reflection matrices, multiplied out,
    that has product c (by default the Coxeter element)."""
    if c is None:
        c = cw.coxeter_element(cd)
    return sorted(
        tuple(x.matrix for x in parts)
        for parts in itertools.product(cw.reflections(cd), repeat=cd.rank)
        if functools.reduce(operator.mul, parts) == c
    )


class TestEnumerateCarriesRest:
    @pytest.mark.parametrize("label", ["A2", "A3", "B3", "C3", "D4", "G2"])
    def test_equals_all_tuples(self, label):
        cd = cw.build_cartan(label)
        facts = braid.enumerate_factorizations(cd)
        assert [tuple(x.matrix for x in f.parts) for f in facts] == _factorizations_by_products(cd)

    @pytest.mark.parametrize(
        "label,matrix,count",
        [
            ("A2", ((1, 0), (0, 1)), 3),  # the identity, in W but not a Coxeter element
            ("B2", ((-1, 0), (0, -1)), 4),  # -id, in W(B2): two orthogonal pairs
            ("A2", ((-1, 0), (0, -1)), 0),  # -id, with root columns but not in W(A2)
            ("A3", ((0, 0, 1), (0, 1, 0), (1, 0, 0)), 0),  # the diagram flip: roots, not W
            ("A2", ((3, -13), (1, -4)), 0),  # a column off the roots
        ],
    )
    def test_any_target(self, label, matrix, count):
        # a target outside W has no factorization; inside W the packed rests
        # are exact whatever the target
        cd = cw.build_cartan(label)
        c = cw.WeylElement(matrix)
        facts = braid.enumerate_factorizations(cd, c)
        assert [tuple(x.matrix for x in f.parts) for f in facts] == _factorizations_by_products(cd, c)
        assert len(facts) == count
        assert all(f.target is c for f in facts)


class TestBuiltMembers:
    @pytest.mark.parametrize("label", ["B4", "D4", "F4"])
    def test_equal_their_checked_copies(self, label):
        # the members the brute force and the orbit build, unchecked, are
        # what the public constructor builds and checks from their parts
        start = _standard(label)
        cd, c = start.cartan, start.target
        facts = braid.enumerate_factorizations(cd, c)
        orbit = braid.hurwitz_orbit(start)
        assert len(facts) == len(orbit)
        for f in facts + orbit:
            g = braid.Factorization(cd, f.parts, f.target)
            assert (g.parts, g.target, g.roots()) == (f.parts, f.target, f.roots())
            assert f.roots() == tuple(cw.reflection_root(cd, x) for x in f.parts)

    def test_check_rank_calls_do_not_grow_with_the_orbit(self, monkeypatch):
        # the matrices are checked where they come in, not once per member
        calls = []
        real = cw.check_rank
        monkeypatch.setattr(cw, "check_rank", lambda cd, w: calls.append(1) or real(cd, w))
        counts = {}
        for label, size in (("A3", 16), ("D4", 162)):
            start = _standard(label)
            calls.clear()
            facts = braid.enumerate_factorizations(start.cartan, start.target)
            orbit = braid.hurwitz_orbit(start)
            assert len(facts) == len(orbit) == size
            counts[label] = len(calls)
        assert counts["A3"] == counts["D4"] == 1


class TestNoMatrixProducts:
    @pytest.mark.parametrize("label", ["A3", "B3", "C3", "D4", "G2"])
    def test_no_mat_mul(self, label, monkeypatch):
        # the brute force carries P^-1 c by rank-one updates and the
        # constructor checks by rank-one updates: no general product
        calls = []
        real = linalg.mat_mul
        monkeypatch.setattr(linalg, "mat_mul", lambda *args: calls.append(1) or real(*args))
        start = _standard(label)
        facts = braid.enumerate_factorizations(start.cartan, start.target)
        orbit = braid.hurwitz_orbit(start)
        assert {f.key() for f in orbit} == {f.key() for f in facts}
        assert len(calls) == 0


class TestEnumerateCarriesInverses:
    @pytest.mark.parametrize("label", ["A3", "B3", "D4"])
    def test_no_matrix_inverse(self, label, monkeypatch):
        cd = cw.build_cartan(label)
        expected = _factorizations_by_inverse(cd)
        calls = []
        real = linalg.int_inverse

        def counted(a):
            calls.append(a)
            return real(a)

        monkeypatch.setattr(linalg, "int_inverse", counted)
        facts = braid.enumerate_factorizations(cd)
        assert len(calls) == 0
        assert [tuple(x.matrix for x in f.parts) for f in facts] == expected


class TestHurwitzOrbit:
    @pytest.mark.parametrize("label", ["A2", "A3", "B2", "G2"])
    def test_transitive(self, label):
        cd = cw.build_cartan(label)
        orbit = braid.hurwitz_orbit(_standard(label))
        facts = braid.enumerate_factorizations(cd)
        assert {f.key() for f in orbit} == {f.key() for f in facts}

    def test_a1_orbit_is_singleton(self):
        assert len(braid.hurwitz_orbit(_standard("A1"))) == 1

    def test_braid_relation(self):
        cd = cw.build_cartan("A3")
        for f in braid.enumerate_factorizations(cd):
            lhs = braid.braid_act(braid.braid_act(braid.braid_act(f, 1), 2), 1)
            rhs = braid.braid_act(braid.braid_act(braid.braid_act(f, 2), 1), 2)
            assert lhs.key() == rhs.key()


class TestRootMoves:
    @pytest.mark.parametrize("label", ["A3", "B3", "D4", "G2"])
    def test_braid_act_is_conjugation(self, label):
        cd = cw.build_cartan(label)
        for f in braid.enumerate_factorizations(cd):
            for i in range(1, cd.rank):
                head, (a, b), tail = f.parts[: i - 1], f.parts[i - 1 : i + 1], f.parts[i + 1 :]
                forward = head + (a * b * a.inverse(), a) + tail
                backward = head + (b, b.inverse() * a * b) + tail
                assert braid.braid_act(f, i).parts == forward
                assert braid.braid_act(f, i, inverse=True).parts == backward

    def test_d4_orbit_products(self, monkeypatch):
        # the moves multiply no matrices, and each member's constructor
        # check is a chain of rank-one updates
        start = _standard("D4")
        real = linalg.mat_mul
        calls = 0

        def counted(a, b):
            nonlocal calls
            calls += 1
            return real(a, b)

        monkeypatch.setattr(linalg, "mat_mul", counted)
        orbit = braid.hurwitz_orbit(start)
        assert len(orbit) == 162
        assert calls == 0

    def test_infinite_type_rejected_before_any_move(self, monkeypatch):
        cd = cw.build_cartan(cw.KRONECKER)
        parts = (cw.simple_reflection(cd, 1), cw.simple_reflection(cd, 2))
        f = braid.Factorization(cd, parts, cw.coxeter_element(cd))

        def forbidden(*args, **kwargs):
            raise AssertionError("a move ran before the infinite-type check")

        monkeypatch.setattr(braid, "_moves", forbidden)
        monkeypatch.setattr(cw, "reflect", forbidden)
        with pytest.raises(ResourceLimitError):
            braid.hurwitz_orbit(f)

    @pytest.mark.parametrize("label", ["A3", "D4"])
    def test_corrupt_move_table_refused(self, label, monkeypatch):
        # the first move of the simple factorization sends (s_1, s_2) to
        # (s_1 s_2 s_1, s_1); a table that answers s_2 leaves c behind
        real = braid._moves
        roots = cw.positive_roots(cw.build_cartan(label))
        a, b = (roots.index(r) for r in _standard(label).roots()[:2])

        def corrupt(cd):
            moves = real(cd)
            assert moves[a][b] != b
            moves[a][b] = b
            return moves

        monkeypatch.setattr(braid, "_moves", corrupt)
        with pytest.raises(NotInPosetError, match="left the factorizations"):
            braid.hurwitz_orbit(_standard(label))

    def test_wrong_reflected_root_refused(self, monkeypatch):
        # a reflect that leaves one root of A3 where it was: still a root,
        # so only the certificate of the products can tell
        real = cw.reflect

        def wrong(cd, alpha, xi):
            return xi if (alpha, xi) == ((1, 0, 0), (0, 1, 0)) else real(cd, alpha, xi)

        monkeypatch.setattr(cw, "reflect", wrong)
        with pytest.raises(NotInPosetError, match="left the factorizations"):
            braid.hurwitz_orbit(_standard("A3"))

    def test_orbit_cap(self, monkeypatch):
        monkeypatch.setattr(braid, "MAX_ORBIT_SIZE", 10)
        with pytest.raises(ResourceLimitError):
            braid.hurwitz_orbit(_standard("A3"))

    def test_brute_force_cap(self, monkeypatch):
        monkeypatch.setattr(braid, "MAX_BRUTE_FORCE_RANK", 2)
        with pytest.raises(ResourceLimitError):
            braid.enumerate_factorizations(cw.build_cartan("A3"))


class TestJson:
    def test_shape(self):
        cd = cw.build_cartan("A2")
        data = braid.to_json(braid.enumerate_factorizations(cd))
        assert data["type"] == "A2"
        assert len(data["factorizations"]) == 3
        assert all(len(f) == 2 for f in data["factorizations"])

    @pytest.mark.parametrize("label", ["A3", "C3", "G2"])
    def test_bytes_of_list_form(self, label):
        # the roots go out as tuples; json writes them as the lists it wrote before
        facts = braid.enumerate_factorizations(cw.build_cartan(label))
        reference = {"type": label, "factorizations": [[list(r) for r in f.roots()] for f in facts]}
        assert json.dumps(braid.to_json(facts)) == json.dumps(reference)

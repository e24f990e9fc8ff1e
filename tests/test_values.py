"""Value semantics of the plain slotted classes.

CartanDatum, WeylElement and Quiver key caches and dicts; they,
Representation and ThickSubcategory compare and hash by value, keep the
hash values they had as frozen records (set iteration order depends on
them), and are read-only.  Every class takes its fields positionally and
by keyword.
"""

import pytest

from ncthick import braid, derived, noncrossing, repcat, selfcheck, thicklat
from ncthick import cartan as cw
from ncthick.errors import NotInPosetError
from ncthick.tquiver import TranslationQuiver
from test_repcat import simple_rep  # the test-side simple representation

A2_REPR = "CartanDatum(label='A2', rank=2, matrix=((2, -1), (-1, 2)), symmetrizer=(1, 1))"


@pytest.fixture(scope="module")
def a2():
    return cw.build_cartan("A2")


def _read_only(obj, field):
    with pytest.raises(AttributeError):
        setattr(obj, field, getattr(obj, field))
    with pytest.raises(AttributeError):
        delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.unknown_field = 1
    assert not hasattr(obj, "__dict__")


class TestCartanDatum:
    def test_keyword_and_positional(self, a2):
        by_kw = cw.CartanDatum(label="A2", rank=2, matrix=a2.matrix, symmetrizer=a2.symmetrizer)
        by_pos = cw.CartanDatum("A2", 2, a2.matrix, a2.symmetrizer)
        assert by_kw == by_pos == a2 and by_kw is not a2
        assert by_kw.gram() == a2.gram()

    def test_hash_and_repr(self, a2):
        assert hash(a2) == hash(("A2", 2, a2.matrix, a2.symmetrizer))
        assert repr(a2) == A2_REPR

    def test_unequal(self, a2):
        assert a2 != cw.build_cartan("B2")
        assert a2 != (a2.label, a2.rank, a2.matrix, a2.symmetrizer)

    @pytest.mark.parametrize("field", ["label", "rank", "matrix", "symmetrizer"])
    def test_read_only(self, a2, field):
        _read_only(a2, field)

    def test_checks_run_in_init(self, a2):
        with pytest.raises(Exception, match="symmetrizable"):
            cw.CartanDatum("A2", 2, ((2, -1), (-2, 2)), (1, 1))


class TestWeylElement:
    def test_hash_repr_and_equality(self, a2):
        s1 = cw.simple_reflection(a2, 1)
        assert hash(s1) == hash((s1.matrix,))
        assert repr(s1) == "WeylElement(matrix=((-1, 1), (0, 1)))"
        assert cw.WeylElement(matrix=s1.matrix) == cw.WeylElement(s1.matrix) == s1
        assert s1 != s1.matrix
        assert len({s1, cw.WeylElement(s1.matrix)}) == 1

    def test_read_only(self, a2):
        _read_only(cw.simple_reflection(a2, 2), "matrix")

    def test_hash_slot_read_only(self, a2):
        w = cw.simple_reflection(a2, 2)
        assert w._hash == hash((w.matrix,))
        _read_only(w, "_hash")

    def test_matrix_hashed_once(self):
        class CountingMatrix(tuple):
            hashes = 0

            def __hash__(self):
                CountingMatrix.hashes += 1
                return tuple.__hash__(self)

        lat = noncrossing.enumerate_nc(cw.build_cartan("A3"))
        w = cw.WeylElement(CountingMatrix(lat.elements[5].matrix))
        assert [lat.index(w) for _ in range(10)] == [5] * 10
        assert CountingMatrix.hashes == 1

    @pytest.mark.parametrize("label", ["A5", "E6"])
    def test_hash_is_the_matrix_tuple_hash(self, label):
        lat = noncrossing.enumerate_nc(cw.build_cartan(label))
        assert all(hash(w) == hash((w.matrix,)) for w in lat.elements)

    def test_lookup_by_value(self):
        lat = noncrossing.enumerate_nc(cw.build_cartan("A3"))
        for i, w in enumerate(lat.elements):
            fresh = cw.WeylElement(tuple(tuple(list(row)) for row in w.matrix))
            assert fresh.matrix is not w.matrix and fresh is not w
            assert lat.index(fresh) == i

    def test_equal_to_itself_without_comparing(self, a2):
        class Incomparable(tuple):
            def __eq__(self, other):
                raise AssertionError("matrices compared")

            __hash__ = tuple.__hash__

        w = cw.WeylElement(Incomparable(cw.simple_reflection(a2, 1).matrix))
        assert w == w and not w != w

    def test_kronecker_index_names_the_element(self):
        # two atoms, bits 1 and 2 above the one tube bit: their join is top
        lat = thicklat.kronecker_lattice(1, 1)
        with pytest.raises(NotInPosetError, match=r"^6 is not a lattice element$"):
            lat.index(0b110)


class TestQuiverAndRepresentation:
    def test_quiver_value(self):
        q = repcat.dynkin_quiver("A3")
        same = repcat.Quiver(label="A3", vertices=(1, 2, 3), arrows=((1, 2), (2, 3)))
        assert same == q and hash(same) == hash(("A3", (1, 2, 3), ((1, 2), (2, 3))))
        assert repcat._category(same) is repcat._category(q)
        assert q != repcat.dynkin_quiver("A3", ((2, 1), (2, 3)))

    def test_equal_to_itself_without_a_key(self, monkeypatch):
        q = repcat.dynkin_quiver("A3")

        def no_key(self):
            raise AssertionError("key built")

        monkeypatch.setattr(repcat.Quiver, "_key", no_key)
        assert q == q and not q != q

    @pytest.mark.parametrize("field", ["label", "vertices", "arrows"])
    def test_quiver_read_only(self, field):
        _read_only(repcat.dynkin_quiver("A2"), field)

    def test_representation_value(self):
        q = repcat.dynkin_quiver("A2")
        rep = repcat.Representation(quiver=q, dim=(1, 0), maps=((),))
        assert rep == simple_rep(q, 1) and hash(rep) == hash(simple_rep(q, 1))
        assert rep != simple_rep(q, 2)
        _read_only(rep, "dim")


class TestThickSubcategory:
    # equality and hash by (cartan, coxeter, nc_element): test_thicklat.py
    @pytest.mark.parametrize("field", ["cartan", "coxeter", "nc_element", "generators"])
    def test_read_only(self, a2, field):
        _read_only(thicklat.thick_from_nc(a2, cw.coxeter_element(a2)), field)


class TestKeywordConstruction:
    def test_factorization(self, a2):
        s1, s2 = cw.simple_reflection(a2, 1), cw.simple_reflection(a2, 2)
        f = braid.Factorization(cartan=a2, parts=(s1, s2), target=cw.coxeter_element(a2))
        assert len(f.parts) == 2 and f.roots() == ((1, 0), (0, 1))

    def test_lattices(self, a2):
        lat = noncrossing.enumerate_nc(a2)
        fields = ("cartan", "coxeter", "elements", "ranks", "masks", "covers")
        complements = tuple(lat.masks[k] for k in lat.kreweras_index)
        steps = tuple(s and (s[0], lat.masks[s[1]]) for s in lat.steps)
        copy = noncrossing.NCLattice(
            **{f: getattr(lat, f) for f in fields}, complements=complements, steps=steps
        )
        assert copy.truncation_bound is None
        assert copy.hasse == lat.hasse and copy.co_kreweras_index == lat.co_kreweras_index
        assert copy.kreweras_index == lat.kreweras_index and copy.steps == lat.steps
        kron = thicklat.kronecker_lattice(1, 2)
        again = thicklat.KroneckerLattice(
            nc_part=kron.nc_part, tube_points=kron.tube_points, elements=kron.elements
        )
        assert [again.index(e) for e in kron.elements] == list(range(len(kron)))

    def test_records(self):
        result = thicklat.WideOracleResult(count=1, subsets=((),))
        report = derived.MeshReport(checked=((0, 1),), violations=())
        check = selfcheck.CheckResult(suite="nc", name="x", ok=True)
        assert (result.count, report.ok, check.detail) == (1, True, "")
        q = repcat.dynkin_quiver("A2")
        space = repcat.hom(q, simple_rep(q, 1), simple_rep(q, 1))
        assert repcat.HomSpace(source=space.source, target=space.target, basis=space.basis).dim == 1

    def test_translation_quiver(self):
        t = TranslationQuiver(vertices=("a", "b"), arrows=(("a", "b", (1, 1)),), tau={"b": "a"})
        assert t.meta is None
        assert t.arrows_out_of("a") == (("b", (1, 1)),) and t.check_mesh_shape() != []

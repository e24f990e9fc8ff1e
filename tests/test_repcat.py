import itertools
import random
from fractions import Fraction

import pytest

from ncthick import cartan, derived, linalg, thicklat
from ncthick import repcat as rc
from ncthick.errors import (
    DimensionMismatchError,
    NotIntegerError,
    NotRealRootError,
    OutOfRangeError,
    ResourceLimitError,
    StructuralError,
    UnsupportedLabelError,
)
from ncthick.tquiver import TranslationQuiver
from test_linalg import solve_columns  # the test-side rational solver of the kernel references


def _orientations(label):
    edges = rc.dynkin_quiver(label).arrows
    for flips in itertools.product((False, True), repeat=len(edges)):
        yield tuple((b, a) if flip else (a, b) for (a, b), flip in zip(edges, flips))


# every orientation of A1-A4 by its arrows, A_n having n - 1 of them; None
# is the default orientation of A4, and the first three are A4's
_CLOSURE_CASES = [None, ((2, 1), (2, 3), (4, 3)), ((2, 1), (3, 2), (4, 3))]
_CLOSURE_CASES += [
    arrows
    for label in ("A1", "A2", "A3", "A4")
    for arrows in _orientations(label)
    if arrows not in _CLOSURE_CASES and arrows != rc.dynkin_quiver("A4").arrows
]
# hom_dim calls of _ClosureTables on each orientation, each a rank solve
# unless its system has no equation; none is an End = k check, and all
# split middle terms (kernels and cokernels are read off their supports)
_CLOSURE_SOLVES = dict(zip(_CLOSURE_CASES, (42, 42, 42, 0, 0, 0, 6, 6, 6, 6, 42, 42, 42, 42, 42)))


def _tables(q):
    """q's closure tables on the Euler table the oracle hands them."""
    roots = cartan.positive_roots(cartan.build_cartan(q.label))
    return thicklat._ClosureTables(q, thicklat._euler_table(q, roots))


def _where_zero(x, f):
    """x cut down to the vertices where f_v is zero: ker f for x = X_a and
    coker f for x = X_b, for a map f: X_a -> X_b of thin representations.
    A nonzero f_v between thin spaces is an isomorphism, so the kernel and
    the cokernel are 0 there and all of x_v where f_v is zero; an arrow
    keeps x's own map where both its ends are kept and is zero otherwise."""
    keep = [not any(map(any, fv)) for fv in f]
    dims = tuple(d if k else 0 for d, k in zip(x.dim, keep))
    maps = tuple(
        x.maps[idx] if keep[s - 1] and keep[t - 1] else ((0,) * dims[s - 1],) * dims[t - 1]
        for idx, (s, t) in enumerate(x.quiver.arrows)
    )
    return rc.Representation(x.quiver, dims, maps)


def simple_rep(q, i):
    """The simple representation at vertex i: k there, 0 elsewhere."""
    dim = tuple(int(v == i) for v in q.vertices)
    maps = tuple(((0,) * dim[s - 1],) * dim[t - 1] for s, t in q.arrows)
    return rc.Representation(q, dim, maps)


@pytest.fixture(scope="module")
def a2():
    return rc.dynkin_quiver("A2")


@pytest.fixture(scope="module")
def a3():
    return rc.dynkin_quiver("A3")


@pytest.fixture(scope="module")
def d4():
    return rc.dynkin_quiver("D4")


class TestQuiver:
    def test_default_orientation(self, a3):
        assert a3.arrows == ((1, 2), (2, 3))

    def test_custom_orientation(self):
        q = rc.dynkin_quiver("A3", ((2, 1), (2, 3)))
        assert q.arrows == ((2, 1), (2, 3))

    def test_rejects_non_simply_laced(self):
        with pytest.raises(UnsupportedLabelError):
            rc.dynkin_quiver("B2")

    def test_rejects_wrong_tree(self):
        with pytest.raises(DimensionMismatchError):
            rc.dynkin_quiver("A3", ((1, 2), (1, 3)))


class TestHelperInputs:
    @pytest.mark.parametrize("i", [0, -1, 4])
    def test_projective_dim_outside_the_vertices(self, a3, i):
        assert rc.projective_dim(a3, 2) == (0, 1, 1)
        with pytest.raises(DimensionMismatchError, match=f"no vertex {i} in A3"):
            rc.projective_dim(a3, i)

    @pytest.mark.parametrize(
        "a,b", [((1, 0), (1, 0, 0)), ((1, 0, 0), (1, 0)), ((1, 0, 0, 0), (1, 0, 0, 0))]
    )
    def test_euler_form_wrong_length(self, a3, a, b):
        assert rc.euler_form(a3, (1, 0, 0), (1, 0, 0)) == 1
        with pytest.raises(DimensionMismatchError, match="against rank 3"):
            rc.euler_form(a3, a, b)


class TestTranslationQuiver:
    @pytest.mark.parametrize("arrow", [("a", "z", (1, 1)), ("z", "a", (1, 1))])
    def test_arrow_outside_the_vertices(self, arrow):
        with pytest.raises(DimensionMismatchError, match="names a vertex outside the quiver"):
            TranslationQuiver(vertices=("a",), arrows=(arrow,), tau={})

    @pytest.mark.parametrize("tau", [{"z": "a"}, {"a": "z"}])
    def test_tau_outside_the_vertices(self, tau):
        # before, check_mesh_shape() then reported nothing
        with pytest.raises(DimensionMismatchError, match="names a vertex outside the quiver"):
            TranslationQuiver(vertices=("a",), arrows=(), tau=tau)

    @pytest.mark.parametrize("val", [(0, 1), (1, 0), (-2, 3)])
    def test_valuation_below_one(self, val):
        with pytest.raises(OutOfRangeError, match="both parts must be positive"):
            TranslationQuiver(vertices=("a", "b"), arrows=(("a", "b", val),), tau={})


def _seeded_window(label, window):
    rng = random.Random(f"{label}/1")
    arrows = tuple((b, a) if rng.random() < 0.5 else (a, b) for a, b in cartan.tree_edges(label))
    return derived.build_zdelta(label, window, arrows)


class TestAdjacencyOnDemand:
    """The in/out adjacency is built on the first ask; what it answers must
    equal an eager scan of the arrows."""

    @staticmethod
    def _eager(t):
        into = {v: tuple((s, val) for s, d, val in t.arrows if d == v) for v in t.vertices}
        out = {v: tuple((d, val) for s, d, val in t.arrows if s == v) for v in t.vertices}
        shape = []
        for z, tz in t.tau.items():
            a = sorted(into[z])
            b = sorted((d, (val[1], val[0])) for d, val in out[tz])
            if a != b:
                shape.append(f"mesh at {z}: sources {a} vs tau-targets {b}")
        return into, out, shape

    @pytest.mark.parametrize(
        "build",
        [
            lambda: _seeded_window("A3", (-3, 3)),
            lambda: _seeded_window("D5", (-7, 30)),
            lambda: _seeded_window("E8", (0, 24)),
            lambda: rc.ar_quiver_module_category(rc.dynkin_quiver("A3")),
            lambda: rc.ar_quiver_module_category(rc.dynkin_quiver("D4")),
        ],
        ids=["A3 -3:3", "D5 -7:30", "E8 0:24", "AR A3", "AR D4"],
    )
    @pytest.mark.parametrize("first", ["arrows_into", "arrows_out_of", "check_mesh_shape"])
    def test_matches_eager_scan(self, build, first):
        t = build()
        assert t._into is None and t._out is None
        getattr(t, first)(*(() if first == "check_mesh_shape" else (t.vertices[0],)))
        assert t._into is not None and t._out is not None
        into, out, shape = self._eager(t)
        assert {v: t.arrows_into(v) for v in t.vertices} == into
        assert {v: t.arrows_out_of(v) for v in t.vertices} == out
        assert t.check_mesh_shape() == shape
        assert t.arrows_into("not a vertex") == t.arrows_out_of("not a vertex") == ()


class TestRepresentation:
    @pytest.mark.parametrize(
        "dim,maps",
        [
            ((1,), (((1,),),)),  # one entry per vertex
            ((1, -1), ((),)),  # no negative dimension
            ((1, 1), ()),  # one matrix per arrow
            ((1, 1), (((1,), (0,)),)),  # dim[target] rows
            ((1, 1), (((1, 0),),)),  # dim[source] columns
        ],
    )
    def test_rejects_shapes(self, a2, dim, maps):
        with pytest.raises(DimensionMismatchError):
            rc.Representation(a2, dim, maps)

    @pytest.mark.parametrize("x", [Fraction(1, 2), Fraction(1), 1.0, True])
    def test_rejects_map_entries_that_are_not_ints(self, a2, x):
        # a rational (integral or not), a float or a bool is refused where
        # it enters, before a Hom system hands it to the integer elimination
        with pytest.raises(NotIntegerError, match="entries must be ints"):
            rc.Representation(a2, (1, 1), (((x,),),))

    @pytest.mark.parametrize("d", [Fraction(1), 1.0, True])
    def test_rejects_dimensions_that_are_not_ints(self, a2, d):
        with pytest.raises(NotIntegerError, match="entries must be ints"):
            rc.Representation(a2, (d, 1), (((1,),),))


class TestHom:
    def test_p1_to_s1(self, a2):
        p1 = rc.indecomposable_for_root(a2, (1, 1))
        s1 = simple_rep(a2, 1)
        assert rc.hom(a2, p1, s1).dim == 1
        assert rc.hom(a2, s1, p1).dim == 0

    def test_identity_is_endomorphism(self, a3):
        for m in rc.indecomposables(a3):
            assert rc.hom(a3, m, m).dim >= 1

    def test_intertwining_law(self, a3):
        inds = rc.indecomposables(a3)
        for m in inds:
            for n in inds:
                for f in rc.hom(a3, m, n).basis:
                    for idx, (s, t) in enumerate(a3.arrows):
                        si, ti = s - 1, t - 1
                        lhs = rc._mm(f[ti], m.maps[idx], n.dim[ti], m.dim[ti], m.dim[si])
                        rhs = rc._mm(n.maps[idx], f[si], n.dim[ti], n.dim[si], m.dim[si])
                        assert lhs == rhs

    @pytest.mark.parametrize("routine", ["rank", "nullspace", "rref"])
    def test_no_unknowns_builds_no_rows(self, a3, routine, monkeypatch):
        # S1 and S2 share no vertex: no unknown, so Hom = 0 with no linalg,
        # although the arrow 1 -> 2 would give an equation with no unknown
        s1, s2 = simple_rep(a3, 1), simple_rep(a3, 2)
        monkeypatch.setattr(linalg, routine, _forbidden)
        assert rc._hom_system(a3, s1, s2) == ([], 0, [0, 0, 0])
        assert rc.hom(a3, s1, s2).basis == ()
        assert rc.hom_dim(a3, s1, s2) == rc.hom_dim(a3, s2, s1) == 0
        assert rc.ext1_dim(a3, s1, s2) == 1
        # the quiver check still comes first
        other = simple_rep(rc.dynkin_quiver("A3", ((2, 1), (2, 3))), 3)
        for source, target in ((s1, other), (other, s1)):
            with pytest.raises(DimensionMismatchError):
                rc.hom(a3, source, target)
            with pytest.raises(DimensionMismatchError):
                rc.hom_dim(a3, source, target)

    def test_no_equation_takes_no_rank(self, a3, monkeypatch):
        # End(S2) on A3: one unknown at vertex 2, and each arrow has a zero
        # space at one end, so no equation: the unknown is free
        s2 = simple_rep(a3, 2)
        monkeypatch.setattr(linalg, "rank", _forbidden)
        rows, total, _ = rc._hom_system(a3, s2, s2)
        assert (rows, total) == ([], 1)
        assert rc.hom_dim(a3, s2, s2) == 1
        assert rc.hom(a3, s2, s2).basis == (((), ((1,),), ()),)


class TestExt:
    def test_a2_simples(self, a2):
        s1, s2 = simple_rep(a2, 1), simple_rep(a2, 2)
        assert rc.ext1_dim(a2, s1, s2) == 1
        assert rc.ext1_dim(a2, s2, s1) == 0

    def test_no_self_extensions(self, a3):
        for m in rc.indecomposables(a3):
            assert rc.ext1_dim(a3, m, m) == 0

    def test_projectives_have_no_ext(self, a3):
        # projectives are the reps whose dim vector is a reachability set
        p1 = rc.indecomposable_for_root(a3, (1, 1, 1))
        p2 = rc.indecomposable_for_root(a3, (0, 1, 1))
        p3 = simple_rep(a3, 3)
        for p in (p1, p2, p3):
            for n in rc.indecomposables(a3):
                assert rc.ext1_dim(a3, p, n) == 0

    def test_euler_consistency(self, a3):
        for m in rc.indecomposables(a3):
            for n in rc.indecomposables(a3):
                assert rc.hom(a3, m, n).dim - rc.ext1_dim(a3, m, n) == rc.euler_form(
                    a3, m.dim, n.dim
                )


class TestIndecomposables:
    def test_a2_interval(self, a2):
        m = rc.indecomposable_for_root(a2, (1, 1))
        assert m.maps[0] == ((1,),)
        assert rc.hom(a2, m, m).dim == 1

    def test_simples(self, a3):
        s2 = rc.indecomposable_for_root(a3, (0, 1, 0))
        assert s2 == simple_rep(a3, 2)

    def test_a3_full_interval(self, a3):
        m = rc.indecomposable_for_root(a3, (1, 1, 1))
        assert all(mat == ((1,),) for mat in m.maps)

    @pytest.mark.parametrize("label,count", [("A2", 3), ("A3", 6), ("D4", 12)])
    def test_gabriel_counts(self, label, count):
        q = rc.dynkin_quiver(label)
        inds = rc.indecomposables(q)
        assert len(inds) == count
        assert len({m.dim for m in inds}) == count
        for m in inds:
            assert rc.hom(q, m, m).dim == 1

    def test_d4_branch_vertex(self, d4):
        m = rc.indecomposable_for_root(d4, (1, 2, 1, 1))
        assert rc.hom(d4, m, m).dim == 1

    @pytest.mark.parametrize("arrows", _CLOSURE_CASES)
    def test_thin_roots_take_no_transport(self, arrows, monkeypatch):
        # every root of A1-A4 is thin, so its module is built directly,
        # with 1 on each arrow inside the support, and no coreflection runs
        label = "A4" if arrows is None else f"A{len(arrows) + 1}"
        q = rc.dynkin_quiver(label, arrows)
        monkeypatch.setattr(rc, "_coreflect", _forbidden)
        cat = rc._ModuleCategory(q)
        for a in cat.roots:
            assert cat.reps[a].dim == a and cat.hom_dim(a, a) == 1
            for (s, t), m in zip(q.arrows, cat.reps[a].maps):
                assert m == (((1,),) if a[s - 1] and a[t - 1] else ((0,) * a[s - 1],) * a[t - 1])

    @pytest.mark.parametrize("arrows", list(_orientations("D4")))
    def test_d4_branch_root_is_transported(self, arrows, monkeypatch):
        # (1, 2, 1, 1), the one D4 root with an entry 2, still goes
        # through the coreflections, and passes End = k; the thin roots
        # take none
        q = rc.dynkin_quiver("D4", arrows)
        calls = []
        real = rc._coreflect
        monkeypatch.setattr(rc, "_coreflect", lambda *args: calls.append(1) or real(*args))
        m = rc.indecomposable_for_root(q, (1, 2, 1, 1))
        assert calls and m.dim == (1, 2, 1, 1)
        assert rc.hom(q, m, m).dim == 1
        calls.clear()
        for a in cartan.positive_roots(cartan.build_cartan("D4")):
            if a != (1, 2, 1, 1):
                rc.indecomposable_for_root(q, a)
        assert calls == []

    def test_rejects_non_root(self, a2):
        with pytest.raises(NotRealRootError):
            rc.indecomposable_for_root(a2, (2, 1))

    def test_decomposable_transport_raises(self, a2, monkeypatch):
        # S1 + S2 has dimension vector (1, 1) but End = k x k
        split = rc.Representation(a2, (1, 1), (((0,),),))
        monkeypatch.setattr(rc, "_transport_rep", lambda q, alpha: split)
        with pytest.raises(StructuralError):
            rc.indecomposable_for_root(a2, (1, 1))

    def test_category_checks_each_transport(self, a2, monkeypatch):
        # the module category builds its indecomposables by transport and
        # checks End = k on its own (a, a) Hom basis
        split = rc.Representation(a2, (1, 1), (((0,),),))
        real = rc._transport_rep
        monkeypatch.setattr(
            rc, "_transport_rep", lambda q, alpha: split if alpha == (1, 1) else real(q, alpha)
        )
        with pytest.raises(StructuralError, match="not scalar"):
            rc._ModuleCategory(a2)

    def test_category_solves_each_hom_system_once(self, monkeypatch):
        # one system per ordered pair of the 10 roots of A4, End included
        q = rc.dynkin_quiver("A4")
        calls = []
        real = rc._hom_system
        monkeypatch.setattr(rc, "_hom_system", lambda *args: calls.append(args[1:]) or real(*args))
        cat = rc._ModuleCategory(q)
        assert len(calls) == len(cat.roots) ** 2 == 100
        assert len({(m.dim, n.dim) for m, n in calls}) == 100

    @pytest.mark.parametrize(
        "label,arrows", [(label, o) for label in ("A4", "D4") for o in _orientations(label)]
    )
    def test_transport_every_orientation(self, label, arrows):
        q = rc.dynkin_quiver(label, arrows)
        for alpha in cartan.positive_roots(cartan.build_cartan(label)):
            m = rc._transport_rep(q, alpha)
            assert m.dim == alpha
            assert rc.hom(q, m, m).dim == 1


class TestExceptionalSequences:
    def test_a2_order_matters(self, a2):
        s1, s2 = simple_rep(a2, 1), simple_rep(a2, 2)
        assert rc.is_exceptional_sequence(a2, [s1, s2])
        assert not rc.is_exceptional_sequence(a2, [s2, s1])

    def test_empty_sequence(self, a2):
        assert rc.is_exceptional_sequence(a2, [])

    def test_a3_complete_count(self, a3):
        inds = rc.indecomposables(a3)
        count = sum(
            1
            for trip in itertools.product(inds, repeat=3)
            if rc.is_exceptional_sequence(a3, trip)
        )
        assert count == 16

    def test_a2_complete_count(self, a2):
        inds = rc.indecomposables(a2)
        count = sum(
            1
            for pair in itertools.product(inds, repeat=2)
            if rc.is_exceptional_sequence(a2, pair)
        )
        assert count == 3


class TestRadIrr:
    def test_a2_values(self, a2):
        cat = rc._category(a2)
        p1, s1, s2 = (1, 1), (1, 0), (0, 1)
        assert cat.irr_dim(p1, s1) == 1
        assert cat.irr_dim(s2, s1) == 0
        assert cat.irr_dim(s2, p1) == 1

    def test_no_irreducible_endomorphisms(self, a3):
        cat = rc._category(a3)
        for m in cat.roots:
            assert cat.irr_dim(m, m) == 0

    def test_rad_table_shape(self, a2):
        cat = rc._category(a2)
        assert len(cat.rad2_dims) == 9
        p1, s1, s2 = (1, 1), (1, 0), (0, 1)
        assert (cat.rad_dim(p1, s1), cat.rad2_dims[(p1, s1)]) == (1, 0)  # P1 -> S1 irreducible
        assert (cat.rad_dim(s2, s1), cat.rad2_dims[(s2, s1)]) == (0, 0)  # Hom(S2, S1) = 0


class TestARQuiver:
    def test_a1_trivial(self):
        ar = rc.ar_quiver_module_category(rc.dynkin_quiver("A1"))
        assert len(ar.vertices) == 1
        assert ar.arrows == ()
        assert ar.tau == {}

    def test_a2_shape(self, a2):
        ar = rc.ar_quiver_module_category(a2)
        assert set(ar.vertices) == {(1, 0), (0, 1), (1, 1)}
        assert set((s, t) for s, t, _ in ar.arrows) == {((0, 1), (1, 1)), ((1, 1), (1, 0))}
        assert ar.tau == {(1, 0): (0, 1)}

    def test_a3_counts(self, a3):
        ar = rc.ar_quiver_module_category(a3)
        assert len(ar.vertices) == 6
        assert len(ar.arrows) == 6

    def test_d4_counts(self, d4):
        ar = rc.ar_quiver_module_category(d4)
        assert len(ar.vertices) == 12
        assert len(ar.arrows) == 15

    @pytest.mark.parametrize("label", ["A3", "D4"])
    def test_valuation_symmetry(self, label):
        ar = rc.ar_quiver_module_category(rc.dynkin_quiver(label))
        arrows = {(s, t): val for s, t, val in ar.arrows}
        for (x, y), (d, _) in arrows.items():
            if y in ar.tau:
                ty = ar.tau[y]
                assert arrows[(ty, x)][1] == d

    @pytest.mark.parametrize("label", ["A2", "A3", "A4", "D4", "D5"])
    def test_mesh_shape(self, label):
        ar = rc.ar_quiver_module_category(rc.dynkin_quiver(label))
        assert ar.check_mesh_shape() == []

    @pytest.mark.parametrize(
        "into_c, out_of_a, ok",
        [((1, 1), (1, 1), True), ((1, 2), (2, 1), True), ((1, 1), (1, 2), False), ((1, 2), (1, 2), False)],
    )
    def test_mesh_shape_compares_valuations(self, into_c, out_of_a, ok):
        # tau c = a: b -> c valued (d, d') must pair with a -> b valued
        # (d', d); the vertices alone agree in every case
        t = TranslationQuiver(
            vertices=("a", "b", "c"),
            arrows=(("a", "b", out_of_a), ("b", "c", into_c)),
            tau={"c": "a"},
        )
        assert (t.check_mesh_shape() == []) == ok


def _direct_sum(q, reps):
    """Block-diagonal direct sum of representations over q."""
    dim = tuple(sum(m.dim[v] for m in reps) for v in range(q.rank))
    maps = []
    for idx, (s, t) in enumerate(q.arrows):
        rows = []
        before = 0  # columns of the summands to the left
        for m in reps:
            cols = m.dim[s - 1]
            for row in m.maps[idx]:
                rows.append((0,) * before + tuple(row) + (0,) * (dim[s - 1] - before - cols))
            before += cols
        maps.append(tuple(rows))
    return rc.Representation(q, dim, tuple(maps))


class TestDecompose:
    @pytest.mark.parametrize(
        "label,arrows,picks",
        [
            ("A4", None, (0, 5)),
            ("A4", None, (2, 2, 9)),
            ("A4", ((2, 1), (2, 3), (4, 3)), (1, 4, 8)),
            ("D4", None, (0, 11)),
            ("D4", None, (3, 7, 7)),
            ("D4", ((2, 1), (2, 3), (4, 2)), (5, 6, 10)),
        ],
    )
    def test_direct_sums(self, label, arrows, picks):
        q = rc.dynkin_quiver(label, arrows)
        cat = rc._category(q)
        summands = [cat.roots[i] for i in picks]
        rep = _direct_sum(q, [cat.reps[a] for a in summands])
        expected = {a: summands.count(a) for a in summands}
        assert cat.decompose(rep) == expected == _hom_count_decompose(cat, rep)

    @pytest.mark.parametrize("label", ["A3", "A4", "D4"])
    def test_gram_inverse_is_integral(self, label):
        cat = rc._category(rc.dynkin_quiver(label))
        inv = _gram_inverse(cat)
        assert all(type(x) is int for row in inv for x in row)
        gram = [[cat.hom_dim(a, b) for b in cat.roots] for a in cat.roots]
        assert linalg.mat_mul(gram, inv) == linalg.identity(len(cat.roots))

    def test_hom_dim_matches_hom_basis(self, a3):
        inds = rc.indecomposables(a3)
        rep = _direct_sum(a3, inds[:3])
        for m in inds + (rep,):
            for n in inds + (rep,):
                assert rc.hom_dim(a3, m, n) == rc.hom(a3, m, n).dim

    def test_closure_tables_build_no_hom_basis(self, monkeypatch):
        # the oracle's decompositions count Hom by rank alone; only the
        # module category's own table holds bases
        q = rc.dynkin_quiver("A4")
        rc._category(q)
        calls = []
        real = rc.hom
        monkeypatch.setattr(rc, "hom", lambda *args: calls.append(1) or real(*args))
        tables = _tables(q)
        assert tables.consequences
        assert calls == []

    @pytest.mark.parametrize(
        "label,maps,expected",
        [
            ("A2", (((0,),),), {(0, 1): 1, (1, 0): 1}),
            ("A3", (((1,),), ((0,),)), {(0, 0, 1): 1, (1, 1, 0): 1}),
            ("A3", (((0,),), ((1,),)), {(0, 1, 1): 1, (1, 0, 0): 1}),
        ],
    )
    def test_decomposable_on_a_root_falls_through(self, label, maps, expected, monkeypatch):
        # the dimension vector is a root, but End is not k: the brick test
        # must fail and Hom counting must find both summands
        q = rc.dynkin_quiver(label)
        cat = rc._category(q)
        rep = rc.Representation(q, tuple(map(sum, zip(*expected))), maps)
        assert rep.dim in cat.reps and rep != cat.reps[rep.dim]
        calls = []
        real = rc.hom_dim
        monkeypatch.setattr(rc, "hom_dim", lambda *args: calls.append(args[1:]) or real(*args))
        assert cat.decompose(rep) == expected
        assert calls[0] == (rep, rep)
        assert len(calls) == 1 + len(cat.roots)
        assert _hom_count_decompose(cat, rep) == expected

    @pytest.mark.parametrize("label", ["A1", "A3", "D4"])
    def test_zero_representation_takes_no_solve(self, label, monkeypatch):
        q = rc.dynkin_quiver(label)
        cat = rc._category(q)
        zero = rc.Representation(q, (0,) * q.rank, tuple(() for _ in q.arrows))
        monkeypatch.setattr(rc, "hom_dim", _forbidden)
        assert cat.decompose(zero) == {}

    @pytest.mark.parametrize("label", ["A1", "A3", "D4"])
    def test_stored_indecomposable_takes_no_solve(self, label, monkeypatch):
        # each stored indecomposable had End = k checked when the
        # category was built
        q = rc.dynkin_quiver(label)
        cat = rc._category(q)
        monkeypatch.setattr(rc, "hom_dim", _forbidden)
        for a in cat.roots:
            assert cat.decompose(cat.reps[a]) == {a: 1}

    @pytest.mark.parametrize("label", ["A3", "D4"])
    def test_brick_takes_one_solve(self, label, monkeypatch):
        # an isomorphic copy in another basis: one arrow's map scaled by 2,
        # which the tree's vertex bases absorb; it is not the stored
        # indecomposable, so End = k is checked by one solve
        q = rc.dynkin_quiver(label)
        cat = rc._category(q)
        calls = []
        real = rc.hom_dim
        monkeypatch.setattr(rc, "hom_dim", lambda *args: calls.append(args[1:]) or real(*args))
        copies = 0
        for a in cat.roots:
            stored = cat.reps[a]
            idx = next((i for i, m in enumerate(stored.maps) if any(map(any, m))), None)
            if idx is None:
                continue
            maps = list(stored.maps)
            maps[idx] = tuple(tuple(2 * x for x in row) for row in maps[idx])
            copy = rc.Representation(q, a, tuple(maps))
            assert copy != stored
            del calls[:]
            assert cat.decompose(copy) == {a: 1}
            assert calls == [(copy, copy)]
            copies += 1
        assert copies == len(cat.roots) - q.rank  # every root but the simples

    def test_closure_cases_cover_every_orientation(self):
        assert len(_CLOSURE_CASES) == len(set(_CLOSURE_CASES)) == 1 + 2 + 4 + 8

    @pytest.mark.parametrize("arrows", _CLOSURE_CASES)
    def test_closure_tables_match_hom_counting(self, arrows, monkeypatch):
        # the support rule and the certificates leave every consequence as
        # the all-Hom-count route finds it on kernels and cokernels built as
        # representations, for the Hom counts of _CLOSURE_SOLVES (42 on
        # every A4 orientation; 650 by Hom counts).  A1 has no consequence
        # and A2 only stored indecomposables and zero representations
        label = "A4" if arrows is None else f"A{len(arrows) + 1}"
        q = rc.dynkin_quiver(label, arrows)
        cat = rc._category(q)
        calls = []
        real = rc.hom_dim
        monkeypatch.setattr(rc, "hom_dim", lambda *args: calls.append(1) or real(*args))
        tables = _tables(q)
        fast = tables.consequences
        assert len(calls) == _CLOSURE_SOLVES[arrows] <= 42
        assert bool(calls) == (label not in ("A1", "A2"))
        assert bool(fast) == (label != "A1")
        monkeypatch.undo()
        slow = {}
        for a, b in itertools.product(cat.roots, repeat=2):
            terms = []
            if a != b and cat.hom_dim(a, b):
                f = cat.hom_spaces[(a, b)].basis[0]
                terms += [_where_zero(cat.reps[a], f), _where_zero(cat.reps[b], f)]
            if cat.hom_dim(a, b) - rc.euler_form(q, a, b):
                terms.append(tables._middle(a, b))
            need = {x for rep in terms for x in _hom_count_decompose(cat, rep)}
            if need:
                slow[(a, b)] = need
        assert fast == slow

    @pytest.mark.parametrize("arrows", _CLOSURE_CASES)
    def test_closure_tables_take_no_end_solve(self, arrows, monkeypatch):
        # the stored thin indecomposables have every map 1, so each thin
        # kernel, cokernel or middle term on a root is one of them by
        # equality, never by an End = k solve
        label = "A4" if arrows is None else f"A{len(arrows) + 1}"
        q = rc.dynkin_quiver(label, arrows)
        cat = rc._category(q)
        assert all(x == 1 for a in cat.roots for m in cat.reps[a].maps for row in m for x in row)
        calls = []
        real = rc.hom_dim

        def counted(q, m, n):
            calls.append(m == n)
            return real(q, m, n)

        monkeypatch.setattr(rc, "hom_dim", counted)
        _tables(q)
        assert not any(calls)

    @pytest.mark.parametrize("arrows", _CLOSURE_CASES)
    def test_kernel_and_cokernel_match_solve_route(self, arrows, monkeypatch):
        # the thin rule of the reference above, X_a or X_b cut down to the
        # vertices where f is zero, gives the representations of a
        # nullspace at every vertex and a solve_columns at every arrow, and
        # solves nothing itself
        label = "A4" if arrows is None else f"A{len(arrows) + 1}"
        q = rc.dynkin_quiver(label, arrows)
        cat = rc._category(q)
        pairs = [(a, b) for a in cat.roots for b in cat.roots if a != b and cat.hom_dim(a, b)]
        assert bool(pairs) == (label != "A1")
        bases = [cat.hom_spaces[pair].basis[0] for pair in pairs]
        for name in ("nullspace", "rref", "mat_mul"):
            monkeypatch.setattr(linalg, name, _forbidden)
        fast = [
            (_where_zero(cat.reps[a], f), _where_zero(cat.reps[b], f))
            for (a, b), f in zip(pairs, bases)
        ]
        monkeypatch.undo()
        for (a, b), f, (kernel, cokernel) in zip(pairs, bases, fast):
            assert kernel == _kernel_reference(cat, a, f)
            assert cokernel == _cokernel_reference(cat, a, b, f)

    @pytest.mark.parametrize("arrows", list(_orientations("D4")))
    def test_closure_tables_refuse_non_thin_quivers(self, arrows, monkeypatch):
        # D4 has a 2-dimensional space at its centre, where a kernel or
        # cokernel can keep part of a space: the thin rule does not hold,
        # so the tables refuse before any module category or Hom count
        q = rc.dynkin_quiver("D4", arrows)
        for name in ("_category", "hom", "hom_dim", "_hom_system"):
            monkeypatch.setattr(rc, name, _forbidden)
        monkeypatch.setattr(rc._ModuleCategory, "decompose", _forbidden)
        monkeypatch.setattr(rc._ModuleCategory, "hom_dim", _forbidden)
        with pytest.raises(ResourceLimitError, match="thin indecomposables"):
            _tables(q)

    def test_negative_multiplicity_is_caught(self, monkeypatch):
        # Hom counts that no module has, into X_(1,1) alone on A2: the
        # inverse Gram matrix asks for -1 copies of X_(1,0), and the rest
        # would still add up to the dimension vector
        q = rc.dynkin_quiver("A2")
        cat = rc._category(q)
        rep = _direct_sum(q, [cat.reps[(1, 0)], cat.reps[(0, 1)]])
        fake = {rep: 2, cat.reps[(1, 1)]: 1}
        monkeypatch.setattr(rc, "hom_dim", lambda q, m, n: fake.get(n, 0))
        with pytest.raises(StructuralError, match="Hom-count decomposition failed"):
            cat.decompose(rep)

    def test_multiplicities_must_add_up(self, monkeypatch):
        # Hom counts of X_(1,0) + X_(1,1) for the split module S1 + S2 on
        # A2: nonnegative multiplicities whose sum (2, 1) is not (1, 1)
        q = rc.dynkin_quiver("A2")
        cat = rc._category(q)
        rep = _direct_sum(q, [cat.reps[(1, 0)], cat.reps[(0, 1)]])
        fake = {rep: 2}
        for b in cat.roots:
            fake[cat.reps[b]] = cat.hom_dim((1, 0), b) + cat.hom_dim((1, 1), b)
        monkeypatch.setattr(rc, "hom_dim", lambda q, m, n: fake[n])
        with pytest.raises(StructuralError, match="does not add up"):
            cat.decompose(rep)

    @pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4"])
    def test_split_modules_count_hom_under_their_dimension(self, label, monkeypatch):
        # every split module the closure tables meet, on every orientation:
        # Hom is counted only into the roots under its dimension vector,
        # and the summands are those of the all-roots reference
        split = []
        real_decompose, real_hom_dim = rc._ModuleCategory.decompose, rc.hom_dim
        for arrows in _orientations(label):
            q = rc.dynkin_quiver(label, arrows)
            cat = rc._category(q)
            calls = []

            def decompose(cat, rep):
                before = len(calls)
                out = real_decompose(cat, rep)
                if any(rep.dim) and out != {rep.dim: 1}:
                    split.append((cat, rep, out, len(calls) - before))
                return out

            monkeypatch.setattr(rc, "hom_dim", lambda *a: calls.append(1) or real_hom_dim(*a))
            monkeypatch.setattr(rc._ModuleCategory, "decompose", decompose)
            _tables(q)
            monkeypatch.undo()
        assert bool(split) == (label in ("A3", "A4"))
        for cat, rep, out, solves in split:
            below = [a for a in cat.roots if all(x <= y for x, y in zip(a, rep.dim))]
            assert solves == (rep.dim in cat.reps) + len(below)
            assert out == _hom_count_decompose(cat, rep)


def _forbidden(*args, **kwargs):
    raise AssertionError("a Hom system was solved")


def _kernel_reference(cat, a, f):
    """ker f as a subrepresentation of X_a: a nullspace basis at every
    vertex and one solve_columns at every arrow between nonzero spaces."""
    q, m = cat.quiver, cat.reps[a]
    kernels = [linalg.nullspace(f[v], m.dim[v]) for v in range(q.rank)]
    bases = [linalg.transpose(k, d) for k, d in zip(kernels, m.dim)]
    dims = [len(k) for k in kernels]
    maps = []
    for idx, (s, t) in enumerate(q.arrows):
        si, ti = s - 1, t - 1
        if dims[si] == 0 or m.dim[ti] == 0:
            maps.append(((0,) * dims[si],) * dims[ti])
            continue
        image = linalg.mat_mul(m.maps[idx], bases[si])
        maps.append(solve_columns(bases[ti], dims[ti], image, dims[si]))
    return rc.Representation(q, tuple(dims), tuple(maps))


def _cokernel_reference(cat, a, b, f):
    """coker f as a quotient of X_b, by the same route."""
    q, m, n = cat.quiver, cat.reps[a], cat.reps[b]
    projs = [linalg.nullspace(linalg.transpose(f[v], m.dim[v]), n.dim[v]) for v in range(q.rank)]
    dims = [len(p) for p in projs]
    maps = []
    for idx, (s, t) in enumerate(q.arrows):
        si, ti = s - 1, t - 1
        if dims[si] == 0 or dims[ti] == 0:
            maps.append(((0,) * dims[si],) * dims[ti])
            continue
        rhs = linalg.mat_mul(projs[ti], n.maps[idx])
        wt = solve_columns(
            linalg.transpose(projs[si], n.dim[si]), dims[si], linalg.transpose(rhs, n.dim[si]), dims[ti]
        )
        maps.append(linalg.transpose(wt, dims[ti]))
    return rc.Representation(q, tuple(dims), tuple(maps))


def _hom_count_decompose(cat, rep):
    """The reference route: Hom counts into every indecomposable for every
    representation, times the inverse Hom Gram matrix."""
    h = [rc.hom_dim(cat.quiver, rep, cat.reps[b]) for b in cat.roots]
    mult = linalg.mat_vec(linalg.transpose(_gram_inverse(cat), len(cat.roots)), h)
    assert all(m >= 0 for m in mult)
    out = {a: m for a, m in zip(cat.roots, mult) if m}
    assert tuple(
        sum(m * a[v] for a, m in out.items()) for v in range(cat.quiver.rank)
    ) == rep.dim
    return out


def _gram_inverse(cat):
    """The inverse of the Hom Gram matrix on every positive root."""
    return linalg.int_inverse([[cat.hom_dim(a, b) for b in cat.roots] for a in cat.roots])

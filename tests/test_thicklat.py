import functools
import hashlib
import inspect
import itertools
import json

import pytest

from ncthick import braid
from ncthick import cartan as cw
from ncthick import derived as dv
from ncthick import linalg
from ncthick import noncrossing as nc
from ncthick import repcat as rc
from ncthick import thicklat as tl
from ncthick.errors import (
    LatticeStructureError,
    NotInPosetError,
    NotIntegerError,
    OutOfRangeError,
    ResourceLimitError,
    StructuralError,
)
from test_noncrossing import packed  # the packed int of a matrix, unchecked
from test_repcat import _tables, simple_rep  # test-side closure tables, simple representation


@pytest.fixture(scope="module")
def a2():
    return cw.build_cartan("A2")


@pytest.fixture(scope="module")
def a3():
    return cw.build_cartan("A3")


def _orientations(label):
    edges = cw.tree_edges(label)
    for flips in itertools.product((False, True), repeat=len(edges)):
        yield tuple((t, s) if flip else (s, t) for (s, t), flip in zip(edges, flips))


# every orientation of A1-A4, the default written as None
_ORACLE_CASES = [
    ("A1", None),
    ("A2", None),
    ("A2", ((2, 1),)),
    ("A3", None),
    ("A3", ((2, 1), (2, 3))),
    ("A4", None),
    ("A4", ((2, 1), (2, 3), (4, 3))),
    ("A4", ((2, 1), (3, 2), (4, 3))),
]
_ORACLE_CASES += [
    (label, arrows)
    for label in ("A1", "A2", "A3", "A4")
    for arrows in _orientations(label)
    if arrows != cw.tree_edges(label) and (label, arrows) not in _ORACLE_CASES
]

# the same 15 orientations by their arrows alone, A4's first two leading:
# A_n has n - 1 arrows, and None is A4's default
_ORACLE_ARROWS = [None, ((2, 1), (2, 3), (4, 3))]
_ORACLE_ARROWS += [
    cw.tree_edges(label) if arrows is None else arrows
    for label, arrows in _ORACLE_CASES
    if label != "A4" or arrows not in _ORACLE_ARROWS
]


def _cox(cd, roots):
    """The product of the generator reflections, left to right."""
    prod = cw.identity_element(cd)
    for alpha in roots:
        prod = prod * cw.reflection_element(cd, alpha)
    return prod


def _greedy_factorization(cd, w):
    """Oracle: left to right, the first positive root t with
    l(t w) = l(w) - 1, lengths from fixed-space ranks."""
    out = []
    length = cw.absolute_length(cd, w)
    while length:
        for alpha in cw.positive_roots(cd):
            rest = cw.reflection_element(cd, alpha) * w
            if cw.absolute_length(cd, rest) == length - 1:
                out.append(alpha)
                w, length = rest, length - 1
                break
    return tuple(out)


def _corrupt_build(monkeypatch, cd, swap):
    """Pass the matrices enumerate_nc builds through the dict swap: the
    first |NC| - 1 packed products, before the certificate's."""
    steps = len(nc.enumerate_nc(cd)) - 1
    swap = {packed(u.matrix): packed(v.matrix) for u, v in swap.items()}
    real = cw.Packing.reflection_times
    calls = []

    def corrupt(self, p, k):
        out = real(self, p, k)
        calls.append(1)
        return swap.get(out, out) if len(calls) <= steps else out

    monkeypatch.setattr(cw.Packing, "reflection_times", corrupt)


class TestThickFromNc:
    def test_single_reflection(self, a2):
        u = tl.thick_from_nc(a2, cw.simple_reflection(a2, 1))
        assert u.generators == ((1, 0),)

    def test_identity_empty(self, a2):
        u = tl.thick_from_nc(a2, cw.identity_element(a2))
        assert u.generators == ()

    def test_full_coxeter_is_exceptional_pair(self, a2):
        u = tl.thick_from_nc(a2, cw.coxeter_element(a2))
        assert len(u.generators) == 2
        q = rc.dynkin_quiver("A2")
        seq = [rc.indecomposable_for_root(q, a) for a in u.generators]
        assert rc.is_exceptional_sequence(q, seq)

    def test_generators_multiply_to_element(self, a3):
        lat = nc.enumerate_nc(a3)
        for w in lat.elements:
            u = tl.thick_from_nc(a3, w, lat.coxeter)
            prod = cw.identity_element(a3)
            for alpha in u.generators:
                prod = prod * cw.reflection_element(a3, alpha)
            assert prod == w
            assert len(u.generators) == cw.absolute_length(a3, w)

    def test_rejects_elements_above_c(self, a2):
        c = cw.coxeter_element(a2)
        with pytest.raises(NotInPosetError):
            tl.thick_from_nc(a2, c * c)

    def test_rejects_a_non_coxeter_element(self):
        # -id in B2 has absolute length 2 and lies above every reflection,
        # but its order is 2, not the Coxeter number 4: no value carries
        # it, so no perp is asked for it
        b2 = cw.build_cartan("B2")
        minus = cw.WeylElement(((-1, 0), (0, -1)))
        assert all(cw.abs_leq(b2, t, minus) for t in cw.reflections(b2))
        s1 = tl.thick_from_nc(b2, cw.simple_reflection(b2, 1))
        with pytest.raises(NotInPosetError, match="not a Coxeter element"):
            tl.ThickSubcategory(b2, minus, s1.nc_element, s1.generators)
        for w in cw.reflections(b2) + (minus,):
            with pytest.raises(NotInPosetError, match="not a Coxeter element"):
                tl.thick_from_nc(b2, w, minus)
        with pytest.raises(NotInPosetError, match="not a Coxeter element"):
            nc.enumerate_nc(b2, minus)

    def test_value_rejects_an_element_not_below_c(self, a2):
        # s2 s1 is the product of its generators, but not below c = s1 s2
        c = cw.coxeter_element(a2)
        w = cw.coxeter_element(a2, (2, 1))
        assert not cw.abs_leq(a2, w, c)
        with pytest.raises(NotInPosetError, match="not below"):
            tl.ThickSubcategory(a2, c, w, ((0, 1), (1, 0)))
        assert tl.ThickSubcategory(a2, w, w, ((0, 1), (1, 0))) == tl.thick_from_nc(a2, w, w)

    @pytest.mark.parametrize("label", ["A3", "B3", "D4"])
    def test_rejects_every_element_not_below_c(self, label, monkeypatch):
        # the value checks once: thick_from_nc asks abs_leq once per element
        cd = cw.build_cartan(label)
        calls = []
        real = cw.abs_leq
        monkeypatch.setattr(cw, "abs_leq", lambda *args: calls.append(1) or real(*args))
        for perm in (None, tuple(range(cd.rank, 0, -1))):
            c = cw.coxeter_element(cd, perm)
            below = set(nc.enumerate_nc(cd, c).elements)
            for w in cw.weyl_group(cd):
                calls.clear()
                if w in below:
                    assert tl.thick_from_nc(cd, w, c).nc_element == w
                else:
                    with pytest.raises(NotInPosetError, match="not below"):
                        tl.thick_from_nc(cd, w, c)
                assert len(calls) == 1


class TestCox:
    def test_bijectivity(self, a3):
        lat = nc.enumerate_nc(a3)
        for w in lat.elements:
            assert _cox(a3, tl.thick_from_nc(a3, w, lat.coxeter).generators) == w

    def test_well_defined_across_braid_orbit(self, a3):
        # different factorizations with equal prefix products give equal cox
        c = cw.coxeter_element(a3)
        facts = braid.enumerate_factorizations(a3)
        for f in facts:
            for r in range(4):
                prefix = cw.identity_element(a3)
                for x in f.parts[:r]:
                    prefix = prefix * x
                u = tl.thick_from_nc(a3, prefix, c)
                assert _cox(a3, u.generators) == prefix


class TestPerpendiculars:
    def test_a2_example(self, a2):
        u = tl.thick_from_nc(a2, cw.simple_reflection(a2, 1))
        assert tl.left_perp(u).nc_element == cw.simple_reflection(a2, 2)

    def test_zero_subcategory(self, a2):
        zero = tl.thick_from_nc(a2, cw.identity_element(a2))
        assert tl.left_perp(zero).nc_element == cw.coxeter_element(a2)

    def test_biperp(self, a3):
        lat = nc.enumerate_nc(a3)
        for w in lat.elements:
            u = tl.thick_from_nc(a3, w, lat.coxeter)
            assert tl.right_perp(tl.left_perp(u)) == u
            assert tl.left_perp(tl.right_perp(u)) == u

    @pytest.mark.parametrize("label", ["A3", "D4"])
    def test_perps_use_the_subcategory_coxeter_element(self, label):
        # with c reversed, w^-1 c_default is a wrong element or no NC element
        # at all; the perps read c from the subcategory
        cd = cw.build_cartan(label)
        c = cw.coxeter_element(cd, tuple(range(cd.rank, 0, -1)))
        assert c != cw.coxeter_element(cd)
        for w in nc.enumerate_nc(cd, c).elements:
            u = tl.thick_from_nc(cd, w, c)
            left, right = tl.left_perp(u), tl.right_perp(u)
            assert left.nc_element == w.inverse() * c and left.coxeter == c
            assert right.nc_element == c * w.inverse() and right.coxeter == c
            assert tl.right_perp(left) == u and tl.left_perp(right) == u

    def test_left_perp_kills_homs(self, a2):
        # the A2 example: perp of Thick(S1) is generated by the S2 root
        q = rc.dynkin_quiver("A2")
        u = tl.thick_from_nc(a2, cw.simple_reflection(a2, 1))
        lp = tl.left_perp(u)
        s1 = simple_rep(q, 1)
        for alpha in lp.generators:
            m = rc.indecomposable_for_root(q, alpha)
            assert rc.hom(q, m, s1).dim == 0
            assert rc.ext1_dim(q, m, s1) == 0


class TestThickLattice:
    @pytest.mark.parametrize("label,count", [("A1", 2), ("A2", 5), ("A3", 14)])
    def test_counts(self, label, count):
        assert len(tl.thick_lattice(cw.build_cartan(label))) == count

    @pytest.mark.parametrize("label", ["A3", "B3", "D4", "G2"])
    def test_generators_are_greedy_factorizations(self, label):
        cd = cw.build_cartan(label)
        lat = tl.thick_lattice(cd)
        for w in lat.elements:
            assert lat.canonical_word(w) == _greedy_factorization(cd, w)

    @pytest.mark.parametrize("label", ["A3", "B3", "D4", "G2", "F4", "E6"])
    def test_lone_element_matches_lattice(self, label, monkeypatch):
        # thick_from_nc builds T(w) from the fixed space, not from the
        # lattice; both take every root from the one least_step, which
        # enumerate_nc's build takes once per element and the lattice keeps
        calls = []
        real = nc.least_step
        monkeypatch.setattr(nc, "least_step", lambda *args: calls.append(args) or real(*args))
        cd = cw.build_cartan(label)
        lat = tl.thick_lattice(cd)
        assert len(calls) == len(lat) - 1
        for w in lat.elements:
            calls.clear()
            gens = lat.canonical_word(w)
            assert tl.thick_from_nc(cd, w).generators == gens
            assert len(calls) == len(gens)

    @pytest.mark.parametrize("label", ["A4", "D4"])
    def test_each_element_is_stepped_once(self, label, monkeypatch):
        # the build steps each element past id once and the lattice keeps
        # the step; the generators are read off the kept steps, so
        # collecting them takes no second step
        masks = []
        real = nc.least_step
        monkeypatch.setattr(nc, "least_step", lambda m, perp: masks.append(m) or real(m, perp))
        lat = tl.thick_lattice(cw.build_cartan(label))
        assert sorted(masks) == sorted(lat.masks[1:])
        tl.thick_to_json(lat)
        assert len(masks) == len(lat) - 1  # reading the words steps nothing

    def test_e6_one_product_route(self, monkeypatch):
        # one packed build product and one packed certificate product per
        # element past id, all on the left; on the right only
        # coxeter_element's n WeylElement products
        calls = {"packed": 0, "times_reflection": 0}
        for name, owner, attr in (
            ("packed", cw.Packing, "reflection_times"),
            ("times_reflection", cw.WeylElement, "times_reflection"),
        ):
            real = getattr(owner, attr)

            def counted(self, *args, _real=real, _name=name):
                calls[_name] += 1
                return _real(self, *args)

            monkeypatch.setattr(owner, attr, counted)
        cd = cw.build_cartan("E6")
        lat = tl.thick_lattice(cd)
        assert calls == {"packed": 2 * (len(lat) - 1), "times_reflection": cd.rank}
        assert calls["packed"] == 1664

    def test_thick_lattice_skips_abs_leq(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cw, "abs_leq", lambda *args: calls.append(args) or True)
        tl.thick_lattice(cw.build_cartan("D4"))
        assert calls == []

    def test_indecomposables_built_once_per_root(self, monkeypatch):
        # no indecomposable is built: each root's hammock is a translate of
        # the hammock of one node, and one table knits every node's once
        for cache in (dv._knit, dv._slice, tl._exceptional_masks):
            cache.cache_clear()
        built = []
        real = rc.indecomposable_for_root
        monkeypatch.setattr(
            rc, "indecomposable_for_root", lambda q, a: built.append(a) or real(q, a)
        )
        cd = cw.build_cartan("D4")
        tl.thick_lattice(cd)
        assert built == []
        assert len(dv._knit(rc.dynkin_quiver(cd.label))[0]) == cd.rank
        assert dv._knit.cache_info().misses == 1

    def test_exceptional_checks_solve_each_pair_once(self, monkeypatch):
        # Hom and Ext^1 come from one hammock table with an entry per ordered
        # pair of roots, so the ADE certificates reach none of the linear
        # algebra of the representation oracle
        for cache in (dv._knit, dv._slice, tl._exceptional_masks):
            cache.cache_clear()
        reads, real = [], dv.hom_ext_table
        monkeypatch.setattr(dv, "hom_ext_table", lambda q: reads.append(q) or real(q))
        calls = []
        for name, f in list(vars(rc).items()):
            if inspect.isfunction(f) and f.__module__ == rc.__name__:
                monkeypatch.setattr(
                    rc, name, lambda *a, _n=name, _f=f, **k: calls.append(_n) or _f(*a, **k)
                )
        cd = cw.build_cartan("D4")
        data = tl.thick_to_json(tl.thick_lattice(cd))
        text = json.dumps(data, sort_keys=True) + "\n"
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "41aac08eac283908efd5b3456b4f7e7029224f4305c8d79a1a1a5eeb1b273ffd"
        assert calls == []
        assert reads == [rc.Quiver("D4", (1, 2, 3, 4), cw.tree_edges("D4"))]
        n = len(cw.positive_roots(cd))
        assert len(real(reads[0])) == n * n

    @pytest.mark.parametrize("label", ["A3", "D4", "D5"])
    def test_masks_match_exceptional_pairs(self, label):
        cd = cw.build_cartan(label)
        bad = tl._exceptional_masks(cd, cw.coxeter_element(cd))
        q = rc.dynkin_quiver(label)
        roots = cw.positive_roots(cd)
        reps = [rc.indecomposable_for_root(q, a) for a in roots]
        for i, j in itertools.product(range(len(roots)), repeat=2):
            expected = rc.is_exceptional_sequence(q, [reps[i], reps[j]])
            assert (not bad[i] >> j & 1) == expected, (roots[i], roots[j])

    def test_masks_read_once_per_coxeter_element(self, monkeypatch):
        monkeypatch.setattr(
            tl, "_exceptional_masks", functools.lru_cache(tl._exceptional_masks.__wrapped__)
        )
        reads = []
        real = dv.hom_ext_table
        monkeypatch.setattr(dv, "hom_ext_table", lambda *args: reads.append(args) or real(*args))
        cd = cw.build_cartan("E6")
        c = cw.coxeter_element(cd)
        u = tl.thick_from_nc(cd, c)
        w = tl.thick_from_nc(cd, cw.simple_reflection(cd, 1))
        tl.left_perp(w)
        tl.right_perp(w)
        assert len(u.generators) == 6 and len(w.generators) == 1
        assert reads == [(rc.dynkin_quiver("E6"),)]

    def test_one_table_per_coxeter_element(self, monkeypatch):
        # the table is not cached: the masks' cache per (cd, c) is what
        # keeps it to one build each
        monkeypatch.setattr(
            tl, "_exceptional_masks", functools.lru_cache(tl._exceptional_masks.__wrapped__)
        )
        reads, real = [], dv.hom_ext_table
        monkeypatch.setattr(dv, "hom_ext_table", lambda q: reads.append(q) or real(q))
        cd = cw.build_cartan("A4")
        c, d = cw.coxeter_element(cd), cw.coxeter_element(cd, (2, 3, 4, 1))
        for w in (c, d, c, d, c):
            tl._exceptional_masks(cd, w)
        assert reads == [rc.dynkin_quiver("A4"), rc.dynkin_quiver("A4", ((2, 1), (2, 3), (3, 4)))]

    def test_flipped_hom_entry_is_caught(self, monkeypatch):
        # Hom(E_b, E_a) = 1 for the last two generators of c: the pair is
        # no longer exceptional, so the certificate of c must fail
        cd = cw.build_cartan("D4")
        a, b = tl.thick_from_nc(cd, cw.coxeter_element(cd)).generators[-2:]
        table = dv.hom_ext_table(rc.dynkin_quiver("D4"))
        assert table[(b, a)] == (0, 0)
        table[(b, a)] = (1, 0)
        monkeypatch.setattr(dv, "hom_ext_table", lambda *args: table)
        # masks from the flipped table live in a cache of this test only
        monkeypatch.setattr(
            tl, "_exceptional_masks", functools.lru_cache(tl._exceptional_masks.__wrapped__)
        )
        with pytest.raises(StructuralError, match="exceptional"):
            tl.thick_lattice(cd)
        with pytest.raises(StructuralError, match="exceptional"):
            tl.thick_from_nc(cd, cw.coxeter_element(cd))

    @pytest.mark.parametrize(
        "label,perm,fails",
        [
            ("A4", (2, 3, 4, 1), {"reversed": 21, "standard": 14}),
            ("D5", (3, 1, 4, 2, 5), {"reversed": 115, "standard": 97}),
            ("E6", (5, 3, 2, 6, 1, 4), {"reversed": 616, "standard": 626}),
        ],
    )
    def test_masks_follow_the_coxeter_element(self, label, perm, fails, monkeypatch):
        # the quiver of c is read off its Euler form, so every greedy word
        # passes a nonzero certificate; tables of the reversed quiver or
        # of the standard one fail on the counted elements
        cd = cw.build_cartan(label)
        c = cw.coxeter_element(cd, perm)
        e = nc.euler_form(cd, c)
        arrows = tuple(
            (s + 1, t + 1) for s, row in enumerate(e) for t, x in enumerate(row) if x == -1
        )
        elements = nc.enumerate_nc(cd, c).elements
        assert arrows != cw.tree_edges(label) and any(tl._exceptional_masks(cd, c))
        for w in elements:
            assert _cox(cd, tl.thick_from_nc(cd, w, c).generators) == w
        real = dv.hom_ext_table
        wrong = {"reversed": tuple((t, s) for s, t in arrows), "standard": cw.tree_edges(label)}
        for name, orientation in wrong.items():
            wrong_q = rc.dynkin_quiver(label, orientation)
            monkeypatch.setattr(dv, "hom_ext_table", lambda q: real(wrong_q))
            monkeypatch.setattr(
                tl, "_exceptional_masks", functools.lru_cache(tl._exceptional_masks.__wrapped__)
            )
            caught = 0
            for w in elements:
                try:
                    tl.thick_from_nc(cd, w, c)
                except StructuralError as err:
                    assert "exceptional" in str(err)
                    caught += 1
            assert caught == fails[name]

    def test_equality_by_nc_element(self, a2):
        lat = tl.thick_lattice(a2)
        w, c = lat.elements[1], lat.coxeter
        u = tl.thick_from_nc(a2, w)
        clone = tl.ThickSubcategory(a2, c, w, lat.canonical_word(w))
        assert clone == u
        assert hash(clone) == hash(u)
        # the greedy generators of c = s_1 s_2 are s_2 s_(1,1); s_1 s_2 is
        # another valid factorization of the same subcategory
        other = tl.ThickSubcategory(a2, c, c, ((1, 0), (0, 1)))
        assert other.generators != tl.thick_from_nc(a2, c).generators
        assert other == tl.thick_from_nc(a2, c)
        assert hash(other) == hash(tl.thick_from_nc(a2, c)) == hash((a2, c, c))

    @pytest.mark.parametrize("label", ["A3", "D4"])
    def test_equality_includes_the_coxeter_element(self, label):
        # the identity and the reflections lie below every Coxeter element,
        # and their subcategories for different c are different values
        cd = cw.build_cartan(label)
        c = cw.coxeter_element(cd, tuple(range(cd.rank, 0, -1)))
        shared = [w for w in nc.enumerate_nc(cd, c).elements if cw.absolute_length(cd, w) < 2]
        assert len(shared) == 1 + len(cw.reflections(cd))
        for w in shared:
            assert tl.thick_from_nc(cd, w, c) != tl.thick_from_nc(cd, w)

    def test_d5_no_products_of_its_own(self, monkeypatch):
        # thick_lattice makes exactly the products enumerate_nc makes
        cd = cw.build_cartan("D5")
        calls = []
        real = linalg.mat_mul
        monkeypatch.setattr(linalg, "mat_mul", lambda *args: calls.append(1) or real(*args))
        counts = []
        for build in (nc.enumerate_nc, tl.thick_lattice):
            nc.euler_form.cache_clear()
            nc.perp_masks.cache_clear()
            tl._exceptional_masks.cache_clear()
            calls.clear()
            build(cd)
            counts.append(len(calls))
        # is_coxeter_element's h - 1 powers of c, and nothing else
        assert counts[1] == counts[0] == cw.coxeter_number(cd) - 1

    @pytest.mark.parametrize("index", [1, 5, 40, 181])
    def test_corrupted_element_matrix_is_caught(self, index, monkeypatch):
        # masks intact, one entry of one element's matrix off by one where
        # enumerate_nc builds it
        cd = cw.build_cartan("D5")
        want = nc.enumerate_nc(cd).elements[index]
        rows = [list(row) for row in want.matrix]
        rows[-1][0] += 1
        _corrupt_build(monkeypatch, cd, {want: cw.WeylElement(linalg.freeze(rows))})
        with pytest.raises(LatticeStructureError, match="is not c"):
            tl.thick_lattice(cd)

    @pytest.mark.parametrize("rest", ["itself", "top"])
    def test_stored_step_not_below_is_caught(self, rest, monkeypatch):
        # the first element of rank 2 keeps a step whose rest does not lie
        # below it: the element itself, or c above it
        cd = cw.build_cartan("D4")
        lat = nc.enumerate_nc(cd)
        steps = [s and (s[0], lat.masks[s[1]]) for s in lat.steps]
        i = next(i for i, w in enumerate(lat.elements) if lat.ranks[w] == 2)
        steps[i] = (steps[i][0], lat.masks[i if rest == "itself" else -1])
        bad = nc.NCLattice(
            lat.cartan, lat.coxeter, lat.elements, lat.ranks, lat.masks,
            tuple(lat.masks[k] for k in lat.kreweras_index), tuple(steps), lat.covers,
        )
        monkeypatch.setattr(nc, "enumerate_nc", lambda *args: bad)
        with pytest.raises(StructuralError, match="multiply"):
            tl.thick_lattice(cd)

    def test_swapped_perp_table_stops_thick_from_nc(self, monkeypatch):
        # perp[0] = the perp of root 1 keeps root 0, so the greedy loop
        # would pick root 0 forever
        cd = cw.build_cartan("D4")
        c = cw.coxeter_element(cd)
        perp = list(nc.perp_masks(cd, c))
        perp[0], perp[1] = perp[1], perp[0]
        assert perp[0] & 1
        monkeypatch.setattr(nc, "perp_masks", lambda *args: tuple(perp))
        with pytest.raises(StructuralError, match="keeps"):
            tl.thick_from_nc(cd, c)

    def test_greedy_factorization_stops_at_rank(self, monkeypatch):
        # perps that keep every other root let the greedy loop take all 9
        # roots of B3's c; it must stop after 3 and report the rest
        cd = cw.build_cartan("B3")
        n = len(cw.positive_roots(cd))
        perp = tuple((1 << n) - 1 & ~(1 << k) for k in range(n))
        monkeypatch.setattr(nc, "perp_masks", lambda *args: perp)
        with pytest.raises(StructuralError, match="left over"):
            tl.thick_from_nc(cd, cw.coxeter_element(cd))

    def test_swapped_elements_are_caught(self, monkeypatch):
        # masks intact, two reflections trade matrices where enumerate_nc
        # builds them: only the certificate's products see it
        cd = cw.build_cartan("D4")
        _, s, t = nc.enumerate_nc(cd).elements[:3]
        _corrupt_build(monkeypatch, cd, {s: t, t: s})
        with pytest.raises(LatticeStructureError, match="is not c"):
            tl.thick_lattice(cd)

    def test_order_preservation_nested_prefixes(self, a3):
        lat = nc.enumerate_nc(a3)
        for u in lat.elements:
            for v in lat.elements:
                if not lat.leq(u, v):
                    continue
                w1 = _greedy_factorization(a3, u)
                w2 = _greedy_factorization(a3, u.inverse() * v)
                w3 = _greedy_factorization(a3, v.inverse() * lat.coxeter)
                word = w1 + w2 + w3
                assert len(word) == 3
                prod = cw.identity_element(a3)
                for k, alpha in enumerate(word, start=1):
                    prod = prod * cw.reflection_element(a3, alpha)
                    if k == len(w1):
                        assert prod == u
                    if k == len(w1) + len(w2):
                        assert prod == v
                assert prod == lat.coxeter


class TestWideOracle:
    def test_a2_subsets(self):
        res = tl.wide_subcategory_oracle(rc.dynkin_quiver("A2"))
        assert res.count == 5
        assert ((1, 1),) in res.subsets  # Thick(P1) alone is wide
        assert ((0, 1), (1, 0)) not in res.subsets  # {S1,S2} closes to everything

    @pytest.mark.parametrize("label,count", [("A1", 2), ("A2", 5), ("A3", 14)])
    def test_counts(self, label, count):
        assert tl.wide_subcategory_oracle(rc.dynkin_quiver(label)).count == count

    @pytest.mark.parametrize("label", ["A1", "A2", "A3"])
    def test_agreement_with_thick_lattice(self, label):
        assert (
            tl.wide_subcategory_oracle(rc.dynkin_quiver(label)).count
            == len(tl.thick_lattice(cw.build_cartan(label)))
        )

    def test_scale_cap(self, monkeypatch):
        # the cap comes first: D4 would also fail the multiplicity check
        monkeypatch.setattr(tl, "MAX_ORACLE_INDECOMPOSABLES", 6)
        with pytest.raises(ResourceLimitError, match="12 indecomposables exceed the oracle cap 6"):
            tl.wide_subcategory_oracle(rc.dynkin_quiver("D4"))

    @pytest.mark.parametrize("label,arrows", _ORACLE_CASES)
    def test_euler_form_once_per_ordered_pair(self, label, arrows, monkeypatch):
        # the table from one Euler matrix equals repcat.euler_form on every
        # ordered pair of roots, and the multiplicity pre-check's table is
        # the one the closure tables read: one table per oracle pass
        q = rc.dynkin_quiver(label, arrows)
        roots = cw.positive_roots(cw.build_cartan(label))
        table = tl._euler_table(q, roots)
        assert table == {(a, b): rc.euler_form(q, a, b) for a, b in itertools.product(roots, repeat=2)}
        calls = []
        real = tl._euler_table
        monkeypatch.setattr(tl, "_euler_table", lambda *args: calls.append(args) or real(*args))
        monkeypatch.setattr(rc, "euler_form", lambda *args: pytest.fail("euler_form was called"))
        for _ in range(2):
            assert tl.wide_subcategory_oracle(q).count == len(tl.thick_lattice(cw.build_cartan(label)))
        assert calls == [(q, roots)] * 2

    def test_oracle_cases_cover_every_orientation(self):
        assert len(_ORACLE_CASES) == len(set(_ORACLE_CASES)) == 1 + 2 + 4 + 8
        assert len(_ORACLE_ARROWS) == len(set(_ORACLE_ARROWS)) == 1 + 2 + 4 + 8

    @pytest.mark.parametrize("label,arrows", _ORACLE_CASES)
    def test_bitmask_search_matches_set_search(self, label, arrows):
        # the reference closes each subset as a set of roots, pair by pair
        q = rc.dynkin_quiver(label, arrows)
        tables = _tables(q)
        wide = []
        for size in range(len(tables.cat.roots) + 1):
            for combo in itertools.combinations(tables.cat.roots, size):
                s = set(combo)
                if all(
                    x in s
                    for a, b in itertools.product(combo, repeat=2)
                    for x in tables.consequences.get((a, b), ())
                ):
                    wide.append(tuple(sorted(s)))
        assert tl.wide_subcategory_oracle(q).subsets == tuple(wide)

    @pytest.mark.parametrize("label,arrows", _ORACLE_CASES)
    def test_oracle_matrices_hold_ints(self, label, arrows, monkeypatch):
        # the module category's maps and Hom bases, and every kernel,
        # cokernel and middle term the closure tables split, carry no Fraction
        q = rc.dynkin_quiver(label, arrows)
        cat = rc._category(q)
        built = []
        real = rc._ModuleCategory.decompose
        monkeypatch.setattr(
            rc._ModuleCategory, "decompose", lambda cat, rep: built.append(rep) or real(cat, rep)
        )
        _tables(q)
        assert bool(built) == (label != "A1")
        mats = [m for rep in list(cat.reps.values()) + built for m in rep.maps]
        mats += [m for space in cat.hom_spaces.values() for f in space.basis for m in f]
        entries = [x for m in mats for row in m for x in row]
        assert entries and all(type(x) is int for x in entries)

    def test_consequences_keep_both_directions(self):
        # on A3, Hom(P2, I2) has kernel S3 and cokernel S1, while the
        # nonsplit extension of I2 by P2 has middle term P1 + S2
        tables = _tables(rc.dynkin_quiver("A3"))
        p2, i2 = (0, 1, 1), (1, 1, 0)
        assert tables.consequences[(p2, i2)] == {(0, 0, 1), (1, 0, 0)}
        assert tables.consequences[(i2, p2)] == {(1, 1, 1), (0, 1, 0)}

    @pytest.mark.parametrize("label,largest", [("A3", 1), ("A4", 1), ("D4", 2)])
    def test_euler_form_is_the_larger_dimension(self, label, largest):
        # directedness: Hom and Ext^1 between indecomposables are never
        # both nonzero, so |<a, b>| is the larger of the two dimensions
        q = rc.dynkin_quiver(label)
        cat = rc._category(q)
        seen = 0
        for a, b in itertools.product(cat.roots, repeat=2):
            h = cat.hom_dim(a, b)
            e = h - rc.euler_form(q, a, b)
            assert h * e == 0
            assert max(h, e) == abs(rc.euler_form(q, a, b))
            seen = max(seen, h, e)
        assert seen == largest

    def test_middle_needs_a_cocycle_off_the_coboundaries(self):
        # with Ext^1(X_a, X_b) = 0 every unit cocycle is a coboundary
        q = rc.dynkin_quiver("A3")
        tables = _tables(q)
        cat = tables.cat
        pairs = [
            (a, b)
            for a, b in itertools.product(cat.roots, repeat=2)
            if cat.hom_dim(a, b) == rc.euler_form(q, a, b)
        ]
        assert len(pairs) > len(cat.roots)
        for a, b in pairs:
            with pytest.raises(StructuralError, match="extension class vanished"):
                tables._middle(a, b)

    @pytest.mark.parametrize("arrows", _ORACLE_ARROWS)
    def test_middle_terms_are_nonsplit(self, arrows, monkeypatch):
        # each middle term reads its coboundaries off the one Hom system
        # of (X_a, X_b) and builds no other
        label = "A4" if arrows is None else f"A{len(arrows) + 1}"
        q = rc.dynkin_quiver(label, arrows)
        tables = _tables(q)
        cat = tables.cat
        pairs = [
            (a, b)
            for a, b in itertools.product(cat.roots, repeat=2)
            if cat.hom_dim(a, b) - rc.euler_form(q, a, b) == 1
        ]
        assert bool(pairs) == (label != "A1")
        systems = []
        real = rc._hom_system
        monkeypatch.setattr(rc, "_hom_system", lambda *args: systems.append(args) or real(*args))
        for a, b in pairs:
            systems.clear()
            middle = tables._middle(a, b)
            assert systems == [(q, cat.reps[a], cat.reps[b])]
            assert middle.dim == tuple(x + y for x, y in zip(a, b))
            assert cat.decompose(middle) != {a: 1, b: 1}


class TestKroneckerLattice:
    def test_counting_formula(self):
        lat = tl.kronecker_lattice(0, 2)
        assert len(lat) == 7  # 4 + (4+1) - 2

    def test_named_points(self):
        lat = tl.kronecker_lattice(0, ("x", "y", "z"))
        assert lat.tube_points == ("x", "y", "z")
        assert len(lat) == 4 + 9 - 2

    def test_cross_part_meet_join(self):
        lat = tl.kronecker_lattice(1, 2)
        atoms, tubes = _kronecker_parts(lat)
        assert (len(atoms), len(tubes)) == (4, 3)
        for r in atoms:
            for t in tubes:
                assert lat.meet(r, t) == lat.elements[0] == 0
                assert lat.join(r, t) == lat.elements[-1]

    def test_tube_part_boolean(self):
        # meets and joins of tube sets are the intersections and unions of
        # their point sets, an empty intersection the bottom
        lat = tl.kronecker_lattice(0, 3)
        _, tubes = _kronecker_parts(lat)
        assert len(tubes) == 7
        named = {_tube_labels(lat, t): t for t in tubes}
        named[frozenset()] = lat.elements[0]
        for a in tubes:
            for b in tubes:
                sa, sb = _tube_labels(lat, a), _tube_labels(lat, b)
                assert lat.meet(a, b) == named[sa & sb]
                assert lat.join(a, b) == named[sa | sb]

    def test_tube_sets_are_masks(self):
        # each nonempty subset of the sorted points once, as an int with
        # bit i for point i, by size; the order is one AND
        lat = tl.kronecker_lattice(1, ("d", "b", "c", "a"))
        _, tubes = _kronecker_parts(lat)
        assert all(type(m) is int for m in tubes)
        assert sorted(tubes) == list(range(1, 16))
        assert [m.bit_count() for m in tubes] == sorted(m.bit_count() for m in tubes)
        assert lat.leq(0b0101, 0b1101)
        assert not lat.leq(0b0101, 0b1011)
        assert lat.rank_of(0b1101) == 3

    @pytest.mark.parametrize("bound, points", [(0, 0), (1, 3), (3, 16), (4096, 2)])
    def test_tube_masks_keep_the_low_bits(self, bound, points):
        # tube sets below 1 << p, atoms one root bit each above them, top
        # every bit: no tube set grows with the truncation bound
        lat = tl.kronecker_lattice(bound, points)
        atoms, tubes = _kronecker_parts(lat)
        assert all(0 < t < 1 << points for t in tubes)
        assert len(tubes) == (1 << points) - 1
        assert sorted(a >> points for a in atoms) == [1 << k for k in range(len(atoms))]
        assert lat.elements[-1] == (1 << (points + len(atoms))) - 1

    def test_meet_join_leq_make_no_leq_call(self, monkeypatch):
        lat = tl.kronecker_lattice(3, 16)
        calls = []
        real = tl.KroneckerLattice.leq
        monkeypatch.setattr(tl.KroneckerLattice, "leq", lambda *args: calls.append(1) or real(*args))
        atoms, tubes = _kronecker_parts(lat)
        bottom, top = lat.elements[0], lat.elements[-1]
        pairs = [(atoms[0], atoms[1]), (atoms[0], tubes[-1]), (tubes[-2], tubes[3]), (bottom, top)]
        for a, b in pairs:
            lat.meet(a, b), lat.join(a, b)
        assert calls == []
        assert [lat.leq(a, b) for a, b in pairs] == [False, False, False, True]
        assert len(calls) == len(pairs)

    def test_non_element_is_refused(self):
        lat = tl.kronecker_lattice(1, 1)
        two_atoms = lat.elements[1] | lat.elements[2]
        for op in (lat.leq, lat.meet, lat.join):
            with pytest.raises(NotInPosetError, match="is not a lattice element"):
                op(two_atoms, 0)
        assert lat.join(lat.elements[1], lat.elements[2]) == lat.elements[-1]

    def test_full_tube_set_is_not_top(self):
        lat = tl.kronecker_lattice(0, 2)
        full, top = (1 << len(lat.tube_points)) - 1, lat.elements[-1]
        assert full in lat.elements
        assert lat.leq(full, top) and full != top
        assert (lat.rank_of(full), lat.rank_of(top)) == (2, 3)

    def test_all_meets_joins_exist(self):
        lat = tl.kronecker_lattice(2, 3)
        assert len(lat) == 15
        for a in lat.elements:
            for b in lat.elements:
                lat.meet(a, b)
                lat.join(a, b)

    @pytest.mark.parametrize("bound", [0, 1, 2])
    @pytest.mark.parametrize("points", [0, 1, 2, 3, 4, 5, ("b", "a", "c")])
    def test_covers_match_cubic_definition(self, bound, points):
        # a < b with nothing strictly between, straight from leq
        lat = tl.kronecker_lattice(bound, points)
        els = lat.elements
        cubic = [
            (i, j)
            for i, a in enumerate(els)
            for j, b in enumerate(els)
            if i != j
            and lat.leq(a, b)
            and not any(lat.leq(a, c) and lat.leq(c, b) and c != a and c != b for c in els)
        ]
        assert tl.kronecker_to_json(lat)["hasse"] == cubic

    @pytest.mark.parametrize("bound", [0, 1, 3])
    @pytest.mark.parametrize("points", [0, 1, 2, 8, ("t9", "t10", "t100"), 5])
    def test_to_json_matches_frozenset_reference(self, bound, points):
        # "t10" < "t100" < "t9" as strings: names and covers follow the
        # sorted tube_points, not the numeric order; the bytes equal the
        # reference's, whose pairs are lists
        lat = tl.kronecker_lattice(bound, points)
        assert _dumps(tl.kronecker_to_json(lat)) == _dumps(_kronecker_json_reference(lat))

    def test_negative_sizes_rejected(self):
        with pytest.raises(OutOfRangeError):
            tl.kronecker_lattice(-1, 2)
        with pytest.raises(OutOfRangeError):
            tl.kronecker_lattice(1, -1)

    @pytest.mark.parametrize("points", [("a", "a", "b"), (1, "1"), ("p1", "p1")])
    def test_labels_equal_after_str_rejected(self, points, monkeypatch):
        # repeated labels would list the same tube set several times and
        # break the Hasse diagram; refused before the NC part or any tube
        # set is built
        def forbidden(*args, **kwargs):
            raise AssertionError("lattice built before the label check")

        monkeypatch.setattr(nc, "nc_kronecker", forbidden)
        with pytest.raises(OutOfRangeError, match="name only"):
            tl.kronecker_lattice(0, points)
        monkeypatch.undo()
        assert len(tl.kronecker_lattice(0, ("a", "b"))) == 7

    def test_points_cap(self):
        tl.kronecker_lattice(0, tl.MAX_TUBE_POINTS)
        with pytest.raises(ResourceLimitError, match="cap 16"):
            tl.kronecker_lattice(0, tl.MAX_TUBE_POINTS + 1)
        with pytest.raises(ResourceLimitError):
            tl.kronecker_lattice(0, tuple(f"x{i}" for i in range(17)))

    @pytest.mark.parametrize("bound", [True, False, 1.5, 2.0, "1", None])
    def test_bound_must_be_an_int(self, bound, monkeypatch):
        # True printed "truncation_bound": true and 1.5 raised a bare
        # TypeError; refused before any reflection is built
        def forbidden(*args, **kwargs):
            raise AssertionError("reflections built before the bound type check")

        monkeypatch.setattr(cw, "reflections", forbidden)
        for call in (lambda: tl.kronecker_lattice(bound, 2), lambda: nc.nc_kronecker(bound)):
            with pytest.raises(NotIntegerError, match="^truncation bound must be an int"):
                call()

    @pytest.mark.parametrize("points", [True, False, 2.0, 1.5, None])
    def test_point_count_must_be_an_int(self, points, monkeypatch):
        # True built one tube point and 2.0 raised a bare TypeError;
        # refused before the NC part is built
        def forbidden(*args, **kwargs):
            raise AssertionError("lattice built before the point count check")

        monkeypatch.setattr(nc, "nc_kronecker", forbidden)
        with pytest.raises(NotIntegerError, match="^tube points must be an int count or a sequence of labels"):
            tl.kronecker_lattice(1, points)

    @pytest.mark.parametrize("points", [("b", "a"), ["b", "a"]])
    def test_label_sequences_stay_accepted(self, points):
        lat = tl.kronecker_lattice(1, points)
        assert lat.tube_points == ("a", "b") and len(lat) == 9

    def test_points_cap_before_labels(self):
        class Count(int):
            def __add__(self, other):
                raise AssertionError("labels made before the points cap check")

        with pytest.raises(ResourceLimitError, match="17 tube points exceed the cap 16"):
            tl.kronecker_lattice(0, Count(tl.MAX_TUBE_POINTS + 1))

    def test_bound_cap_before_any_work(self, monkeypatch):
        cap = nc.MAX_KRONECKER_BOUND
        assert nc.nc_kronecker(cap).truncation_bound == cap

        def forbidden(*args, **kwargs):
            raise AssertionError("reflections built before the bound cap check")

        monkeypatch.setattr(cw, "reflections", forbidden)
        match = f"truncation bound {cap + 1} exceeds the cap {cap}"
        with pytest.raises(ResourceLimitError, match=match):
            nc.nc_kronecker(cap + 1)
        with pytest.raises(ResourceLimitError, match=match):
            tl.kronecker_lattice(cap + 1, 2)


def _kronecker_parts(lat):
    """(atoms, tubes) by position: bottom, the NC part's atoms, the tube
    sets, top."""
    a = len(lat.nc_part) - 2
    return lat.elements[1 : 1 + a], lat.elements[1 + a : -1]


def _tube_labels(lat, e):
    return frozenset(p for n, p in enumerate(lat.tube_points) if e >> n & 1)


def _kronecker_json_reference(lat):
    """Covers and names straight from label sets, each tube mask decoded
    to the frozenset of its points, one `index` lookup of S | {p} per
    cover; each atom named by `reflection_root` of its NC element."""
    points = lat.tube_points
    atoms, tubes = _kronecker_parts(lat)

    def tube(s):
        return sum(1 << points.index(p) for p in s)

    def atom_name(e):
        w = lat.nc_part.elements[lat.nc_part.position[e >> len(points)]]
        return "s(" + ",".join(map(str, cw.reflection_root(lat.nc_part.cartan, w))) + ")"

    bottom, top = 0, len(lat.elements) - 1
    names = ["0"] + [atom_name(e) for e in atoms]
    ranks = [0] + [1] * len(atoms)
    edges = [(bottom, a) for a in range(1, 1 + len(atoms))]
    edges += [(a, top) for a in range(1, 1 + len(atoms))]
    for i, e in enumerate(tubes, 1 + len(atoms)):
        s = _tube_labels(lat, e)
        names.append("{" + ",".join(sorted(s)) + "}")
        ranks.append(len(s))
        if len(s) == 1:
            edges.append((bottom, i))
        if len(s) == len(points):
            edges.append((i, top))
        edges.extend((i, lat.index(tube(s | {p}))) for p in points if p not in s)
    names.append("1")
    ranks.append(len(points) + 1)
    return {
        "tube_points": list(points),
        "truncation_bound": lat.nc_part.truncation_bound,
        "elements": [{"id": i, "name": n, "rank": r} for i, (n, r) in enumerate(zip(names, ranks))],
        "hasse": [list(e) for e in sorted(edges)],
    }


def _thick_json_reference(lat):
    """Every stored pair, root and triple copied into a new list."""
    return {
        "type": lat.cartan.label,
        "elements": [
            {"nc_id": i, "rank": lat.ranks[w], "generator_roots": [list(a) for a in lat.canonical_word(w)]}
            for i, w in enumerate(lat.elements)
        ],
        "hasse": [list(e) for e in lat.hasse],
        "perp_pairs": [[i, lat.kreweras_index[i], lat.co_kreweras_index[i]] for i in range(len(lat))],
    }


def _dumps(data):
    return json.dumps(data, sort_keys=True)


class TestJson:
    def test_thick_json(self, a2):
        data = tl.thick_to_json(tl.thick_lattice(a2))
        assert data["type"] == "A2"
        assert len(data["elements"]) == 5
        assert len(data["perp_pairs"]) == 5
        ranks = [e["rank"] for e in data["elements"]]
        assert ranks == sorted(ranks)

    @pytest.mark.parametrize("label", ["A3", "B3", "D4"])
    def test_perp_pairs_are_perp_functions(self, label):
        lat = tl.thick_lattice(cw.build_cartan(label))
        expected = [
            (i, lat.index(tl.left_perp(u).nc_element), lat.index(tl.right_perp(u).nc_element))
            for i, u in enumerate(
                tl.ThickSubcategory(lat.cartan, lat.coxeter, w, lat.canonical_word(w))
                for w in lat.elements
            )
        ]
        assert tl.thick_to_json(lat)["perp_pairs"] == expected

    @pytest.mark.parametrize("label", ["A3", "D4", "G2"])
    def test_thick_json_hands_over_the_stored_tables(self, label):
        # no pair, root or word is copied: the Hasse pairs and each
        # element's least word are the lattice's own tuples
        lat = tl.thick_lattice(cw.build_cartan(label))
        data = tl.thick_to_json(lat)
        assert data["hasse"] is lat.hasse
        for el, w in zip(data["elements"], lat.elements, strict=True):
            assert el["generator_roots"] is lat.canonical_word(w)

    @pytest.mark.parametrize("label", ["A4", "D4", "E6", "F4", "G2", "B3"])
    def test_thick_json_bytes_of_list_form(self, label):
        lat = tl.thick_lattice(cw.build_cartan(label))
        assert _dumps(tl.thick_to_json(lat)) == _dumps(_thick_json_reference(lat))

    def test_kronecker_json_and_dot(self):
        lat = tl.kronecker_lattice(0, 2)
        data = tl.kronecker_to_json(lat)
        assert len(data["elements"]) == 7
        dot = tl.kronecker_dot(lat)
        assert dot.count("->") == len(data["hasse"])

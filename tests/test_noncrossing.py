import itertools
import json
import random

import pytest

from ncthick import cartan as cw
from ncthick import braid, cli, linalg
from ncthick import noncrossing as nc
from ncthick import repcat as rc
from ncthick.errors import (
    LatticeStructureError,
    NotInPosetError,
    OutOfRangeError,
    ResourceLimitError,
    StructuralError,
    UnsupportedLabelError,
)
from test_linalg import inverse  # the test-side rational inverse


def packed(matrix) -> int:
    """The sum of M_ij 256^((n-1-i) n + n-1-j), with no check of the entries:
    the int `Packing` keeps for the matrix M."""
    entries = [x for row in matrix for x in row]
    return sum(x << 8 * f for f, x in enumerate(reversed(entries)))


def _lattice(label):
    return nc.enumerate_nc(cw.build_cartan(label))


def _whole_group_count(label):
    """Oracle: filter the full group through BFS lengths."""
    cd = cw.build_cartan(label)
    c = cw.coxeter_element(cd)
    n = cd.rank
    return sum(
        1
        for w in cw.weyl_group(cd)
        if cw.absolute_length_bfs(cd, w) + cw.absolute_length_bfs(cd, w.inverse() * c) == n
    )


class TestEnumerate:
    @pytest.mark.parametrize(
        "label,count", [("A1", 2), ("A2", 5), ("A3", 14), ("B2", 6), ("G2", 8)]
    )
    def test_counts(self, label, count):
        assert len(_lattice(label)) == count

    @pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2", "F4"])
    def test_against_whole_group_filter(self, label):
        assert len(_lattice(label)) == _whole_group_count(label)

    def test_rank_bounds(self):
        lat = _lattice("A3")
        assert lat.ranks[lat.identity()] == 0
        assert lat.ranks[lat.coxeter] == 3

    def test_hasse_edges_are_covers(self):
        lat = _lattice("A3")
        for i, j in lat.hasse:
            u, v = lat.elements[i], lat.elements[j]
            assert lat.ranks[v] == lat.ranks[u] + 1
            assert lat.leq(u, v)

    def test_kronecker_routed_elsewhere(self):
        with pytest.raises(UnsupportedLabelError):
            nc.enumerate_nc(cw.build_cartan("KRONECKER"))

    def test_non_coxeter_rejected(self):
        cd = cw.build_cartan("B2")
        c = cw.coxeter_element(cd)
        with pytest.raises(NotInPosetError):
            nc.enumerate_nc(cd, c * c)


def _abs_order(cd, elements):
    """Oracle: l(u) + l(u^-1 v) = l(v) with fixed-space lengths, by index."""
    lengths = [cw.absolute_length(cd, w) for w in elements]
    inverses = [w.inverse() for w in elements]

    def leq(i, j):
        return lengths[i] <= lengths[j] and (
            lengths[i] + cw.absolute_length(cd, inverses[i] * elements[j]) == lengths[j]
        )

    return leq, lengths


def _coxeters(label):
    cd = cw.build_cartan(label)
    return [cw.coxeter_element(cd), cw.coxeter_element(cd, tuple(range(cd.rank, 0, -1)))]


def _subset_test_hasse(lat):
    """Oracle: i < j is a cover iff j is one rank above i and T(i) is a
    subset of T(j), tested for every pair in adjacent ranks."""
    by_rank = {}
    for i, w in enumerate(lat.elements):
        by_rank.setdefault(lat.ranks[w], []).append(i)
    edges = []
    for r in sorted(by_rank):
        upper = [(j, ~lat.masks[j]) for j in by_rank.get(r + 1, ())]
        for i in by_rank[r]:
            edges.extend((i, j) for j, outside in upper if not lat.masks[i] & outside)
    return tuple(edges)


class TestMasks:
    @pytest.mark.parametrize("label", ["A3", "B3", "D4", "G2"])
    @pytest.mark.parametrize("which", [0, 1])
    def test_leq_matches_abs_leq(self, label, which):
        cd = cw.build_cartan(label)
        lat = nc.enumerate_nc(cd, _coxeters(label)[which])
        leq, _ = _abs_order(cd, lat.elements)
        for i, u in enumerate(lat.elements):
            for j, v in enumerate(lat.elements):
                assert lat.leq(u, v) == leq(i, j)

    @pytest.mark.parametrize(
        "label,which",
        [
            pytest.param(label, which, id=label + ("-reversed" if which else ""))
            for label in ("A4", "B4", "F4", "D5")
            for which in (0, 1)
        ],
    )
    def test_hasse_matches_abs_leq_covers(self, label, which):
        cd = cw.build_cartan(label)
        lat = nc.enumerate_nc(cd, _coxeters(label)[which])
        leq, lengths = _abs_order(cd, lat.elements)
        n = len(lat)
        covers = tuple(
            (i, j) for i in range(n) for j in range(n) if lengths[j] == lengths[i] + 1 and leq(i, j)
        )
        assert lat.hasse == covers

    @pytest.mark.parametrize(
        "label,arg", [("E6", 0), ("E6", 1)] + [("KRONECKER", b) for b in range(4)]
    )
    def test_hasse_matches_subset_test(self, label, arg):
        # E6 under both Coxeter elements, KRONECKER at bounds 0..3
        if label == "KRONECKER":
            lat = nc.nc_kronecker(arg)
        else:
            lat = nc.enumerate_nc(cw.build_cartan(label), _coxeters(label)[arg])
        assert lat.hasse == _subset_test_hasse(lat)

    @pytest.mark.parametrize(
        "label,which",
        [
            pytest.param(label, which, id=label + ("-reversed" if which else ""))
            for label in ("A3", "B3", "D4", "G2", "A4", "B4", "D5", "F4")
            for which in (0, 1)
        ],
    )
    def test_masks_are_reflection_sets(self, label, which):
        # the masks are ANDs of lperp rows; abs_leq tests fixed spaces
        lat = nc.enumerate_nc(cw.build_cartan(label), _coxeters(label)[which])
        refs = cw.reflections(lat.cartan)
        for w, mask in zip(lat.elements, lat.masks):
            expected = sum(1 << k for k, t in enumerate(refs) if cw.abs_leq(lat.cartan, t, w))
            assert mask == expected
        assert len(set(lat.masks)) == len(lat)

    @pytest.mark.parametrize("label", ["A3", "B3", "D4", "G2"])
    @pytest.mark.parametrize("which", [0, 1])
    def test_kreweras_tables_inverse(self, label, which):
        lat = nc.enumerate_nc(cw.build_cartan(label), _coxeters(label)[which])
        for w in lat.elements:
            assert nc.kreweras(lat, nc.co_kreweras(lat, w)) == w
            assert nc.co_kreweras(lat, nc.kreweras(lat, w)) == w
            assert nc.kreweras(lat, w) == w.inverse() * lat.coxeter


def _topological_perm(n, arrows):
    """Vertices 1..n ordered so that every arrow points forward."""
    order = []
    while len(order) < n:
        order.append(min(
            v for v in range(1, n + 1)
            if v not in order and all(s in order for s, t in arrows if t == v)
        ))
    return tuple(order)


def _orientations(label):
    edges = cw.tree_edges(label)
    for flips in itertools.product((False, True), repeat=len(edges)):
        yield tuple((b, a) if f else (a, b) for (a, b), f in zip(edges, flips))


def _euler_form_reference(cd, c):
    """G (1 - c)^-1 over the rationals: a test-side rational inverse and a product."""
    one_minus_c = [[int(i == j) - x for j, x in enumerate(row)] for i, row in enumerate(c.matrix)]
    return linalg.mat_mul(cd.gram(), inverse(one_minus_c))


def _seeded_perms(label, count=6):
    n = cw.build_cartan(label).rank
    rng = random.Random(f"euler/{label}")
    return [tuple(rng.sample(range(1, n + 1), n)) for _ in range(count)]


class TestEulerForm:
    @pytest.mark.parametrize(
        "label,perm",
        [
            (lb, p)
            for lb in ("A1", "A2", "A3", "A4", "B3", "C3", "D4", "G2")
            for p in itertools.permutations(range(1, cw.build_cartan(lb).rank + 1))
        ]
        + [(lb, p) for lb in ("E6", "E7", "E8", "F4") for p in _seeded_perms(lb)],
    )
    def test_equals_rational_inverse(self, label, perm):
        cd = cw.build_cartan(label)
        c = cw.coxeter_element(cd, perm)
        e = nc.euler_form(cd, c)
        assert e == _euler_form_reference(cd, c)
        assert all(type(x) is int for row in e for x in row)

    def test_one_integer_solve(self, monkeypatch):
        # no matrix product: one int_solve, which runs one elimination
        calls = []
        for name in ("mat_mul", "rref", "int_solve"):
            real = getattr(linalg, name)
            monkeypatch.setattr(linalg, name, lambda *a, _r=real, _n=name: calls.append(_n) or _r(*a))
        cd = cw.build_cartan("E8")
        c = cw.coxeter_element(cd, _seeded_perms("E8", 1)[0])
        nc.euler_form.cache_clear()
        nc.euler_form(cd, c)
        assert calls == ["int_solve", "rref"]

    @pytest.mark.parametrize("which", ["identity", "s1"])
    def test_singular_one_minus_c(self, which):
        cd = cw.build_cartan("A2")
        w = cw.identity_element(cd) if which == "identity" else cw.simple_reflection(cd, 1)
        with pytest.raises(StructuralError, match="matrix not invertible"):
            nc.euler_form(cd, w)

    def test_non_integral_form(self):
        # -id has 1 - c = 2, so E = G / 2 is not integral
        cd = cw.build_cartan("A2")
        with pytest.raises(NotInPosetError):
            nc.euler_form(cd, cw.WeylElement(((-1, 0), (0, -1))))

    @pytest.mark.parametrize(
        "label,arrows",
        [(lb, arr) for lb in ("A4", "D4") for arr in _orientations(lb)]
        + [("E6", cw.tree_edges("E6"))],
    )
    def test_quiver_euler_form(self, label, arrows):
        cd = cw.build_cartan(label)
        c = cw.coxeter_element(cd, _topological_perm(cd.rank, arrows))
        e = nc.euler_form(cd, c)
        n = cd.rank
        assert all(isinstance(x, int) for row in e for x in row)
        assert all(e[i][j] + e[j][i] == cd.gram()[i][j] for i in range(n) for j in range(n))
        q = rc.dynkin_quiver(label, arrows)
        unit = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        assert e == tuple(tuple(rc.euler_form(q, x, y) for y in unit) for x in unit)

    @pytest.mark.parametrize(
        "label",
        ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C3", "D4", "F4", "G2", "E6"],
    )
    @pytest.mark.parametrize("which", [0, 1])
    def test_perp_masks_give_kreweras(self, label, which):
        c = _coxeters(label)[which]
        lat = nc.enumerate_nc(cw.build_cartan(label), c)
        perp = nc.perp_masks(lat.cartan, c)
        full = (1 << len(perp)) - 1
        for mask, k in zip(lat.masks, lat.kreweras_index):
            comp = full
            for s, p in enumerate(perp):
                if mask >> s & 1:
                    comp &= p
            assert comp == lat.masks[k]


class TestGrowthCost:
    def test_d5_no_rank_tests(self, monkeypatch):
        # no product per element: the only products are is_coxeter_element's
        # h - 1 powers; euler_form is one integer solve, and growth and
        # certificate are rank-one updates
        counts = {"absolute_length": 0, "mat_mul": 0}
        for module, name in ((cw, "absolute_length"), (linalg, "mat_mul")):
            real = getattr(module, name)

            def counted(*args, _real=real, _name=name):
                counts[_name] += 1
                return _real(*args)

            monkeypatch.setattr(module, name, counted)
        nc.perp_masks.cache_clear()
        cd = cw.build_cartan("D5")
        lat = nc.enumerate_nc(cd)
        assert len(lat) == 182
        assert counts["absolute_length"] == 1
        assert counts["mat_mul"] == cw.coxeter_number(cd) - 1

    def test_e7_count(self, capsys):
        assert cli.run(["nc", "--type", "E7", "--format", "count"]) == 0
        assert capsys.readouterr().out == "4160\n"


def _flip_bit(masks, s, t):
    flipped = list(masks)
    flipped[s] ^= 1 << t
    return tuple(flipped)


class TestCertificate:
    """Each corruption of the growth data must raise, not yield a lattice."""

    @pytest.mark.parametrize("table", ["perp_masks", "left_perp_masks"])
    @pytest.mark.parametrize("label", ["A3", "B3", "G2"])
    def test_every_flipped_bit_is_caught(self, label, table, monkeypatch):
        cd = cw.build_cartan(label)
        c = cw.coxeter_element(cd)
        perp = nc.perp_masks(cd, c)
        rows = perp if table == "perp_masks" else nc.left_perp_masks(perp)
        for s, t in itertools.product(range(len(rows)), repeat=2):
            monkeypatch.setattr(nc, table, lambda *args, s=s, t=t: _flip_bit(rows, s, t))
            with pytest.raises(LatticeStructureError):
                nc.enumerate_nc(cd, c)

    @pytest.mark.parametrize("label", ["A3", "B3", "D4", "G2"])
    def test_every_corrupted_growth_entry_is_caught(self, label, monkeypatch):
        # one entry of one element's matrix off by one, for every product
        # of the least-word build, which comes before the certificate's
        cd = cw.build_cartan(label)
        c = cw.coxeter_element(cd)
        steps = len(nc.enumerate_nc(cd, c)) - 1
        real = cw.Packing.reflection_times
        last = cd.rank - 1
        for target, (i, j) in itertools.product(range(steps), [(0, 0), (last, 0), (0, last)]):
            calls = []

            def corrupt(self, p, k, target=target, i=i, j=j):
                out = real(self, p, k)
                calls.append(1)
                if len(calls) - 1 != target:
                    return out
                rows = [list(row) for row in self.unpack([out])[0].matrix]
                rows[i][j] += 1
                return packed(rows)

            monkeypatch.setattr(cw.Packing, "reflection_times", corrupt)
            with pytest.raises(LatticeStructureError):
                nc.enumerate_nc(cd, c)
            assert len(calls) > target

    @pytest.mark.parametrize("label", ["A3", "B3", "D4", "G2", "F4", "E6"])
    def test_products_on_the_wrong_side_are_caught(self, label, monkeypatch):
        # every element built as its rest times t_k, on the right, is the
        # inverse of its least word's product
        cd = cw.build_cartan(label)
        roots = cw.positive_roots(cd)

        def right(self, p, k):
            return self.pack(self.unpack([p])[0].times_reflection(roots[k], cw.coroot(cd, roots[k])))

        monkeypatch.setattr(cw.Packing, "reflection_times", right)
        with pytest.raises(LatticeStructureError):
            nc.enumerate_nc(cd)

    @pytest.mark.parametrize("rest", ["identity", "itself"])
    def test_rest_not_one_rank_lower_is_caught(self, rest, monkeypatch):
        # past rank 1, every step hands back the identity, built but too
        # low, or the element itself, not built yet
        real = nc.least_step

        def step(mask, perp):
            k, below = real(mask, perp)
            return (k, below and (0 if rest == "identity" else mask))

        monkeypatch.setattr(nc, "least_step", step)
        with pytest.raises(LatticeStructureError, match="least word leaves"):
            nc.enumerate_nc(cw.build_cartan("B3"))

    def test_duplicate_own_mask_is_caught(self, monkeypatch):
        # an lperp row of all roots makes keys that differ in that root alike
        cd = cw.build_cartan("D4")
        c = cw.coxeter_element(cd)
        lperp = list(nc.left_perp_masks(nc.perp_masks(cd, c)))
        lperp[0] = (1 << len(lperp)) - 1
        monkeypatch.setattr(nc, "left_perp_masks", lambda *args: lperp)
        with pytest.raises(LatticeStructureError, match="complement masks differ"):
            nc.enumerate_nc(cd, c)

    def test_hasse_translated_once(self):
        lat = _lattice("A3")
        assert lat.hasse is lat.hasse
        assert len(lat.hasse) == len(lat.covers[0]) == len(lat.covers[1])


PACKED_LABELS = (
    [f"A{n}" for n in range(1, 9)]
    + [f"{x}{n}" for x in "BC" for n in range(2, 9)]
    + [f"D{n}" for n in range(3, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)
# max_k |q_k|_1 times the largest root coordinate
FIELD_BOUNDS = {"A8": 4, "B8": 8, "C8": 10, "D8": 10, "E6": 18, "E7": 24, "E8": 36, "F4": 24, "G2": 15}


class TestPacking:
    @pytest.mark.parametrize("label", PACKED_LABELS)
    def test_steps_match_reflection_times(self, label):
        cd = cw.build_cartan(label)
        packing = cw.Packing(cd)
        roots = cw.positive_roots(cd)
        rng = random.Random(label)
        for _ in range(4):
            w = cw.identity_element(cd)
            p = packing.pack(w)
            assert p == packed(w.matrix)
            for k in rng.choices(range(len(roots)), k=2 * cd.rank):
                w = cw.reflection_element(cd, roots[k]) * w
                p = packing.reflection_times(p, k)
                assert p == packed(w.matrix)
                assert packing.unpack([p])[0].matrix == w.matrix

    @pytest.mark.parametrize("label", PACKED_LABELS)
    def test_field_bound(self, label):
        cd = cw.build_cartan(label)
        roots = cw.positive_roots(cd)
        radius = max(abs(x) for a in roots for x in a)
        bound = radius * max(sum(map(abs, cw.coroot(cd, a))) for a in roots)
        assert cw.Packing(cd).bound == bound < 128
        assert bound == FIELD_BOUNDS.get(label, bound)

    @pytest.mark.parametrize("label", ["A4", "B3", "D4", "G2"])
    def test_order_is_matrix_order(self, label):
        cd = cw.build_cartan(label)
        packing = cw.Packing(cd)
        elements = list(cw.weyl_group(cd))
        by_int = sorted(elements, key=packing.pack)
        assert by_int == sorted(elements, key=lambda w: w.matrix)
        assert len(set(map(packing.pack, elements))) == len(elements)

    def test_unpacked_rows_are_shared(self):
        lat = _lattice("D5")
        rows = [row for w in lat.elements for row in w.matrix]
        assert len({id(row) for row in rows}) == len(set(rows)) < len(rows)

    def test_a_c_outside_w_is_refused(self):
        # a GL2(Z) conjugate of c passes the length and order test and has
        # an integral Euler form, but an entry past the root coordinates
        a2 = cw.build_cartan("A2")
        c = cw.WeylElement(((3, -13), (1, -4)))
        assert cw.is_coxeter_element(a2, c)
        nc.perp_masks(a2, c)
        with pytest.raises(NotInPosetError, match="not in W"):
            nc.enumerate_nc(a2, c)

    def test_bound_checked_once_per_label(self, monkeypatch):
        # one Packing per label, shared by the lattice and the brute force,
        # and its bound is checked when it is built
        cd = cw.build_cartan("A3")
        c = cw.coxeter_element(cd)
        nc.enumerate_nc(cd, c)
        braid.enumerate_factorizations(cd, c)
        assert cw.packing(cd) is cw.packing(cw.build_cartan("A3"))
        cw.packing.cache_clear()
        monkeypatch.setattr(cw, "coroot", lambda cd, a: (128,) + (0,) * (cd.rank - 1))
        for build in (nc.enumerate_nc, braid.enumerate_factorizations):
            with pytest.raises(StructuralError, match="does not fit"):
                build(cd, c)


SMALL_FINITE = (
    [f"A{n}" for n in range(1, 7)]
    + [f"{x}{n}" for x in "BC" for n in range(2, 7)]
    + [f"D{n}" for n in range(3, 7)]
    + ["E6", "F4", "G2"]
)


class TestSizeCap:
    @pytest.mark.parametrize("label", SMALL_FINITE)
    def test_closed_form_counts_the_lattice(self, label):
        cd = cw.build_cartan(label)
        assert nc.nc_size(cd) == len(nc.enumerate_nc(cd))

    def test_cap_admits_d10_and_b10_but_not_a11(self):
        sizes = {label: nc.nc_size(cw.build_cartan(label)) for label in ("D10", "B10", "A11", "E8")}
        assert sizes == {"D10": 136136, "B10": 184756, "A11": 208012, "E8": 25080}
        assert sizes["B10"] <= nc.MAX_NC_SIZE < sizes["A11"]

    @pytest.mark.parametrize("label", ["A11", "A40", "B11", "D11"])
    def test_cap_before_any_work(self, label, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("work started before the size cap check")

        for name in ("perp_masks", "left_perp_masks"):
            monkeypatch.setattr(nc, name, forbidden)
        for name in ("coxeter_element", "packing"):
            monkeypatch.setattr(cw, name, forbidden)
        cd = cw.build_cartan(label)
        with pytest.raises(ResourceLimitError, match=f"NC\\({label}\\) has {nc.nc_size(cd)} elements"):
            nc.enumerate_nc(cd)


class TestKreweras:
    def test_identity_maps_to_coxeter(self):
        lat = _lattice("A3")
        assert nc.kreweras(lat, lat.identity()) == lat.coxeter

    def test_a2_example(self):
        lat = _lattice("A2")
        cd = lat.cartan
        assert nc.kreweras(lat, cw.simple_reflection(cd, 1)) == cw.simple_reflection(cd, 2)
        assert nc.co_kreweras(lat, cw.simple_reflection(cd, 2)) == cw.simple_reflection(cd, 1)

    def test_double_kreweras_is_conjugation(self):
        lat = _lattice("A3")
        c = lat.coxeter
        ci = c.inverse()
        for w in lat.elements:
            assert nc.kreweras(lat, nc.kreweras(lat, w)) == ci * w * c

    def test_mutually_inverse(self):
        lat = _lattice("A3")
        for w in lat.elements:
            assert nc.co_kreweras(lat, nc.kreweras(lat, w)) == w
            assert nc.kreweras(lat, nc.co_kreweras(lat, w)) == w

    @pytest.mark.parametrize("label", ["A2", "A3", "B2", "G2"])
    def test_rank_complement_and_order_reversal(self, label):
        lat = _lattice(label)
        n = lat.cartan.rank
        for u in lat.elements:
            assert lat.ranks[nc.kreweras(lat, u)] == n - lat.ranks[u]
            for v in lat.elements:
                if lat.leq(u, v):
                    assert lat.leq(nc.kreweras(lat, v), nc.kreweras(lat, u))

    def test_outside_element_rejected(self):
        lat = _lattice("A2")
        c = lat.coxeter
        with pytest.raises(NotInPosetError):
            nc.kreweras(lat, c * c)


def _cover_words(lat):
    """Reference: the least reflection word of each element over every
    chain of Hasse covers up from id.  The reflection of a cover i < j = i t
    is the one root of T(j) & T(i^-1 c); covers come rank by rank, so
    words[i] is final before it is extended, and index 0 is the identity."""
    roots = cw.positive_roots(lat.cartan, lat.truncation_bound or 0)
    words = {0: ()}
    for i, j in lat.hasse:
        k = lat.kreweras_index[i]
        if k is None or i not in words:
            continue
        word = words[i] + (roots[(lat.masks[j] & lat.masks[k]).bit_length() - 1],)
        if j not in words or word < words[j]:
            words[j] = word
    assert len(words) == len(lat)
    return [words[i] for i in range(len(lat))]


class TestLeastStep:
    def test_lone_bit_has_rest_zero(self):
        # t_k does not lie below t_k c, so perp[k] misses bit k
        assert nc.least_step(0b100, (0b110, 0b101, 0b011)) == (2, 0)

    def test_takes_the_least_known_bit(self):
        assert nc.least_step(0b1110, (0, 0b1001, 0b1011, 0)) == (1, 0b1000)
        assert nc.least_step(0b1100, (0, 0b1001, 0b1011, 0)) == (2, 0b1000)

    @pytest.mark.parametrize("label", ["A3", "B3", "D4", "G2", "E6"])
    @pytest.mark.parametrize("which", [0, 1])
    def test_lattice_perp_is_the_perp_masks(self, label, which):
        # the atoms' complements in the lattice against the Euler form
        cd = cw.build_cartan(label)
        c = _coxeters(label)[which]
        lat = nc.enumerate_nc(cd, c)
        comps = (lat.kreweras_index[lat.position[1 << k]] for k in range(len(lat.roots)))
        assert tuple(lat.masks[j] for j in comps) == nc.perp_masks(cd, c)

    @pytest.mark.parametrize("bound", [0, 3, 4096])
    def test_kronecker_steps(self, bound):
        # t_k is t_k times id, and c is t_k times t_k c for the least k
        # whose t_k c lies in the truncation
        lat = nc.nc_kronecker(bound)
        c = lat.coxeter
        refs = cw.reflections(lat.cartan, bound)
        assert lat.steps[0] is None
        assert [lat.steps[lat.index(t)] for t in refs] == [(k, 0) for k in range(len(refs))]
        k = min(k for k, t in enumerate(refs) if t * c in lat.ranks)
        assert lat.steps[lat.index(c)] == (k, lat.index(refs[k] * c))

    @pytest.mark.parametrize("label", ["A3", "D4", "E6", "KRONECKER"])
    def test_serializers_take_no_step(self, label, monkeypatch):
        # DOT labels and the JSON Coxeter word read the stored steps
        lat = nc.nc_kronecker(3) if label == "KRONECKER" else _lattice(label)

        def forbidden(*args):
            raise AssertionError("least_step called after the build")

        monkeypatch.setattr(nc, "least_step", forbidden)
        nc.hasse_dot(lat)
        nc.to_json(lat)
        assert len(lat._words) == len(lat)


def _scan_meet(lattice, u, v):
    """Reference: the last element in (rank, matrix) order whose mask lies
    inside T(u) & T(v), checked to lie above every other such element."""
    common = lattice.masks[lattice.index(u)] & lattice.masks[lattice.index(v)]
    lower = [i for i, m in enumerate(lattice.masks) if not m & ~common]
    top = lattice.masks[lower[-1]]
    if any(lattice.masks[i] & ~top for i in lower):
        raise LatticeStructureError("bound set has no unique extremum; poset is not a lattice")
    return lattice.elements[lower[-1]]


def _scan_join(lattice, u, v):
    """Reference: the first element in (rank, matrix) order whose mask
    contains T(u) | T(v), checked to lie below every other such element."""
    both = lattice.masks[lattice.index(u)] | lattice.masks[lattice.index(v)]
    upper = [i for i, m in enumerate(lattice.masks) if not both & ~m]
    bottom = lattice.masks[upper[0]]
    if any(bottom & ~lattice.masks[i] for i in upper):
        raise LatticeStructureError("bound set has no unique extremum; poset is not a lattice")
    return lattice.elements[upper[0]]


def _bowtie(kreweras_index=(5, 3, 4, 1, 2, 0)):
    """bottom < a, b < c, d < top: the atoms a and b have the two
    incomparable upper bounds c and d, so neither meet(c, d) nor
    join(a, b) exists.  The masks are injective and order the poset by
    subset; the default Kreweras table reverses the order."""
    cd = cw.build_cartan("A2")
    names = ("bottom", "a", "b", "c", "d", "top")
    masks = (0b0000, 0b0001, 0b0010, 0b0111, 0b1011, 0b1111)
    return nc.NCLattice(
        cartan=cd,
        coxeter=cw.coxeter_element(cd),
        elements=names,
        ranks=dict(zip(names, (0, 1, 1, 2, 2, 3))),
        masks=masks,
        complements=tuple(None if k is None else masks[k] for k in kreweras_index),
        steps=(None,) * len(names),  # no words
        covers=([], []),
    )


class TestMeetJoin:
    @pytest.mark.parametrize(
        "label,which",
        [
            pytest.param(label, which, id=label + ("-reversed" if which else ""))
            for label in ("A5", "B4", "D5", "F4")
            for which in (0, 1)
        ],
    )
    def test_lookup_matches_scan(self, label, which):
        lat = nc.enumerate_nc(cw.build_cartan(label), _coxeters(label)[which])
        for u in lat.elements:
            for v in lat.elements:
                assert nc.meet(lat, u, v) == _scan_meet(lat, u, v)
                assert nc.join(lat, u, v) == _scan_join(lat, u, v)

    def test_bowtie_has_no_meet_or_join(self):
        lat = _bowtie()
        assert nc.meet(lat, "a", "c") == "a" and nc.join(lat, "a", "c") == "c"
        assert nc.meet(lat, "c", "top") == "c" and nc.join(lat, "c", "d") == "top"
        assert nc.meet(lat, "a", "b") == "bottom" and nc.join(lat, "bottom", "d") == "d"
        with pytest.raises(LatticeStructureError, match="not a lattice"):
            nc.meet(lat, "c", "d")
        with pytest.raises(LatticeStructureError, match="not a lattice"):
            nc.join(lat, "a", "b")

    def test_missing_complement_raises(self):
        # a has no complement; nothing has bottom as its complement
        for kreweras_index, u, v in [
            ((5, None, 4, 1, 2, 0), "a", "c"),
            ((5, None, 4, 1, 2, 0), "top", "a"),
            ((5, 3, 4, 1, 2, None), "c", "d"),
        ]:
            lat = _bowtie(kreweras_index)
            with pytest.raises(LatticeStructureError, match="not a lattice"):
                nc.join(lat, u, v)

    def test_join_checks_the_bounds(self):
        # an identity Kreweras table sends the lookup to the meet, which
        # does not lie above two distinct atoms
        lat = _lattice("A2")
        steps = tuple(s and (s[0], lat.masks[s[1]]) for s in lat.steps)
        bad = nc.NCLattice(
            lat.cartan, lat.coxeter, lat.elements, lat.ranks, lat.masks,
            lat.masks, steps, lat.covers,
        )
        assert bad.kreweras_index == tuple(range(len(lat)))
        s1, s2 = lat.reflection_members()[:2]
        assert nc.join(bad, s1, s1) == s1
        with pytest.raises(LatticeStructureError, match="not a lattice"):
            nc.join(bad, s1, s2)

    def test_outsider_rejected(self):
        lat = _lattice("A2")
        c2 = lat.coxeter * lat.coxeter
        for op in (nc.meet, nc.join):
            with pytest.raises(NotInPosetError):
                op(lat, c2, lat.coxeter)
            with pytest.raises(NotInPosetError):
                op(lat, lat.coxeter, c2)

    def test_one_mask_table(self):
        lat = _lattice("B3")
        assert lat.position == {m: i for i, m in enumerate(lat.masks)}

    def test_idempotence_and_units(self):
        lat = _lattice("A3")
        for w in lat.elements:
            assert nc.meet(lat, w, w) == w
            assert nc.join(lat, w, lat.identity()) == w

    def test_a2_examples(self):
        lat = _lattice("A2")
        cd = lat.cartan
        s1 = cw.simple_reflection(cd, 1)
        s2 = cw.simple_reflection(cd, 2)
        s3 = cw.reflection_element(cd, (1, 1))
        assert nc.join(lat, s1, s2) == lat.coxeter
        assert nc.meet(lat, s1, s3) == lat.identity()

    @pytest.mark.parametrize("label", ["A2", "A3", "B2", "G2"])
    def test_complementation(self, label):
        lat = _lattice(label)
        for w in lat.elements:
            comp = nc.co_kreweras(lat, w)
            assert nc.meet(lat, w, comp) == lat.identity()
            assert nc.join(lat, w, comp) == lat.coxeter

    def test_every_interval_complemented(self):
        lat = _lattice("A3")
        for u in lat.elements:
            for v in lat.elements:
                if not lat.leq(u, v):
                    continue
                interval = [x for x in lat.elements if lat.leq(u, x) and lat.leq(x, v)]
                for x in interval:
                    assert any(
                        nc.meet(lat, x, y) == u and nc.join(lat, x, y) == v
                        for y in interval
                    )


class TestKronecker:
    def test_bound0(self):
        lat = nc.nc_kronecker(0)
        assert len(lat) == 4

    def test_bound1(self):
        assert len(nc.nc_kronecker(1)) == 6

    def test_reflections_below_coxeter(self):
        lat = nc.nc_kronecker(2)
        for r in lat.reflection_members():
            assert cw.abs_leq(lat.cartan, lat.identity(), r)
            assert (r.inverse() * lat.coxeter).det() == -1

    @pytest.mark.parametrize("bound", [0, 1, 2, 3])
    def test_height_two_incomparable_atoms(self, bound):
        lat = nc.nc_kronecker(bound)
        assert max(lat.ranks.values()) == 2
        refs = lat.reflection_members()
        for a in refs:
            for b in refs:
                if a != b:
                    assert not lat.leq(a, b)

    def test_meet_join_unsupported(self):
        lat = nc.nc_kronecker(0)
        r = lat.reflection_members()[0]
        with pytest.raises(UnsupportedLabelError):
            nc.meet(lat, r, r)
        with pytest.raises(UnsupportedLabelError):
            nc.join(lat, r, r)

    @pytest.mark.parametrize("bound", [0, 1, 2])
    def test_kreweras_escape(self, bound):
        lat = nc.nc_kronecker(bound)
        escaped = 0
        for w in lat.elements:
            out = w.inverse() * lat.coxeter
            if out in lat.elements:
                assert nc.kreweras(lat, w) == out
            else:
                escaped += 1
                with pytest.raises(LatticeStructureError):
                    nc.kreweras(lat, w)
        assert escaped > 0

    def test_masks(self):
        lat = nc.nc_kronecker(1)
        atoms = len(lat.reflection_members())
        assert lat.masks[0] == 0 and lat.masks[-1] == (1 << atoms) - 1
        assert sorted(lat.masks[1:-1]) == [1 << k for k in range(atoms)]
        assert lat.leq(lat.identity(), lat.coxeter)

    def test_negative_bound_rejected(self):
        with pytest.raises(OutOfRangeError):
            nc.nc_kronecker(-1)


class TestDotAndJson:
    def test_a1_dot(self):
        dot = nc.hasse_dot(_lattice("A1"))
        assert dot.count("[label=") == 2
        assert dot.count("->") == 1

    def test_a2_dot_counts(self):
        dot = nc.hasse_dot(_lattice("A2"))
        assert dot.count("[label=") == 5
        assert dot.count("->") == 6

    def test_kronecker_diamond(self):
        dot = nc.hasse_dot(nc.nc_kronecker(0))
        assert dot.count("[label=") == 4
        assert dot.count("->") == 4

    @pytest.mark.parametrize("label", ["A1", "A3", "B3", "G2", "D4", "KRONECKER"])
    def test_dot_labels(self, label):
        # one label per root, joined per word, against formatting each word's roots
        lat = nc.nc_kronecker(3) if label == "KRONECKER" else _lattice(label)

        def word_label(word):
            return "".join("s(" + ",".join(str(x) for x in root) + ")" for root in word) or "id"

        labels = [word_label(lat.canonical_word(w)) for w in lat.elements]
        expected = nc.ranked_dot("nc", labels, [lat.ranks[w] for w in lat.elements], lat.hasse)
        assert nc.hasse_dot(lat) == expected

    def test_json_bytes_of_list_form(self):
        lat = _lattice("B3")
        reference = dict(nc.to_json(lat))
        reference["coxeter_word"] = [list(a) for a in lat.canonical_word(lat.coxeter)]
        reference["elements"] = [
            {"id": i, "rank": lat.ranks[w], "matrix": [list(row) for row in w.matrix]}
            for i, w in enumerate(lat.elements)
        ]
        reference["hasse"] = [list(e) for e in lat.hasse]
        assert json.dumps(nc.to_json(lat), sort_keys=True) == json.dumps(reference, sort_keys=True)

    def test_dot_deterministic(self):
        assert nc.hasse_dot(_lattice("A3")) == nc.hasse_dot(_lattice("A3"))

    def test_json_shape(self):
        lat = _lattice("A2")
        data = nc.to_json(lat)
        assert data["type"] == "A2"
        assert len(data["elements"]) == 5
        assert len(data["hasse"]) == 6
        assert all(set(e) == {"id", "rank", "matrix"} for e in data["elements"])
        json.dumps(data)  # serializable

    @pytest.mark.parametrize(
        "label", "A1 A2 A3 A4 A5 B2 B3 B4 C3 C4 D4 D5 D6 E6 E7 F4 G2".split()
    )
    @pytest.mark.parametrize("reverse", [False, True])
    def test_coxeter_word_is_canonical(self, label, reverse):
        # the greedy step gives every element the least word over all
        # cover chains, and JSON's Coxeter word is that of c
        cd = cw.build_cartan(label)
        perm = tuple(range(cd.rank, 0, -1)) if reverse else None
        lat = nc.enumerate_nc(cd, cw.coxeter_element(cd, perm))
        words = _cover_words(lat)
        assert [lat.canonical_word(w) for w in lat.elements] == words
        assert nc.to_json(lat)["coxeter_word"] == words[lat.index(lat.coxeter)]

    @pytest.mark.parametrize("bound", range(8))
    def test_coxeter_word_is_canonical_kronecker(self, bound):
        # at bound 0 the complement t c of the first atom leaves the
        # truncation, so the step for c skips that atom
        lat = nc.nc_kronecker(bound)
        words = _cover_words(lat)
        assert [lat.canonical_word(w) for w in lat.elements] == words
        assert nc.to_json(lat)["coxeter_word"] == words[lat.index(lat.coxeter)]

    @pytest.mark.parametrize("label", ["A3", "D4", "KRONECKER"])
    def test_to_json_builds_no_other_words(self, label):
        # the Coxeter word takes rank(c) steps down to id, one memo entry each
        lat = nc.nc_kronecker(2) if label == "KRONECKER" else nc.enumerate_nc(cw.build_cartan(label))
        data = nc.to_json(lat)
        assert len(lat._words) <= lat.ranks[lat.coxeter] + 1
        assert len(data["coxeter_word"]) == lat.ranks[lat.coxeter]
        assert data["coxeter_word"] == _cover_words(lat)[lat.index(lat.coxeter)]
        assert data["coxeter_word"] is lat.canonical_word(lat.coxeter)  # the stored word, not a copy

    def test_canonical_words_shortest(self):
        lat = _lattice("A3")
        for w in lat.elements:
            assert len(lat.canonical_word(w)) == lat.ranks[w]

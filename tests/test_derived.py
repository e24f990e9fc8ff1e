import itertools
import json
import random
import signal

import pytest

from ncthick import cartan as cw
from ncthick import cli
from ncthick import derived as dv
from ncthick import repcat as rc
from ncthick.errors import DimensionMismatchError, ResourceLimitError, StructuralError, WindowError
from ncthick.tquiver import TranslationQuiver
from test_repcat import simple_rep  # the test-side simple representation


def ell(t, x):
    """Total morphism length into x, the sum of dim Hom(-, x): a hammock
    total of the opposite orientation, the reference for the column sums
    `verify_mesh` reads off the window's own table."""
    q = dv._in_window(t, x)
    return sum(dv._knit(_opposite(q))[0][x[1] - 1][1])


def _opposite(q):
    """The quiver with every arrow reversed."""
    return rc.dynkin_quiver(q.label, tuple((b, a) for a, b in q.arrows))


@pytest.fixture(scope="module")
def a2_window():
    return dv.build_zdelta("A2", (0, 8))


@pytest.fixture(scope="module")
def a3_window():
    return dv.build_zdelta("A3", (-2, 14))


class TestBuildZdelta:
    def test_a1_no_arrows(self):
        t = dv.build_zdelta("A1", (0, 3))
        assert len(t.vertices) == 4
        assert t.arrows == ()

    def test_a2_small_window(self):
        t = dv.build_zdelta("A2", (0, 1))
        assert len(t.vertices) == 4
        assert len(t.arrows) == 3

    def test_tau_drops_level(self):
        t = dv.build_zdelta("A3", (0, 4))
        for (n, x), (m, y) in t.tau.items():
            assert (m, y) == (n - 1, x)
        assert all((n, x) in t.tau for (n, x) in t.vertices if n > 0)

    def test_valuations_trivial(self):
        t = dv.build_zdelta("D4", (0, 2))
        assert all(val == (1, 1) for _, _, val in t.arrows)

    def test_empty_window_rejected(self):
        with pytest.raises(WindowError):
            dv.build_zdelta("A2", (3, 1))

    def test_window_cap(self):
        assert dv.MAX_WINDOW_LEVELS == 1024
        assert len(dv.build_zdelta("A1", (0, 1023)).vertices) == 1024
        with pytest.raises(ResourceLimitError, match="1025 levels"):
            dv.build_zdelta("A1", (0, 1024))

    def test_disconnected_arrows_refused_before_knitting(self, monkeypatch):
        # ((1, 2),) leaves node 3 of A3 unconnected; grading the slice of
        # such arrows never ended, so every route runs under an alarm
        def hang(signum, frame):
            raise TimeoutError("no answer within 5 s")

        monkeypatch.setattr(dv, "_knit", lambda *args: pytest.fail("knitted"))
        previous = signal.signal(signal.SIGALRM, hang)
        signal.alarm(5)
        try:
            for build in (
                lambda: dv.build_zdelta("A3", (0, 0), ((1, 2),)),
                lambda: rc.dynkin_quiver("A3", ((1, 2),)),
            ):
                with pytest.raises(DimensionMismatchError, match="not an orientation of the A3 tree"):
                    build()
            # the table takes no bare arrows, only a checked quiver
            with pytest.raises(TypeError):
                dv.hom_ext_table("A3", ((1, 2),))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    @pytest.mark.parametrize("window", [(0.5, 2), (0, 2.0), ("0", 2), (True, 3), (0, False)])
    def test_levels_must_be_ints(self, window, monkeypatch):
        # a float or str level raised a bare TypeError from range, and a
        # bool passed as the level 0 or 1; each is refused before the
        # quiver is built or anything is knitted
        monkeypatch.setattr(dv, "_knit", lambda *args: pytest.fail("knitted"))
        monkeypatch.setattr(rc, "dynkin_quiver", lambda *args: pytest.fail("quiver built"))
        with pytest.raises(WindowError, match=r"window levels must be ints, got \("):
            dv.build_zdelta("A3", window)


class TestKnit:
    def test_seed_value(self, a2_window):
        for v in [(0, 1), (1, 2), (2, 1)]:
            assert dv.knit_hammock(a2_window, v).value(v) == 1

    def test_a2_named_values(self, a2_window):
        q = rc.dynkin_quiver("A2")
        emb = dv.module_slice(q)
        h_s1 = dv.knit_hammock(a2_window, emb[(1, 0)])
        sigma_s2 = dv.suspension(a2_window, emb[(0, 1)])
        assert h_s1.value(sigma_s2) == 1  # Ext^1(S1, S2)
        h_p1 = dv.knit_hammock(a2_window, emb[(1, 1)])
        assert h_p1.value(sigma_s2) == 0  # no extensions from a projective

    def test_values_nonnegative_finite(self, a3_window):
        h = dv.knit_hammock(a3_window, (0, 1))
        assert all(v > 0 for v in h.values.values())
        assert len(h.values) < 40

    def test_auto_extend_matches_large_window(self):
        small = dv.build_zdelta("A3", (0, 1))
        large = dv.build_zdelta("A3", (0, 12))
        hs = dv.knit_hammock(small, (0, 1))
        hl = dv.knit_hammock(large, (0, 1))
        assert hs.values == hl.values
        assert hs.sigma_of_source == hl.sigma_of_source


def _mesh_order(t):
    """The window's vertices, each after its arrow sources and its translate."""
    deps = {z: [y for y, _ in t.arrows_into(z)] for z in t.vertices}
    for z, tz in t.tau.items():
        deps[z].append(tz)
    done, order = set(), []
    while len(order) < len(deps):
        for z in t.vertices:
            if z not in done and all(y in done for y in deps[z]):
                done.add(z)
                order.append(z)
    return order


def _windowed_hammock(t, order, source):
    """dim Hom(source, -) on the window by the mesh recursion, reading only
    t.arrows_into and t.tau: the values in the window and the suspension,
    or None if it lies above the window."""
    values, sigma = {}, None
    for z in order:
        u = sum(d * values.get(y, 0) for y, (d, _) in t.arrows_into(z))
        u += (z == source) - values.get(t.tau.get(z), 0)
        if u == -1 and sigma is None:
            sigma, u = z, 0
        assert u >= 0
        if u:
            values[z] = u
    return values, sigma


class TestIndependentMesh:
    @pytest.mark.parametrize("label,window", [("A5", (-4, 20)), ("D6", (0, 30)), ("E8", (0, 24))])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_knit_matches_windowed_recursion(self, label, window, seed):
        rng = random.Random(f"{label}/{seed}")
        tree = cw.tree_edges(label)
        arrows = tuple((b, a) if rng.random() < 0.5 else (a, b) for a, b in tree)
        t = dv.build_zdelta(label, window, arrows)
        hi, order = window[1], _mesh_order(t)
        for v in t.vertices:
            h = dv.knit_hammock(t, v)
            values, sigma = _windowed_hammock(t, order, v)
            assert {z: k for z, k in h.values.items() if z[0] <= hi} == values
            assert sigma == (h.sigma_of_source if h.sigma_of_source[0] <= hi else None)


class TestSuspension:
    def test_a1_sigma_is_tau_inverse(self):
        # the one-vertex tree gives a semisimple category: the only
        # morphisms are endomorphisms, so the shift must step one level up
        t = dv.build_zdelta("A1", (0, 4))
        for n in range(0, 3):
            assert dv.suspension(t, (n, 1)) == (n + 1, 1)
            h = dv.knit_hammock(t, (n, 1))
            assert h.values == {(n, 1): 1}

    def test_a2_periodicity(self, a2_window):
        # suspension commutes with the translate level shift
        assert dv.suspension(a2_window, (0, 1)) == (1, 2)
        assert dv.suspension(a2_window, (1, 1)) == (2, 2)
        assert dv.suspension(a2_window, (0, 2)) == (2, 1)

    def test_sigma_tau_commute(self, a3_window):
        for v in [(0, 1), (1, 2), (2, 3), (1, 1)]:
            n, x = v
            s = dv.suspension(a3_window, v)
            s_shift = dv.suspension(a3_window, (n + 1, x))
            assert s_shift == (s[0] + 1, s[1])

    def test_serre_is_tau_after_sigma(self, a2_window):
        q = rc.dynkin_quiver("A2")
        emb = dv.module_slice(q)
        ns1 = dv.serre(a2_window, emb[(1, 0)])
        assert ns1 == dv.suspension(a2_window, emb[(0, 1)])  # N S1 = Sigma S2
        h = dv.knit_hammock(a2_window, emb[(1, 0)])
        assert h.value(ns1) == 1


class TestVertexInWindow:
    # node 0 or below would read another node's row of the knitted table
    # from the end, and a node past the rank would fall off it
    @pytest.mark.parametrize("node", [0, -1, -3, 4])
    def test_knit_hammock_refuses_a_node_outside_the_rank(self, a3_window, node):
        with pytest.raises(WindowError, match=f"has no node {node} in A3"):
            dv.knit_hammock(a3_window, (1, node))

    @pytest.mark.parametrize("node", [0, -1, -3, 4])
    def test_suspension_refuses_a_node_outside_the_rank(self, a3_window, node):
        with pytest.raises(WindowError, match=f"has no node {node} in A3"):
            dv.suspension(a3_window, (1, node))

    @pytest.mark.parametrize("node", [0, -1, -3, 4])
    def test_serre_refuses_a_node_outside_the_rank(self, a3_window, node):
        with pytest.raises(WindowError, match=f"has no node {node} in A3"):
            dv.serre(a3_window, (1, node))

    def test_level_outside_the_window(self, a3_window):
        with pytest.raises(WindowError, match="outside window"):
            dv.knit_hammock(a3_window, (15, 1))
        assert dv.serre(a3_window, (14, 3)) == (16, 1)  # past the top: hammocks are not cut


class TestEll:
    def test_a1_all_one(self):
        t = dv.build_zdelta("A1", (0, 4))
        assert all(ell(t, (n, 1)) == 1 for n in range(0, 4))

    def test_a2_simples(self, a2_window):
        q = rc.dynkin_quiver("A2")
        emb = dv.module_slice(q)
        assert ell(a2_window, emb[(1, 0)]) == 2
        assert ell(a2_window, emb[(0, 1)]) == 2
        assert ell(a2_window, emb[(1, 1)]) == 2

    def test_tau_invariance(self, a3_window):
        for x in [1, 2, 3]:
            for n in range(1, 5):
                assert ell(a3_window, (n, x)) == ell(a3_window, (n - 1, x))


class TestMesh:
    def test_a2_example_vertex(self, a2_window):
        q = rc.dynkin_quiver("A2")
        emb = dv.module_slice(q)
        z = emb[(1, 0)]  # S1
        lz = ell(a2_window, z)
        arrows_in = a2_window.arrows_into(z)
        assert 2 * lz == 2 + sum(val[0] * ell(a2_window, y) for y, val in arrows_in) == 4

    def test_a1_degenerate(self):
        t = dv.build_zdelta("A1", (0, 3))
        report = dv.verify_mesh(t)
        assert report.ok
        assert len(report.checked) == 3

    @pytest.mark.parametrize("label,hi", [("A2", 4), ("A3", 5), ("D4", 4)])
    def test_zero_violations(self, label, hi):
        report = dv.verify_mesh(dv.build_zdelta(label, (0, hi)))
        assert report.ok
        assert len(report.checked) >= 4

    def test_one_knit_per_node_and_orientation(self, monkeypatch):
        # every hammock is a translate of a level-0 one, and ell is read off
        # the column sums of the same table, so no window is built besides
        # t and one table of the 8 nodes' hammocks is knitted, on t's own
        # orientation only
        t = dv.build_zdelta("E8", (0, 24))
        dv._knit.cache_clear()
        calls = []
        monkeypatch.setattr(dv, "build_zdelta", lambda *args: calls.append(args))
        assert dv.verify_mesh(t).ok
        dv.hammocks_json(t)
        assert calls == []
        assert dv._knit.cache_info().misses == 1
        assert dv._knit.cache_info().currsize == 1
        assert len(dv._knit(t.meta["quiver"])[0]) == 8


class TestDerivedHom:
    def test_a2_bridge_values(self):
        q = rc.dynkin_quiver("A2")
        p1 = rc.indecomposable_for_root(q, (1, 1))
        s1, s2 = simple_rep(q, 1), simple_rep(q, 2)
        assert dv.derived_hom(q, (p1, 0), (s1, 0)) == 1
        assert dv.derived_hom(q, (s1, 0), (s2, 1)) == 1
        assert dv.derived_hom(q, (s1, 0), (s2, 2)) == 0
        assert dv.derived_hom(q, (s1, 0), (s2, -1)) == 0

    def test_shift_invariance(self):
        q = rc.dynkin_quiver("A2")
        s1, s2 = simple_rep(q, 1), simple_rep(q, 2)
        assert dv.derived_hom(q, (s1, 3), (s2, 4)) == dv.derived_hom(q, (s1, 0), (s2, 1))

    @pytest.mark.parametrize("label", ["A2", "A3", "D4", "D5"])
    def test_matches_knitting(self, label):
        q = rc.dynkin_quiver(label)
        emb = dv.module_slice(q)
        window = dv.build_zdelta(label, (-2, 4 * q.rank))
        reps = {a: rc.indecomposable_for_root(q, a) for a in emb}
        for a, va in emb.items():
            h = dv.knit_hammock(window, va)
            for b, vb in emb.items():
                target = vb
                for shift in range(3):
                    assert h.value(target) == dv.derived_hom(
                        q, (reps[a], 0), (reps[b], shift)
                    )
                    target = dv.suspension(window, target)


def _tau_walk_slice(q):
    """Reference placement from the module category's own AR quiver: each
    root sits above the projective that ends its tau-orbit, one level per
    translate, on the tree grading where every arrow drops a level."""
    ar = rc.ar_quiver_module_category(q)
    grade = {q.vertices[0]: 0}
    frontier = [q.vertices[0]]
    nb = {}
    for s, t in q.arrows:
        nb.setdefault(s, []).append((t, -1))
        nb.setdefault(t, []).append((s, +1))
    while frontier:
        v = frontier.pop()
        for w, step in nb.get(v, ()):
            if w not in grade:
                grade[w] = grade[v] + step
                frontier.append(w)
    shift = -min(grade.values())
    proj_of = {rc.projective_dim(q, i): i for i in q.vertices}
    out = {}
    for root in ar.vertices:
        steps, cur = 0, root
        while cur in ar.tau:
            cur, steps = ar.tau[cur], steps + 1
        i = proj_of[cur]
        out[root] = (grade[i] + shift + steps, i)
    return out


def _orientations(label):
    tree = cw.tree_edges(label)
    for flips in itertools.product((False, True), repeat=len(tree)):
        yield tuple((b, a) if f else (a, b) for (a, b), f in zip(tree, flips))


class TestModuleSlice:
    @pytest.mark.parametrize("label", ["A2", "A3", "D4"])
    def test_embedding_respects_arrows_and_tau(self, label):
        q = rc.dynkin_quiver(label)
        ar = rc.ar_quiver_module_category(q)
        emb = dv.module_slice(q)
        lo = min(v[0] for v in emb.values()) - 1
        hi = max(v[0] for v in emb.values()) + 1
        window = dv.build_zdelta(label, (lo, hi))
        arrows = {(s, t) for s, t, _ in window.arrows}
        for s, t, _ in ar.arrows:
            assert (emb[s], emb[t]) in arrows
        for z, tz in ar.tau.items():
            assert window.tau[emb[z]] == emb[tz]

    def test_injective(self):
        emb = dv.module_slice(rc.dynkin_quiver("D4"))
        assert len(set(emb.values())) == 12

    @pytest.mark.parametrize("label", ["A2", "A3", "A4", "D4"])
    def test_matches_tau_walk_on_every_orientation(self, label):
        for arrows in _orientations(label):
            q = rc.dynkin_quiver(label, arrows)
            assert dv.module_slice(q) == _tau_walk_slice(q)

    @pytest.mark.parametrize("label", ["E6", "E7", "E8"])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_places_every_root_once(self, label, reverse):
        arrows = tuple((b, a) if reverse else (a, b) for a, b in cw.tree_edges(label))
        emb = dv.module_slice(rc.dynkin_quiver(label, arrows))
        assert tuple(emb) == cw.positive_roots(cw.build_cartan(label))
        assert len(set(emb.values())) == len(emb)

    def test_never_builds_the_module_category(self, monkeypatch):
        dv._slice.cache_clear()
        monkeypatch.setattr(rc, "ar_quiver_module_category", lambda q: pytest.fail("called"))
        monkeypatch.setattr(rc, "_category", lambda q: pytest.fail("called"))
        assert len(dv.module_slice(rc.dynkin_quiver("D5"))) == 20

    def test_hom_ext_table_matches_linear_algebra(self):
        q = rc.dynkin_quiver("D4", ((2, 1), (2, 3), (4, 2)))
        emb = dv.module_slice(q)
        reps = {a: rc.indecomposable_for_root(q, a) for a in emb}
        table = dv.hom_ext_table(q)
        assert len(table) == 144
        for (a, b), (h, e) in table.items():
            assert (h, e) == (rc.hom(q, reps[a], reps[b]).dim, rc.ext1_dim(q, reps[a], reps[b]))

    def test_hom_ext_table_is_a_new_plain_dict(self):
        q = rc.dynkin_quiver("A3", ((2, 1), (2, 3)))
        first = dv.hom_ext_table(q)
        second = dv.hom_ext_table(q)
        assert type(first) is dict and type(second) is dict
        assert first == second and first is not second
        first.clear()
        assert dv.hom_ext_table(q) == second and len(second) == 36

    def test_misplaced_root_raises(self, monkeypatch):
        # a knit that loses one value leaves a root unplaced or placed twice
        real = dv._knit.__wrapped__

        def lossy(q):
            hammocks, ell = real(q)
            (offsets, values, sigma, last), *rest = hammocks
            return ((offsets[1:], values[1:], sigma, last), *rest), ell

        monkeypatch.setattr(dv, "_knit", lossy)
        with pytest.raises(StructuralError, match="once"):
            dv._slice.__wrapped__(rc.dynkin_quiver("A3"))


class TestSerreDuality:
    def test_a3_window(self):
        t = dv.build_zdelta("A3", (0, 6))
        hammocks = {v: dv.knit_hammock(t, v) for v in t.vertices}
        for x in t.vertices:
            nx = dv.serre(t, x)
            for y in t.vertices:
                assert hammocks[x].value(y) == hammocks[y].value(nx)


class TestPathWitness:
    def test_a3(self):
        q = rc.dynkin_quiver("A3")
        emb = dv.module_slice(q)
        t = dv.build_zdelta("A3", (-2, 14))
        succ = {v: [w for w, _ in t.arrows_out_of(v)] for v in t.vertices}

        def reachable(src):
            seen, stack = {src}, [src]
            while stack:
                v = stack.pop()
                for w in succ.get(v, ()):
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            return seen

        for va in emb.values():
            reach = reachable(va)
            h = dv.knit_hammock(t, va)
            for z, value in h.values.items():
                if value:
                    assert z in reach


class TestOutputs:
    def test_dot_has_dashed_tau(self):
        dot = dv.window_dot(dv.build_zdelta("A2", (0, 2)))
        assert "style=dashed" in dot
        assert dot.count("->") > 0

    def test_hammocks_json(self):
        data = dv.hammocks_json(dv.build_zdelta("A2", (0, 2)))
        assert data["type"] == "A2"
        assert data["hammocks"]["0:1"]["values"]["0:1"] == 1


ADE_LABELS = ["A1", "A2", "A3", "A4", "A5", "A6", "D4", "D5", "D6", "E6", "E7", "E8"]


def _seeded_orientation(label, seed):
    """None (the default, low -> high) at seed 0, else seeded random arrows."""
    if seed == 0:
        return None
    rng = random.Random(f"{label}/{seed}")
    return tuple((b, a) if rng.random() < 0.5 else (a, b) for a, b in cw.tree_edges(label))


def _topological_order(q):
    """The nodes with every arrow's tail before its head (Kahn's algorithm,
    least node first)."""
    indegree = {v: sum(t == v for _, t in q.arrows) for v in q.vertices}
    order = []
    ready = [v for v in q.vertices if not indegree[v]]
    while ready:
        v = min(ready)
        ready.remove(v)
        order.append(v)
        for s, t in q.arrows:
            if s == v:
                indegree[t] -= 1
                if not indegree[t]:
                    ready.append(t)
    assert len(order) == len(q.vertices)
    return order


def _knit_reference(q, node):
    """One node's hammock knitted alone, on a dict keyed by vertex: its
    values, the suspension and the last level knitted."""
    order = _topological_order(q)
    into = {
        x: [(0, s) for s, t in q.arrows if t == x] + [(-1, t) for s, t in q.arrows if s == x]
        for x in order
    }
    values, sigma, n = {}, None, 0
    while True:
        slice_total = 0
        for x in order:
            z = (n, x)
            u = -values.get((n - 1, x), 0) + (z == (0, node))
            for d, y in into[x]:
                u += values.get((n + d, y), 0)
            if u == -1 and sigma is None:
                sigma, u = z, 0
            assert u >= 0
            if u:
                values[z] = u
            slice_total += u
        if sigma is not None and slice_total == 0 and n > sigma[0]:
            return values, sigma, n
        assert n < dv._HARD_CAP
        n += 1


ADE_UP_TO_RANK_8 = [f"A{n}" for n in range(1, 9)] + [f"D{n}" for n in range(4, 9)] + ["E6", "E7", "E8"]


class TestKnitTable:
    @pytest.mark.parametrize("label", ADE_UP_TO_RANK_8)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ell_matches_opposite_orientation(self, label, seed):
        # column sums of the forward table against the opposite
        # orientation's hammock totals, which share no sum with them
        t = dv.build_zdelta(label, (0, 0), _seeded_orientation(label, seed))
        sums = dv._knit(t.meta["quiver"])[1]
        assert sums == tuple(ell(t, v) for v in t.vertices)

    @pytest.mark.parametrize("label", ADE_UP_TO_RANK_8)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rows_match_dict_knit(self, label, seed):
        # the flat table read back as vertices: offsets strictly increasing,
        # every value positive, and all of them below the last level
        q = rc.dynkin_quiver(label, _seeded_orientation(label, seed))
        hammocks = dv._knit(q)[0]
        width = cw.parse_label(label)[1]
        assert len(hammocks) == width
        for node, (offsets, ks, sigma, last) in enumerate(hammocks, 1):
            values, *rest = _knit_reference(q, node)
            assert len(offsets) == len(ks) and list(offsets) == sorted(set(offsets))
            assert min(ks) > 0 and max(offsets) < last * width
            assert {(o // width, o % width + 1): k for o, k in zip(offsets, ks)} == values
            assert (sigma, last) == tuple(rest)

    @pytest.mark.parametrize("label", ADE_UP_TO_RANK_8)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_grades_drop_by_one_along_every_arrow(self, label, seed):
        # the grading that orders the knit and shifts the module slice:
        # one per node, the lowest 0, and every arrow's head one below its
        # tail, so decreasing grade puts each tail before its head
        q = rc.dynkin_quiver(label, _seeded_orientation(label, seed))
        grades = dv._grades(q)
        assert len(grades) == len(q.vertices) and min(grades) == 0
        assert all(grades[t - 1] == grades[s - 1] - 1 for s, t in q.arrows)
        order = sorted(q.vertices, key=lambda v: -grades[v - 1])
        assert all(order.index(s) < order.index(t) for s, t in q.arrows)

    def test_one_node_knits_its_orientation_once(self):
        dv._knit.cache_clear()
        t = dv.build_zdelta("D6", (0, 4), _seeded_orientation("D6", 1))
        for v in t.vertices:
            dv.knit_hammock(t, v)
            dv.suspension(t, v)
        assert dv._knit.cache_info().misses == 1
        ell(t, (0, 1))
        assert dv._knit.cache_info().misses == 2

    def test_cap_on_a64(self):
        # the hammock of A64's last node needs h = 65 levels, one past the
        # cap; every Dynkin hammock dies, so the cap is a resource limit,
        # and the message names it rather than a hammock that never dies
        with pytest.raises(
            ResourceLimitError, match="^hammock of node 64 of A64 needs more than the 64-level knitting cap$"
        ):
            dv._knit.__wrapped__(rc.dynkin_quiver("A64"))

    def test_cap_on_d65(self):
        # D_n's hammocks reach level n, so D65's first node is the one past the cap
        with pytest.raises(
            ResourceLimitError, match="^hammock of node 1 of D65 needs more than the 64-level knitting cap$"
        ):
            dv._knit.__wrapped__(rc.dynkin_quiver("D65"))


def _hammocks_json_reference(t):
    """The per-vertex route: every name and entry formatted as a fresh string."""
    q, window = t.meta["quiver"], t.meta["window"]
    name = lambda v: f"{v[0]}:{v[1]}"  # noqa: E731
    hams = {}
    knits = {x: _knit_reference(q, x) for x in q.vertices}
    for level, node in t.vertices:
        values, (s, x), _ = knits[node]
        hams[f"{level}:{node}"] = {
            "values": {f"{n + level}:{y}": k for (n, y), k in sorted(values.items())},
            "suspension": f"{s + level}:{x}",
        }
    return {
        "type": q.label,
        "orientation": [list(a) for a in q.arrows],
        "window": list(window),
        "vertices": [name(v) for v in t.vertices],
        "arrows": [[name(s), name(d), list(val)] for s, d, val in t.arrows],
        "tau": {name(z): name(tz) for z, tz in sorted(t.tau.items())},
        "hammocks": hams,
    }


def _verify_mesh_reference(t, ell=ell):
    """The per-vertex route: ell read at each vertex with a translate, at
    the translate and at each arrow source.  Returns (checked, violations)."""
    lo, _ = t.meta["window"]
    checked, violations = [], []
    for z in t.vertices:
        if z[0] == lo:
            continue
        checked.append(z)
        lz, ltz = ell(t, z), ell(t, t.tau[z])
        mesh = 2 + sum(val[0] * ell(t, y) for y, val in t.arrows_into(z))
        if not (2 * lz == lz + ltz == mesh):
            violations.append(f"at {z}: 2*{lz} vs {lz}+{ltz} vs {mesh}")
    return tuple(checked), tuple(violations)


def _dumps(data):
    return json.dumps(data, sort_keys=True)


class TestHammocksJsonTable:
    @pytest.mark.parametrize("label", ADE_LABELS)
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_reference(self, label, seed):
        rank = cw.parse_label(label)[1]
        t = dv.build_zdelta(label, (-2, 2 * rank), _seeded_orientation(label, seed))
        assert _dumps(dv.hammocks_json(t)) == _dumps(_hammocks_json_reference(t))

    @pytest.mark.parametrize(
        "label,window",
        [
            ("A1", (0, 0)),
            ("A1", (-3, -3)),
            ("D4", (5, 5)),
            ("E6", (0, 0)),
            ("A4", (-5, 7)),
            ("D5", (-40, -20)),
            ("E7", (-7, 3)),
            ("A1", (-512, 511)),
            ("E8", (0, 1023)),
        ],
    )
    def test_windows_match_reference(self, label, window):
        t = dv.build_zdelta(label, window, _seeded_orientation(label, 1))
        assert _dumps(dv.hammocks_json(t)) == _dumps(_hammocks_json_reference(t))

    @pytest.mark.parametrize("label", ["A1", "A4", "D6", "E8"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_knit_misses_per_request(self, label, seed):
        # as a request does it: window, mesh check, hammocks, encoding
        dv._knit.cache_clear()
        t = dv.build_zdelta(label, (0, 24), _seeded_orientation(label, seed))
        assert dv.verify_mesh(t).ok
        _dumps(dv.hammocks_json(t))
        assert dv._knit.cache_info().misses == 1

    def test_keys_share_the_name_table(self):
        label, (lo, hi) = "E8", (0, 24)
        t = dv.build_zdelta(label, (lo, hi), _seeded_orientation(label, 1))
        data = dv.hammocks_json(t)
        keys = list(data["hammocks"])
        for ham in data["hammocks"].values():
            keys.extend(ham["values"])
            keys.append(ham["suspension"])
        top = hi + max(last for *_, last in dv._knit(t.meta["quiver"])[0])
        table = (top - lo + 1) * 8
        assert len(keys) > 10 * table
        assert len({id(k) for k in keys}) <= table

    def test_single_value_hammocks(self):
        # A1 hammocks hold one entry: the template must not split its name
        data = dv.hammocks_json(dv.build_zdelta("A1", (-10, 12)))
        assert data["hammocks"]["-10:1"] == {"values": {"-10:1": 1}, "suspension": "-9:1"}
        assert all(len(h["values"]) == 1 for h in data["hammocks"].values())


class TestVerifyMeshTable:
    @pytest.mark.parametrize("label", ADE_LABELS)
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("levels", [None, (2, 5), (-10, 3)])
    def test_matches_per_vertex_ell(self, label, seed, levels):
        # levels: the window's, lo..hi; None is the default (-2, 12)
        t = dv.build_zdelta(label, levels or (-2, 12), _seeded_orientation(label, seed))
        report = dv.verify_mesh(t)
        assert (report.checked, report.violations) == _verify_mesh_reference(t)
        assert report.ok

    @staticmethod
    def _broken(t, i, arrow):
        """t with its i-th arrow replaced by `arrow` (None drops it), meta kept."""
        arrows = t.arrows[:i] + ((arrow,) if arrow else ()) + t.arrows[i + 1:]
        return TranslationQuiver(vertices=t.vertices, arrows=arrows, tau=t.tau, meta=t.meta)

    @pytest.mark.parametrize("i", [1, 7, 100, 229, 342])
    def test_dropped_arrow_is_caught_at_its_head(self, i):
        # the quiver in the meta still has every arrow, so only a check that
        # reads the window's own arrows can see the gap
        t = dv.build_zdelta("E8", (0, 24), _seeded_orientation("E8", 1))
        assert len(t.arrows) == 343 and dv.verify_mesh(t).ok
        head = t.arrows[i][1]
        assert head in t.tau
        report = dv.verify_mesh(self._broken(t, i, None))
        assert report.checked == dv.verify_mesh(t).checked
        assert len(report.violations) == 1
        assert report.violations[0].startswith(f"at {head}: ")

    @pytest.mark.parametrize("i", [1, 7, 100, 229, 342])
    def test_doubled_valuation_is_caught(self, i):
        t = dv.build_zdelta("E8", (0, 24), _seeded_orientation("E8", 1))
        s, d, (a, b) = t.arrows[i]
        assert d in t.tau
        report = dv.verify_mesh(self._broken(t, i, (s, d, (2 * a, 2 * b))))
        assert len(report.violations) == 1
        assert report.violations[0].startswith(f"at {d}: ")

    def test_one_knit_per_node(self, monkeypatch):
        real, calls = dv._knit, []

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(dv, "_knit", counted)
        t = dv.build_zdelta("E8", (0, 24))
        assert dv.verify_mesh(t).ok
        assert calls == [(t.meta["quiver"],)]

    @pytest.mark.parametrize("label,node", [("D5", 3), ("E7", 4), ("A3", 1)])
    def test_off_by_one_ell_is_caught(self, label, node, monkeypatch, capsys):
        # one node's ell in the forward table off by one, after the table
        # is already cached: the report must still bite, exactly where the
        # per-vertex route with the same +1 does
        real = dv._knit
        forward = rc.dynkin_quiver(label)

        def off(q):
            hammocks, ell = real(q)
            if q == forward:
                ell = tuple(v + (x == node) for x, v in enumerate(ell, 1))
            return hammocks, ell

        t = dv.build_zdelta(label, (-2, 2 * cw.parse_label(label)[1]))
        assert dv.verify_mesh(t).ok
        monkeypatch.setattr(dv, "_knit", off)
        report = dv.verify_mesh(t)
        assert report.violations
        off_ell = lambda t, z: ell(t, z) + (z[1] == node)  # noqa: E731
        assert (report.checked, report.violations) == _verify_mesh_reference(t, ell=off_ell)
        assert cli.run(["arq", "knit", "--type", label, "--check-mesh"]) == 1
        out = capsys.readouterr()
        assert out.err.count("mesh-violation: ") == len(report.violations)
        assert f"{len(report.violations)} violations" in out.out

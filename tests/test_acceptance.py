"""Acceptance criteria, one test per criterion, exact tolerances.

Each test prints a single pass line on success (visible with -s or -rA);
pytest itself reports failures.  The independent oracles live inside the
checks: whole-group BFS filters for noncrossing counts, brute-force tuple
enumeration for factorizations, rational linear algebra for hammocks and
wide subcategories.
"""

import itertools
import time

import pytest

from ncthick import braid
from ncthick import cartan as cw
from ncthick import cli
from ncthick import derived as dv
from ncthick import noncrossing as nc
from ncthick import repcat as rc
from ncthick import thicklat as tl


def _passed(k, msg):
    print(f"criterion {k:02d}: PASS - {msg}")


def test_criterion_01_nc_counts_match_whole_group_filter():
    expected = {"A2": 5, "A3": 14, "B2": 6, "G2": 8}
    for label, count in expected.items():
        cd = cw.build_cartan(label)
        lat = nc.enumerate_nc(cd)
        assert len(lat) == count
        # oracle: filter the full group (order <= 24) through BFS lengths
        group = cw.weyl_group(cd)
        assert len(group) <= 24
        c = lat.coxeter
        oracle = {
            w
            for w in group
            if cw.absolute_length_bfs(cd, w)
            + cw.absolute_length_bfs(cd, w.inverse() * c)
            == cd.rank
        }
        assert set(lat.elements) == oracle
    _passed(1, "NC counts 5/14/6/8 equal the whole-group filter")


def test_criterion_02_nc_e6_prefix_growth(monkeypatch):
    # prefix growth must not materialize W(E6)
    def forbidden(*args, **kwargs):
        raise AssertionError("enumerate_nc called weyl_group")

    monkeypatch.setattr(cw, "weyl_group", forbidden)
    cd = cw.build_cartan("E6")
    start = time.monotonic()
    count = len(nc.enumerate_nc(cd))
    elapsed = time.monotonic() - start
    assert count == 833
    assert elapsed < 60.0
    _passed(2, f"NC(E6) = {count} in {elapsed:.1f}s")


def test_criterion_03_hurwitz_transitivity():
    expected = {"A2": 3, "A3": 16}
    for label in ("A2", "A3", "B2", "G2"):
        cd = cw.build_cartan(label)
        c = cw.coxeter_element(cd)
        start = braid.Factorization(
            cd, tuple(cw.simple_reflection(cd, i) for i in range(1, cd.rank + 1)), c
        )
        orbit = braid.hurwitz_orbit(start)
        facts = braid.enumerate_factorizations(cd)
        assert {f.key() for f in orbit} == {f.key() for f in facts}
        if label in expected:
            assert len(facts) == expected[label]
    _passed(3, "single Hurwitz orbit on A2(3) A3(16) B2 G2")


def test_criterion_04_kreweras_duality_a3():
    cd = cw.build_cartan("A3")
    lat = nc.enumerate_nc(cd)
    assert len(lat) == 14
    for w in lat.elements:
        k = nc.kreweras(lat, w)
        ck = nc.co_kreweras(lat, w)
        assert nc.co_kreweras(lat, k) == w and nc.kreweras(lat, ck) == w
        assert lat.ranks[k] == 3 - lat.ranks[w]
        assert nc.meet(lat, w, ck) == lat.identity()
        assert nc.join(lat, w, ck) == lat.coxeter
        for v in lat.elements:
            if lat.leq(w, v):
                assert lat.leq(nc.kreweras(lat, v), k)
    _passed(4, "order-reversing complement pair with meet=id, join=c on all 14 elements")


def test_criterion_05_thick_lattice_bijection():
    for label, count in (("A2", 5), ("A3", 14)):
        cd = cw.build_cartan(label)
        lat = tl.thick_lattice(cd)
        oracle = tl.wide_subcategory_oracle(rc.dynkin_quiver(label))
        assert len(lat) == oracle.count == count
        for w in lat.elements:
            prod = cw.identity_element(cd)
            for alpha in tl.thick_from_nc(cd, w, lat.coxeter).generators:
                prod = prod * cw.reflection_element(cd, alpha)
            assert prod == w
    _passed(5, "thick counts 5/14 = wide oracle; cox o thick_from_nc = id")


def test_criterion_06_exceptional_sequence_correspondence():
    cd = cw.build_cartan("A3")
    q = rc.dynkin_quiver("A3")
    facts = braid.enumerate_factorizations(cd)
    assert len(facts) == 16
    for f in facts:
        seq = [rc.indecomposable_for_root(q, a) for a in f.roots()]
        assert rc.is_exceptional_sequence(q, seq)
    inds = rc.indecomposables(q)
    brute = sum(
        1
        for trip in itertools.product(inds, repeat=3)
        if rc.is_exceptional_sequence(q, trip)
    )
    assert brute == 16
    _passed(6, "all 16 factorizations exceptional; brute force over 216 triples = 16")


def test_criterion_07_mesh_identities():
    for label, hi in (("A2", 4), ("A3", 5), ("D4", 4)):
        report = dv.verify_mesh(dv.build_zdelta(label, (0, hi)))
        assert len(report.checked) >= 4
        assert report.violations == ()
    _passed(7, "2l(Z) = l(Z)+l(tauZ) = 2+sum d l(Y) on A2 A3 D4 windows")


def test_criterion_08_hammock_oracle_agreement():
    q = rc.dynkin_quiver("A3")
    emb = dv.module_slice(q)
    reps = {a: rc.indecomposable_for_root(q, a) for a in emb}
    pairs = 0
    for a, va in emb.items():
        for b, vb in emb.items():
            # Hom at equal shift, Ext^1 at shift one, nothing further
            want = (rc.hom_dim(q, reps[a], reps[b]), rc.ext1_dim(q, reps[a], reps[b]), 0, 0)
            target = vb
            for shift in range(4):  # two suspension periods
                assert dv.hom(q, va, target) == want[shift]
                target = dv.suspension(q, target)
                pairs += 1
    assert pairs >= 144
    _passed(8, f"knitting equals linear algebra on {pairs} vertex pairs")


def test_criterion_09_serre_duality():
    q = rc.dynkin_quiver("A3")
    band = [(n, x) for n in range(8) for x in q.vertices]  # 2h levels
    pairs = 0
    for x in band:
        sx = dv.serre(q, x)
        for y in band:
            assert dv.hom(q, x, y) == dv.hom(q, y, sx)
            pairs += 1
    _passed(9, f"dim Hom(X,Y) = dim Hom(Y,SX) on {pairs} pairs with S = tau o Sigma")


def test_criterion_10_valuation_symmetry():
    for label in ("A3", "D4"):
        ar = rc.ar_quiver_module_category(rc.dynkin_quiver(label))
        arrows = {(s, t): val for s, t, val in ar.arrows}
        checked = 0
        for (x, y), (d, _) in arrows.items():
            if y in ar.tau:
                ty = ar.tau[y]
                assert (ty, x) in arrows
                assert arrows[(ty, x)][1] == d
                checked += 1
        assert checked > 0
    _passed(10, "d'(tauY,X) = d(X,Y) on every arrow of the A3 and D4 AR quivers")


def test_criterion_11_kronecker_lattice_shape():
    lat = tl.kronecker_lattice(2, 3)
    assert len(lat) <= 20
    # bottom, the nc atoms, the tube sets, top
    atoms = len(lat.nc_part) - 2
    refs, tubes = lat.elements[1 : 1 + atoms], lat.elements[1 + atoms : -1]
    bottom, top = lat.elements[0], lat.elements[-1]
    # nc part: height 2 with pairwise-incomparable atoms
    assert len(refs) == 6
    for a in refs:
        for b in refs:
            if a != b:
                assert not lat.leq(a, b) and not lat.leq(b, a)
    # tube part: Boolean on 3 points, each tube set its set of points
    points = {t: frozenset(p for n, p in enumerate(lat.tube_points) if t >> n & 1) for t in tubes}
    named = {s: t for t, s in points.items()} | {frozenset(): bottom}
    assert len(tubes) == len(named) - 1 == 7
    for a in tubes:
        for b in tubes:
            assert lat.meet(a, b) == named[points[a] & points[b]]
            assert lat.join(a, b) == named[points[a] | points[b]]
    # lattice axioms: every pair has a unique meet and join
    for a in lat.elements:
        for b in lat.elements:
            m, j = lat.meet(a, b), lat.join(a, b)
            assert lat.leq(m, a) and lat.leq(m, b)
            assert lat.leq(a, j) and lat.leq(b, j)
    # cross part
    for a in refs:
        for b in tubes:
            assert lat.meet(a, b) == bottom
            assert lat.join(a, b) == top
    _passed(11, f"glued shape verified exhaustively on {len(lat)} elements")


def test_criterion_12_cli_verify_all(capsys):
    start = time.monotonic()
    code = cli.run(["verify", "--suite", "all"])
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in out
    assert elapsed < 300.0
    lines = [ln for ln in out.splitlines() if ln.startswith("PASS")]
    assert len(lines) >= 30
    with capsys.disabled():
        _passed(12, f"verify --suite all: {len(lines)} checks green in {elapsed:.1f}s")


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))

"""Invariant suites behind the CLI verify command.

Every fast path is checked against an independent route: fixed-space
absolute lengths against Cayley-graph BFS, perp-grown noncrossing
posets against prefix-product growth and whole-group filters, knitted
hammocks against the linear-algebra oracle, the thick lattice against
the wide-subcategory closure.  Each check returns a result record
instead of raising so that the CLI can print one line per invariant.
"""

from __future__ import annotations

import itertools
import random

from . import braid, cartan, derived, noncrossing, repcat, thicklat
from .errors import LatticeStructureError, UnsupportedLabelError


class CheckResult:
    __slots__ = ("suite", "name", "ok", "detail")

    def __init__(self, suite: str, name: str, ok: bool, detail: str = ""):
        self.suite, self.name, self.ok, self.detail = suite, name, ok, detail


def _check(suite: str, name: str, fn) -> CheckResult:
    try:
        detail = fn()
        return CheckResult(suite, name, True, detail or "")
    except Exception as exc:  # noqa: BLE001 - reported, not swallowed
        return CheckResult(suite, name, False, f"{type(exc).__name__}: {exc}")


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise AssertionError(msg)


# ---------------------------------------------------------------------------
# nc suite: Weyl arithmetic and the noncrossing lattice


def _whole_group_nc_count(label: str) -> int:
    """Filter the full group through BFS lengths; no rank formula involved."""
    cd = cartan.build_cartan(label)
    c = cartan.coxeter_element(cd)
    table = cartan._bfs_length_table(cd)
    n = cd.rank
    return sum(
        1 for w in table if table[w] + table[w.inverse() * c] == n
    )


def _chk_form_invariance():
    rng = random.Random(20240801)
    for label in ("A2", "A3", "B2", "G2"):
        cd = cartan.build_cartan(label)
        ws = list(cartan.reflections(cd)) + [
            cartan.coxeter_element(cd),
            cartan.coxeter_element(cd) * cartan.simple_reflection(cd, 1),
        ]
        for _ in range(20):
            xi = tuple(rng.randint(-4, 4) for _ in range(cd.rank))
            eta = tuple(rng.randint(-4, 4) for _ in range(cd.rank))
            for w in ws:
                _expect(
                    cartan.form(cd, w.apply(xi), w.apply(eta)) == cartan.form(cd, xi, eta),
                    f"form not invariant under {w} in {label}",
                )
    return "A2 A3 B2 G2, 20 random vector pairs each"


def _chk_reflection_involutive():
    for label in ("A3", "B2", "G2", "D4"):
        cd = cartan.build_cartan(label)
        for alpha in cartan.positive_roots(cd):
            s = cartan.reflection_element(cd, alpha)
            _expect((s * s).is_identity(), f"reflection at {alpha} not involutive in {label}")
    return "all positive roots of A3 B2 G2 D4"


def _chk_length_oracle():
    for label in ("A2", "A3", "B2", "G2"):
        cd = cartan.build_cartan(label)
        for w in cartan.weyl_group(cd):
            _expect(
                cartan.absolute_length(cd, w) == cartan.absolute_length_bfs(cd, w),
                f"fixed-space length disagrees with BFS in {label}",
            )
    return "every element of W(A2) W(A3) W(B2) W(G2)"


def _chk_prefix_property():
    for label in ("A2", "A3"):
        cd = cartan.build_cartan(label)
        c = cartan.coxeter_element(cd)
        for f in braid.enumerate_factorizations(cd):
            prefix = cartan.identity_element(cd)
            for r, x in enumerate(f.parts, start=1):
                _expect(cartan.is_reflection(cd, x), f"a factorization part is not a reflection in {label}")
                prefix = prefix * x
                _expect(
                    cartan.absolute_length(cd, prefix) == r,
                    f"prefix of length {r} has wrong absolute length in {label}",
                )
                _expect(cartan.abs_leq(cd, prefix, c), f"prefix not below c in {label}")
    return "all factorization parts and prefixes in A2 and A3"


def _chk_conjugation_invariance():
    for label in ("A2", "B2"):
        cd = cartan.build_cartan(label)
        group = cartan.weyl_group(cd)
        for g in group:
            gi = g.inverse()
            for w in group:
                _expect(
                    cartan.absolute_length(cd, g * w * gi)
                    == cartan.absolute_length(cd, w),
                    f"length not conjugation invariant in {label}",
                )
    return "all pairs in W(A2) and W(B2)"


def _chk_root_counts():
    for n in range(1, 5):
        cd = cartan.build_cartan(f"A{n}")
        _expect(
            len(cartan.real_roots(cd)) == n * (n + 1),
            f"|roots(A{n})| != n(n+1)",
        )
    return "A1..A4"


def _chk_nc_counts():
    expected = {"A2": 5, "A3": 14, "B2": 6, "G2": 8}
    for label, count in expected.items():
        cd = cartan.build_cartan(label)
        got = len(noncrossing.enumerate_nc(cd))
        _expect(got == count, f"NC({label}) = {got}, expected {count}")
    return "A2=5 A3=14 B2=6 G2=8"


def _chk_nc_whole_group():
    for label in ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "F4", "G2"):
        cd = cartan.build_cartan(label)
        fast = len(noncrossing.enumerate_nc(cd))
        slow = _whole_group_nc_count(label)
        _expect(fast == slow, f"NC({label}): prefix growth {fast} vs whole group {slow}")
    return "all finite labels of rank <= 4"


def _chk_kreweras_duality():
    for label in ("A2", "A3", "B2", "G2"):
        cd = cartan.build_cartan(label)
        lat = noncrossing.enumerate_nc(cd)
        n = cd.rank
        image = set()
        for w in lat.elements:
            k = noncrossing.kreweras(lat, w)
            image.add(k)
            _expect(lat.ranks[k] == n - lat.ranks[w], f"rank not complementary in {label}")
            _expect(
                noncrossing.co_kreweras(lat, k) == w,
                f"co_kreweras does not invert kreweras in {label}",
            )
        _expect(len(image) == len(lat), f"kreweras not bijective in {label}")
        for u in lat.elements:
            for v in lat.elements:
                if lat.leq(u, v):
                    _expect(
                        lat.leq(noncrossing.kreweras(lat, v), noncrossing.kreweras(lat, u)),
                        f"kreweras not order reversing in {label}",
                    )
    return "bijective, rank-complementary, order-reversing on A2 A3 B2 G2"


def _chk_complementation():
    for label in ("A2", "A3", "B2", "G2"):
        cd = cartan.build_cartan(label)
        lat = noncrossing.enumerate_nc(cd)
        for w in lat.elements:
            comp = noncrossing.co_kreweras(lat, w)
            _expect(
                noncrossing.meet(lat, w, comp) == lat.identity(),
                f"meet with complement not bottom in {label}",
            )
            _expect(
                noncrossing.join(lat, w, comp) == lat.coxeter,
                f"join with complement not top in {label}",
            )
    return "w meet cw^-1 = id, w join cw^-1 = c on A2 A3 B2 G2"


def _chk_interval_complements():
    cd = cartan.build_cartan("A3")
    lat = noncrossing.enumerate_nc(cd)
    for u in lat.elements:
        for v in lat.elements:
            if not lat.leq(u, v):
                continue
            interval = [x for x in lat.elements if lat.leq(u, x) and lat.leq(x, v)]
            for x in interval:
                found = any(
                    noncrossing.meet(lat, x, y) == u and noncrossing.join(lat, x, y) == v
                    for y in interval
                )
                _expect(found, f"no relative complement for {x} in [{u},{v}]")
    return "every interval of NC(A3) is complemented"


def _chk_kronecker_poset():
    for bound in range(4):
        lat = noncrossing.nc_kronecker(bound)
        _expect(len(lat) == 2 + 2 * (bound + 1), f"wrong size at bound {bound}")
        refs = lat.reflection_members()
        for r in refs:
            _expect(
                cartan.abs_leq(lat.cartan, lat.identity(), r), "id not below a reflection"
            )
            _expect(
                (r.inverse() * lat.coxeter).det() == -1,
                "complement of a reflection is not a reflection",
            )
        for a in refs:
            for b in refs:
                if a != b:
                    _expect(not lat.leq(a, b), "atoms must be incomparable")
        _expect(max(lat.ranks.values()) == 2, "height must be 2")
    return "bounds 0..3: size, det test, incomparable atoms, height 2"


def _fixed_space_leq(cd, elements):
    """u <= v iff l(u) + l(u^-1 v) = l(v), every length a fixed-space rank."""
    lengths = [cartan.absolute_length(cd, w) for w in elements]
    inverses = [w.inverse() for w in elements]

    def leq(i: int, j: int) -> bool:
        return lengths[i] <= lengths[j] and (
            lengths[i] + cartan.absolute_length(cd, inverses[i] * elements[j]) == lengths[j]
        )

    return leq, lengths


def _chk_mask_oracle():
    for label in ("A3", "B3", "D4", "G2"):
        cd = cartan.build_cartan(label)
        reverse = tuple(range(cd.rank, 0, -1))
        for c in (cartan.coxeter_element(cd), cartan.coxeter_element(cd, reverse)):
            lat = noncrossing.enumerate_nc(cd, c)
            leq, lengths = _fixed_space_leq(cd, lat.elements)
            n = len(lat)
            table = [[leq(i, j) for j in range(n)] for i in range(n)]
            below = [frozenset(k for k in range(n) if table[k][j]) for j in range(n)]
            above = [frozenset(k for k in range(n) if table[j][k]) for j in range(n)]
            for i, u in enumerate(lat.elements):
                for j, v in enumerate(lat.elements):
                    _expect(
                        lat.leq(u, v) == table[i][j], f"mask order differs from abs_leq in {label}"
                    )
                    lower, upper = below[i] & below[j], above[i] & above[j]
                    greatest = [lat.elements[g] for g in lower if lower <= below[g]]
                    least = [lat.elements[g] for g in upper if upper <= above[g]]
                    _expect(
                        greatest == [noncrossing.meet(lat, u, v)],
                        f"meet is not the greatest abs_leq lower bound in {label}",
                    )
                    _expect(
                        least == [noncrossing.join(lat, u, v)],
                        f"join is not the least abs_leq upper bound in {label}",
                    )
                _expect(
                    noncrossing.kreweras(lat, noncrossing.co_kreweras(lat, u)) == u,
                    f"kreweras o co_kreweras != id in {label}",
                )
                word = lat.canonical_word(u)
                _expect(
                    len(word) == lengths[i] and _product(cd, word) == u,
                    f"canonical word is not a reduced reflection word in {label}",
                )
            _expect(len(set(lat.masks)) == len(lat), f"masks not injective in {label}")
    for label in ("A4", "B4", "F4", "D5"):
        lat = noncrossing.enumerate_nc(cartan.build_cartan(label))
        leq, lengths = _fixed_space_leq(lat.cartan, lat.elements)
        covers = tuple(
            (i, j)
            for i in range(len(lat))
            for j in range(len(lat))
            if lengths[j] == lengths[i] + 1 and leq(i, j)
        )
        _expect(lat.hasse == covers, f"mask Hasse diagram differs from abs_leq covers in {label}")
        _expect(len(set(lat.masks)) == len(lat), f"masks not injective in {label}")
    lat = noncrossing.nc_kronecker(0)
    r = lat.reflection_members()[0]
    for op in (noncrossing.meet, noncrossing.join):
        try:
            op(lat, r, r)
        except UnsupportedLabelError:
            pass
        else:
            raise AssertionError(f"{op.__name__} accepted the truncated Kronecker poset")
    escaped = 0
    for w in lat.elements:
        try:
            noncrossing.kreweras(lat, w)
        except LatticeStructureError:
            escaped += 1
    _expect(escaped > 0, "no Kreweras complement escapes the truncated Kronecker poset")
    return (
        "leq = abs_leq, meet and join = unique abs_leq extrema, canonical words "
        "reduced by matrix products on A3 B3 D4 G2 (two Coxeter elements), "
        "hasse = abs_leq covers on A4 B4 F4 D5, injective masks, Kronecker errors"
    )


def _prefix_growth(cd, c):
    """The matrix route to [id, c]: extend each w by every reflection t
    and keep w t when the fixed-space length of t w^-1 c drops by one.
    Returns the ranks and the complements w^-1 c, keyed by element."""
    n = cd.rank
    ident = cartan.identity_element(cd)
    ranks = {ident: 0}
    rems = {ident: c}
    frontier = [ident]
    for r in range(n):
        nxt = []
        for w in frontier:
            for t in cartan.reflections(cd):
                w2 = w * t
                if w2 in ranks:
                    continue
                rem2 = t * rems[w]
                if cartan.absolute_length(cd, rem2) == n - r - 1:
                    ranks[w2] = r + 1
                    rems[w2] = rem2
                    nxt.append(w2)
        frontier = nxt
    return ranks, rems


def _chk_growth_oracle():
    labels = ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "D4", "F4", "G2")
    for label in labels:
        cd = cartan.build_cartan(label)
        reverse = tuple(range(cd.rank, 0, -1))
        for c in (cartan.coxeter_element(cd), cartan.coxeter_element(cd, reverse)):
            lat = noncrossing.enumerate_nc(cd, c)
            ranks, rems = _prefix_growth(cd, c)
            elements = tuple(sorted(ranks, key=lambda w: (ranks[w], w.matrix)))
            _expect(lat.elements == elements, f"perp growth and prefix growth differ in {label}")
            _expect(lat.ranks == ranks, f"ranks differ from prefix growth in {label}")
            index = {w: i for i, w in enumerate(elements)}
            _expect(
                lat.kreweras_index == tuple(index[rems[w]] for w in elements),
                f"Kreweras table differs from w^-1 c in {label}",
            )
    cd = cartan.build_cartan("A4")
    unit = [tuple(int(i == j) for j in range(cd.rank)) for i in range(cd.rank)]
    for perm in ((1, 2, 3, 4), (4, 3, 2, 1)):
        pos = {v: k for k, v in enumerate(perm)}
        arrows = tuple((a, b) if pos[a] < pos[b] else (b, a) for a, b in cartan.tree_edges("A4"))
        q = repcat.dynkin_quiver("A4", arrows)
        e = noncrossing.euler_form(cd, cartan.coxeter_element(cd, perm))
        _expect(
            e == tuple(tuple(repcat.euler_form(q, x, y) for y in unit) for x in unit),
            f"G (1 - c)^-1 is not the Euler form of the quiver oriented by {perm}",
        )
    return (
        "elements, ranks, Kreweras = prefix-product growth on "
        + " ".join(labels)
        + " (two Coxeter elements); G (1 - c)^-1 = quiver Euler form on A4"
    )


_NC_CHECKS = [
    ("form-invariance", _chk_form_invariance),
    ("reflection-involutive", _chk_reflection_involutive),
    ("absolute-length-bfs-oracle", _chk_length_oracle),
    ("factorization-prefix-ranks", _chk_prefix_property),
    ("length-conjugation-invariance", _chk_conjugation_invariance),
    ("root-counts", _chk_root_counts),
    ("nc-counts", _chk_nc_counts),
    ("nc-whole-group-oracle", _chk_nc_whole_group),
    ("kreweras-duality", _chk_kreweras_duality),
    ("nc-complementation", _chk_complementation),
    ("nc-interval-complements", _chk_interval_complements),
    ("nc-kronecker-truncations", _chk_kronecker_poset),
    ("nc-mask-oracle", _chk_mask_oracle),
    ("nc-growth-oracle", _chk_growth_oracle),
]


# ---------------------------------------------------------------------------
# braid suite


def _chk_hurwitz_transitive():
    for label in ("A2", "A3", "B2", "G2"):
        cd = cartan.build_cartan(label)
        c = cartan.coxeter_element(cd)
        facts = braid.enumerate_factorizations(cd)
        start = braid.Factorization(
            cd, tuple(cartan.simple_reflection(cd, i) for i in range(1, cd.rank + 1)), c
        )
        orbit = braid.hurwitz_orbit(start)
        _expect(
            {f.key() for f in orbit} == {f.key() for f in facts},
            f"Hurwitz orbit differs from all factorizations in {label}",
        )
    return "single orbit on A2 A3 B2 G2"


def _chk_braid_relation():
    cd = cartan.build_cartan("A3")
    for f in braid.enumerate_factorizations(cd):
        lhs = braid.braid_act(braid.braid_act(braid.braid_act(f, 1), 2), 1)
        rhs = braid.braid_act(braid.braid_act(braid.braid_act(f, 2), 1), 2)
        _expect(lhs.key() == rhs.key(), "braid relation fails on A3")
    return "s1 s2 s1 = s2 s1 s2 on all 16 A3 factorizations"


def _chk_braid_roundtrip():
    cd = cartan.build_cartan("A3")
    for f in braid.enumerate_factorizations(cd):
        for i in (1, 2):
            _expect(
                braid.braid_act(braid.braid_act(f, i), i, inverse=True).key() == f.key(),
                "forward-then-inverse is not the identity",
            )
            _expect(
                braid.braid_act(f, i).target == f.target,
                "braid action changed the product",
            )
    return "roundtrip and product invariance on all A3 factorizations"


_BRAID_CHECKS = [
    ("hurwitz-transitivity", _chk_hurwitz_transitive),
    ("braid-relation", _chk_braid_relation),
    ("braid-roundtrip", _chk_braid_roundtrip),
]


# ---------------------------------------------------------------------------
# arq suite: module category and the derived model


def _chk_intertwiners_sound():
    for label in ("A3", "D4"):
        q = repcat.dynkin_quiver(label)
        inds = repcat.indecomposables(q)
        for m in inds:
            for n in inds:
                space = repcat.hom(q, m, n)
                for f in space.basis:
                    for idx, (s, t) in enumerate(q.arrows):
                        si, ti = s - 1, t - 1
                        lhs = repcat._mm(f[ti], m.maps[idx], n.dim[ti], m.dim[ti], m.dim[si])
                        rhs = repcat._mm(n.maps[idx], f[si], n.dim[ti], n.dim[si], m.dim[si])
                        _expect(lhs == rhs, f"intertwiner law fails in {label}")
    return "every Hom basis element of A3 and D4"


def _chk_root_module_bijection():
    expected = {"A2": 3, "A3": 6, "D4": 12}
    for label, count in expected.items():
        q = repcat.dynkin_quiver(label)
        inds = repcat.indecomposables(q)
        _expect(len(inds) == count, f"{label} should have {count} indecomposables")
        dims = {m.dim for m in inds}
        _expect(len(dims) == count, "dimension vectors must be distinct")
        for m in inds:
            _expect(repcat.hom_dim(q, m, m) == 1, "endomorphisms must be scalar")
    return "A2=3 A3=6 D4=12 with scalar endomorphism rings"


def _chk_euler_consistency():
    q = repcat.dynkin_quiver("A3")
    inds = repcat.indecomposables(q)
    for m in inds:
        for n in inds:
            _expect(
                repcat.hom(q, m, n).dim - repcat.ext1_dim(q, m, n)
                == repcat.euler_form(q, m.dim, n.dim),
                "Euler identity fails on A3",
            )
    return "all 36 ordered pairs of A3 indecomposables"


def _chk_valuation_symmetry():
    for label in ("A3", "D4"):
        ar = repcat.ar_quiver_module_category(repcat.dynkin_quiver(label))
        arrows = {(s, t): val for s, t, val in ar.arrows}
        for (x, y), (d, _) in arrows.items():
            if y in ar.tau:
                ty = ar.tau[y]
                _expect(
                    (ty, x) in arrows and arrows[(ty, x)][1] == d,
                    f"valuation symmetry fails at {x}->{y} in {label}",
                )
        _expect(not ar.check_mesh_shape(), f"mesh shape violated in {label}")
    return "d'(tau Y, X) = d(X, Y) on knitted A3 and D4 quivers"


def _chk_exceptional_count_matches_braid():
    q = repcat.dynkin_quiver("A2")
    inds = repcat.indecomposables(q)
    count = sum(repcat.is_exceptional_sequence(q, p) for p in itertools.product(inds, repeat=2))
    _expect(count == 3, f"A2 has {count} exceptional pairs by linear algebra, expected 3")
    for label, n in (("A2", 3), ("A3", 16), ("D4", 162)):
        # complete exceptional sequences, grown term by term on the masks
        # that thick_lattice reads off the hammock table
        cd = cartan.build_cartan(label)
        bad = thicklat._exceptional_masks(cd, cartan.coxeter_element(cd))
        seqs = [((), 0)]  # (sequence, roots barred from following it)
        for _ in range(cd.rank):
            seqs = [(s + (k,), b | m) for s, b in seqs for k, m in enumerate(bad) if not b >> k & 1]
        roots = cartan.positive_roots(cd)
        facts = {f.roots() for f in braid.enumerate_factorizations(cd)}
        found = {tuple(roots[k] for k in s) for s, _ in seqs}
        _expect(found == facts and n == len(facts), f"{label}: sequences != {n} factorizations")
    return "3 A2 pairs by linear algebra; hammock sequences = factorizations A2=3 A3=16 D4=162"


def _chk_hammock_oracle():
    for label in ("A2", "A3", "D4", "D5", "E6"):
        q = repcat.dynkin_quiver(label)
        emb = derived.module_slice(q)
        reps = {a: repcat.indecomposable_for_root(q, a) for a in emb}
        for (a, b), hom_ext in derived.hom_ext_table(q).items():
            sigma2 = derived.suspension(q, derived.suspension(q, emb[b]))
            got = hom_ext + (derived.hom(q, emb[a], sigma2),)
            want = (repcat.hom_dim(q, reps[a], reps[b]), repcat.ext1_dim(q, reps[a], reps[b]), 0)
            _expect(got == want, f"hammocks give {got}, linear algebra {want} at {a}->{b}")
    return "Hom, Ext^1 (the hammock table) = linear algebra and Hom(X, Sigma^2 Y) = 0 on A2 A3 D4 D5 E6"


def _chk_mesh_identities():
    for label, hi in (("A2", 4), ("A3", 5), ("D4", 4)):
        report = derived.verify_mesh(derived.build_zdelta(label, (0, hi)))
        _expect(report.ok, f"mesh violations in {label}: {report.violations}")
        _expect(len(report.checked) >= 4, "window too small")
    return "zero violations on A2 A3 D4 windows"


def _chk_serre_duality():
    for label in ("A3", "D4", "E6"):
        q = repcat.dynkin_quiver(label)
        h = cartan.coxeter_number(cartan.build_cartan(label))
        band = [(n, x) for n in range(2 * h) for x in q.vertices]
        for x in band:
            sx = derived.serre(q, x)
            _expect(
                derived.suspension(q, derived.suspension(q, x)) == (x[0] + h, x[1]),
                f"Sigma^2 {x} is not tau^-{h} {x} in {label}",
            )
            for y in band:
                _expect(
                    derived.hom(q, x, y) == derived.hom(q, y, sx),
                    f"Serre duality fails at {x},{y} in {label}",
                )
    return "dim Hom(X,Y) = dim Hom(Y,SX) and Sigma^2 X = tau^-h X on 2h-level bands of A3 D4 E6"


def _chk_ar_shape_embedding():
    for label in ("A2", "A3", "D4"):
        q = repcat.dynkin_quiver(label)
        ar = repcat.ar_quiver_module_category(q)
        emb = derived.module_slice(q)
        lo = min(v[0] for v in emb.values()) - 1
        hi = max(v[0] for v in emb.values()) + 1
        window = derived.build_zdelta(label, (lo, hi))
        warrows = {(s, t) for s, t, _ in window.arrows}
        for s, t, _ in ar.arrows:
            _expect(
                (emb[s], emb[t]) in warrows,
                f"module arrow {s}->{t} missing in the repetition of {label}",
            )
        for z, tz in ar.tau.items():
            _expect(
                window.tau.get(emb[z]) == emb[tz],
                f"translate mismatch at {z} in {label}",
            )
    return "module AR quivers embed arrow- and tau-compatibly (A2 A3 D4)"


def _chk_path_witness():
    label = "A3"
    q = repcat.dynkin_quiver(label)
    emb = derived.module_slice(q)
    t = derived.build_zdelta(label, (-2, 14))
    succ = {v: [w for w, _ in t.arrows_out_of(v)] for v in t.vertices}

    def reachable(src):
        seen = {src}
        stack = [src]
        while stack:
            v = stack.pop()
            for w in succ.get(v, ()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

    for va in emb.values():
        reach = reachable(va)
        for z in t.vertices:
            if derived.hom(q, va, z):
                _expect(z in reach, f"no path from {va} to {z} despite Hom != 0")
    return "Hom != 0 implies a directed path, A3 window"


_ARQ_CHECKS = [
    ("intertwiner-soundness", _chk_intertwiners_sound),
    ("root-module-bijection", _chk_root_module_bijection),
    ("euler-consistency", _chk_euler_consistency),
    ("valuation-symmetry", _chk_valuation_symmetry),
    ("exceptional-pairs-match-factorizations", _chk_exceptional_count_matches_braid),
    ("hammock-oracle-agreement", _chk_hammock_oracle),
    ("mesh-identities", _chk_mesh_identities),
    ("serre-duality", _chk_serre_duality),
    ("ar-shape-embedding", _chk_ar_shape_embedding),
    ("path-witness", _chk_path_witness),
]


# ---------------------------------------------------------------------------
# thick suite


def _product(cd, roots):
    """The product of the reflections at `roots`, left to right."""
    prod = cartan.identity_element(cd)
    for alpha in roots:
        prod = prod * cartan.reflection_element(cd, alpha)
    return prod


def _chk_cox_well_defined():
    rng = random.Random(1105)
    for label in ("A2", "A3"):
        cd = cartan.build_cartan(label)
        lat = noncrossing.enumerate_nc(cd)
        c = lat.coxeter
        base = braid.Factorization(
            cd, tuple(cartan.simple_reflection(cd, i) for i in range(1, cd.rank + 1)), c
        )
        for _ in range(40):
            f = base
            for _ in range(rng.randint(1, 8)):
                f = braid.braid_act(f, rng.randint(1, cd.rank - 1), inverse=rng.random() < 0.5)
            for r in range(cd.rank + 1):
                prefix = cartan.identity_element(cd)
                for x in f.parts[:r]:
                    prefix = prefix * x
                u = thicklat.thick_from_nc(cd, prefix, c)
                _expect(
                    _product(cd, u.generators) == prefix,
                    "cox differs across braid-orbit representatives",
                )
    return "random braid words, all prefixes, A2 and A3"


def _chk_bijectivity():
    for label in ("A2", "A3"):
        cd = cartan.build_cartan(label)
        lat = noncrossing.enumerate_nc(cd)
        for w in lat.elements:
            u = thicklat.thick_from_nc(cd, w, lat.coxeter)
            _expect(_product(cd, u.generators) == w, "cox o thick_from_nc != id")
    return "cox o thick_from_nc = id on NC(A2) and NC(A3)"


def _chk_order_preservation():
    cd = cartan.build_cartan("A3")
    lat = noncrossing.enumerate_nc(cd)
    n = cd.rank
    for u in lat.elements:
        for v in lat.elements:
            if not lat.leq(u, v):
                continue
            f1, f2, f3 = (
                thicklat.thick_from_nc(cd, x, lat.coxeter).generators
                for x in (u, u.inverse() * v, v.inverse() * lat.coxeter)
            )
            word = f1 + f2 + f3
            _expect(len(word) == n, "concatenated word has wrong length")
            _expect(_product(cd, f1) == u, "prefix does not realize u")
            _expect(_product(cd, f1 + f2) == v, "prefix does not realize v")
            _expect(_product(cd, word) == lat.coxeter, "word does not multiply to c")
    return "nested prefixes realize every u <= v in NC(A3)"


def _chk_biperp():
    # the perps are Kreweras complements for the subcategory's own c, so
    # the reversed orientation must round-trip as well
    cd = cartan.build_cartan("A3")
    for perm in ((1, 2, 3), (3, 2, 1)):
        c = cartan.coxeter_element(cd, perm)
        for w in noncrossing.enumerate_nc(cd, c).elements:
            u = thicklat.thick_from_nc(cd, w, c)
            _expect(thicklat.left_perp(thicklat.right_perp(u)) == u, "left_perp o right_perp != id")
            _expect(thicklat.right_perp(thicklat.left_perp(u)) == u, "right_perp o left_perp != id")
    return "biperpendicular identity on NC(A3)"


def _chk_oracle_agreement():
    # the count of NC(W, c) does not depend on c, so every orientation must agree
    for n in range(1, 5):
        label = f"A{n}"
        fast = len(thicklat.thick_lattice(cartan.build_cartan(label)))
        for flips in itertools.product((False, True), repeat=n - 1):
            edges = zip(cartan.tree_edges(label), flips)
            arrows = tuple((t, s) if flip else (s, t) for (s, t), flip in edges)
            slow = thicklat.wide_subcategory_oracle(repcat.dynkin_quiver(label, arrows)).count
            _expect(fast == slow, f"thick count {fast} != wide count {slow} in {label} {arrows}")
    return "thick lattice = wide subcategories on all 15 orientations of A1-A4"


def _chk_reflection_root_bijection():
    for label in ("A2", "A3", "B2", "G2", "D4"):
        cd = cartan.build_cartan(label)
        seen = set()
        for t in cartan.reflections(cd):
            alpha = cartan.reflection_root(cd, t)
            _expect(cartan.reflection_element(cd, alpha) == t, "root round trip fails")
            seen.add(alpha)
        _expect(
            seen == set(cartan.positive_roots(cd)),
            f"reflections and positive roots do not biject in {label}",
        )
    return "reflections <-> positive roots on A2 A3 B2 G2 D4"


def _chk_kronecker_lattice():
    lat = thicklat.kronecker_lattice(2, 3)
    _expect(len(lat) == 15, f"glued lattice has {len(lat)} elements, expected 15")
    els, leq = lat.elements, lat.leq
    for a, b in itertools.product(els, repeat=2):
        # the greatest lower and the least upper bound, by definition: scans
        lower = [x for x in els if leq(x, a) and leq(x, b)]
        upper = [x for x in els if leq(a, x) and leq(b, x)]
        meet = [x for x in lower if all(leq(y, x) for y in lower)]
        join = [x for x in upper if all(leq(x, y) for y in upper)]
        _expect(meet == [lat.meet(a, b)], "meet is not the unique greatest lower bound")
        _expect(join == [lat.join(a, b)], "join is not the unique least upper bound")
    p, bottom, top = len(lat.tube_points), els[0], els[-1]
    for r, t in itertools.product(els[1:-1], repeat=2):
        if r >> p and not t >> p:  # an nc atom and a tube set
            _expect(lat.meet(r, t) == bottom, "cross-part meet must be bottom")
            _expect(lat.join(r, t) == top, "cross-part join must be top")
    return "15 elements, all meets/joins exist, cross-part laws hold"


_THICK_CHECKS = [
    ("cox-well-defined", _chk_cox_well_defined),
    ("thick-nc-bijectivity", _chk_bijectivity),
    ("order-preservation-nested-prefixes", _chk_order_preservation),
    ("biperpendicular-identity", _chk_biperp),
    ("wide-oracle-agreement", _chk_oracle_agreement),
    ("reflection-root-bijection", _chk_reflection_root_bijection),
    ("kronecker-glued-lattice", _chk_kronecker_lattice),
]


SUITES = {
    "nc": _NC_CHECKS,
    "braid": _BRAID_CHECKS,
    "arq": _ARQ_CHECKS,
    "thick": _THICK_CHECKS,
}


def run_suites(name: str) -> list[CheckResult]:
    """Run the named suite; 'all' runs every suite in order."""
    suites = SUITES if name == "all" else (name,)
    return [_check(suite, check, fn) for suite in suites for check, fn in SUITES[suite]]

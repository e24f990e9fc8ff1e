"""The lattice of thick subcategories through the noncrossing bijection.

A thick subcategory is identified with its element of NC(W, c), c the
Coxeter element of its quiver's orientation; the stored generator roots
are a certificate (an exceptional sequence realizing the element as a
prefix of a reflection factorization of c), not part of the identity.
The lattice is the NC lattice itself: each element's least word is its
generators, certified exceptional with Hom and Ext^1 read off the
hammocks of `derived`.  Perpendicular subcategories are Kreweras
complements for c.  The independent oracle enumerates wide subcategories
of the module category by closing subsets of indecomposables under
kernels, cokernels, and extensions.  It accepts only A1-A4, whose
indecomposables are thin (each space of dimension 0 or 1): a kernel or
cokernel is the source or target cut down to the vertices where the map
is zero, summed over that support's connected components.  A middle term
comes from a unit cocycle off the coboundaries, the transposed rows of
`repcat`'s Hom system (the map with kernel Hom and cokernel Ext^1), and
is split by `decompose` (zero, stored and brick certificates, else Hom
counts).
Every subset of indecomposables is one bit of a 2^n-bit integer, so each
ordered pair rules out all the subsets its consequences break at once.
The Kronecker lattice glues the truncated NC part to the subsets of the
tube points at bottom and top, each element one int mask: its order is
the subset order of the bits, its meet the AND.
"""

from __future__ import annotations

import functools
import itertools

from . import cartan, derived, linalg, noncrossing, repcat
from .cartan import CartanDatum, WeylElement
from .errors import (
    NotInPosetError,
    OutOfRangeError,
    ResourceLimitError,
    StructuralError,
    UnsupportedLabelError,
)
from .noncrossing import NCLattice

Vector = tuple[int, ...]


class ThickSubcategory(cartan._Value):
    """An element of NC(W, c), c the Coxeter element of the quiver's
    orientation, together with a generating exceptional sequence.

    Two thick subcategories are the same iff their labels, Coxeter
    elements and nc elements agree; the generators are a certificate, not
    compared.  The perpendicular categories are the Kreweras complements
    for the Coxeter element the subcategory carries.  A coxeter that is not
    a Coxeter element (`noncrossing.perp_masks`) or an nc element not below
    it raises NotInPosetError, and generators that do not multiply to the
    nc element raise StructuralError.
    """

    __slots__ = ("cartan", "coxeter", "nc_element", "generators")

    def __init__(
        self,
        cartan: CartanDatum,
        coxeter: WeylElement,
        nc_element: WeylElement,
        generators: tuple[Vector, ...],
    ):
        object.__setattr__(self, "cartan", cartan)
        object.__setattr__(self, "coxeter", coxeter)
        object.__setattr__(self, "nc_element", nc_element)
        object.__setattr__(self, "generators", generators)
        self._validate()

    def _key(self) -> tuple:
        return (self.cartan, self.coxeter, self.nc_element)

    def _validate(self):
        cd, c, w = self.cartan, self.coxeter, self.nc_element
        noncrossing.perp_masks(cd, c)
        if not cartan.abs_leq(cd, w, c):
            raise NotInPosetError("element is not below the Coxeter element")
        prod = cartan.identity_element(cd)
        for alpha in self.generators:
            prod = prod.times_reflection(alpha, cartan.coroot(cd, alpha))
        if prod != w:
            raise StructuralError("generators do not multiply to the nc element")


@functools.lru_cache(maxsize=None)
def _exceptional_masks(cd: CartanDatum, c: WeylElement) -> tuple[int, ...]:
    """bad[k]: the roots b with Hom(E_b, E_k) or Ext^1(E_b, E_k) nonzero, read
    from the hammock table (k among them), so (k,) + rest is exceptional iff
    rest is and misses bad[k]; each E_k is checked exceptional.  The quiver
    of c has an arrow s -> t where E(alpha_s, alpha_t) = -1 (`repcat.Quiver`
    checks the tree); non-simply-laced labels get all-zero masks, so no
    check.  Cached per (cd, c): `thick_from_nc` and the perps ask once, so
    `derived.hom_ext_table`, which caches nothing, runs once per (cd, c)."""
    roots = cartan.positive_roots(cd)
    family, _ = cartan.parse_label(cd.label)
    if family not in "ADE":
        return (0,) * len(roots)
    e = noncrossing.euler_form(cd, c)
    arrows = tuple((s + 1, t + 1) for s, row in enumerate(e) for t, x in enumerate(row) if x == -1)
    q = repcat.Quiver(label=cd.label, vertices=tuple(range(1, cd.rank + 1)), arrows=arrows)
    table = derived.hom_ext_table(q)
    bad = []
    for a in roots:
        if table[(a, a)] != (1, 0):
            raise StructuralError(f"the indecomposable at {a} is not exceptional")
        bad.append(sum(1 << b for b, r in enumerate(roots) if table[(r, a)] != (0, 0)))
    return tuple(bad)


def thick_from_nc(
    cd: CartanDatum, w: WeylElement, c: WeylElement | None = None
) -> ThickSubcategory:
    """Materialize the thick subcategory for an NC element.

    A c that is not a Coxeter element is refused by `noncrossing.perp_masks`
    before any other work.  T(w) comes from one scan over the roots: those
    orthogonal to the fixed space of w, which is the orthogonal complement
    of its moved space.  The generators are its least word without a
    lattice: `noncrossing.least_step` on the perp masks, perp[k] = T(t_k c),
    at most rank times; each new root must miss the masks of the earlier ones.
    For any w the steps stay below c, so they stop within rank; a w not
    below c is refused by the `ThickSubcategory` they build.
    """
    if not cd.is_finite():
        raise UnsupportedLabelError("thick subcategories need a finite label")
    if c is None:
        c = cartan.coxeter_element(cd)
    perp = noncrossing.perp_masks(cd, c)
    cartan.check_rank(cd, w)
    minus_one = [[x - int(i == j) for j, x in enumerate(row)] for i, row in enumerate(w.matrix)]
    normals = [linalg.mat_vec(cd.gram(), f) for f in linalg.nullspace(minus_one, cd.rank)]
    roots = cartan.positive_roots(cd)
    mask = sum(1 << k for k, a in enumerate(roots) if not any(linalg.dot(a, g) for g in normals))
    bad = _exceptional_masks(cd, c)
    gens, barred = [], 0
    for _ in range(cd.rank):
        if not mask:
            break
        k, rest = noncrossing.least_step(mask, perp)
        if perp[k] >> k & 1:
            raise StructuralError(f"the perp of root {roots[k]} keeps the root")
        if barred >> k & 1:
            raise StructuralError("generator roots are not an exceptional sequence")
        barred |= bad[k]
        gens.append(roots[k])
        mask = rest
    if mask:
        raise StructuralError("roots are left over after rank many generators")
    return ThickSubcategory(cartan=cd, coxeter=c, nc_element=w, generators=tuple(gens))


def left_perp(u: ThickSubcategory) -> ThickSubcategory:
    """Everything mapping trivially into u: nc element w^-1 c."""
    return thick_from_nc(u.cartan, u.nc_element.inverse() * u.coxeter, u.coxeter)


def right_perp(u: ThickSubcategory) -> ThickSubcategory:
    """Everything u maps trivially into: nc element c w^-1."""
    return thick_from_nc(u.cartan, u.coxeter * u.nc_element.inverse(), u.coxeter)


def thick_lattice(cd: CartanDatum) -> NCLattice:
    """NC(W, c) for the default Coxeter element, certified as the lattice
    of thick subcategories: each element's least word, which
    `NCLattice.canonical_word` reads, is a generating exceptional sequence.

    `NCLattice.steps[i] = (k, j)` is the least step `enumerate_nc` built
    element i's matrix from, t_k times a rest j of lower rank, so j < i;
    the build's chain certificate checked that matrix, so every word
    multiplies to its element.  used[j] & bad[k] == 0, one AND over the
    roots of j's word, proves the word, root k then j's, exceptional.
    """
    lat = noncrossing.enumerate_nc(cd)
    bad = _exceptional_masks(cd, lat.coxeter)
    used = [0]
    for i in range(1, len(lat)):
        k, j = lat.steps[i]
        if j >= i:
            raise StructuralError("generators do not multiply to the nc element")
        if used[j] & bad[k]:
            raise StructuralError("generator roots are not an exceptional sequence")
        used.append(used[j] | 1 << k)
    return lat


# ---------------------------------------------------------------------------
# wide subcategory oracle


class WideOracleResult:
    __slots__ = ("count", "subsets")

    def __init__(self, count: int, subsets: tuple[tuple[Vector, ...], ...]):
        self.count, self.subsets = count, subsets


_NOT_MULTIPLICITY_FREE = "wide oracle needs multiplicity-free Hom and Ext tables"
_NOT_THIN = "wide oracle needs thin indecomposables (dimension 0 or 1 at every vertex)"


def _interval_summands(q: repcat.Quiver, support: set[int]) -> set[Vector]:
    """The summands of a thin representation with 1 on every arrow inside
    its support: one interval module per connected component in the tree."""
    parts = {v: frozenset((v,)) for v in support}
    for s, t in q.arrows:
        if s in parts and t in parts and parts[s] != parts[t]:
            merged = parts[s] | parts[t]
            parts.update(dict.fromkeys(merged, merged))
    return {tuple(int(v in p) for v in q.vertices) for p in parts.values()}


class _ClosureTables:
    """Kernels, cokernels, and extension middle terms between
    indecomposables, decomposed into indecomposable summands.

    consequences[(a, b)] holds the summands of the kernel and cokernel of
    a nonzero map X_a -> X_b and of the middle term of a nonsplit
    extension in Ext^1(X_a, X_b).  The key is ordered: Hom(X_a, X_b) and
    Ext^1(X_b, X_a) can both be nonzero, and each brings its own terms.

    Every indecomposable must be thin, which holds on A1-A4, the only
    quivers the oracle accepts; any other quiver is refused before the
    module category is built.  A nonzero f_v between thin spaces is an
    isomorphism, so ker f and coker f are X_a and X_b cut down to where
    f_v = 0, with their maps 1 inside: summands read off those supports
    (`_interval_summands`), with no representation built and no solve.
    `euler` is q's `_euler_table`, which the caller has computed already."""

    def __init__(self, q: repcat.Quiver, euler: dict[tuple[Vector, Vector], int]):
        if any(x > 1 for a in cartan.positive_roots(cartan.build_cartan(q.label)) for x in a):
            raise ResourceLimitError(_NOT_THIN)
        self.cat = repcat._category(q)
        self.consequences: dict[tuple[Vector, Vector], frozenset] = {}
        for a, b in itertools.product(self.cat.roots, repeat=2):
            h = self.cat.hom_dim(a, b)
            e = h - euler[a, b]  # dim Ext^1 (hereditary)
            if h > 1 or e > 1:
                raise ResourceLimitError(_NOT_MULTIPLICITY_FREE)
            need: set[Vector] = set()
            if a != b and h == 1:
                f = self.cat.hom_spaces[(a, b)].basis[0]
                zero = {v for v, fv in zip(q.vertices, f) if not any(map(any, fv))}
                for x in (a, b):
                    need |= _interval_summands(q, {v for v in zero if x[v - 1]})
            if e == 1:
                need.update(self.cat.decompose(self._middle(a, b)))
            if need:
                self.consequences[(a, b)] = frozenset(need)

    def _middle(self, a, b) -> repcat.Representation:
        """Middle term of the nonsplit extension of X_a by X_b.

        The Hom system is the map d: g -> (g_t M_a - N_a g_s) from the
        vertex maps to the cocycles, the direct sum over arrows s -> t of
        Hom(M_s, N_t); its kernel is Hom and its cokernel Ext^1 (Ringel).
        Its rows are the cocycle coordinates, so the transposed rows are
        the coboundary columns."""
        q = self.cat.quiver
        m, n = self.cat.reps[a], self.cat.reps[b]
        slots = []
        total = 0
        for s, t in q.arrows:
            slots.append(total)
            total += m.dim[s - 1] * n.dim[t - 1]
        rows, unknowns, _ = repcat._hom_system(q, m, n)
        # the first unit cocycle e_k outside the coboundary span: with the
        # span's rows primitive, positive at their pivots and zero at every
        # other pivot, e_k is inside it exactly when k is a pivot and the
        # row with pivot k is e_k itself
        red, pivots = linalg.rref(linalg.transpose(rows, unknowns), total)
        span = dict(zip(pivots, red))
        for k in range(total):
            z = [int(j == k) for j in range(total)]
            if span.get(k) != z:
                break
        else:
            raise StructuralError("extension class vanished despite Ext = 1")
        dims = tuple(nx + mx for nx, mx in zip(n.dim, m.dim))
        maps = []
        for idx, (s, t) in enumerate(q.arrows):
            si, ti = s - 1, t - 1
            rows_n, rows_m = n.dim[ti], m.dim[ti]
            cols_n, cols_m = n.dim[si], m.dim[si]
            blk = []
            for r in range(rows_n):
                row = list(n.maps[idx][r]) + [
                    z[slots[idx] + r * cols_m + c] for c in range(cols_m)
                ]
                blk.append(tuple(row))
            for r in range(rows_m):
                row = [0] * cols_n + list(m.maps[idx][r])
                blk.append(tuple(row))
            maps.append(tuple(blk))
        return repcat.Representation(q, dims, tuple(maps))


def _euler_table(q: repcat.Quiver, roots: tuple[Vector, ...]) -> dict[tuple[Vector, Vector], int]:
    """The Euler form <a, b> = a . E b of every ordered pair of roots, with
    E = 1 - A, A[s][t] = 1 per arrow s -> t: one E b per root, one dot per pair."""
    e = [[int(s == t) - ((s, t) in q.arrows) for t in q.vertices] for s in q.vertices]
    eb = {b: linalg.mat_vec(e, b) for b in roots}
    return {(a, b): linalg.dot(a, eb[b]) for a, b in itertools.product(roots, repeat=2)}


def wide_subcategory_oracle(q: repcat.Quiver) -> WideOracleResult:
    """Brute force over subsets of indecomposables, closing each under
    kernels, cokernels, and extension middle terms.

    Both limits are checked before the module category is built: the cap
    MAX_ORACLE_INDECOMPOSABLES on the positive-root count, then
    multiplicity-freeness from the Euler form alone, whose table
    `_ClosureTables` then reads instead of evaluating the form again.
    They leave the 15 orientations of A1-A4 (D4 passes the cap and fails
    the second), on which every indecomposable is thin.  Hom and Ext^1 between indecomposables are
    never both nonzero (the category is directed), so max(dim Hom,
    dim Ext^1) is |<a, b>|; `_ClosureTables` still checks the dimensions
    themselves.

    Subset s is bit s of a 2^n-bit integer, and member[i] holds the
    subsets containing root i.  Pair (a, b) with consequence x rules out
    member[a] & member[b] & ~member[x] in one step; the closed subsets
    are the bits left, listed by size and then in combinations order.
    """
    roots = cartan.positive_roots(cartan.build_cartan(q.label))
    if len(roots) > MAX_ORACLE_INDECOMPOSABLES:
        raise ResourceLimitError(
            f"{len(roots)} indecomposables exceed the oracle cap {MAX_ORACLE_INDECOMPOSABLES}"
        )
    euler = _euler_table(q, roots)
    if any(abs(x) > 1 for x in euler.values()):
        raise ResourceLimitError(_NOT_MULTIPLICITY_FREE)
    tables = _ClosureTables(q, euler)
    full = (1 << (1 << len(roots))) - 1
    # the subsets holding root i: the upper half of each run of 2^(i+1) bits
    member = {a: full // ((1 << (1 << i)) + 1) << (1 << i) for i, a in enumerate(roots)}
    bad = 0
    for (a, b), need in tables.consequences.items():
        both = member[a] & member[b]
        for x in need:
            bad |= both & ~member[x]
    closed, combos = full ^ bad, []
    while closed:
        s = (closed & -closed).bit_length() - 1
        combos.append(tuple(i for i in range(len(roots)) if s >> i & 1))
        closed ^= 1 << s
    wide = tuple(tuple(roots[i] for i in c) for c in sorted(combos, key=lambda c: (len(c), c)))
    return WideOracleResult(count=len(wide), subsets=wide)


# ---------------------------------------------------------------------------
# the Kronecker lattice


class KroneckerLattice:
    """NC part glued to an augmented power set along bottom and top.

    Each element is one int, ordered by the subset order of its bits.  A
    tube set keeps the p low bits, bit i for point i of the sorted
    `tube_points`; an nc atom is its `nc_part` mask, one root bit, shifted
    left by p; bottom is 0 and top sets every bit.  `meet` is the AND, and
    `join` the OR where that is an element, else top.  The up to 2^16 tube
    sets keep the low bits: above the roots (up to 8,194) each would be an
    8,200-bit int.  `position` is the one mask -> index table.
    """

    __slots__ = ("nc_part", "tube_points", "elements", "position")

    def __init__(self, nc_part: NCLattice, tube_points: tuple[str, ...], elements: tuple[int, ...]):
        self.nc_part, self.tube_points, self.elements = nc_part, tube_points, elements
        self.position = {e: i for i, e in enumerate(elements)}

    def __len__(self):
        return len(self.elements)

    def index(self, e: int) -> int:
        try:
            return self.position[e]
        except KeyError:
            raise NotInPosetError(f"{e} is not a lattice element") from None

    def leq(self, a: int, b: int) -> bool:
        self.index(a), self.index(b)
        return not a & ~b

    def meet(self, a: int, b: int) -> int:
        self.index(a), self.index(b)
        return a & b

    def join(self, a: int, b: int) -> int:
        self.index(a), self.index(b)
        return self.elements[self.position.get(a | b, -1)]

    def rank_of(self, e: int) -> int:
        return len(self.tube_points) + 1 if e == self.elements[-1] else e.bit_count()


MAX_TUBE_POINTS = 16  # the bound cap is noncrossing.MAX_KRONECKER_BOUND
MAX_ORACLE_INDECOMPOSABLES = 12  # A4 has 10 positive roots, D4 has 12


def kronecker_lattice(bound: int, points) -> KroneckerLattice:
    """Glue the truncated NC part to the augmented power set of the
    given tube labels, identifying bottoms and tops.

    `points` is a count or a sequence of labels, distinct after `str()`;
    the power set has 2^p elements, so p is capped at MAX_TUBE_POINTS.
    Both caps are checked before any label is made, and distinctness
    before any label set is built."""
    noncrossing.check_kronecker_bound(bound)
    labels = None if isinstance(points, int) else tuple(points)
    count = points if labels is None else len(labels)
    if count < 0:
        raise OutOfRangeError(f"tube point count must be at least 0, got {count}")
    if count > MAX_TUBE_POINTS:
        raise ResourceLimitError(f"{count} tube points exceed the cap {MAX_TUBE_POINTS}")
    if labels is None:
        labels = (f"p{i}" for i in range(1, count + 1))
    points = tuple(sorted(str(p) for p in labels))
    distinct = len(set(points))
    if distinct != count:
        raise OutOfRangeError(f"{count} tube point labels name only {distinct} distinct points")
    nc_part = noncrossing.nc_kronecker(bound)
    p = len(points)
    # nc_part's atoms lie between id and c, each one root bit: moved above the tube bits
    atoms = [m << p for m in nc_part.masks[1:-1]]
    # tube sets by size, each size in combinations order of the sorted points
    combos = (c for size in range(1, p + 1) for c in itertools.combinations(range(p), size))
    tubes = (sum(1 << i for i in c) for c in combos)
    elements = (0, *atoms, *tubes, (1 << (p + len(atoms))) - 1)
    return KroneckerLattice(nc_part=nc_part, tube_points=points, elements=elements)


# ---------------------------------------------------------------------------
# serialization


def thick_to_json(lat: NCLattice) -> dict:
    """The lattice `thick_lattice` certified, each element's least word
    as its generators."""
    # left perp w^-1 c and right perp c w^-1 are the Kreweras and
    # co-Kreweras complements, certified by enumerate_nc's chain certificate
    perp = [[i, lat.kreweras_index[i], lat.co_kreweras_index[i]] for i in range(len(lat))]
    return {
        "type": lat.cartan.label,
        "elements": [
            {
                "nc_id": i,
                "rank": lat.ranks[w],
                "generator_roots": [list(a) for a in lat.canonical_word(w)],
            }
            for i, w in enumerate(lat.elements)
        ],
        "hasse": [list(e) for e in lat.hasse],
        "perp_pairs": perp,
    }


def kronecker_to_json(lat: KroneckerLattice) -> dict:
    """Names and covers read off the masks: an nc atom is named by its
    root, a tube set S by its points, and S is covered by S | {p}, one
    `position` lookup each; m's points are those of m less its highest bit,
    then that bit's."""
    points, position, roots = lat.tube_points, lat.position, lat.nc_part.roots
    p, top = len(points), len(lat) - 1
    full, bits = (1 << p) - 1, tuple(1 << n for n in range(p))
    named = [""]  # ",x" per point x of the mask, in bit order
    for x in points:
        named += [f"{n},{x}" for n in named]
    elements, edges = [{"id": 0, "name": "0", "rank": 0}], []
    for i, e in enumerate(lat.elements[1:top], 1):
        if e >> p:  # an nc atom
            name = "s(" + ",".join(map(str, roots[e.bit_length() - 1 - p])) + ")"
            edges += [[0, i], [i, top]]
        else:
            name = "{" + named[e][1:] + "}"
            if e.bit_count() == 1:
                edges.append([0, i])
            if e == full:
                edges.append([i, top])
            edges += [[i, position[e | b]] for b in bits if not e & b]
        elements.append({"id": i, "name": name, "rank": lat.rank_of(e)})
    elements.append({"id": top, "name": "1", "rank": lat.rank_of(lat.elements[top])})
    edges.sort()
    return {
        "tube_points": list(points),
        "truncation_bound": lat.nc_part.truncation_bound,
        "elements": elements,
        "hasse": edges,
    }


def kronecker_dot(lat: KroneckerLattice) -> str:
    data = kronecker_to_json(lat)
    names, ranks = zip(*((el["name"], el["rank"]) for el in data["elements"]))
    return noncrossing.ranked_dot("kronecker", names, ranks, data["hasse"])

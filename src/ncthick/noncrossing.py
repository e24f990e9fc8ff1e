"""The poset NC(W,c) of noncrossing partitions and its lattice structure.

Each element w carries its reflection set T(w) = {t in T : t <= w}, the
positive roots in the moved space of w, as an int bitmask over the
positive-root order.  On [id, c] the map w -> T(w) is an order embedding
(Brady-Watt 2002, Bessis 2003), so the order is a subset test.  Each
lattice keeps one mask -> index table, `position`, and meets and joins
are one lookup in it: atoms are reflections, and t <= meet(u, v) iff
t <= u and t <= v, so T(meet(u, v)) = T(u) & T(v); the Kreweras map
x -> x^-1 c reverses the order, so the join is the element whose
complement has the mask T(u^-1 c) & T(v^-1 c).

Growth tests no rank and multiplies no two matrices.  With the Euler
form E = G (1 - c)^-1, whose symmetrization is the Gram matrix G,
perp[s] is the mask of the roots t with E(beta_t, beta_s) = 0, and the
Kreweras complement of w has T(w^-1 c) = the AND of perp[s] over s in
T(w) (Ingalls-Thomas 2009: perpendicular categories are Kreweras
complements); T(w) is the AND of the transposed lperp[s] over s in
T(w^-1 c).  Each bit t of the complement mask gives a cover w < w t with
complement mask T(w^-1 c) & perp[t], and elements are told apart by
their complement masks, so a cover seen twice costs one AND; the covers
are kept as mask pairs.  Growth builds no matrix.  One greedy step on
masks, `least_step`, factors each element w as t_k times a rest one rank
lower, and in rank order w's matrix is built once from the rest's, by
the rank-one update s_k M = M - alpha_k (x) (q_k^T M); the lattice
keeps that step, so no element is factored twice.  A chain along
the growth tree, which multiplies in another order, certifies them: the
complement of id is c, and that of w t is t times that of w, so
g K(x) = c for g the product along x's growth path.  g has rank(x)
reflections and K(x) was built from n - rank(x), so l(g) + l(K(x)) =
l(c) puts every built matrix below c, with its rank as its length.  The
Weyl group is never materialized.  The stored steps give canonical
words, the JSON Coxeter word and the thick generators of the whole
lattice (`NCLattice.steps`); `thicklat.thick_from_nc` takes the same step
on the perp masks for a lone element.

The build and the certificate keep each matrix as one int (`Packing`):
n^2 signed 8-bit fields, row 0 most significant, and the update is two
big-int products.  A matrix of W has root coordinates as entries, at
most R = the largest one, and each field of the update's products is at
most max |q_k|_1 R, which is checked below 128 on every build (36 at
E8).  So the fields never overlap, the packing is injective and keeps
the order of matrices, and comparing two ints compares two matrices.
Each element is unpacked once, after the certificate.
The fixed-space absolute order of `cartan` and the prefix-product growth
that tests each candidate's rank stay as oracles in `selfcheck`.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import struct

from . import cartan, linalg
from .cartan import CartanDatum, WeylElement, positive_roots
from .errors import (
    LatticeStructureError,
    NotInPosetError,
    OutOfRangeError,
    ResourceLimitError,
    StructuralError,
    UnsupportedLabelError,
)

Vector = tuple[int, ...]


class NCLattice:
    """Interval [id, c] in the absolute order, with rank and cover data.

    `masks[i]` is the reflection set of `elements[i]` as a bitmask over
    `roots`, the positive roots, and `position`, the one mask -> index
    table, maps each mask back to its index.  The constructor takes each
    element's complement mask T(w^-1 c), or None where the complement
    leaves a truncated poset, and its least step (k, T(rest)), or None for
    id, and translates both through `position`: `kreweras_index[i]` is the
    index of the Kreweras complement or None, and `steps[i] = (k, j)` says
    element i is t_k times element j.  `covers` holds the cover relations
    as two parallel lists, the masks T(lower) and T(upper); `hasse`
    translates them to sorted index pairs (lower, upper) on first read.
    Elements are sorted by (rank, matrix).
    """

    __slots__ = (
        "cartan", "coxeter", "elements", "ranks", "masks", "kreweras_index", "covers",
        "truncation_bound", "co_kreweras_index", "position", "roots", "steps", "_index",
        "_words", "_hasse",
    )

    def __init__(
        self,
        cartan: CartanDatum,
        coxeter: WeylElement,
        elements: tuple[WeylElement, ...],
        ranks: dict[WeylElement, int],
        masks: tuple[int, ...],
        complements: tuple[int | None, ...],
        steps: tuple[tuple[int, int] | None, ...],
        covers: tuple[list[int], list[int]],
        truncation_bound: int | None = None,
    ):
        self.cartan, self.coxeter, self.elements, self.ranks = cartan, coxeter, elements, ranks
        self.masks, self.covers = masks, covers
        self.truncation_bound = truncation_bound
        position = self.position = {m: i for i, m in enumerate(masks)}
        self.roots = positive_roots(cartan, truncation_bound) if truncation_bound else positive_roots(cartan)
        self._index = {w: i for i, w in enumerate(elements)}
        self.kreweras_index = tuple(map(position.get, complements))
        inverse: list[int | None] = [None] * len(masks)
        for i, k in enumerate(self.kreweras_index):
            if k is not None:
                inverse[k] = i
        self.co_kreweras_index = tuple(inverse)
        self.steps = tuple(None if s is None else (s[0], position[s[1]]) for s in steps)
        self._words: dict[int, tuple[Vector, ...]] = {0: ()}  # index 0 is id
        self._hasse = None

    @property
    def hasse(self) -> tuple[tuple[int, int], ...]:
        if self._hasse is None:
            index = self.position.__getitem__
            self._hasse = tuple(sorted(zip(*(map(index, side) for side in self.covers))))
        return self._hasse

    def __len__(self) -> int:
        return len(self.elements)

    def index(self, w: WeylElement) -> int:
        try:
            return self._index[w]
        except KeyError:
            raise NotInPosetError("element does not lie in NC(W,c)") from None

    def identity(self) -> WeylElement:
        return cartan.identity_element(self.cartan)

    def leq(self, u: WeylElement, v: WeylElement) -> bool:
        return not self.masks[self.index(u)] & ~self.masks[self.index(v)]

    def reflection_members(self) -> tuple[WeylElement, ...]:
        return tuple(w for w in self.elements if self.ranks[w] == 1)

    def canonical_word(self, w: WeylElement) -> tuple[Vector, ...]:
        """Lexicographically least shortest reflection word for w."""
        return self._word(self.index(w))

    def _word(self, i: int) -> tuple[Vector, ...]:
        word = self._words.get(i)
        if word is None:
            k, j = self.steps[i]
            word = self._words[i] = (self.roots[k],) + self._word(j)
        return word


@functools.lru_cache(maxsize=None)
def euler_form(cd: CartanDatum, c: WeylElement) -> tuple[tuple[int, ...], ...]:
    """The Euler form E = G (1 - c)^-1 of the Coxeter element c.

    E + E^T is the Gram matrix G; for simply-laced labels E is the Euler
    form of the quiver whose arrows point from the earlier to the later
    vertex of c's word.  1 - c is invertible because l(c) = n, and E is
    integral for every Coxeter element, so E^T is the one integer
    solution of (1 - c)^T E^T = G: one `linalg.int_solve`, which is one
    elimination over Z, and no matrix product.  A singular 1 - c raises
    StructuralError; a non-integral E, told apart by a rank taken only
    after a failed solve, raises NotInPosetError.
    """
    cartan.check_rank(cd, c)
    n = cd.rank
    lhs = [[int(i == j) - row[i] for j, row in enumerate(c.matrix)] for i in range(n)]
    try:
        e_t = linalg.int_solve(lhs, cd.gram())
    except StructuralError:
        if linalg.rank(lhs, n) < n:
            raise
        raise NotInPosetError("the given element is not a Coxeter element") from None
    return linalg.transpose(e_t, n)


@functools.lru_cache(maxsize=None)
def perp_masks(cd: CartanDatum, c: WeylElement) -> tuple[int, ...]:
    """perp[s] = mask of the positive roots t with E(beta_t, beta_s) = 0.

    For a reflection s this is T(s^-1 c), and T(w^-1 c) is the AND of
    perp[s] over s in T(w).  A c that is not a Coxeter element raises
    NotInPosetError; `enumerate_nc`, `thicklat.thick_from_nc` and
    `thicklat.ThickSubcategory` all ask here, so the check runs once per
    (cd, c).
    """
    if not cartan.is_coxeter_element(cd, c):
        raise NotInPosetError("the given element is not a Coxeter element")
    roots = cartan.positive_roots(cd)
    e = euler_form(cd, c)
    perp = []
    for b in roots:
        eb = linalg.mat_vec(e, b)
        perp.append(sum(1 << k for k, a in enumerate(roots) if not linalg.dot(a, eb)))
    return tuple(perp)


def left_perp_masks(perp: tuple[int, ...]) -> list[int]:
    """lperp[s] = {t : s in perp[t]}, the roots t with E(beta_s, beta_t) = 0:
    the bit transpose of perp, and T(w) is the AND of lperp[s] over s in T(w^-1 c)."""
    return [sum(1 << t for t, p in enumerate(perp) if p >> s & 1) for s in range(len(perp))]


def least_step(mask: int, perp: tuple[int, ...]) -> tuple[int, int]:
    """(k, rest): k is the least bit of mask, and rest = mask & perp[k], with
    perp[k] = T(t_k c), is the mask of t_k w (T(t x) = T(x) & T(t c) for
    t <= x <= c); a lone bit has rest 0, as t_k does not lie below t_k c.
    Every t <= w starts a reduced word of w, so root k then the rest's
    least word is w's least word."""
    k = (mask & -mask).bit_length() - 1
    return k, mask & perp[k]


def _bits(mask: int):
    """The indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


def _lattice(cd, c, rows, covers, bound=None) -> NCLattice:
    """The lattice of (w, rank, T(w), T(w^-1 c) or None, least step or None)
    rows, given sorted by (rank, matrix)."""
    elements, ranks, masks, complements, steps = zip(*rows)
    ranks = dict(zip(elements, ranks))
    return NCLattice(cd, c, elements, ranks, masks, complements, steps, covers, bound)


# elements enumerate_nc may build, |NC| = prod (h + d_i) / d_i.  Single runs on
# a 2-vCPU x86_64 VM, Python 3.11, count and JSON: D10 (136,136) 3.7 s at
# 171 MB and 8.3 s at 457 MB; B10 and C10 (184,756), the largest admitted,
# 5.8 s at 239 MB and 12.5 s at 662 MB; A11 (208,012) took 14 s at 714 MB in
# JSON, and A40 (about 10^22) would never finish
MAX_NC_SIZE = 200_000


def nc_size(cd: CartanDatum) -> int:
    """|NC(W,c)|, the Catalan number prod (h + d_i) / d_i of W's degrees."""
    degrees = cartan.degrees(cd)
    h = max(degrees)
    return math.prod(h + d for d in degrees) // math.prod(degrees)


class Packing:
    """The n x n matrices of W as one int each: entry (i, j) is the signed
    8-bit field at position (n-1-i) n + (n-1-j), row 0 most significant,
    so pack(M) = sum M_ij 256^((n-1-i) n + n-1-j).

    Every w in W sends each simple root to a root, so its entries are root
    coordinates, at most R = the largest one in absolute value.  With row
    blocks Y = 256^n, pack(M) = sum_i row_i Y^(n-1-i), and a left update
    s_k M = M - alpha_k (x) (q_k^T M) takes two products: with
    Q_k = sum_i q_i Y^i, the row q_k^T M = sum_i q_i row_i is block n - 1
    of pack(M) Q_k, and with A_k = sum_i alpha_i Y^(n-1-i), A_k times that
    row is pack(alpha_k (x) (q_k^T M)).  Each field of pack(M) Q_k is a sum
    of terms q_a M_bj, at most one per a, so it is at most
    bound = max_k |q_k|_1 R in absolute value, which is checked below 128
    here (36 at E8): adding 128 to each field of blocks 0 to n - 1 leaves
    it in [0, 256), so none borrows from the next, and block n - 1 is read
    by a shift and a mask.  R < 128 too, so pack is injective and
    preserves the order of the matrices as tuples of rows.
    """

    __slots__ = ("n", "radius", "bound", "bias", "shift", "low", "row_bias", "alphas", "qs")

    def __init__(self, cd: CartanDatum):
        n = self.n = cd.rank
        roots = positive_roots(cd)
        coroots = [cartan.coroot(cd, a) for a in roots]
        self.radius = max(max(map(abs, a)) for a in roots)
        self.bound = self.radius * max(sum(map(abs, q)) for q in coroots)
        if self.bound >= 128:
            raise StructuralError(f"field bound {self.bound} of {cd.label} does not fit 8 bits")
        block = 8 * n
        self.bias = int.from_bytes(b"\x80" * (n * n), "big")
        self.shift = block * (n - 1)
        self.low = (1 << block) - 1
        self.row_bias = self.bias >> self.shift
        self.alphas = [sum(x << block * (n - 1 - i) for i, x in enumerate(a)) for a in roots]
        self.qs = [sum(x << block * i for i, x in enumerate(q)) for q in coroots]

    def pack(self, w: WeylElement) -> int:
        """w's matrix as one int; an entry past R means w is not in W."""
        entries = [x for row in w.matrix for x in row]
        if max(map(abs, entries)) > self.radius:
            raise NotInPosetError(f"an entry exceeds {self.radius}, the largest root coordinate: not in W")
        return int.from_bytes(bytes(x + 128 for x in entries), "big") - self.bias

    def reflection_times(self, p: int, k: int) -> int:
        """pack(s_k M) for p = pack(M) and s_k the reflection in root k."""
        row = ((p * self.qs[k] + self.bias) >> self.shift & self.low) - self.row_bias
        return p - self.alphas[k] * row

    def unpack(self, packed) -> list[WeylElement]:
        """The elements packed as the ints of packed, in one bytes string:
        XOR with the bias turns each biased field x + 128 into the byte of x
        in two's complement.  Each row is both the key and the default of
        one setdefault, so equal rows come back as one tuple."""
        n, bias = self.n, self.bias
        data = b"".join([((p + bias) ^ bias).to_bytes(n * n, "big") for p in packed])
        rows = map({}.setdefault, *itertools.tee(struct.iter_unpack(f"{n}b", data)))
        return list(map(WeylElement, zip(*[rows] * n)))


def enumerate_nc(cd: CartanDatum, c: WeylElement | None = None) -> NCLattice:
    """All w with id <= w <= c: masks grown cover by cover from the perp
    masks, then each element built once from its least step, which the
    lattice keeps.

    A label whose |NC| = prod (h + d_i) / d_i exceeds MAX_NC_SIZE is
    refused before any other work.  The build and the certificate run on
    `Packing` ints, one per element, and each element is unpacked once, at
    the end.  Every built matrix is a product of reflections, so it lies
    in W and its fields fit: comparing two packed ints compares the two
    matrices, and sorting by them sorts by matrix.
    """
    if not cd.is_finite():
        raise UnsupportedLabelError("use nc_kronecker for the affine rank-2 type")
    size = nc_size(cd)
    if size > MAX_NC_SIZE:
        raise ResourceLimitError(f"NC({cd.label}) has {size} elements, past the cap {MAX_NC_SIZE}")
    if c is None:
        c = cartan.coxeter_element(cd)
    perp = perp_masks(cd, c)
    n = cd.rank
    packing = Packing(cd)
    lperp = left_perp_masks(perp)
    full = (1 << len(perp)) - 1
    # grown[T(w^-1 c)] = (rank, T(w), parent's key, k) with w = parent * t_k: the
    # complement's mask names w, as T is injective on [id, c] and w -> w^-1 c is bijective
    grown = {full: (0, 0, None, None)}
    lower, upper = [], []
    frontier = [full]
    for r in range(1, n + 1):
        nxt = []
        for above in frontier:
            mask = grown[above][1]
            for k in _bits(above):
                # w < w t with complement t w^-1 c, and T(t x) = T(x) & T(t c) for t <= x <= c
                comp = above & perp[k]
                entry = grown.get(comp)
                if entry is None:
                    own = functools.reduce(operator.and_, map(lperp.__getitem__, _bits(comp)), full)
                    entry = grown[comp] = (r, own, above, k)
                    nxt.append(comp)
                lower.append(mask)
                upper.append(entry[1])
        frontier = nxt
    if {entry[1] for entry in grown.values()} != grown.keys():
        raise LatticeStructureError("reflection sets and complement masks differ")
    # built[T(w)] = (pack(w), rank, step): in rank order, w = t_k * rest for the
    # least step (k, rest) of T(w), so w is the product of its least word,
    # rank(w) reflections
    left = packing.reflection_times
    built = {0: (packing.pack(cartan.identity_element(cd)), 0, None)}
    for r, mask, _, _ in grown.values():
        if mask:
            step = k, rest = least_step(mask, perp)
            below, s, _ = built.get(rest, (None, r, None))
            if s != r - 1:
                raise LatticeStructureError("a least word leaves the lattice")
            built[mask] = (left(below, k), r, step)
    # K(x), the element whose mask is x's key: K(id) = c and K(w t) = t K(w) on
    # every growth link give g K(x) = c for g the product along x's growth path,
    # and g and K(x) have rank(x) and n - rank(x) reflections, so both are exact
    # and K(x) <= c: every built matrix lies in [id, c] with its rank as length
    top = packing.pack(c)
    for key, (r, _, above, k) in grown.items():
        comp, s, _ = built[key]
        want = top if above is None else left(built[above][0], k)
        if r + s != n or comp != want:
            raise LatticeStructureError("an element times its Kreweras complement is not c")
    # (pack(w), rank, step, T(w), T(w^-1 c)) rows, by (rank, matrix)
    order = [built[m] + (m, key) for key, (_, m, _, _) in grown.items()]
    order.sort(key=lambda row: (row[1], row[0]))
    del grown, built  # the rows hold all the lattice keeps: a lower peak while unpacking
    elements = packing.unpack([row[0] for row in order])
    rows = ((w, r, m, key, step) for w, (_, r, step, m, key) in zip(elements, order))
    return _lattice(cd, c, rows, (lower, upper))


# 2*bound+4 elements of (2*bound+2)-bit masks: time and memory grow
# quadratically (2 vCPU: 0.7 s and 40 MB at 4096, 1.7 s and 90 MB at 10,000)
MAX_KRONECKER_BOUND = 4096


def check_kronecker_bound(bound: int) -> None:
    """Refuse a truncation bound below 0 or past MAX_KRONECKER_BOUND."""
    if bound < 0:
        raise OutOfRangeError(f"truncation bound must be at least 0, got {bound}")
    if bound > MAX_KRONECKER_BOUND:
        raise ResourceLimitError(f"truncation bound {bound} exceeds the cap {MAX_KRONECKER_BOUND}")


def nc_kronecker(bound: int) -> NCLattice:
    """The truncated Kronecker lattice: id, c, and the reflections with
    root coordinate sum at most 2*bound+1.  Height two at every bound.

    Its roots are not closed under reflection, so the masks are set
    directly: id has none, a reflection has its own root, c has all.  So
    are the least steps: t_k is t_k times id, and c is t_k times t_k c for
    the least k whose t_k c lies in the truncation.
    """
    check_kronecker_bound(bound)
    cd = cartan.build_cartan(cartan.KRONECKER)
    c = cartan.coxeter_element(cd)
    refs = cartan.reflections(cd, bound)
    full = (1 << len(refs)) - 1
    bit_of = {t: 1 << k for k, t in enumerate(refs)}
    # a reflection's complement t^-1 c = t c may leave the truncation
    comps = [bit_of.get(t * c) for t in refs]
    k = next(k for k, comp in enumerate(comps) if comp is not None)
    rows = [(cartan.identity_element(cd), 0, 0, full, None), (c, 2, full, 0, (k, comps[k]))]
    rows.extend((t, 1, 1 << k, comp, (k, 0)) for k, (t, comp) in enumerate(zip(refs, comps)))
    rows.sort(key=lambda row: (row[1], row[0].matrix))
    atoms = list(bit_of.values())
    covers = ([0] * len(atoms) + atoms, atoms + [full] * len(atoms))
    return _lattice(cd, c, rows, covers, bound)


_NO_EXTREMUM = "bound set has no unique extremum; poset is not a lattice"


def kreweras(lattice: NCLattice, w: WeylElement) -> WeylElement:
    """The complement map w -> w^-1 c."""
    k = lattice.kreweras_index[lattice.index(w)]
    if k is None:
        raise LatticeStructureError("Kreweras complement escaped the lattice")
    return lattice.elements[k]


def co_kreweras(lattice: NCLattice, w: WeylElement) -> WeylElement:
    """The inverse complement map w -> c w^-1."""
    k = lattice.co_kreweras_index[lattice.index(w)]
    if k is None:
        raise LatticeStructureError("co-Kreweras complement escaped the lattice")
    return lattice.elements[k]


def meet(lattice: NCLattice, u: WeylElement, v: WeylElement) -> WeylElement:
    """Greatest lower bound; finite labels only.

    Atoms are reflections, and t <= meet(u, v) iff t <= u and t <= v, so
    T(meet(u, v)) = T(u) & T(v): the meet is the element with that mask,
    and a miss means the poset is not a lattice.
    """
    if lattice.truncation_bound is not None:
        raise UnsupportedLabelError("meet is defined for finite labels only")
    i = lattice.position.get(lattice.masks[lattice.index(u)] & lattice.masks[lattice.index(v)])
    if i is None:
        raise LatticeStructureError(_NO_EXTREMUM)
    return lattice.elements[i]


def join(lattice: NCLattice, u: WeylElement, v: WeylElement) -> WeylElement:
    """Least upper bound; finite labels only.

    x -> x^-1 c reverses the order, so join(u, v)^-1 c is the meet of
    u^-1 c and v^-1 c, whose mask is T(u^-1 c) & T(v^-1 c): the join is
    the co-Kreweras image of the element with that mask.  One AND checks
    that it lies above u and v; a miss or a missing complement means the
    poset is not a lattice.
    """
    if lattice.truncation_bound is not None:
        raise UnsupportedLabelError("join is defined for finite labels only")
    masks, kreweras = lattice.masks, lattice.kreweras_index
    i, j = lattice.index(u), lattice.index(v)
    if kreweras[i] is None or kreweras[j] is None:
        raise LatticeStructureError(_NO_EXTREMUM)
    k = lattice.position.get(masks[kreweras[i]] & masks[kreweras[j]])
    top = None if k is None else lattice.co_kreweras_index[k]
    if top is None or (masks[i] | masks[j]) & ~masks[top]:
        raise LatticeStructureError(_NO_EXTREMUM)
    return lattice.elements[top]


def ranked_dot(name: str, labels, ranks, edges) -> str:
    """Deterministic rank-layered DOT digraph: node i is labels[i] in the
    row of ranks[i], and each (i, j) of edges is an arrow."""
    lines = [f"digraph {name} {{", "  rankdir=BT;", '  node [shape=box, fontname="monospace"];']
    lines.extend(f'  n{i} [label="{label}"];' for i, label in enumerate(labels))
    by_rank: dict[int, list[str]] = {}
    for i, r in enumerate(ranks):
        by_rank.setdefault(r, []).append(f"n{i};")
    lines.extend(f"  {{ rank=same; {' '.join(by_rank[r])} }}" for r in sorted(by_rank))
    lines.extend(f"  n{i} -> n{j};" for i, j in edges)
    return "\n".join(lines) + "\n}\n"


def hasse_dot(lattice: NCLattice) -> str:
    """Deterministic rank-layered DOT digraph of the cover relations."""
    label = {a: "s(" + ",".join(map(str, a)) + ")" for a in lattice.roots}.__getitem__
    labels = ["".join(map(label, lattice.canonical_word(w))) or "id" for w in lattice.elements]
    return ranked_dot("nc", labels, [lattice.ranks[w] for w in lattice.elements], lattice.hasse)


def to_json(lattice: NCLattice) -> dict:
    """JSON form: type, coxeter word, ranked elements, and Hasse edges."""
    cox_word = [list(root) for root in lattice.canonical_word(lattice.coxeter)]
    data = {
        "type": lattice.cartan.label,
        "coxeter_word": cox_word,
        "elements": [
            {
                "id": i,
                "rank": lattice.ranks[w],
                "matrix": w.matrix,
            }
            for i, w in enumerate(lattice.elements)
        ],
        "hasse": lattice.hasse,
    }
    if lattice.truncation_bound is not None:
        data["truncation_bound"] = lattice.truncation_bound
    return data

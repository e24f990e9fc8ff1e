"""The poset NC(W,c) of noncrossing partitions and its lattice structure.

Enumeration grows prefix products of reflections rank by rank, so the
ambient Weyl group is never materialized; that is what makes E6-E8 sized
posets reachable.

Each element w also carries its reflection set T(w) = {t in T : t <= w},
the positive roots in the moved space of w, as an int bitmask over the
positive-root order.  On [id, c] the map w -> T(w) is an order embedding
(Brady-Watt 2002, Bessis 2003), so the order is a subset test, covers
are subset tests between adjacent ranks, and meets and joins are found
among the masks.  Growth computes T(w t) as the reflection closure of
T(w) and t.  Kreweras complements are kept as an index table, filled
from the complements w^-1 c that growth carries anyway.  The fixed-space
absolute order of `cartan` stays the oracle for all of it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from . import cartan
from .cartan import CartanDatum, WeylElement
from .errors import (
    LatticeStructureError,
    NotInPosetError,
    NotReflectionError,
    OutOfRangeError,
    UnsupportedLabelError,
)

Vector = tuple[int, ...]


@dataclass
class NCLattice:
    """Interval [id, c] in the absolute order, with rank and cover data.

    `masks[i]` is the reflection set of `elements[i]` as a bitmask over
    the positive roots; `kreweras_index[i]` is the index of its Kreweras
    complement, or None where the complement leaves a truncated poset.
    Elements are sorted by (rank, matrix).
    """

    cartan: CartanDatum
    coxeter: WeylElement
    elements: tuple[WeylElement, ...]
    ranks: dict[WeylElement, int]
    masks: tuple[int, ...]
    kreweras_index: tuple[int | None, ...]
    truncation_bound: int | None = None

    co_kreweras_index: tuple[int | None, ...] = field(init=False, repr=False)
    _index: dict[WeylElement, int] = field(init=False, repr=False)
    _hasse: tuple[tuple[int, int], ...] | None = field(init=False, repr=False)
    _words: dict[WeylElement, tuple[Vector, ...]] | None = field(init=False, repr=False)

    def __post_init__(self):
        self._index = {w: i for i, w in enumerate(self.elements)}
        inverse: list[int | None] = [None] * len(self.elements)
        for i, k in enumerate(self.kreweras_index):
            if k is not None:
                inverse[k] = i
        self.co_kreweras_index = tuple(inverse)
        self._hasse = None
        self._words = None

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, w: WeylElement) -> bool:
        return w in self._index

    def index(self, w: WeylElement) -> int:
        try:
            return self._index[w]
        except KeyError:
            raise NotInPosetError("element does not lie in NC(W,c)") from None

    def rank_of(self, w: WeylElement) -> int:
        self.index(w)
        return self.ranks[w]

    def identity(self) -> WeylElement:
        return cartan.identity_element(self.cartan)

    def leq(self, u: WeylElement, v: WeylElement) -> bool:
        return not self.masks[self.index(u)] & ~self.masks[self.index(v)]

    @property
    def hasse(self) -> tuple[tuple[int, int], ...]:
        """Cover relations as index pairs (lower, upper)."""
        if self._hasse is None:
            by_rank: dict[int, list[int]] = {}
            for i, w in enumerate(self.elements):
                by_rank.setdefault(self.ranks[w], []).append(i)
            masks = self.masks
            edges = []
            for r in sorted(by_rank):
                upper = [(j, ~masks[j]) for j in by_rank.get(r + 1, ())]
                for i in by_rank[r]:
                    m = masks[i]
                    edges.extend((i, j) for j, outside in upper if not m & outside)
            self._hasse = tuple(edges)
        return self._hasse

    def reflection_members(self) -> tuple[WeylElement, ...]:
        return tuple(w for w in self.elements if self.ranks[w] == 1)

    def canonical_word(self, w: WeylElement) -> tuple[Vector, ...]:
        """Lexicographically least shortest reflection word for w."""
        if self._words is None:
            self._words = self._compute_words()
        return self._words[w]

    def _compute_words(self) -> dict[WeylElement, tuple[Vector, ...]]:
        # an atom's mask is its own bit; w t covers w exactly when t <= w^-1 c
        gens = sorted(
            (cartan.reflection_root(self.cartan, t), t, self.masks[self._index[t]])
            for t in self.reflection_members()
        )
        words = {self.identity(): ()}
        frontier = [self.identity()]
        while frontier:
            frontier.sort(key=lambda w: words[w])
            nxt = []
            for w in frontier:
                k = self.kreweras_index[self._index[w]]
                above = 0 if k is None else self.masks[k]
                for root, t, bit in gens:
                    if above & bit:
                        u = w * t
                        if u not in words:
                            words[u] = words[w] + (root,)
                            nxt.append(u)
            frontier = nxt
        if words.keys() != self._index.keys():
            raise LatticeStructureError("reflection words do not cover NC exactly")
        return words


@functools.lru_cache(maxsize=None)
def _root_reflection_table(cd: CartanDatum) -> tuple[tuple[int, ...], ...]:
    """table[a][b] = k where s_a(beta_b) = +-beta_k, over the positive roots."""
    roots = cartan.positive_roots(cd)
    position = {r: k for k, r in enumerate(roots)}
    gram = cd.gram()
    table = []
    for a in roots:
        ga = [sum(x * g for x, g in zip(a, col)) for col in zip(*gram)]
        aa = sum(x * y for x, y in zip(a, ga))
        row = []
        for b in roots:
            q = 2 * sum(x * y for x, y in zip(b, ga)) // aa
            image = tuple(y - q * x for x, y in zip(a, b))
            k = position.get(image)
            row.append(k if k is not None else position[tuple(-y for y in image)])
        table.append(tuple(row))
    return tuple(table)


def _closure(mask: int, k: int, table: tuple[tuple[int, ...], ...]) -> int:
    """Reflection closure of the closed root set `mask` together with root k."""
    mask |= 1 << k
    todo = [k]
    while todo:
        x = todo.pop()
        row = table[x]
        rest = mask
        while rest:
            low = rest & -rest
            y = low.bit_length() - 1
            rest ^= low
            for z in (row[y], table[y][x]):
                if not mask >> z & 1:
                    mask |= 1 << z
                    todo.append(z)
    return mask


def _sorted_lattice(cd, c, ranks, masks, rems, bound=None) -> NCLattice:
    """Sort by (rank, matrix) and index the masks and Kreweras images."""
    elements = tuple(sorted(ranks, key=lambda w: (ranks[w], w.matrix)))
    index = {w: i for i, w in enumerate(elements)}
    return NCLattice(
        cartan=cd,
        coxeter=c,
        elements=elements,
        ranks=ranks,
        masks=tuple(masks[w] for w in elements),
        kreweras_index=tuple(index.get(rems[w]) for w in elements),
        truncation_bound=bound,
    )


def enumerate_nc(
    cd: CartanDatum,
    c: WeylElement | None = None,
    reflection_order: tuple[WeylElement, ...] | None = None,
) -> NCLattice:
    """All w with id <= w <= c, grown by prefix products of reflections."""
    if not cd.is_finite():
        raise UnsupportedLabelError("use nc_kronecker for the affine rank-2 type")
    if c is None:
        c = cartan.coxeter_element(cd)
    if not cartan.is_coxeter_element(cd, c):
        raise NotInPosetError("the given element is not a Coxeter element")
    n = cd.rank
    bit_of = {t: k for k, t in enumerate(cartan.reflections(cd))}
    refs = reflection_order if reflection_order is not None else cartan.reflections(cd)
    if any(t not in bit_of for t in refs):
        raise NotReflectionError("reflection_order holds an element that is not a reflection")
    refs = [(t, bit_of[t]) for t in refs]
    table = _root_reflection_table(cd)
    ident = cartan.identity_element(cd)
    ranks: dict[WeylElement, int] = {ident: 0}
    masks: dict[WeylElement, int] = {ident: 0}
    # rems[w] = w^-1 c, the Kreweras complement, carried so no inverse is computed
    rems: dict[WeylElement, WeylElement] = {ident: c}
    frontier = [ident]
    for r in range(n):
        nxt = []
        for w in frontier:
            mask, rem = masks[w], rems[w]
            for t, k in refs:
                if mask >> k & 1:
                    continue  # t <= w, so w t lies below w
                w2 = w * t
                if w2 in ranks:
                    continue
                rem2 = t * rem
                if cartan.absolute_length(cd, rem2) == n - r - 1:
                    ranks[w2] = r + 1
                    masks[w2] = _closure(mask, k, table)
                    rems[w2] = rem2
                    nxt.append(w2)
        frontier = nxt
    lat = _sorted_lattice(cd, c, ranks, masks, rems)
    if None in lat.kreweras_index:
        raise LatticeStructureError("Kreweras complement escaped the lattice")
    return lat


def nc_kronecker(bound: int) -> NCLattice:
    """The truncated Kronecker lattice: id, c, and the reflections with
    root coordinate sum at most 2*bound+1.  Height two at every bound.

    Its roots are not closed under reflection, so the masks are set
    directly: id has none, a reflection has its own root, c has all.
    """
    if bound < 0:
        raise OutOfRangeError(f"truncation bound must be at least 0, got {bound}")
    cd = cartan.build_cartan(cartan.KRONECKER)
    c = cartan.coxeter_element(cd)
    refs = cartan.reflections(cd, bound)
    ident = cartan.identity_element(cd)
    ranks = {ident: 0, c: 2}
    masks = {ident: 0, c: (1 << len(refs)) - 1}
    for k, t in enumerate(refs):
        ranks[t] = 1
        masks[t] = 1 << k
    rems = {w: w.inverse() * c for w in ranks}
    return _sorted_lattice(cd, c, ranks, masks, rems, bound)


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
    """Greatest lower bound; finite labels only."""
    if lattice.truncation_bound is not None:
        raise UnsupportedLabelError("meet is defined for finite labels only")
    common = lattice.masks[lattice.index(u)] & lattice.masks[lattice.index(v)]
    lower = [i for i, m in enumerate(lattice.masks) if not m & ~common]
    # the last lower bound in (rank, matrix) order must lie above all others
    top = lattice.masks[lower[-1]]
    if any(lattice.masks[i] & ~top for i in lower):
        raise LatticeStructureError("bound set has no unique extremum; poset is not a lattice")
    return lattice.elements[lower[-1]]


def join(lattice: NCLattice, u: WeylElement, v: WeylElement) -> WeylElement:
    """Least upper bound; finite labels only."""
    if lattice.truncation_bound is not None:
        raise UnsupportedLabelError("join is defined for finite labels only")
    both = lattice.masks[lattice.index(u)] | lattice.masks[lattice.index(v)]
    upper = [i for i, m in enumerate(lattice.masks) if not both & ~m]
    # the first upper bound in (rank, matrix) order must lie below all others
    bottom = lattice.masks[upper[0]]
    if any(bottom & ~lattice.masks[i] for i in upper):
        raise LatticeStructureError("bound set has no unique extremum; poset is not a lattice")
    return lattice.elements[upper[0]]


def _word_label(word: tuple[Vector, ...]) -> str:
    if not word:
        return "id"
    return "".join("s(" + ",".join(str(x) for x in root) + ")" for root in word)


def hasse_dot(lattice: NCLattice) -> str:
    """Deterministic rank-layered DOT digraph of the cover relations."""
    lines = [
        "digraph nc {",
        "  rankdir=BT;",
        '  node [shape=box, fontname="monospace"];',
    ]
    by_rank: dict[int, list[int]] = {}
    for i, w in enumerate(lattice.elements):
        by_rank.setdefault(lattice.ranks[w], []).append(i)
    for i, w in enumerate(lattice.elements):
        label = _word_label(lattice.canonical_word(w))
        lines.append(f'  n{i} [label="{label}"];')
    for r in sorted(by_rank):
        row = " ".join(f"n{i};" for i in by_rank[r])
        lines.append(f"  {{ rank=same; {row} }}")
    for i, j in lattice.hasse:
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


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
                "matrix": [list(row) for row in w.matrix],
            }
            for i, w in enumerate(lattice.elements)
        ],
        "hasse": [list(e) for e in lattice.hasse],
    }
    if lattice.truncation_bound is not None:
        data["truncation_bound"] = lattice.truncation_bound
    return data

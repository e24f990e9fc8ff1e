"""Reflection factorizations of Coxeter elements and the Hurwitz action.

The braid generator acts by conjugating to the left,

    (..., x_i, x_{i+1}, ...)  |->  (..., x_i x_{i+1} x_i^-1, x_i, ...),

with the inverse generator undoing it.  Either convention gives the same
orbits; this one is fixed here once and for all.  A reflection is named
by its positive root, and s_a s_b s_a is the reflection at s_a(b), so a
move is one root reflection: (a, b) -> (+-s_a(b), a), and the inverse
(a, b) -> (b, +-s_b(a)), the sign chosen to keep the root positive.
`hurwitz_orbit` runs on tuples of root indices, with one table of these
moves per call, and certifies each member by its product.

The brute force stays on matrices, as the independent route, and shares
no code with the root-index search.  It keeps each matrix as one
`cartan.Packing` int and carries the rest P^-1 c of each prefix product
P, so a child's rest t P^-1 c is one packed update and a leaf's rest is
its last factor, found by one lookup among the packed reflections; it
inverts and multiplies no matrix.  The public `Factorization` checks its
parts: `reflection_root` names each part's root, and the product is
built by rank-one updates, never by a matrix product.  The members that
the brute force and the orbit build are certified there and are not
checked again.
"""

from __future__ import annotations

from . import cartan
from .cartan import CartanDatum, WeylElement
from .errors import (
    NotInPosetError,
    NotReflectionError,
    OutOfRangeError,
    ResourceLimitError,
    StructuralError,
)

Vector = tuple[int, ...]

MAX_BRUTE_FORCE_RANK = 4
MAX_ORBIT_SIZE = 1_000_000


class Factorization:
    """An ordered tuple of reflections multiplying to a fixed target."""

    __slots__ = ("cartan", "parts", "target", "_roots")

    def __init__(self, cartan: CartanDatum, parts: tuple[WeylElement, ...], target: WeylElement):
        self.cartan, self.parts, self.target = cartan, parts, target
        self._roots = self._validate()

    @classmethod
    def _certified(
        cls, cd: CartanDatum, parts: tuple[WeylElement, ...], target: WeylElement, roots: tuple[Vector, ...]
    ) -> "Factorization":
        """A factorization whose parts, roots and product the search that
        found it has already certified: nothing is checked again."""
        f = object.__new__(cls)
        f.cartan, f.parts, f.target, f._roots = cd, parts, target, roots
        return f

    def _validate(self) -> tuple[Vector, ...]:
        """The parts' roots, each named by `reflection_root` (which is the
        reflection check), once the parts are multiplied out by rank-one
        updates, prod * s_alpha = prod - (prod alpha) (x) coroot(alpha)."""
        cd = self.cartan
        cartan.check_rank(cd, self.target)
        prod = cartan.identity_element(cd)
        roots = []
        for x in self.parts:
            try:
                alpha = cartan.reflection_root(cd, x)
            except NotReflectionError:
                raise NotReflectionError("factorization entry is not a reflection") from None
            prod = prod.times_reflection(alpha, cartan.coroot(cd, alpha))
            roots.append(alpha)
        if prod != self.target:
            raise NotInPosetError("parts do not multiply to the target")
        return tuple(roots)

    def key(self) -> tuple[WeylElement, ...]:
        """The parts: equal for equal factorizations, and hashed by the hash
        each WeylElement keeps, so a set of keys rehashes no matrix."""
        return self.parts

    def roots(self) -> tuple[Vector, ...]:
        return self._roots


def _conjugate(cd: CartanDatum, a: Vector, b: Vector) -> Vector:
    """The positive root +-s_a(b), whose reflection is s_a s_b s_a."""
    r = cartan.reflect(cd, a, b)
    return tuple(-x for x in r) if any(x < 0 for x in r) else r


def _move(cd: CartanDatum, roots: tuple[Vector, ...], i: int, inverse: bool) -> tuple[Vector, ...]:
    """The i-th braid generator (1-based) on a tuple of positive roots."""
    a, b = roots[i - 1], roots[i]
    pair = (b, _conjugate(cd, b, a)) if inverse else (_conjugate(cd, a, b), a)
    return roots[: i - 1] + pair + roots[i + 1 :]


def braid_act(f: Factorization, i: int, inverse: bool = False) -> Factorization:
    """Apply the i-th braid generator (1-based, 1 <= i < len(parts))."""
    if not 1 <= i < len(f.parts):
        raise OutOfRangeError(f"braid index {i} out of range for length {len(f.parts)}")
    cd = f.cartan
    roots = _move(cd, f.roots(), i, inverse)
    return Factorization(cd, tuple(cartan.reflection_element(cd, r) for r in roots), f.target)


def enumerate_factorizations(
    cd: CartanDatum, c: WeylElement | None = None
) -> tuple[Factorization, ...]:
    """All length-n reflection tuples with product c, by brute force, in
    the order of their parts' matrices.

    The last factor is forced by the first n-1, so the search space is
    |W_1|^(n-1); capped at rank <= MAX_BRUTE_FORCE_RANK.  A c with a
    column that is not a root lies outside W and has no factorization;
    for any other c every rest has root columns, so the packed updates
    are exact.  The search takes the reflections in packed order, which
    is matrix order, at each position, and the last one is forced, so the
    leaves come out sorted.
    """
    if not cd.is_finite():
        raise ResourceLimitError("cannot enumerate factorizations in infinite type")
    if cd.rank > MAX_BRUTE_FORCE_RANK:
        raise ResourceLimitError(
            f"rank {cd.rank} exceeds the brute-force cap {MAX_BRUTE_FORCE_RANK}"
        )
    if c is None:
        c = cartan.coxeter_element(cd)
    cartan.check_rank(cd, c)
    real = cartan.real_roots(cd)
    if not all(col in real for col in zip(*c.matrix)):
        return ()
    packing = cartan.packing(cd)
    refs = cartan.reflections(cd)
    keys = [packing.pack(t) for t in refs]
    leaf = {p: k for k, p in enumerate(keys)}
    order = sorted(range(len(refs)), key=keys.__getitem__)
    left = packing.reflection_times
    # (root indices of a prefix P, pack(P^-1 c)); t is an involution, so the
    # child's rest is t P^-1 c, and at depth n - 1 the rest is the last factor
    prefixes = iter([((), packing.pack(c))])
    for _ in range(cd.rank - 1):
        prefixes = ((ks + (k,), left(rest, k)) for ks, rest in prefixes for k in order)
    found = [ks + (leaf[rest],) for ks, rest in prefixes if rest in leaf]
    roots = cartan.positive_roots(cd)
    return tuple(
        Factorization._certified(cd, tuple(map(refs.__getitem__, ks)), c, tuple(map(roots.__getitem__, ks)))
        for ks in found
    )


def _moves(cd: CartanDatum) -> list[list[int]]:
    """moves[a][b] = the index of `_conjugate(cd, a, b)`, for roots a and b
    given by their indices in `positive_roots(cd)`."""
    roots = cartan.positive_roots(cd)
    index = {r: k for k, r in enumerate(roots)}
    try:
        return [[index[_conjugate(cd, a, b)] for b in roots] for a in roots]
    except KeyError:
        raise StructuralError("a root reflected in a root is not a root") from None


def hurwitz_orbit(f: Factorization) -> tuple[Factorization, ...]:
    """Closure of {f} under all braid generators and their inverses.

    The search runs on tuples of root indices through one move table.
    Each member's product is then taken on `cartan.Packing` ints and must
    be pack(target), or NotInPosetError is raised; members are sorted by
    their parts' matrices.
    """
    cd = f.cartan
    if not cd.is_finite():
        raise ResourceLimitError("Hurwitz orbits in infinite type are infinite")
    roots = cartan.positive_roots(cd)
    moves = _moves(cd)
    index = {r: k for k, r in enumerate(roots)}
    start = tuple(index[r] for r in f.roots())
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for ks in frontier:
            for i in range(len(ks) - 1):
                a, b = ks[i], ks[i + 1]
                head, tail = ks[:i], ks[i + 2 :]
                for h in (head + (moves[a][b], a) + tail, head + (b, moves[b][a]) + tail):
                    if h not in seen:
                        seen.add(h)
                        nxt.append(h)
                        if len(seen) > MAX_ORBIT_SIZE:
                            raise ResourceLimitError("Hurwitz orbit exceeded cap")
        frontier = nxt
    packing = cartan.packing(cd)
    left = packing.reflection_times
    one, top = packing.pack(cartan.identity_element(cd)), packing.pack(f.target)
    for ks in seen:
        p = one
        for k in reversed(ks):
            p = left(p, k)
        if p != top:
            raise NotInPosetError("a Hurwitz move left the factorizations of the target")
    refs = cartan.reflections(cd)
    rank = {k: r for r, k in enumerate(sorted(range(len(refs)), key=lambda k: refs[k].matrix))}
    members = sorted(seen, key=lambda ks: [rank[k] for k in ks])
    return tuple(
        Factorization._certified(
            cd, tuple(map(refs.__getitem__, ks)), f.target, tuple(map(roots.__getitem__, ks))
        )
        for ks in members
    )


def to_json(facts: tuple[Factorization, ...]) -> dict:
    """Factorizations as lists of root labels (coordinate lists)."""
    if not facts:
        return {"type": None, "factorizations": []}
    return {
        "type": facts[0].cartan.label,
        "factorizations": [f.roots() for f in facts],
    }

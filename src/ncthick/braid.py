"""Reflection factorizations of Coxeter elements and the Hurwitz action.

The braid generator acts by conjugating to the left,

    (..., x_i, x_{i+1}, ...)  |->  (..., x_i x_{i+1} x_i^-1, x_i, ...),

with the inverse generator undoing it.  Either convention gives the same
orbits; this one is fixed here once and for all.  A reflection is named
by its positive root, and s_a s_b s_a is the reflection at s_a(b), so a
move is one root reflection: (a, b) -> (+-s_a(b), a), and the inverse
(a, b) -> (b, +-s_b(a)), the sign chosen to keep the root positive.
The brute force stays on matrices, as the independent route, and
shares no code with the root-tuple search: it carries the rest P^-1 c
of each prefix product P, so a child's rest t P^-1 c is one rank-one
update and a leaf's rest is its last factor, and it inverts and
multiplies no matrix.  `Factorization` checks its parts the same way:
`reflection_root` names each part's root, and the product is built by
rank-one updates, never by a matrix product.
"""

from __future__ import annotations

from . import cartan
from .cartan import CartanDatum, WeylElement
from .errors import NotInPosetError, NotReflectionError, OutOfRangeError, ResourceLimitError

Vector = tuple[int, ...]

MAX_BRUTE_FORCE_RANK = 4
MAX_ORBIT_SIZE = 1_000_000


class Factorization:
    """An ordered tuple of reflections multiplying to a fixed target."""

    __slots__ = ("cartan", "parts", "target", "_roots")

    def __init__(self, cartan: CartanDatum, parts: tuple[WeylElement, ...], target: WeylElement):
        self.cartan, self.parts, self.target = cartan, parts, target
        self._roots = self._validate()

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


def _matrix_order(f: Factorization) -> tuple:
    """Sort key: the parts' matrices, compared entry by entry."""
    return tuple(x.matrix for x in f.parts)


def _move(cd: CartanDatum, roots: tuple[Vector, ...], i: int, inverse: bool) -> tuple[Vector, ...]:
    """The i-th braid generator (1-based) on a tuple of positive roots."""
    a, b = roots[i - 1], roots[i]
    r = cartan.reflect(cd, b, a) if inverse else cartan.reflect(cd, a, b)
    if any(x < 0 for x in r):
        r = tuple(-x for x in r)
    return roots[: i - 1] + ((b, r) if inverse else (r, a)) + roots[i + 1 :]


def _from_roots(cd: CartanDatum, roots: tuple[Vector, ...], target: WeylElement) -> Factorization:
    return Factorization(cd, tuple(cartan.reflection_element(cd, r) for r in roots), target)


def braid_act(f: Factorization, i: int, inverse: bool = False) -> Factorization:
    """Apply the i-th braid generator (1-based, 1 <= i < len(parts))."""
    if not 1 <= i < len(f.parts):
        raise OutOfRangeError(f"braid index {i} out of range for length {len(f.parts)}")
    return _from_roots(f.cartan, _move(f.cartan, f.roots(), i, inverse), f.target)


def enumerate_factorizations(
    cd: CartanDatum, c: WeylElement | None = None
) -> tuple[Factorization, ...]:
    """All length-n reflection tuples with product c, by brute force.

    The last factor is forced by the first n-1, so the search space is
    |W_1|^(n-1); capped at rank <= MAX_BRUTE_FORCE_RANK.
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
    roots = cartan.positive_roots(cd)
    steps = [(cartan.reflection_element(cd, a), a, cartan.coroot(cd, a)) for a in roots]
    out: list[Factorization] = []

    def grow(prefix: tuple[WeylElement, ...], rest: WeylElement) -> None:
        # rest = P^-1 c for the prefix product P; t is an involution, so the
        # child's rest is t * rest, and at a leaf the rest is the last factor
        if len(prefix) == cd.rank - 1:
            if cartan.is_reflection(cd, rest):
                out.append(Factorization(cd, prefix + (rest,), c))
            return
        for t, a, q in steps:
            grow(prefix + (t,), rest.reflection_times(a, q))

    grow((), c)
    return tuple(sorted(out, key=_matrix_order))


def hurwitz_orbit(f: Factorization) -> tuple[Factorization, ...]:
    """Closure of {f} under all braid generators and their inverses.

    The search runs on root tuples; each member becomes a Factorization
    (and is checked) once, at the end.
    """
    cd = f.cartan
    if not cd.is_finite():
        raise ResourceLimitError("Hurwitz orbits in infinite type are infinite")
    start = f.roots()
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for roots in frontier:
            for i in range(1, len(roots)):
                for inv in (False, True):
                    h = _move(cd, roots, i, inv)
                    if h not in seen:
                        seen.add(h)
                        nxt.append(h)
                        if len(seen) > MAX_ORBIT_SIZE:
                            raise ResourceLimitError("Hurwitz orbit exceeded cap")
        frontier = nxt
    return tuple(sorted((_from_roots(cd, r, f.target) for r in seen), key=_matrix_order))


def to_json(facts: tuple[Factorization, ...]) -> dict:
    """Factorizations as lists of root labels (coordinate lists)."""
    if not facts:
        return {"type": None, "factorizations": []}
    return {
        "type": facts[0].cartan.label,
        "factorizations": [f.roots() for f in facts],
    }

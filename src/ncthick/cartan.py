"""Cartan data and exact integer arithmetic in Weyl groups.

Vectors live in Z^n, written in the basis e_1..e_n of simple roots.  A
group element is an integer matrix acting on column vectors, so column j
holds the image of e_j and products compose right to left: (u*v)(x) =
u(v(x)).  The bilinear form is (e_i, e_j) = d_i * C_ij for the Cartan
matrix C with minimal positive integer symmetrizer d.

Supported labels: A1.., B2.., C2.., D3.., E6, E7, E8, F4, G2, and the
rank-2 affine KRONECKER type (two vertices joined by a double bond).

A reflection is named by its positive root: `coroot` reads the row q
of s_alpha = 1 - alpha (x) q off the one Gram vector G alpha, and
`reflection_root` reads alpha back off the first nonzero column of
1 - w, which is also the reflection test.  A product with a reflection
is an O(n^2) rank-one update (`WeylElement.times_reflection`, on the
right, and `reflection_times`, on the left).

Absolute length uses the fixed-space codimension formula for finite
types, which the self-check suite cross-validates against an independent
breadth-first search over the Cayley graph on the reflection set.
"""

from __future__ import annotations

import functools
import math
import re

from . import linalg
from .errors import (
    DimensionMismatchError,
    InfiniteGroupError,
    IsotropicVectorError,
    NonIntegralReflectionError,
    NotInPosetError,
    NotIntegerError,
    NotRealRootError,
    NotReflectionError,
    PermutationError,
    ResourceLimitError,
    UnsupportedLabelError,
)

Vector = tuple[int, ...]
IntMat = tuple[tuple[int, ...], ...]

KRONECKER = "KRONECKER"

_LABEL_RE = re.compile(r"([ABCDEFG])([1-9][0-9]*)")

# Degrees of the basic invariants (Humphreys 1990, Table 3.1); the largest
# is the Coxeter number, which checks Coxeter elements without the group
_DEGREES = {
    "A": lambda n: tuple(range(2, n + 2)),
    "B": lambda n: tuple(range(2, 2 * n + 1, 2)),
    "C": lambda n: tuple(range(2, 2 * n + 1, 2)),
    "D": lambda n: tuple(sorted((*range(2, 2 * n - 1, 2), n))),
    "E": lambda n: {
        6: (2, 5, 6, 8, 9, 12),
        7: (2, 6, 8, 10, 12, 14, 18),
        8: (2, 8, 12, 14, 18, 20, 24, 30),
    }[n],
    "F": lambda n: (2, 6, 8, 12),
    "G": lambda n: (2, 6),
}


def parse_label(label: str) -> tuple[str, int]:
    """Normalize a type label into (family, rank); KRONECKER -> ('K', 2).

    Only the canonical spelling is accepted (the whole string, ASCII
    digits, no leading zero), so each type has one CartanDatum and one
    set of cache entries.
    """
    if label == KRONECKER:
        return "K", 2
    m = _LABEL_RE.fullmatch(label)
    if not m:
        raise UnsupportedLabelError(f"unknown type label {label!r}")
    family, n = m.group(1), int(m.group(2))
    limits = {"A": (1, None), "B": (2, None), "C": (2, None), "D": (3, None),
              "E": (6, 8), "F": (4, 4), "G": (2, 2)}
    lo, hi = limits[family]
    if n < lo or (hi is not None and n > hi):
        raise UnsupportedLabelError(f"rank {n} not supported for family {family}")
    return family, n


def tree_edges(label: str) -> tuple[tuple[int, int], ...]:
    """Edges of the underlying tree, Bourbaki numbering, smaller vertex first."""
    family, n = parse_label(label)
    if family == "K":
        return ((1, 2),)
    if family in "ABCFG":
        return tuple((i, i + 1) for i in range(1, n))
    if family == "D":
        chain = tuple((i, i + 1) for i in range(1, n - 2))
        return chain + ((n - 2, n - 1), (n - 2, n))
    # E types: node 2 hangs off node 4 of the chain 1-3-4-5-...
    edges = [(1, 3), (2, 4), (3, 4), (4, 5), (5, 6)]
    if n >= 7:
        edges.append((6, 7))
    if n == 8:
        edges.append((7, 8))
    return tuple(sorted(edges))


def _root_lengths(family: str, n: int) -> tuple[int, ...]:
    """Squared root lengths per simple root, short roots normalized to 2."""
    if family in "ADE" or family == "K":
        return (2,) * n
    if family == "B":
        return (4,) * (n - 1) + (2,)
    if family == "C":
        return (2,) * (n - 1) + (4,)
    if family == "F":
        return (4, 4, 2, 2)
    return (2, 6)  # G2


class _Value:
    """A read-only value, equal and hashed by `_key()`.

    Fields are set once, in __init__, through object.__setattr__;
    assigning or deleting one afterwards raises AttributeError, so a value
    that keys a dict or a cache cannot change under it.  A value is equal
    to itself without building a key.
    """

    __slots__ = ()

    def _key(self) -> tuple:
        raise NotImplementedError

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return other is self or self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


_init = object.__setattr__  # one global lookup on WeylElement's hot path


class CartanDatum(_Value):
    """A symmetrizable generalized Cartan matrix with its symmetrizer.

    Equal and hashed by (label, rank, matrix, symmetrizer); the Gram
    matrix and the hash are computed once.
    """

    __slots__ = ("label", "rank", "matrix", "symmetrizer", "_gram", "_hash")

    def __init__(self, label: str, rank: int, matrix: IntMat, symmetrizer: tuple[int, ...]):
        _init(self, "label", label)
        _init(self, "rank", rank)
        _init(self, "matrix", matrix)
        _init(self, "symmetrizer", symmetrizer)
        n, c, d = rank, matrix, symmetrizer
        if len(c) != n or any(len(row) != n for row in c) or len(d) != n:
            raise DimensionMismatchError("Cartan data of inconsistent rank")
        for i in range(n):
            if c[i][i] != 2:
                raise UnsupportedLabelError("diagonal Cartan entries must be 2")
            if d[i] <= 0:
                raise UnsupportedLabelError("symmetrizer must be positive")
            for j in range(n):
                if i != j and c[i][j] > 0:
                    raise UnsupportedLabelError("off-diagonal Cartan entries must be <= 0")
                if (c[i][j] == 0) != (c[j][i] == 0):
                    raise UnsupportedLabelError("Cartan zero pattern must be symmetric")
                if d[i] * c[i][j] != d[j] * c[j][i]:
                    raise UnsupportedLabelError("Cartan matrix is not symmetrizable by d")
        gram = tuple(tuple(d[i] * c[i][j] for j in range(n)) for i in range(n))
        _init(self, "_gram", gram)
        minors = [linalg.int_det([row[: k + 1] for row in gram[: k + 1]]) for k in range(n)]
        if self.is_finite():
            if any(m <= 0 for m in minors):
                raise UnsupportedLabelError("form is not positive definite")
        else:
            if any(m <= 0 for m in minors[:-1]) or minors[-1] != 0:
                raise UnsupportedLabelError("affine form must be semidefinite with 1-dim kernel")
        _init(self, "_hash", hash(self._key()))

    def _key(self) -> tuple:
        return (self.label, self.rank, self.matrix, self.symmetrizer)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return (
            f"CartanDatum(label={self.label!r}, rank={self.rank!r}, "
            f"matrix={self.matrix!r}, symmetrizer={self.symmetrizer!r})"
        )

    def is_finite(self) -> bool:
        return self.label != KRONECKER

    def gram(self) -> IntMat:
        """Matrix of the bilinear form, (e_i, e_j) = d_i C_ij."""
        return self._gram


class WeylElement(_Value):
    """An integer matrix acting on the root lattice in the e-basis, equal
    by the matrix; its hash, that of (matrix,), is computed once, in
    __init__, so a dict or cache lookup does not rehash n^2 entries."""

    __slots__ = ("matrix", "_hash")

    def __init__(self, matrix: IntMat):
        _init(self, "matrix", matrix)
        _init(self, "_hash", hash((matrix,)))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return other is self or self.matrix == other.matrix
        return NotImplemented

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"WeylElement(matrix={self.matrix!r})"

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        return WeylElement(linalg.mat_mul(self.matrix, other.matrix))

    def inverse(self) -> "WeylElement":
        return WeylElement(linalg.int_inverse(self.matrix))

    def apply(self, v: Vector) -> Vector:
        return linalg.mat_vec(self.matrix, v)

    def times_reflection(self, alpha: Vector, q: Vector) -> "WeylElement":
        """self * s_alpha = self - (self alpha) (x) q, for q = coroot(alpha)."""
        return WeylElement(linalg.sub_outer(self.matrix, linalg.mat_vec(self.matrix, alpha), q))

    def reflection_times(self, alpha: Vector, q: Vector) -> "WeylElement":
        """s_alpha * self = self - alpha (x) (q^T self), for q = coroot(alpha)."""
        qm = linalg.mat_vec(zip(*self.matrix), q)
        return WeylElement(linalg.sub_outer(self.matrix, alpha, qm))

    def det(self) -> int:
        return linalg.int_det(self.matrix)

    def is_identity(self) -> bool:
        n = len(self.matrix)
        return self.matrix == linalg.identity(n)


@functools.lru_cache(maxsize=None)
def build_cartan(label: str) -> CartanDatum:
    """Standard Cartan matrix and minimal symmetrizer for the label."""
    family, n = parse_label(label)
    lengths = _root_lengths(family, n)
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        gram[i][i] = lengths[i]
    for i, j in tree_edges(label):
        bond = -2 if family == "K" else -max(lengths[i - 1], lengths[j - 1]) // 2
        gram[i - 1][j - 1] = gram[j - 1][i - 1] = bond
    d = tuple(length // 2 for length in lengths)
    c = tuple(
        tuple(2 * gram[i][j] // lengths[i] for j in range(n)) for i in range(n)
    )
    return CartanDatum(label=label, rank=n, matrix=c, symmetrizer=d)


def identity_element(cd: CartanDatum) -> WeylElement:
    return WeylElement(linalg.identity(cd.rank))


def check_rank(cd: CartanDatum, w: WeylElement) -> None:
    """Refuse a matrix that is not rank x rank, or has an entry whose type
    is not int, where it first meets cd."""
    n = cd.rank
    if len(w.matrix) != n or any(len(row) != n for row in w.matrix):
        raise DimensionMismatchError(f"a {len(w.matrix)}-row matrix against rank {n}")
    if not {type(x) for row in w.matrix for x in row} <= {int}:
        raise NotIntegerError("Weyl element entries must be ints")


def _gram_vector(cd: CartanDatum, a: Vector, b: Vector) -> Vector:
    """G b, once a and b are both checked to have length rank."""
    if len(a) != cd.rank or len(b) != cd.rank:
        raise DimensionMismatchError(
            f"vectors of length {len(a)}, {len(b)} against rank {cd.rank}"
        )
    return linalg.mat_vec(cd.gram(), b)


def form(cd: CartanDatum, a: Vector, b: Vector) -> int:
    """Bilinear form sum a_i b_j d_i C_ij; symmetric in its arguments."""
    return linalg.dot(a, _gram_vector(cd, a, b))


def reflect(cd: CartanDatum, alpha: Vector, xi: Vector) -> Vector:
    """Reflect xi in the hyperplane orthogonal to alpha."""
    g_alpha = _gram_vector(cd, xi, alpha)
    aa = linalg.dot(alpha, g_alpha)
    if aa == 0:
        raise IsotropicVectorError(f"cannot reflect at isotropic vector {alpha}")
    twice = 2 * linalg.dot(xi, g_alpha)
    q, r = divmod(twice, aa)
    if r != 0:
        raise NonIntegralReflectionError(
            f"2(xi,alpha)={twice} not divisible by (alpha,alpha)={aa}"
        )
    return tuple(x - q * a for x, a in zip(xi, alpha))


def is_real_root(cd: CartanDatum, v: Vector) -> bool:
    if len(v) != cd.rank:
        return False
    if cd.is_finite():
        return v in real_roots(cd)
    p, q = v
    if p <= 0 and q <= 0:
        p, q = -p, -q
    return p >= 0 and q >= 0 and abs(p - q) == 1


@functools.lru_cache(maxsize=None)
def coroot(cd: CartanDatum, alpha: Vector) -> Vector:
    """q_j = <e_j, alpha^vee> = 2 (G alpha)_j / (alpha, alpha): s_alpha = 1 - alpha (x) q."""
    if not is_real_root(cd, alpha):
        raise NotRealRootError(f"{alpha} is not a real root of {cd.label}")
    g_alpha = linalg.mat_vec(cd.gram(), alpha)
    aa = linalg.dot(alpha, g_alpha)
    if any(2 * g % aa for g in g_alpha):
        raise NonIntegralReflectionError(f"2 G alpha = 2 * {g_alpha} not divisible by {aa}")
    return tuple(2 * g // aa for g in g_alpha)


@functools.lru_cache(maxsize=None)
def reflection_element(cd: CartanDatum, alpha: Vector) -> WeylElement:
    """The matrix 1 - alpha (x) q of s_alpha at a real root, q = coroot(alpha)."""
    return WeylElement(linalg.sub_outer(linalg.identity(cd.rank), alpha, coroot(cd, alpha)))


def simple_reflection(cd: CartanDatum, i: int) -> WeylElement:
    if not 1 <= i <= cd.rank:
        raise DimensionMismatchError(f"simple reflection index {i} out of 1..{cd.rank}")
    return reflection_element(cd, tuple(int(j == i - 1) for j in range(cd.rank)))


@functools.lru_cache(maxsize=None)
def real_roots(cd: CartanDatum, bound: int = 0) -> frozenset[Vector]:
    """All real roots: orbit closure for finite types, the |p-q|=1 strip
    with coordinate sum at most 2*bound+1 (and its negatives) for KRONECKER."""
    if not cd.is_finite():
        out = set()
        cap = 2 * bound + 1
        for p in range(0, cap + 1):
            for q in (p - 1, p + 1):
                if q >= 0 and p + q <= cap:
                    out.add((p, q))
                    out.add((-p, -q))
        return frozenset(out)
    # s_i(v) = v - (sum_j C_ij v_j) e_i: one Cartan row per simple
    # reflection, and v is fixed where that sum is 0
    n = cd.rank
    simples = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    roots = set(simples)
    frontier = list(simples)
    while frontier:
        nxt = []
        for v in frontier:
            for i, row in enumerate(cd.matrix):
                q = linalg.dot(row, v)
                if q:
                    w = v[:i] + (v[i] - q,) + v[i + 1:]
                    if w not in roots:
                        roots.add(w)
                        nxt.append(w)
        frontier = nxt
    return frozenset(roots)


@functools.lru_cache(maxsize=None)
def positive_roots(cd: CartanDatum, bound: int = 0) -> tuple[Vector, ...]:
    """The roots with nonnegative coordinates, sorted by coordinates; sorted
    once per (cd, bound), as each lattice, oracle and certificate reads them.
    A bound of 0 is never passed on, so `lru_cache` holds one key per label."""
    roots = real_roots(cd, bound) if bound else real_roots(cd)
    return tuple(sorted(v for v in roots if all(x >= 0 for x in v)))


@functools.lru_cache(maxsize=None)
def reflections(cd: CartanDatum, bound: int = 0) -> tuple[WeylElement, ...]:
    """One reflection per positive root, in positive-root order."""
    roots = positive_roots(cd, bound) if bound else positive_roots(cd)
    return tuple(reflection_element(cd, a) for a in roots)


def is_reflection(cd: CartanDatum, w: WeylElement) -> bool:
    """Reflections are exactly the elements that `reflection_root` accepts."""
    try:
        reflection_root(cd, w)
    except NotReflectionError:
        return False
    return True


@functools.lru_cache(maxsize=None)
def reflection_root(cd: CartanDatum, w: WeylElement) -> Vector:
    """The unique positive real root alpha with w = s_alpha.

    Column j of 1 - s_alpha is <e_j, alpha^vee> alpha, so the first
    nonzero column of 1 - w, divided by its gcd (a root is primitive) and
    made positive, is the only candidate; it is accepted only if its
    reflection is w.
    """
    check_rank(cd, w)
    n = cd.rank
    for j in range(n):
        col = [int(i == j) - w.matrix[i][j] for i in range(n)]
        if any(col):
            break
    else:
        raise NotReflectionError("the identity is not a reflection")
    g = math.gcd(*col)
    if any(x < 0 for x in col):
        g = -g
    alpha = tuple(x // g for x in col)
    if not is_real_root(cd, alpha) or reflection_element(cd, alpha) != w:
        raise NotReflectionError("element is not a reflection")
    return alpha


# elements a whole-group enumeration may hold.  At 51,840 (E6; one core of
# an x86_64 VM, Python 3.11): weyl_group 7 s and the BFS length table 46 s,
# each at 56-58 MB peak RSS, so twice that is minutes and about 100 MB
MAX_WEYL_ORDER = 100_000


def _check_weyl_order(cd: CartanDatum) -> None:
    """Refuse a whole-group enumeration of an infinite group, or of one
    whose order |W| = prod d_i exceeds MAX_WEYL_ORDER."""
    if not cd.is_finite():
        raise InfiniteGroupError("the KRONECKER Weyl group is infinite")
    order = math.prod(degrees(cd))
    if order > MAX_WEYL_ORDER:
        raise ResourceLimitError(f"group order {order} exceeds cap {MAX_WEYL_ORDER}")


def weyl_group(cd: CartanDatum) -> frozenset[WeylElement]:
    """Closure of the simple reflections under multiplication, refused
    past MAX_WEYL_ORDER elements before the first product."""
    _check_weyl_order(cd)
    gens = [simple_reflection(cd, i) for i in range(1, cd.rank + 1)]
    seen = {identity_element(cd)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                u = w * g
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    return frozenset(seen)


def absolute_length(cd: CartanDatum, w: WeylElement) -> int:
    """Minimal number of reflections multiplying to w.

    Finite types use the fixed-space codimension rank(w - id); the
    infinite dihedral KRONECKER group is classified by determinant.
    """
    check_rank(cd, w)
    if cd.is_finite():
        n = cd.rank
        diff = tuple(
            tuple(w.matrix[i][j] - int(i == j) for j in range(n)) for i in range(n)
        )
        return linalg.rank(diff, n)
    if w.is_identity():
        return 0
    return 1 if w.det() == -1 else 2


@functools.lru_cache(maxsize=None)
def _bfs_length_table(cd: CartanDatum) -> dict[WeylElement, int]:
    """Distances from the identity in the Cayley graph on all reflections,
    refused past MAX_WEYL_ORDER elements before the first product."""
    _check_weyl_order(cd)
    refs = reflections(cd)
    dist = {identity_element(cd): 0}
    frontier = list(dist)
    d = 0
    while frontier:
        d += 1
        nxt = []
        for w in frontier:
            for t in refs:
                u = w * t
                if u not in dist:
                    dist[u] = d
                    nxt.append(u)
        frontier = nxt
    return dist


def absolute_length_bfs(cd: CartanDatum, w: WeylElement) -> int:
    """Independent oracle for absolute_length; enumerates the whole group."""
    check_rank(cd, w)
    try:
        return _bfs_length_table(cd)[w]
    except KeyError:
        raise NotInPosetError("element does not lie in W") from None


def abs_leq(cd: CartanDatum, u: WeylElement, v: WeylElement) -> bool:
    """The absolute order: u <= v iff l(u) + l(u^-1 v) = l(v)."""
    lu = absolute_length(cd, u)
    lv = absolute_length(cd, v)
    if lu > lv:
        return False
    return lu + absolute_length(cd, u.inverse() * v) == lv


def coxeter_element(cd: CartanDatum, perm: tuple[int, ...] | None = None) -> WeylElement:
    """Product of all simple reflections in the order given by perm."""
    n = cd.rank
    if perm is None:
        perm = tuple(range(1, n + 1))
    if sorted(perm) != list(range(1, n + 1)):
        raise PermutationError(f"{perm} is not a permutation of 1..{n}")
    w, simples = identity_element(cd), linalg.identity(n)
    for i in perm:
        w = w.times_reflection(simples[i - 1], coroot(cd, simples[i - 1]))
    return w


def degrees(cd: CartanDatum) -> tuple[int, ...]:
    """The degrees d_1 <= ... <= d_n of W's basic invariants: |W| = prod d_i,
    h = max d_i and |Phi+| = n h / 2."""
    family, n = parse_label(cd.label)
    if family == "K":
        raise InfiniteGroupError("the KRONECKER Weyl group has no invariant degrees")
    return _DEGREES[family](n)


def coxeter_number(cd: CartanDatum) -> int:
    if not cd.is_finite():
        raise InfiniteGroupError("the KRONECKER Coxeter element has infinite order")
    return max(degrees(cd))


def is_coxeter_element(cd: CartanDatum, c: WeylElement) -> bool:
    """Necessary check: absolute length n and multiplicative order h.

    This rejects non-Coxeter elements such as -id in B2 without
    enumerating the group; a full conjugacy test is not attempted.
    """
    if not cd.is_finite():
        return absolute_length(cd, c) == cd.rank and c.det() == 1
    if absolute_length(cd, c) != cd.rank:
        return False
    h = coxeter_number(cd)
    power = c
    for k in range(1, h):
        if power.is_identity():
            return False
        power = power * c
    return power.is_identity()

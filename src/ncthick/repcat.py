"""Exact quiver representations for simply-laced Dynkin types.

Morphism spaces are computed by solving the arrow-commutation linear
system exactly, with `linalg`'s elimination over the integers: `hom`
reads a basis of primitive integer vectors off the system, `hom_dim`
only its rank, and a system with no unknowns (no vertex where both
spaces are nonzero) is Hom = 0 with no row built.
Ext^1 comes through the hereditary Euler form.  One indecomposable per
positive root is built deterministically: a thin one (entries 0 or 1) as
k on its support with 1 on each arrow inside, any other by reflection-
functor transport of a simple along sink reorderings, which reaches every
positive root of a Dynkin quiver (Bernstein-Gelfand-Ponomarev), so a
failed transport raises StructuralError.  This module is the
independent oracle the combinatorial modules are checked against, so
nothing here consults the Weyl-group machinery beyond root enumeration
and simple reflections of roots.  Production Hom and Ext^1 come from
the hammocks in `derived`; only `verify`, `thick lattice --oracle` and
the tests call this module.

`decompose` has three certificates: the zero representation and the
stored indecomposable of a root take no solve, and any other brick on a
positive root (End = k) takes one.  Anything else it splits by counting
Hom into each indecomposable whose dimension vector lies under its own
and applying the inverse of the Hom Gram matrix on those roots, which is
integral because the matrix is unitriangular in a path order of the AR
quiver.

Representations store one integer matrix per arrow with shape
dim[target] x dim[source]; matrices with zero rows or columns are empty
tuples, with shapes recovered from the dimension vector.  The
constructor refuses an entry, of a map or of the dimension vector,
whose type is not int, so the elimination meets ints only.
"""

from __future__ import annotations

import functools
import itertools

from . import cartan, linalg
from .errors import (
    DimensionMismatchError,
    NotIntegerError,
    NotRealRootError,
    StructuralError,
    UnsupportedLabelError,
)
from .tquiver import TranslationQuiver

Vector = tuple[int, ...]
Mat = tuple[tuple[int, ...], ...]

_SIMPLY_LACED = "ADE"


class Quiver(cartan._Value):
    """An orientation of a simply-laced Dynkin tree, vertices 1..n; equal
    and hashed by (label, vertices, arrows)."""

    __slots__ = ("label", "vertices", "arrows")

    def __init__(self, label: str, vertices: tuple[int, ...], arrows: tuple[tuple[int, int], ...]):
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "arrows", arrows)
        family, n = cartan.parse_label(self.label)
        if family not in _SIMPLY_LACED:
            raise UnsupportedLabelError(
                f"{self.label} is not simply-laced; species representations are out of scope"
            )
        if self.vertices != tuple(range(1, n + 1)):
            raise DimensionMismatchError("vertices must be 1..n")
        edges = sorted(tuple(sorted(a)) for a in self.arrows)
        if edges != sorted(cartan.tree_edges(self.label)):
            raise DimensionMismatchError(
                f"arrows are not an orientation of the {self.label} tree"
            )

    def _key(self) -> tuple:
        return (self.label, self.vertices, self.arrows)

    @property
    def rank(self) -> int:
        return len(self.vertices)


def dynkin_quiver(label: str, arrows: tuple[tuple[int, int], ...] | None = None) -> Quiver:
    """Quiver on the tree of the label; default orientation low -> high."""
    family, n = cartan.parse_label(label)
    if arrows is None:
        arrows = cartan.tree_edges(label)
    return Quiver(label=label, vertices=tuple(range(1, n + 1)), arrows=tuple(arrows))


class Representation(cartan._Value):
    """Equal and hashed by (quiver, dim, maps)."""

    __slots__ = ("quiver", "dim", "maps")

    def __init__(self, quiver: Quiver, dim: Vector, maps: tuple[Mat, ...]):
        object.__setattr__(self, "quiver", quiver)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "maps", maps)
        arrows = quiver.arrows
        if len(dim) != len(quiver.vertices) or min(dim) < 0:
            raise DimensionMismatchError("dimension vector does not fit the quiver")
        if len(maps) != len(arrows):
            raise DimensionMismatchError("one matrix per arrow required")
        for (s, t), m in zip(arrows, maps):
            rows, cols = dim[t - 1], dim[s - 1]
            if len(m) != rows or rows and {*map(len, m)} != {cols}:
                raise DimensionMismatchError(
                    f"matrix for arrow {s}->{t} must be {rows}x{cols}"
                )
        if not {type(x) for m in maps for row in m for x in row}.union(map(type, dim)) <= {int}:
            raise NotIntegerError("dimension vector and matrix entries must be ints")

    def _key(self) -> tuple:
        return (self.quiver, self.dim, self.maps)


class HomSpace:
    """A basis of intertwiners; each element is one matrix per vertex."""

    __slots__ = ("source", "target", "basis")

    def __init__(
        self, source: Representation, target: Representation, basis: tuple[tuple[Mat, ...], ...]
    ):
        self.source, self.target, self.basis = source, target, basis

    @property
    def dim(self) -> int:
        return len(self.basis)


def _zero(rows: int, cols: int) -> Mat:
    return ((0,) * cols,) * rows


def _mm(a: Mat, b: Mat, n: int, k: int, m: int) -> Mat:
    """a (n x k) times b (k x m) with explicit shapes, empty-safe."""
    return tuple(
        tuple(sum(a[i][r] * b[r][j] for r in range(k)) for j in range(m))
        for i in range(n)
    )


def _hom_system(
    q: Quiver, source: Representation, target: Representation
) -> tuple[list[list], int, list[int]]:
    """The intertwining system f_t M_a = N_a f_s: (rows, unknowns, offsets).

    The unknowns are the entries of f_v (dn[v] x dm[v]) for each vertex,
    row-major, f_v starting at offsets[v].  With no unknowns Hom is 0 and
    no row is built.
    """
    if source.quiver != q or target.quiver != q:
        raise DimensionMismatchError("representations live over a different quiver")
    dm, dn = source.dim, target.dim
    offsets = []
    total = 0
    for v in range(q.rank):
        offsets.append(total)
        total += dn[v] * dm[v]
    rows: list[list] = []
    if not total:
        return rows, total, offsets
    for a_idx, (s, t) in enumerate(q.arrows):
        ma = source.maps[a_idx]
        na = target.maps[a_idx]
        si, ti = s - 1, t - 1
        for r in range(dn[ti]):
            for c in range(dm[si]):
                row = [0] * total
                # (f_t @ M_a)[r][c] contributes M_a[k][c] on f_t[r][k]
                for k in range(dm[ti]):
                    row[offsets[ti] + r * dm[ti] + k] = ma[k][c]
                # (N_a @ f_s)[r][c] contributes N_a[r][k] on f_s[k][c]; the two
                # blocks are disjoint as s != t (a Dynkin quiver has no loops)
                for k in range(dn[si]):
                    row[offsets[si] + k * dm[si] + c] = -na[r][k]
                rows.append(row)
    return rows, total, offsets


def hom(q: Quiver, source: Representation, target: Representation) -> HomSpace:
    """Solve the intertwining system exactly: a basis of its kernel."""
    rows, total, offsets = _hom_system(q, source, target)
    if not total:
        return HomSpace(source=source, target=target, basis=())
    dm, dn = source.dim, target.dim
    basis = []
    for vec in linalg.nullspace(rows, total):
        mats = []
        for v in range(q.rank):
            o = offsets[v]
            mats.append(
                tuple(
                    tuple(vec[o + r * dm[v] + c] for c in range(dm[v]))
                    for r in range(dn[v])
                )
            )
        basis.append(tuple(mats))
    return HomSpace(source=source, target=target, basis=tuple(basis))


def hom_dim(q: Quiver, source: Representation, target: Representation) -> int:
    """dim Hom from the same system: unknowns minus rank, no basis built;
    with no equation (no unknown among them) every unknown is free."""
    rows, total, _ = _hom_system(q, source, target)
    return total - linalg.rank(rows, total) if rows else total


def euler_form(q: Quiver, a: Vector, b: Vector) -> int:
    """Sum a_i b_i minus sum over arrows i->j of a_i b_j; a and b must
    each have one entry per vertex."""
    if len(a) != q.rank or len(b) != q.rank:
        raise DimensionMismatchError(f"vectors of length {len(a)}, {len(b)} against rank {q.rank}")
    val = linalg.dot(a, b)
    for s, t in q.arrows:
        val -= a[s - 1] * b[t - 1]
    return val


def ext1_dim(q: Quiver, source: Representation, target: Representation) -> int:
    """dim Ext^1: dim Hom minus the Euler form, >= 0 as kQ is hereditary."""
    e = hom_dim(q, source, target) - euler_form(q, source.dim, target.dim)
    if e < 0:
        raise StructuralError("negative Ext dimension; hereditary identity violated")
    return e


# ---------------------------------------------------------------------------
# indecomposables: thin ones directly, the others by reflection-functor transport


def _flip_at(arrows: tuple[tuple[int, int], ...], i: int) -> tuple[tuple[int, int], ...]:
    return tuple((t, s) if s == i or t == i else (s, t) for s, t in arrows)


def _coreflect(
    arrows: tuple[tuple[int, int], ...], dim: Vector, maps: tuple[Mat, ...], i: int
) -> tuple[Vector, tuple[Mat, ...]]:
    """Apply the source-i coreflection functor; arrows at i get reversed.

    New space at i is the cokernel of the combined map out of i; every
    reversed arrow t(a) -> i picks up the corresponding block of the
    cokernel projection.
    """
    out_idx = [k for k, (s, _) in enumerate(arrows) if s == i]
    di = dim[i - 1]
    # stack the outgoing maps vertically: (sum of target dims) x di
    stacked: list[tuple] = []
    slots = []
    for k in out_idx:
        t = arrows[k][1]
        start = len(stacked)
        stacked.extend(maps[k])
        slots.append((k, t, start, dim[t - 1]))
    total_rows = len(stacked)
    # rows of the cokernel projection = basis of the left kernel of psi
    proj = linalg.nullspace(linalg.transpose(stacked, di) if stacked else [], total_rows)
    new_di = len(proj)
    new_dim = tuple(new_di if v == i else d for v, d in zip(range(1, len(dim) + 1), dim))
    new_maps = list(maps)
    for k, t, start, dt in slots:
        block = tuple(tuple(row[start + c] for c in range(dt)) for row in proj)
        new_maps[k] = block
    return new_dim, tuple(new_maps)


def _transport_rep(q: Quiver, alpha: Vector) -> Representation:
    """The indecomposable of the positive root alpha; callers check End = k.
    A thin alpha is k on its support with 1 on each arrow inside, the same
    module as any thin one with those maps nonzero (on a tree, rescale the
    spaces outward from one vertex), so thin modules built from stored ones
    compare equal to them.  Any other alpha (D4 and up) is reflected at the
    least sink, which a tree orientation always has, down to a simple (the
    one positive root of entry sum 1), then carried back by coreflections."""
    if max(alpha) == 1:
        inside = [((1,),) if alpha[s - 1] and alpha[t - 1] else _zero(alpha[t - 1], alpha[s - 1])
                  for s, t in q.arrows]
        return Representation(q, alpha, tuple(inside))
    cd = cartan.build_cartan(q.label)
    steps: list[int] = []
    arrows, dim = q.arrows, alpha
    while sum(dim) != 1:
        i = min(set(q.vertices) - {s for s, _ in arrows})
        steps.append(i)
        dim = cartan.reflect(cd, tuple(int(v == i) for v in q.vertices), dim)
        arrows = _flip_at(arrows, i)
        if len(steps) > 64 * q.rank:
            raise StructuralError("reflection transport did not terminate")
    maps: tuple[Mat, ...] = tuple(_zero(dim[t - 1], dim[s - 1]) for s, t in arrows)
    for i in reversed(steps):
        dim, maps = _coreflect(arrows, dim, maps, i)
        arrows = _flip_at(arrows, i)
    if arrows != q.arrows or dim != alpha:
        raise StructuralError("transport returned to the wrong quiver or root")
    return Representation(q, dim, maps)


def indecomposable_for_root(q: Quiver, alpha: Vector) -> Representation:
    """A representation with dimension vector alpha and scalar endomorphisms."""
    cd = cartan.build_cartan(q.label)
    if not (cartan.is_real_root(cd, alpha) and all(x >= 0 for x in alpha)):
        raise NotRealRootError(f"{alpha} is not a positive root of {q.label}")
    rep = _transport_rep(q, alpha)
    if hom_dim(q, rep, rep) != 1:
        raise StructuralError(f"transport gave a decomposable representation for {alpha}")
    return rep


def projective_dim(q: Quiver, i: int) -> Vector:
    """Dimension vector of the projective at i: the vertices reachable from i."""
    if i not in q.vertices:
        raise DimensionMismatchError(f"no vertex {i} in {q.label}")
    reach = {i}
    changed = True
    while changed:
        changed = False
        for s, t in q.arrows:
            if s in reach and t not in reach:
                reach.add(t)
                changed = True
    return tuple(int(v in reach) for v in q.vertices)


# ---------------------------------------------------------------------------
# the module category as a whole


class _ModuleCategory:
    """All indecomposables of a Dynkin quiver with their Hom/Rad tables."""

    def __init__(self, q: Quiver):
        self.quiver = q
        cd = cartan.build_cartan(q.label)
        self.roots: tuple[Vector, ...] = cartan.positive_roots(cd)
        # the (a, a) Hom basis below is each one's End = k check, thin or not
        self.reps = {a: _transport_rep(q, a) for a in self.roots}
        self.hom_spaces = {
            (a, b): hom(q, self.reps[a], self.reps[b])
            for a in self.roots
            for b in self.roots
        }
        for a in self.roots:
            if self.hom_spaces[(a, a)].dim != 1:
                raise StructuralError(f"endomorphism ring at {a} is not scalar")
        self._gram_inverses: dict[tuple[Vector, ...], tuple[tuple[int, ...], ...]] = {}

    def hom_dim(self, a: Vector, b: Vector) -> int:
        return self.hom_spaces[(a, b)].dim

    def rad_basis(self, a: Vector, b: Vector):
        # End is scalar, so Rad(X,X) = 0; otherwise Rad = Hom
        if a == b:
            return ()
        return self.hom_spaces[(a, b)].basis

    @functools.cached_property
    def rad2_dims(self) -> dict[tuple[Vector, Vector], int]:
        q = self.quiver
        dims = {}
        for a in self.roots:
            for b in self.roots:
                da, db = self.reps[a].dim, self.reps[b].dim
                flat: list[tuple] = []
                for z in self.roots:
                    dz = self.reps[z].dim
                    for f in self.rad_basis(a, z):
                        for g in self.rad_basis(z, b):
                            comp = []
                            for v in range(q.rank):
                                comp.extend(
                                    itertools.chain.from_iterable(
                                        _mm(g[v], f[v], db[v], dz[v], da[v])
                                    )
                                )
                            flat.append(tuple(comp))
                total = linalg.dot(da, db)
                dims[(a, b)] = linalg.rank(flat, total)
        return dims

    def rad_dim(self, a: Vector, b: Vector) -> int:
        return len(self.rad_basis(a, b))

    def irr_dim(self, a: Vector, b: Vector) -> int:
        return self.rad_dim(a, b) - self.rad2_dims[(a, b)]

    def decompose(self, rep: Representation) -> dict[Vector, int]:
        """Multiplicities of the indecomposable summands.

        Three certificates come first.  The zero representation has no
        summands and costs no solve.  The stored indecomposable of a root
        costs none either: its End = k was checked when the category was
        built.  Any other brick whose dimension vector is a positive root
        is the indecomposable of that root, for one solve: End = k forces
        it indecomposable, and Gabriel's theorem gives one indecomposable
        per positive root.

        Anything else is split by Hom counting.  A summand's dimension
        vector lies under rep's, so only the roots D <= dim rep can occur,
        and dim Hom(rep, X_b) = sum over a in D of m_a dim Hom(X_a, X_b)
        for b in D: m is h times the inverse of the Hom Gram matrix G on D.
        G is integral and unitriangular in a path order of the AR quiver
        (End X_a = k, and Hom(X_a, X_b) != 0 only along paths), and so is
        every principal submatrix, so its inverse is integral (one
        `int_inverse` per root set D, which raises StructuralError
        otherwise).  The counts h take a rank each, no Hom basis, and the
        multiplicities must be nonnegative and add up to the dimension
        vector.
        """
        if not any(rep.dim):
            return {}
        stored = self.reps.get(rep.dim)
        if stored is not None and (rep == stored or hom_dim(self.quiver, rep, rep) == 1):
            return {rep.dim: 1}
        below = tuple(a for a in self.roots if all(x <= y for x, y in zip(a, rep.dim)))
        h = [hom_dim(self.quiver, rep, self.reps[b]) for b in below]
        inverse = self._gram_inverses.get(below)
        if inverse is None:
            gram_t = [[self.hom_dim(a, b) for a in below] for b in below]
            inverse = self._gram_inverses[below] = linalg.int_inverse(gram_t)
        mult = linalg.mat_vec(inverse, h)
        if min(mult) < 0:
            raise StructuralError("Hom-count decomposition failed")
        out = {a: m for a, m in zip(below, mult) if m}
        if tuple(sum(m * a[v] for a, m in out.items()) for v in range(self.quiver.rank)) != rep.dim:
            raise StructuralError("decomposition does not add up to the dimension vector")
        return out

    @functools.cached_property
    def tau(self) -> dict[Vector, Vector]:
        """AR translate from the mesh: dim tau(Z) = sum_in - dim Z."""
        cd = cartan.build_cartan(self.quiver.label)
        out = {}
        for b in self.roots:
            total = [0] * self.quiver.rank
            for a in self.roots:
                m = self.irr_dim(a, b)
                if m:
                    for v in range(self.quiver.rank):
                        total[v] += m * a[v]
            cand = tuple(x - y for x, y in zip(total, b))
            if all(x >= 0 for x in cand) and cartan.is_real_root(cd, cand):
                out[b] = cand
        projectives = {projective_dim(self.quiver, i) for i in self.quiver.vertices}
        if set(self.roots) - set(out) != projectives:
            raise StructuralError("tau should be undefined exactly at projectives")
        return out


@functools.lru_cache(maxsize=None)
def _category(q: Quiver) -> _ModuleCategory:
    return _ModuleCategory(q)


def indecomposables(q: Quiver) -> tuple[Representation, ...]:
    cat = _category(q)
    return tuple(cat.reps[a] for a in cat.roots)


def is_exceptional_sequence(q: Quiver, seq) -> bool:
    """No self-extensions, and Hom/Ext vanish from later to earlier terms;
    one Hom solve per pair, Ext^1 being dim Hom minus the Euler form."""
    seq = list(seq)
    for i, x in enumerate(seq):
        for j in range(i, len(seq)):
            h = hom_dim(q, seq[j], x)
            if (h and j > i) or h != euler_form(q, seq[j].dim, x.dim):
                return False
    return True


def ar_quiver_module_category(q: Quiver) -> TranslationQuiver:
    """Vertices are positive roots; arrows carry (irr, irr) valuations."""
    cat = _category(q)
    arrows = []
    for a in cat.roots:
        for b in cat.roots:
            m = cat.irr_dim(a, b)
            if m:
                arrows.append((a, b, (m, m)))
    return TranslationQuiver(
        vertices=tuple(cat.roots), arrows=tuple(arrows), tau=dict(cat.tau)
    )

"""Combinatorial model of the bounded derived category of a Dynkin quiver.

The ambient translation quiver is the repetition of the tree: vertices
(n, x) for integer levels n, with an arrow (n,x) -> (n,y) and an arrow
(n-1,y) -> (n,x) for each tree arrow x -> y, and translate
tau(n,x) = (n-1,x).  Morphism dimensions are knitted from the mesh
recursion

    dim(X,Z) = sum over arrows Y -> Z of d * dim(X,Y) - dim(X, tau Z)
               + [Z = X] + [Z = suspension of X],

where the suspension of X is not prescribed: it is detected as the unique
vertex at which the uncorrected recursion first hits -1.  The translate
shifts levels, so one table per quiver knits every node's hammock once,
outside any window, on integer rows indexed by node, and keeps it as one
flat table: a dict from the offset n * width + y - 1 of each nonzero value
to the value, which every reader moves up to a level by adding to the
offsets.  That dict is the node's only stored copy.
Knitting stops when the hammock dies out, at most 64 levels past the
source whatever the window's width, so that broken inputs terminate; a
hammock that needs more raises ResourceLimitError.  An orientation enters
only as a checked `repcat.Quiver`, whose constructor requires the arrows
to orient the Dynkin tree: `build_zdelta` builds one and stores it in the
window's meta, and every table here is keyed by it.

Hom needs no window: `hom(q, x, y)` reads x's node's table at y's offset
from x, `suspension(q, x)` moves that node's -1 event up to x's level,
and `serre(q, x)` is one translate below it, at vertices of any int
level.  Output and the mesh check reuse the same table.  `hammocks_json`
formats each vertex name once, in a flat table indexed by level and node
laid out like the hammocks' offsets, so a vertex's entries are read off
one slice of the name table.  `verify_mesh` checks ell(x) = sum of
dim Hom(-, x), which does not depend on the level; by translation
invariance it is the column sum, at node x, of the hammocks the output
prints, so the check knits nothing more, and it sums the mesh terms in
one pass over the window's arrows.  The tests read ell
off the opposite orientation's hammocks, as the independent route the
table is checked against, and recompute every hammock from K_0 alone.

The bridge to the module category: the projectives' hammocks place each
indecomposable module at the vertex v with (dim Hom(P_i, v))_i its
dimension vector; Hom is a hammock value at equal shift, Ext^1 at shift
one, and everything else vanishes since the algebra is hereditary.
`hom_ext_table` reads both for every pair of roots; `verify` checks them
against the linear algebra of `repcat`.
"""

from __future__ import annotations

import functools
import operator

from . import cartan, repcat
from .errors import (
    DimensionMismatchError,
    NotIntegerError,
    OutOfRangeError,
    ResourceLimitError,
    StructuralError,
    WindowError,
)
from .tquiver import TranslationQuiver

Vertex = tuple[int, int]
Vector = tuple[int, ...]

_HARD_CAP = 64  # levels a hammock may be knitted past its source
MAX_WINDOW_LEVELS = 1024  # levels hi - lo + 1 a window may span


class MeshReport:
    __slots__ = ("checked", "violations")

    def __init__(self, checked: tuple[Vertex, ...], violations: tuple[str, ...]):
        self.checked, self.violations = checked, violations

    @property
    def ok(self) -> bool:
        return not self.violations


def build_zdelta(
    label: str,
    window: tuple[int, int],
    orientation: tuple[tuple[int, int], ...] | None = None,
) -> TranslationQuiver:
    """The repetition of the tree restricted to levels lo..hi inclusive.

    The levels must be ints (not bools) and the orientation is checked by
    `repcat.dynkin_quiver`, both before any other work; the window's meta
    holds that quiver and the window."""
    lo, hi = window
    if type(lo) is not int or type(hi) is not int:
        raise WindowError(f"window levels must be ints, got {window!r}")
    if hi - lo + 1 > MAX_WINDOW_LEVELS:
        raise ResourceLimitError(
            f"window {lo}:{hi} spans {hi - lo + 1} levels, past the cap {MAX_WINDOW_LEVELS}"
        )
    q = repcat.dynkin_quiver(label, orientation)
    if lo > hi:
        raise WindowError(f"empty window {window}")
    # one tuple per vertex, shared by the arrows and tau (and one constant
    # valuation); the vertex (n, x) sits at (n - lo) * width + x - 1, the
    # nodes being 1..width
    width = len(q.vertices)
    v = tuple([(n, x) for n in range(lo, hi + 1) for x in q.vertices])
    top = len(v) - width
    arrows = []
    for base in range(0, len(v), width):
        for x, y in q.arrows:
            arrows.append((v[base + x - 1], v[base + y - 1], (1, 1)))
            if base < top:
                arrows.append((v[base + y - 1], v[base + width + x - 1], (1, 1)))
    return TranslationQuiver(
        vertices=v,
        arrows=tuple(arrows),
        tau=dict(zip(v[width:], v)),
        meta={"quiver": q, "window": (lo, hi)},
    )


def _require_meta(t: TranslationQuiver) -> tuple[repcat.Quiver, tuple[int, int]]:
    if not t.meta or "quiver" not in t.meta:
        raise WindowError("this operation needs a window built by build_zdelta")
    return t.meta["quiver"], t.meta["window"]


@functools.lru_cache(maxsize=None)
def _grades(q: repcat.Quiver) -> tuple[int, ...]:
    """The grade of each node, indexed by node - 1: every arrow drops it by
    one and the lowest is 0.  Each pass over the arrows of the checked,
    connected tree grades a new node."""
    grade = {1: 0}
    while len(grade) < len(q.vertices):
        for s, t in q.arrows:
            if s in grade:
                grade.setdefault(t, grade[s] - 1)
            elif t in grade:
                grade[s] = grade[t] + 1
    low = min(grade.values())
    return tuple(grade[v] - low for v in q.vertices)


@functools.lru_cache(maxsize=None)
def _knit(q: repcat.Quiver):
    """The hammock of (0, x) in the full repetition for every node x,
    knitted once per checked quiver on two integer rows indexed by node,
    this level's and the one below, and kept flat.

    Returns (hammocks, ell), both indexed by node - 1.  A hammock is
    (table, suspension, last level knitted), the table one dict
    {offset: value}: the value of Hom((0, x), (n, y)) stands at offset
    n * width + y - 1 of the rows laid end to end, and only the nonzero
    values are kept, in offset order; every offset lies below
    last * width.  `hom`, `hom_ext_table`, `_slice` and `_template`
    all read this one dict.  ell(x) is the column sum
    sum_y sum_k dim Hom((0, y), (k, x)), which translation invariance
    makes the sum of dim Hom(-, (0, x))."""
    # arrows into (n, x) leave (n, s) for s -> x and (n - 1, t) for x -> t;
    # a row holds node x at index x - 1, and the nodes go in decreasing
    # grade, so each s -> x comes before x
    grades = _grades(q)
    steps = [
        (
            x - 1,
            [s - 1 for s, t in q.arrows if t == x],
            [t - 1 for s, t in q.arrows if s == x],
        )
        for x in sorted(q.vertices, key=lambda v: -grades[v - 1])
    ]
    width = len(steps)
    hammocks = []
    ell = [0] * width
    for node in range(1, width + 1):
        table: dict[int, int] = {}
        sigma: Vertex | None = None
        prev, row = [0] * width, [0] * width
        source = node - 1  # the term [Z = X], at level 0 only
        for n in range(_HARD_CAP + 1):
            # every row[s] read below is written earlier in the level, so
            # the two rows swap without clearing
            for x, same, back in steps:
                u = (x == source) - prev[x]
                for s in same:
                    u += row[s]
                for t in back:
                    u += prev[t]
                if u == -1 and sigma is None:
                    sigma = (n, x + 1)
                    u = 0
                if u < 0:
                    raise StructuralError(
                        f"mesh recursion produced {u} at {(n, x + 1)}; duplicate suspension event"
                    )
                row[x] = u
            base, source = n * width, -1
            for y, k in enumerate(row):
                if k:
                    table[base + y] = k
                    ell[y] += k
            if sigma is not None and n > sigma[0] and not any(row):
                break
            prev, row = row, prev
        else:
            raise ResourceLimitError(
                f"hammock of node {node} of {q.label} needs more than the {_HARD_CAP}-level knitting cap"
            )
        hammocks.append((table, sigma, n))
    return tuple(hammocks), tuple(ell)


def _node(q: repcat.Quiver, x: Vertex) -> int:
    """The node of x = (level, node), once x is checked to be a vertex of
    q's repetition: a tuple of two (not a list or any other shape), level
    and node ints, not bools, and the node one of 1..rank (node 0 or below
    would read `_knit`'s table from the end).  Every int level is a vertex."""
    if type(x) is not tuple or len(x) != 2:
        raise DimensionMismatchError(f"vertex {x!r} must be a pair (level, node)")
    level, node = x
    if type(level) is not int or type(node) is not int:
        raise NotIntegerError(f"vertex {x!r} needs an int level and an int node")
    if not 1 <= node <= len(q.vertices):
        raise OutOfRangeError(f"vertex {x} has no node {node} in {q.label}")
    return node


def hom(q: repcat.Quiver, x: Vertex, y: Vertex) -> int:
    """dim Hom(x, y) for x = (p, a) and y = (m, b) at any levels: node a's
    table read at offset (m - p) * width + b - 1."""
    a, b = _node(q, x), _node(q, y)
    return _knit(q)[0][a - 1][0].get((y[0] - x[0]) * len(q.vertices) + b - 1, 0)


def suspension(q: repcat.Quiver, x: Vertex) -> Vertex:
    """The shift of x: its node's -1 event, moved up to x's level."""
    level, node = _knit(q)[0][_node(q, x) - 1][1]
    return (level + x[0], node)


def serre(q: repcat.Quiver, x: Vertex) -> Vertex:
    """The Serre functor tau Sigma: one translate below the suspension."""
    level, node = suspension(q, x)
    return (level - 1, node)


def verify_mesh(t: TranslationQuiver) -> MeshReport:
    """Check 2*ell(Z) = ell(Z) + ell(tau Z) = 2 + sum d * ell(Y) at every
    vertex Z of the window whose translate lies in it.

    ell depends only on the node, so it is read off the column sums of the
    window's own hammock table, the one `hammocks_json` prints; the mesh
    sums are gathered in one pass over the window's arrows, so a missing
    or revalued arrow shows at its head."""
    q, _ = _require_meta(t)
    ells = (0, *_knit(q)[1])  # indexed by node
    mesh = dict.fromkeys(t.tau, 2)
    for y, z, (d, _) in t.arrows:
        if z in mesh:
            mesh[z] += d * ells[y[1]]
    checked = []
    violations = []
    for z in t.vertices:
        if z not in mesh:
            continue
        checked.append(z)
        lz = ells[z[1]]
        ltz = ells[t.tau[z][1]]
        if not (2 * lz == lz + ltz == mesh[z]):
            violations.append(f"at {z}: 2*{lz} vs {lz}+{ltz} vs {mesh[z]}")
    return MeshReport(checked=tuple(checked), violations=tuple(violations))


def module_slice(q: repcat.Quiver) -> dict[Vector, Vertex]:
    """Embed the module indecomposables (as positive roots) into the
    repetition: P_i at (grade(i), i), and each vertex v of the projectives'
    hammocks holds the module of dimension vector (dim Hom(P_i, v))_i."""
    return dict(_slice(q))


@functools.lru_cache(maxsize=None)
def _slice(q: repcat.Quiver) -> tuple[tuple[Vector, Vertex], ...]:
    width = len(q.vertices)
    hammocks = _knit(q)[0]
    dims: dict[int, list[int]] = {}  # by flat offset from level 0
    for i, grade in zip(q.vertices, _grades(q)):
        shift = grade * width
        for o, k in hammocks[i - 1][0].items():
            dims.setdefault(o + shift, [0] * width)[i - 1] = k
    placed = {tuple(d): (o // width, o % width + 1) for o, d in dims.items()}
    roots = cartan.positive_roots(cartan.build_cartan(q.label))
    if len(placed) != len(dims) or set(placed) != set(roots):
        raise StructuralError(f"the projectives' hammocks do not place each root of {q.label} once")
    return tuple((a, placed[a]) for a in roots)


def hom_ext_table(q: repcat.Quiver) -> dict[tuple[Vector, Vector], tuple[int, int]]:
    """(dim Hom, dim Ext^1) for each ordered pair (a, b) of positive roots:
    the hammock of a's vertex read at b's vertex and at its suspension,
    each at its flat offset from a's, in the per-node dict `hom` reads.
    A new plain dict on each call, not cached: the one production caller,
    `thicklat._exceptional_masks`, is itself cached per Coxeter element."""
    slice_ = _slice(q)
    hammocks = _knit(q)[0]
    width = len(q.vertices)
    table = {}
    for a, (n, x) in slice_:
        at = hammocks[x - 1][0]
        for b, (m, y) in slice_:
            s, z = hammocks[y - 1][1]
            table[(a, b)] = (
                at.get((m - n) * width + y - 1, 0),
                at.get((s + m - n) * width + z - 1, 0),
            )
    return table


def window_dot(t: TranslationQuiver) -> str:
    """DOT for a window; the translate is drawn as dashed back-edges."""
    name = lambda v: f"{v[0]}:{v[1]}"  # noqa: E731
    lines = ["digraph zdelta {", "  rankdir=LR;", '  node [shape=plaintext, fontname="monospace"];']
    for v in t.vertices:
        lines.append(f'  "{name(v)}" [label="({v[0]},{v[1]})"];')
    for s, d, (a, b) in t.arrows:
        val = "" if (a, b) == (1, 1) else f' [label="({a},{b})"]'
        lines.append(f'  "{name(s)}" -> "{name(d)}"{val};')
    for z, tz in sorted(t.tau.items()):
        lines.append(f'  "{name(z)}" -> "{name(tz)}" [style=dashed, constraint=false];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _template(table: dict[int, int], sigma: Vertex, width: int):
    """A node's hammock as offsets into the name table from its source's
    row: a getter for the value keys, the span it reads, the values and the
    suspension's offset, all read off the node's one table."""
    get = operator.itemgetter(*table)
    if len(table) == 1:  # a one-item getter returns the bare item
        get = lambda row, one=get: (one(row),)  # noqa: E731
    return get, next(reversed(table)) + 1, table.values(), sigma[0] * width + sigma[1] - 1


def hammocks_json(t: TranslationQuiver) -> dict:
    """All forward hammocks of the window's vertices, JSON-ready.

    Every name is formatted once, in a table indexed by
    (level - lo) * width + node - 1 that runs past the window as far as
    the hammocks reach; `build_zdelta` lays the window's vertices out in
    that order, and each node's hammock is a template of offsets into it,
    so a vertex's entries are one slice of the table, and all keys naming
    a vertex are one shared string.  Tuples are handed to the encoder as
    they are, since JSON writes them as lists."""
    q, (lo, hi) = _require_meta(t)
    nodes = q.vertices
    width = len(nodes)
    knits = _knit(q)[0]
    top = hi + max(last for _, _, last in knits)
    table = [f"{n}:{x}" for n in range(lo, top + 1) for x in nodes]
    name = dict(zip(t.vertices, table))
    templates = [_template(table, sigma, width) for table, sigma, _ in knits]
    hams = {}
    for (level, node), key in name.items():
        get, span, ks, sigma_at = templates[node - 1]
        base = (level - lo) * width
        hams[key] = {
            "values": dict(zip(get(table[base:base + span]), ks)),
            "suspension": table[base + sigma_at],
        }
    return {
        "type": q.label,
        "orientation": q.arrows,
        "window": t.meta["window"],
        "vertices": table[:len(t.vertices)],
        "arrows": [(name[s], name[d], val) for s, d, val in t.arrows],
        "tau": {name[z]: name[tz] for z, tz in t.tau.items()},
        "hammocks": hams,
    }

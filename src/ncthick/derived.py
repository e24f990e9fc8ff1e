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
outside any window, on integer rows indexed by node, and each hammock is
moved up to every level; knitting stops when the hammock dies out, at
most 64 levels past the source whatever the window's width, so that
broken inputs terminate.  An orientation enters only as a checked
`repcat.Quiver`, whose constructor requires the arrows to orient the
Dynkin tree: `build_zdelta` builds one and stores it in the window's
meta, and every table here is keyed by it.

Output and the mesh check reuse that table.  `hammocks_json` formats
each vertex name once, in a flat table indexed by level and node, and
turns each node's hammock into a template of offsets into it, so a
vertex's entries are read off one slice of the table.  `verify_mesh`
checks ell(x) = sum of dim Hom(-, x), which does not depend on the level;
by translation invariance it is the column sum, at node x, of the
hammocks the output prints, so the check knits nothing more.  The tests
read ell off the opposite orientation's hammocks, as the independent
route the table is checked against.

The bridge to the module category: the projectives' hammocks place each
indecomposable module at the vertex v with (dim Hom(P_i, v))_i its
dimension vector; Hom is a hammock value at equal shift, Ext^1 at shift
one, and everything else vanishes since the algebra is hereditary.
`derived_hom` gets the same from the linear algebra of `repcat`.
"""

from __future__ import annotations

import functools
import operator

from . import cartan, repcat
from .errors import ResourceLimitError, StructuralError, WindowError
from .tquiver import TranslationQuiver

Vertex = tuple[int, int]
Vector = tuple[int, ...]

_HARD_CAP = 64  # levels a hammock may be knitted past its source
MAX_WINDOW_LEVELS = 1024  # levels hi - lo + 1 a window may span


class Hammock:
    """dim Hom(source, -) on the repetition, with the located suspension."""

    __slots__ = ("source", "values", "sigma_of_source")

    def __init__(self, source: Vertex, values: dict[Vertex, int], sigma_of_source: Vertex):
        self.source, self.values, self.sigma_of_source = source, values, sigma_of_source

    def value(self, z: Vertex) -> int:
        return self.values.get(z, 0)


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
    vertices = tuple((n, x) for n in range(lo, hi + 1) for x in q.vertices)
    arrows = []
    for n in range(lo, hi + 1):
        for x, y in q.arrows:
            arrows.append(((n, x), (n, y), (1, 1)))
            if n + 1 <= hi:
                arrows.append(((n, y), (n + 1, x), (1, 1)))
    tau = {(n, x): (n - 1, x) for n in range(lo + 1, hi + 1) for x in q.vertices}
    return TranslationQuiver(
        vertices=vertices,
        arrows=tuple(arrows),
        tau=tau,
        meta={"quiver": q, "window": (lo, hi)},
    )


def _require_meta(t: TranslationQuiver) -> tuple[repcat.Quiver, tuple[int, int]]:
    if not t.meta or "quiver" not in t.meta:
        raise WindowError("this operation needs a window built by build_zdelta")
    return t.meta["quiver"], t.meta["window"]


def _node_order(q: repcat.Quiver) -> list[int]:
    """Topological order of the tree nodes along the orientation; an
    oriented tree has a source among any nodes left, so each pass finds one."""
    remaining = set(q.vertices)
    order = []
    while remaining:
        v = next(v for v in sorted(remaining) if all(s not in remaining for s, t in q.arrows if t == v))
        order.append(v)
        remaining.discard(v)
    return order


@functools.lru_cache(maxsize=None)
def _knit(q: repcat.Quiver):
    """The hammock of (0, x) in the full repetition for every node x,
    knitted once per checked quiver on integer rows, one per level and
    indexed by node.

    Returns (hammocks, ell), both indexed by node - 1.  A hammock is its
    (vertex, value) items in sorted order, the suspension and the last
    level knitted; ell(x) is the column sum
    sum_y sum_k dim Hom((0, y), (k, x)), which translation invariance
    makes the sum of dim Hom(-, (0, x))."""
    # arrows into (n, x) leave (n, s) for s -> x and (n - 1, t) for x -> t;
    # a row holds node x at index x - 1
    steps = [
        (
            x - 1,
            [s - 1 for s, t in q.arrows if t == x],
            [t - 1 for s, t in q.arrows if s == x],
        )
        for x in _node_order(q)
    ]
    width = len(steps)
    hammocks = []
    ell = [0] * width
    for node in range(1, width + 1):
        items: list[tuple[Vertex, int]] = []
        sigma: Vertex | None = None
        prev = [0] * width
        for n in range(_HARD_CAP + 1):
            row = [0] * width
            if n == 0:
                row[node - 1] = 1  # the term [Z = X] at the source
            for x, same, back in steps:
                u = row[x] - prev[x]
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
            items.extend(((n, y), k) for y, k in enumerate(row, 1) if k)
            ell = list(map(operator.add, ell, row))
            if sigma is not None and n > sigma[0] and not any(row):
                break
            prev = row
        else:
            raise WindowError(f"hammock of node {node} does not die out within the cap")
        hammocks.append((tuple(items), sigma, n))
    return tuple(hammocks), tuple(ell)


def _in_window(t: TranslationQuiver, v: Vertex) -> repcat.Quiver:
    """The quiver of the window, which must hold v: its level in the
    window and its node one of 1..rank (node 0 or below would index
    `_knit`'s table from the end)."""
    q, (lo, hi) = _require_meta(t)
    if not (lo <= v[0] <= hi):
        raise WindowError(f"source {v} outside window {(lo, hi)}")
    if v[1] not in q.vertices:
        raise WindowError(f"source {v} has no node {v[1]} in {q.label}")
    return q


def knit_hammock(t: TranslationQuiver, source: Vertex) -> Hammock:
    """dim Hom(source, -): the hammock of the source's node, moved up to its
    level, past the window's top if it dies out later."""
    level, node = source
    items, (s, x), _ = _knit(_in_window(t, source))[0][node - 1]
    values = {(n + level, y): k for (n, y), k in items}
    return Hammock(source=source, values=values, sigma_of_source=(s + level, x))


def suspension(t: TranslationQuiver, x: Vertex) -> Vertex:
    """The shift of x, located by the hammock's -1 event."""
    level, node = _knit(_in_window(t, x))[0][x[1] - 1][1]
    return (level + x[0], node)


def serre(t: TranslationQuiver, x: Vertex) -> Vertex:
    """Nakayama functor: one translate before the suspension."""
    level, node = suspension(t, x)
    return (level - 1, node)


def verify_mesh(t: TranslationQuiver) -> MeshReport:
    """Check 2*ell(Z) = ell(Z) + ell(tau Z) = 2 + sum d * ell(Y) at every
    vertex Z of the window whose translate lies in it.

    ell depends only on the node, so it is read off the column sums of the
    window's own hammock table, the one `hammocks_json` prints, and each
    vertex compares table entries."""
    q, _ = _require_meta(t)
    ells = dict(zip(q.vertices, _knit(q)[1]))
    checked = []
    violations = []
    for z in t.vertices:
        if z not in t.tau:
            continue
        checked.append(z)
        lz = ells[z[1]]
        ltz = ells[t.tau[z][1]]
        mesh = 2 + sum(val[0] * ells[y[1]] for y, val in t.arrows_into(z))
        if not (2 * lz == lz + ltz == mesh):
            violations.append(
                f"at {z}: 2*{lz} vs {lz}+{ltz} vs {mesh}"
            )
    return MeshReport(checked=tuple(checked), violations=tuple(violations))


def derived_hom(
    q: repcat.Quiver,
    source: tuple[repcat.Representation, int],
    target: tuple[repcat.Representation, int],
) -> int:
    """Morphisms between stalk complexes: Hom at equal shift, Ext^1 at
    shift one, zero otherwise."""
    (m, i), (n, j) = source, target
    if j == i:
        return repcat.hom_dim(q, m, n)
    if j == i + 1:
        return repcat.ext1_dim(q, m, n)
    return 0


def module_slice(q: repcat.Quiver) -> dict[Vector, Vertex]:
    """Embed the module indecomposables (as positive roots) into the
    repetition: P_i at (grade(i), i), and each vertex v of the projectives'
    hammocks holds the module of dimension vector (dim Hom(P_i, v))_i."""
    return dict(_slice(q))


@functools.lru_cache(maxsize=None)
def _slice(q: repcat.Quiver) -> tuple[tuple[Vector, Vertex], ...]:
    nodes = _node_order(q)
    # grade the tree so that every arrow i -> j drops the level by one;
    # each pass over the arrows of the connected tree grades a new node
    grade = {nodes[0]: 0}
    while len(grade) < len(nodes):
        for s, t in q.arrows:
            if s in grade:
                grade.setdefault(t, grade[s] - 1)
            elif t in grade:
                grade[s] = grade[t] + 1
    low = min(grade.values())
    hammocks = _knit(q)[0]
    dims: dict[Vertex, list[int]] = {}
    for i in nodes:
        for (n, y), k in hammocks[i - 1][0]:
            dims.setdefault((n + grade[i] - low, y), [0] * len(nodes))[i - 1] = k
    placed = {tuple(d): v for v, d in dims.items()}
    roots = cartan.positive_roots(cartan.build_cartan(q.label))
    if len(placed) != len(dims) or set(placed) != set(roots):
        raise StructuralError(f"the projectives' hammocks do not place each root of {q.label} once")
    return tuple((a, placed[a]) for a in roots)


def hom_ext_table(q: repcat.Quiver) -> dict[tuple[Vector, Vector], tuple[int, int]]:
    """(dim Hom, dim Ext^1) for each ordered pair (a, b) of positive roots:
    the hammock of a's vertex read at b's vertex and at its suspension.
    A new plain dict on each call, not cached: the one production caller,
    `thicklat._exceptional_masks`, is itself cached per Coxeter element."""
    slice_ = _slice(q)
    hammocks = _knit(q)[0]
    table = {}
    for a, (n, x) in slice_:
        values = {(k + n, y): d for (k, y), d in hammocks[x - 1][0]}
        for b, (m, y) in slice_:
            s, z = hammocks[y - 1][1]
            table[(a, b)] = (values.get((m, y), 0), values.get((s + m, z), 0))
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


def _template(items, sigma: Vertex, width: int):
    """A node's hammock as offsets into the name table from its source's
    row: a getter for the value keys, the span it reads, the values and the
    suspension's offset."""
    offsets = [n * width + y - 1 for (n, y), _ in items]
    get = operator.itemgetter(*offsets)
    if len(offsets) == 1:  # a one-item getter returns the bare item
        get = lambda row, one=get: (one(row),)  # noqa: E731
    return get, offsets[-1] + 1, [k for _, k in items], sigma[0] * width + sigma[1] - 1


def hammocks_json(t: TranslationQuiver) -> dict:
    """All forward hammocks of the window's vertices, JSON-ready.

    Every name is formatted once, in a table indexed by
    (level - lo) * width + node - 1 that runs past the window as far as
    the hammocks reach; each node's hammock is a template of offsets into
    it, so a vertex's entries are one slice of the table, and all keys
    naming a vertex are one shared string."""
    q, (lo, hi) = _require_meta(t)
    nodes = q.vertices
    width = len(nodes)
    knits = dict(zip(nodes, _knit(q)[0]))
    top = hi + max(last for _, _, last in knits.values())
    table = [f"{n}:{x}" for n in range(lo, top + 1) for x in nodes]
    name = {v: table[(v[0] - lo) * width + v[1] - 1] for v in t.vertices}
    templates = {x: _template(items, sigma, width) for x, (items, sigma, _) in knits.items()}
    hams = {}
    for (level, node), key in name.items():
        get, span, ks, sigma_at = templates[node]
        base = (level - lo) * width
        hams[key] = {
            "values": dict(zip(get(table[base:base + span]), ks)),
            "suspension": table[base + sigma_at],
        }
    return {
        "type": q.label,
        "orientation": [list(a) for a in q.arrows],
        "window": [lo, hi],
        "vertices": list(name.values()),
        "arrows": [[name[s], name[d], list(val)] for s, d, val in t.arrows],
        "tau": {name[z]: name[tz] for z, tz in sorted(t.tau.items())},
        "hammocks": hams,
    }

"""Every knitted hammock against K_0 alone.

For a Dynkin quiver every indecomposable of D^b(kQ) is a vertex of ZDelta
and has a class in K_0 = Z^n.  The projective P_i sits at level grade(i),
where grade drops by one along each arrow, and its class is the 0/1 vector
of the nodes reached from i.  The translate acts on classes by the
Coxeter transformation Phi = -E^-1 E^T, E the matrix of the Euler form
<a, b> = sum a_i b_i - sum over arrows i -> j of a_i b_j, so
[(n, x)] = Phi^-(n - grade(x)) [P_x].  The suspension of X is the first
vertex at or above X's level whose class is -[X], and
dim Hom(X, Y) = max(0, <[X], [Y]>) for Y from X's level up to that of
the suspension, and 0 elsewhere: at most one Hom(X, Sigma^i Y) is nonzero.

Nothing here reads the mesh recursion: the route shares no code with
`derived._knit`, whose flat table it checks value by value.
"""

import itertools

import pytest

from ncthick import cartan as cw
from ncthick import derived as dv
from ncthick import repcat as rc


def _mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _apply(m, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in m)


def _unipotent_inverse(e):
    """(I - A)^-1 = I + A + A^2 + ... for the nilpotent A = I - e."""
    n = len(e)
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    a = [[ident[i][j] - e[i][j] for j in range(n)] for i in range(n)]
    total, power = ident, ident
    for _ in range(n):
        power = _mat_mul(power, a)
        total = [[x + y for x, y in zip(r, s)] for r, s in zip(total, power)]
    return total


class K0Model:
    """Classes, suspensions and Hom dimensions of ZDelta from K_0."""

    def __init__(self, rank, arrows):
        self.rank, self.arrows = rank, arrows
        nodes = range(1, rank + 1)
        self.euler = [[int(i == j) - ((i, j) in arrows) for j in nodes] for i in nodes]
        e_inv = _unipotent_inverse(self.euler)
        e_t = [list(col) for col in zip(*self.euler)]
        e_t_inv = [list(col) for col in zip(*e_inv)]
        self.phi = [[-x for x in row] for row in _mat_mul(e_inv, e_t)]
        self.phi_inv = [[-x for x in row] for row in _mat_mul(e_t_inv, self.euler)]
        # grade by a walk over the tree: an arrow i -> j drops the level by one
        grade, frontier = {1: 0}, [1]
        while frontier:
            i = frontier.pop()
            for s, t in arrows:
                for a, b, step in ((s, t, -1), (t, s, 1)):
                    if a == i and b not in grade:
                        grade[b] = grade[i] + step
                        frontier.append(b)
        self.grade = grade
        self.projective = {i: tuple(int(self._reaches(i, j)) for j in nodes) for i in nodes}
        self._classes = {}

    def _reaches(self, i, j):
        seen, stack = {i}, [i]
        while stack:
            v = stack.pop()
            for s, t in self.arrows:
                if s == v and t not in seen:
                    seen.add(t)
                    stack.append(t)
        return j in seen

    def cls(self, vertex):
        n, x = vertex
        if vertex not in self._classes:
            steps = n - self.grade[x]
            c = self.projective[x]
            for _ in range(abs(steps)):
                c = _apply(self.phi_inv if steps > 0 else self.phi, c)
            self._classes[vertex] = c
        return self._classes[vertex]

    def form(self, a, b):
        return sum(a[i] * self.euler[i][j] * b[j] for i in range(self.rank) for j in range(self.rank))

    def suspension(self, vertex, levels):
        minus = tuple(-c for c in self.cls(vertex))
        for n in range(vertex[0], vertex[0] + levels):
            for y in range(1, self.rank + 1):
                if self.cls((n, y)) == minus:
                    return (n, y)
        raise AssertionError(f"no class -[X] within {levels} levels of {vertex}")

    def hammock(self, vertex, levels):
        """dim Hom(vertex, -) as {vertex: value} over its nonzero values, and
        the suspension."""
        sigma = self.suspension(vertex, levels)
        x = self.cls(vertex)
        values = {}
        for n in range(vertex[0], sigma[0] + 1):
            for y in range(1, self.rank + 1):
                d = self.form(x, self.cls((n, y)))
                if d > 0:
                    values[(n, y)] = d
        return values, sigma


def _orientations(label):
    tree = cw.tree_edges(label)
    for flips in itertools.product((False, True), repeat=len(tree)):
        yield tuple((b, a) if f else (a, b) for (a, b), f in zip(tree, flips))


def _check(label, arrows):
    q = rc.dynkin_quiver(label, arrows)
    width = len(q.vertices)
    model = K0Model(width, q.arrows)
    levels = cw.coxeter_number(cw.build_cartan(label)) + 2
    for node, (offsets, ks, sigma, _) in enumerate(dv._knit.__wrapped__(q)[0], 1):
        knitted = {(o // width, o % width + 1): k for o, k in zip(offsets, ks)}
        values, k0_sigma = model.hammock((0, node), levels)
        assert knitted == values, (label, arrows, node)
        assert sigma == k0_sigma, (label, arrows, node)


@pytest.mark.parametrize("label", ["A2", "A3", "A4", "D4"])
def test_every_orientation_matches_k0(label):
    for arrows in _orientations(label):
        _check(label, arrows)


@pytest.mark.parametrize("label", ["E6", "E7", "E8"])
def test_default_orientation_matches_k0(label):
    _check(label, None)


def test_model_places_the_simples_of_a2():
    # 1 -> 2: P_2 = S_2 = (0, 1) one level below P_1 = (1, 1), and
    # tau^-1 P_2 = S_1 = (1, 0); Hom(P_2, P_1) = 1, Ext^1(S_1, S_2) = 1,
    # and Sigma S_1, of class (-1, 0), is tau^-2 P_1
    model = K0Model(2, ((1, 2),))
    assert model.grade == {1: 0, 2: -1}
    assert model.cls((-1, 2)) == (0, 1) and model.cls((0, 1)) == (1, 1)
    assert model.cls((0, 2)) == (1, 0)
    assert model.form(model.cls((-1, 2)), model.cls((0, 1))) == 1
    assert model.form((1, 0), (0, 1)) == -1
    assert model.suspension((0, 2), 5) == (2, 1) and model.cls((2, 1)) == (-1, 0)

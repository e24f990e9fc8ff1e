"""Correctness gates for the benchmark's requests.

Every check is either a closed form for NC(W) (Armstrong, *Generalized
noncrossing partitions*, Memoirs AMS 2009) or a recomputation from the
emitted output with this file's own integer arithmetic.  Nothing here
imports ncthick, so a defect in the library cannot hide itself by also
breaking its own check.  Each check returns a list of failure strings,
empty when the output passes.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from fractions import Fraction

# sha256 of the stdout of each CLI command at the seed commit (d951a2b);
# seed 0 of the benchmark must reproduce these bytes exactly.
DIGESTS = {
    "nc --type A5": "12da4f855f5a9a8c515d20a11478a312ebd4322aa8cf4ca961fdb417c67d6ba7",
    "nc --type A5 --format dot": "f720d395775472687d56ea849962867c57c541bf841cfd5a1e295490c4da6247",
    "braid orbit --type A3": "b3a63c740bae98b4d698606c272b27930d5a44fa77bcad57098cc52ef7c0ec62",
    "thick lattice --type A4 --oracle": "8c62cb7c65afd9c13f7199b498f62a958533fd540f6cc9204938ad1bd2b3bdb7",
    "kronecker --bound 1 --points 8": "eee7a382e1e82c721a34223dc728bb773ff61d6b330c70657b1904727bc9dca3",
    "arq knit --type E8 --window 0:24 --check-mesh": "7140900965a63740a97e4ebcd0e00597a2036e0c45e261830bc066397559a06c",
}


def check_digest(command: str, text: str) -> list[str]:
    got = hashlib.sha256(text.encode()).hexdigest()
    if got != DIGESTS[command]:
        return [f"{command}: output sha256 {got[:12]} differs from the seed commit's CLI bytes"]
    return []


# ---------------------------------------------------------------------------
# closed forms for simply-laced types

_E_DEGREES = {6: (2, 5, 6, 8, 9, 12), 7: (2, 6, 8, 10, 12, 14, 18), 8: (2, 8, 12, 14, 18, 20, 24, 30)}


def _parse(label: str) -> tuple[str, int]:
    m = re.fullmatch(r"([ADE])(\d+)", label)
    if not m:
        raise ValueError(f"the gates cover simply-laced labels only, not {label!r}")
    return m.group(1), int(m.group(2))


def tree_edges(label: str) -> list[tuple[int, int]]:
    """Dynkin tree in Bourbaki numbering, smaller vertex first."""
    family, n = _parse(label)
    if family == "A":
        return [(i, i + 1) for i in range(1, n)]
    if family == "D":
        return [(i, i + 1) for i in range(1, n - 2)] + [(n - 2, n - 1), (n - 2, n)]
    edges = [(1, 3), (2, 4), (3, 4)] + [(i, i + 1) for i in range(4, n)]
    return sorted(edges)


def degrees(label: str) -> tuple[int, ...]:
    family, n = _parse(label)
    if family == "A":
        return tuple(range(2, n + 2))
    if family == "D":
        return tuple(sorted((*range(2, 2 * n - 1, 2), n)))
    return _E_DEGREES[n]


def coxeter_number(label: str) -> int:
    return max(degrees(label))


def nc_size(label: str) -> int:
    """|NC(W)| = prod (h + d_i) / d_i."""
    h = coxeter_number(label)
    return int(math.prod(Fraction(h + d, d) for d in degrees(label)))


def max_chains(label: str) -> int:
    """Maximal chains of NC(W), also the number of reduced reflection
    factorizations of c: n! h^n / |W|."""
    ds = degrees(label)
    n = len(ds)
    return math.factorial(n) * coxeter_number(label) ** n // math.prod(ds)


def rank_sizes(label: str) -> tuple[int, ...]:
    """Narayana numbers of types A and D."""
    family, n = _parse(label)
    c = math.comb
    if family == "A":
        return tuple(c(n + 1, k) * c(n + 1, k + 1) // (n + 1) for k in range(n + 1))
    if family == "D":
        return tuple(
            int(c(n, k) ** 2 - Fraction(n, n - 1) * c(n - 1, k) * (c(n - 1, k - 1) if k else 0))
            for k in range(n + 1)
        )
    raise ValueError(f"no rank-size table for {label}")


def shift_steps(label: str) -> int | None:
    """tau^-k equal to the suspension, where the Nakayama permutation is
    trivial (tau^-h = [2], so [1] = tau^-(h/2)); None elsewhere."""
    family, n = _parse(label)
    if (family == "E" and n in (7, 8)) or (family == "D" and n % 2 == 0):
        return coxeter_number(label) // 2
    return None


# ---------------------------------------------------------------------------
# integer Weyl-group arithmetic, independent of ncthick.cartan

Mat = tuple[tuple[int, ...], ...]


def cartan_matrix(label: str) -> Mat:
    _, n = _parse(label)
    m = [[2 * (i == j) for j in range(n)] for i in range(n)]
    for i, j in tree_edges(label):
        m[i - 1][j - 1] = m[j - 1][i - 1] = -1
    return tuple(map(tuple, m))


def mul(a: Mat, b: Mat) -> Mat:
    cols = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def identity(n: int) -> Mat:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def reflection(cm: Mat, alpha) -> Mat:
    """s_alpha(x) = x - (x, alpha) alpha; column j is the image of e_j."""
    n = len(cm)
    pair = [sum(cm[j][i] * alpha[i] for i in range(n)) for j in range(n)]
    return tuple(tuple(int(i == j) - pair[j] * alpha[i] for j in range(n)) for i in range(n))


def word_product(cm: Mat, roots) -> Mat:
    out = identity(len(cm))
    for r in roots:
        out = mul(out, reflection(cm, r))
    return out


def coxeter(cm: Mat, perm) -> Mat:
    n = len(cm)
    return word_product(cm, [tuple(int(j == i - 1) for j in range(n)) for i in perm])


def positive_roots(cm: Mat) -> list[tuple[int, ...]]:
    n = len(cm)
    simples = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    roots, frontier = set(simples), list(simples)
    while frontier:
        nxt = []
        for v in frontier:
            for j, a in enumerate(simples):
                pair = sum(cm[j][i] * v[i] for i in range(n))
                w = tuple(x - pair * y for x, y in zip(v, a))
                if w not in roots:
                    roots.add(w)
                    nxt.append(w)
        frontier = nxt
    return sorted(r for r in roots if all(x >= 0 for x in r))


def _count_chains(ranks: list[int], edges) -> int:
    """Maximal chains bottom-to-top through the given cover edges."""
    top = max(ranks)
    paths = [int(r == 0) for r in ranks]
    for i, j in sorted(edges, key=lambda e: ranks[e[0]]):
        paths[j] += paths[i]
    return sum(p for p, r in zip(paths, ranks) if r == top)


def _lattice_shape(label: str, ranks: list[int], edges, what: str) -> list[str]:
    bad = []
    n = len(degrees(label))
    if len(ranks) != nc_size(label):
        bad.append(f"{what}: {len(ranks)} elements, closed form {nc_size(label)}")
    sizes = tuple(ranks.count(k) for k in range(n + 1))
    if sizes != rank_sizes(label):
        bad.append(f"{what}: rank sizes {sizes}, closed form {rank_sizes(label)}")
    if any(ranks[j] != ranks[i] + 1 for i, j in edges):
        bad.append(f"{what}: a Hasse edge does not raise the rank by one")
    elif _count_chains(ranks, edges) != max_chains(label):
        bad.append(
            f"{what}: {_count_chains(ranks, edges)} maximal chains, closed form {max_chains(label)}"
        )
    return bad


# ---------------------------------------------------------------------------
# per-request checks


_DOT_NODE = re.compile(r'^  n(\d+) \[label="([^"]*)"\];$')
_DOT_EDGE = re.compile(r"^  n(\d+) -> n(\d+);$")
_ROOT = re.compile(r"s\(([-\d,]+)\)")


def check_nc(label: str, perm, json_text: str, dot_text: str) -> list[str]:
    """`nc` JSON and DOT for NC(W,c), c the product of simple reflections in perm."""
    cm = cartan_matrix(label)
    c = coxeter(cm, perm)
    data = json.loads(json_text)
    ranks = [e["rank"] for e in data["elements"]]
    edges = [tuple(e) for e in data["hasse"]]
    bad = _lattice_shape(label, ranks, edges, "nc")
    mats = [tuple(map(tuple, e["matrix"])) for e in data["elements"]]
    if [e["id"] for e in data["elements"]] != list(range(len(mats))):
        bad.append("nc: element ids are not 0..N-1")
    if len(set(mats)) != len(mats):
        bad.append("nc: repeated element matrices")
    if [m for m, r in zip(mats, ranks) if r == len(cm)] != [c]:
        bad.append("nc: the top element is not the seeded Coxeter element")
    if word_product(cm, data["coxeter_word"]) != c:
        bad.append("nc: coxeter_word does not multiply to c")
    labels, dot_edges = {}, []
    for line in dot_text.splitlines():
        if m := _DOT_NODE.match(line):
            labels[int(m.group(1))] = m.group(2)
        elif m := _DOT_EDGE.match(line):
            dot_edges.append((int(m.group(1)), int(m.group(2))))
    if dot_edges != edges:
        bad.append("nc: DOT edges differ from the JSON Hasse diagram")
    if sorted(labels) != list(range(len(mats))):
        bad.append("nc: DOT nodes differ from the JSON elements")
    else:
        for i, text in labels.items():
            roots = [tuple(int(x) for x in g.split(",")) for g in _ROOT.findall(text)]
            if len(roots) != ranks[i] or word_product(cm, roots) != mats[i]:
                bad.append(f"nc: DOT label of n{i} is not a reduced word for its element")
                break
    return bad


def check_braid(label: str, perm, json_text: str, brute_count: int, same_as_brute: bool) -> list[str]:
    """Hurwitz orbit of the simple factorization against the brute force."""
    cm = cartan_matrix(label)
    c = coxeter(cm, perm)
    facts = [tuple(map(tuple, f)) for f in json.loads(json_text)["factorizations"]]
    want = max_chains(label)
    bad = []
    if len(facts) != want or len(set(facts)) != want:
        bad.append(f"braid: {len(set(facts))} distinct factorizations, closed form {want}")
    if brute_count != want or not same_as_brute:
        bad.append(f"braid: brute force found {brute_count}, orbit match {same_as_brute}")
    if any(len(f) != len(cm) or word_product(cm, f) != c for f in facts):
        bad.append("braid: a factorization does not multiply to c")
    return bad


def check_thick(label: str, json_text: str, oracle: bool) -> list[str]:
    """`thick lattice`: sizes, chains, generator certificates, and perps as
    Kreweras complements w * K(w) = c = K'(w) * w."""
    cm = cartan_matrix(label)
    n = len(cm)
    data = json.loads(json_text)
    els = data["elements"]
    ranks = [e["rank"] for e in els]
    bad = _lattice_shape(label, ranks, [tuple(e) for e in data["hasse"]], "thick")
    if any(len(e["generator_roots"]) != e["rank"] for e in els):
        bad.append("thick: a generator sequence is not as long as its rank")
    ws = [word_product(cm, e["generator_roots"]) for e in els]
    tops = [w for w, r in zip(ws, ranks) if r == n]
    if len(set(ws)) != len(ws) or len(tops) != 1:
        bad.append("thick: generator products are not distinct with one top")
        return bad
    c = tops[0]
    perp = data["perp_pairs"]
    if [row[0] for row in perp] != list(range(len(els))):
        bad.append("thick: perp_pairs rows are not 0..N-1")
        return bad
    left = [row[1] for row in perp]
    right = [row[2] for row in perp]
    if sorted(left) != list(range(len(els))) or sorted(right) != list(range(len(els))):
        bad.append("thick: a perp map is not a bijection")
    elif any(right[left[i]] != i for i in range(len(els))):
        bad.append("thick: left and right perps are not mutually inverse")
    for i, (lp, rp) in enumerate(zip(left, right)):
        if ranks[i] + ranks[lp] != n or ranks[i] + ranks[rp] != n:
            bad.append(f"thick: rank(u) + rank(u^perp) != {n} at {i}")
            break
        if mul(ws[i], ws[lp]) != c or mul(ws[rp], ws[i]) != c:
            bad.append(f"thick: perps of {i} are not its Kreweras complements")
            break
    if oracle and (data.get("oracle_match") is not True or data.get("oracle_count") != nc_size(label)):
        bad.append(f"thick: oracle reported {data.get('oracle_count')}, closed form {nc_size(label)}")
    return bad


def check_kronecker(json_text: str, bound: int, points: int) -> list[str]:
    """2^p + |T_b| + 1 elements and 2|T_b| + p 2^(p-1) + 1 covers, |T_b| = 2b + 2."""
    data = json.loads(json_text)
    tb = 2 * bound + 2
    want_e, want_h = 2**points + tb + 1, 2 * tb + points * 2 ** (points - 1) + 1
    got_e, got_h = len(data["elements"]), len({tuple(e) for e in data["hasse"]})
    if (got_e, got_h) != (want_e, want_h) or len(data["tube_points"]) != points:
        return [f"kronecker: {got_e} elements, {got_h} covers; closed form {want_e}, {want_h}"]
    return []


def _vertex(name: str) -> tuple[int, int]:
    level, node = name.split(":")
    return int(level), int(node)


def check_arq(label: str, window: tuple[int, int], text: str) -> list[str]:
    """`arq knit --check-mesh`: mesh report, one hammock per vertex, every
    suspension at tau^-(h/2), and every knitted value re-derived from the
    mesh recursion dim(X,Z) = sum_in - dim(X,tau Z) + [Z=X] + [Z=X[1]]."""
    n = len(degrees(label))
    lo, hi = window
    head, _, body = text.partition("\n")
    bad = []
    if head != f"mesh: {(hi - lo) * n} vertices checked, 0 violations":
        bad.append(f"arq: mesh report {head!r}")
    data = json.loads(body)
    hams = data["hammocks"]
    if len(data["vertices"]) != (hi - lo + 1) * n or sorted(hams) != sorted(data["vertices"]):
        bad.append("arq: not exactly one hammock per window vertex")
    preds: dict[int, list[int]] = {}
    succs: dict[int, list[int]] = {}
    for s, t in data["orientation"]:
        preds.setdefault(t, []).append(s)
        succs.setdefault(s, []).append(t)
    steps = shift_steps(label)
    for name, ham in hams.items():
        problem = _hammock_problem(name, ham, n, preds, succs, steps)
        if problem:
            bad.append(f"arq: hammock of {name} {problem}")
            break
    return bad


def _hammock_problem(name, ham, n, preds, succs, steps) -> str | None:
    src = _vertex(name)
    sigma = _vertex(ham["suspension"])
    if steps is not None and sigma != (src[0] + steps, src[1]):
        return f"has its suspension at {ham['suspension']}, not tau^-{steps}"
    vals = {_vertex(z): k for z, k in ham["values"].items()}
    if any(k <= 0 for k in vals.values()) or vals.get(src) != 1:
        return "has a nonpositive value or a source value other than 1"
    top = max(max(lvl for lvl, _ in vals), sigma[0]) + 1
    for lvl in range(src[0], top + 1):
        for x in range(1, n + 1):
            want = (
                sum(vals.get((lvl, s), 0) for s in preds.get(x, ()))
                + sum(vals.get((lvl - 1, t), 0) for t in succs.get(x, ()))
                - vals.get((lvl - 1, x), 0)
                + ((lvl, x) == src)
                + ((lvl, x) == sigma)
            )
            if vals.get((lvl, x), 0) != want:
                return f"breaks the mesh recursion at {lvl}:{x}"
    return None


class QueryOracle:
    """The order of NC(W,c) read off cover edges the benchmark builds itself.

    Covers are u < u*t for reflections t with both ends in the element set
    and rank (breadth-first distance from the identity inside the set)
    rising by one; down- and up-sets are int bitmasks over element indices.
    """

    def __init__(self, label: str, perm, matrices):
        self.cm = cartan_matrix(label)
        self.n = len(self.cm)
        self.c = coxeter(self.cm, perm)
        self.mats = list(matrices)
        self.index = {m: i for i, m in enumerate(self.mats)}
        refl = [reflection(self.cm, r) for r in positive_roots(self.cm)]
        start = self.index.get(identity(self.n))
        self.rank = [None] * len(self.mats)
        self.problems = []
        if start is None:
            self.problems.append("query: the identity is not in the lattice")
            return
        self.rank[start] = 0
        frontier, covers = [start], []
        while frontier:
            nxt = []
            for i in frontier:
                for t in refl:
                    j = self.index.get(mul(self.mats[i], t))
                    if j is None:
                        continue
                    if self.rank[j] is None:
                        self.rank[j] = self.rank[i] + 1
                        nxt.append(j)
                    if self.rank[j] == self.rank[i] + 1:
                        covers.append((i, j))
            frontier = nxt
        if None in self.rank:
            self.problems.append("query: some element is unreachable by covers")
            return
        self.problems += _lattice_shape(label, self.rank, covers, "query")
        order = sorted(range(len(self.mats)), key=self.rank.__getitem__)
        self.down = [1 << i for i in range(len(self.mats))]
        self.up = list(self.down)
        below: dict[int, list[int]] = {}
        for i, j in covers:
            below.setdefault(j, []).append(i)
        for j in order:
            for i in below.get(j, ()):
                self.down[j] |= self.down[i]
        for j in reversed(order):
            for i in below.get(j, ()):
                self.up[i] |= self.up[j]

    def check(self, w_matrix: Mat, answers: dict) -> list[str]:
        """answers: complement, meet, join, kreweras, round_trip as matrices,
        leq as bool, word as a tuple of roots for w."""
        keys = ("complement", "meet", "join", "kreweras", "round_trip")
        w = self.index.get(w_matrix)
        ix = {k: self.index.get(answers[k]) for k in keys}
        if w is None or None in ix.values():
            return [f"query({w}): an argument or answer lies outside the lattice"]
        bad = []
        comp, k = ix["complement"], ix["kreweras"]
        if self.rank[comp] != self.n - self.rank[w] or mul(self.mats[comp], self.mats[w]) != self.c:
            bad.append(f"query({w}): complement is not c w^-1")
        if self.down[ix["meet"]] != self.down[w] & self.down[comp] or self.rank[ix["meet"]] != 0:
            bad.append(f"query({w}): wrong meet with the complement")
        if self.up[ix["join"]] != self.up[w] & self.up[comp] or self.mats[ix["join"]] != self.c:
            bad.append(f"query({w}): wrong join with the complement")
        if answers["leq"] != bool(self.down[comp] >> w & 1):
            bad.append(f"query({w}): wrong leq")
        if self.rank[k] != self.n - self.rank[w] or mul(self.mats[w], self.mats[k]) != self.c:
            bad.append(f"query({w}): kreweras(w) is not w^-1 c")
        if ix["round_trip"] != w:
            bad.append(f"query({w}): co_kreweras(kreweras(w)) is not w")
        word = answers["word"]
        if len(word) != self.rank[w] or word_product(self.cm, word) != self.mats[w]:
            bad.append(f"query({w}): canonical_word(w) is not a reduced word for w")
        return bad

"""The benchmark's four workloads: seeded inputs, requests, and checks.

A request is one unit a user waits for: one CLI command on the batch
workloads, one queried element on nc-query.  Requests call the library the
way ncthick/cli.py does, so at seed 0 (the CLI's default inputs) their
output bytes equal the CLI's stdout; other seeds change only the
generated inputs handed to the library (Coxeter element, quiver
orientation, tube labels, query stream).

Sizes: a pass (one fresh process running a workload's requests once)
takes about a second, so a run holds about twenty passes; bench/README.md
says why passes are kept that short.

Why these four: each layer of src/ncthick does most of its work in one
workload and almost none in another.
  nc-build      whole-lattice build of NC(A5) plus the A3 Hurwitz orbit:
                cartan, linalg, noncrossing, braid.
  nc-query      closed loop, one client, no think time, against a lattice
                built in set-up: complement and Kreweras queries on a
                long-lived NCLattice, never a Hasse diagram.
  thick         the only rational linear systems (repcat.hom via
                linalg.rref) and the only thicklat work.
  derived-mesh  E8 hammocks and mesh check: no Weyl matrix and no linalg,
                so cartan/linalg/noncrossing changes should leave it flat.
"""

from __future__ import annotations

import json
import random

import gates
from ncthick import braid, cartan, derived, noncrossing, repcat, thicklat

NC_LABEL, BRAID_LABEL = "A5", "A3"
ORACLE_LABEL = "A4"
KRON_BOUND, KRON_POINTS = 1, 8
ARQ_LABEL, ARQ_WINDOW = "E8", (0, 24)
# nc-query: the access pattern of selfcheck's kreweras-duality and
# nc-complementation suites, on NC(A5): each request takes one element w,
# its complement c w^-1 and its Kreweras image, and asks meet, join, leq,
# the duality round trip and the canonical word.  A pass queries every
# element once, in a seeded order: 132 requests, so p90 has 13 samples
# beyond it in every pass.


def serialize(obj) -> str:
    """The CLI's JSON encoding and trailing newline."""
    return json.dumps(obj, sort_keys=True) + "\n"


def _perm(rng: random.Random | None, n: int) -> tuple[int, ...]:
    perm = list(range(1, n + 1))
    if rng is not None:
        rng.shuffle(perm)
    return tuple(perm)


def _orientation(rng: random.Random | None, label: str):
    """None (the CLI default, low -> high) at seed 0, else random arrows."""
    if rng is None:
        return None
    return tuple((t, s) if rng.random() < 0.5 else (s, t) for s, t in gates.tree_edges(label))


def make_inputs(workload: str, seed: int) -> dict:
    rng = None if seed == 0 else random.Random(f"{workload}/{seed}")
    if workload == "nc-build":
        return {"perm": _perm(rng, 5), "braid_perm": _perm(rng, 3)}
    if workload == "nc-query":
        picks = list(range(gates.nc_size(NC_LABEL)))
        random.Random(f"{workload}/picks/{seed}").shuffle(picks)
        return {"perm": _perm(rng, 5), "picks": picks}
    if workload == "thick":
        points = KRON_POINTS if rng is None else tuple(f"t{x}" for x in rng.sample(range(1000), KRON_POINTS))
        return {"oracle_arrows": _orientation(rng, ORACLE_LABEL), "points": points}
    if workload == "derived-mesh":
        return {"arrows": _orientation(rng, ARQ_LABEL)}
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# requests: each returns its outputs; checks run after the measured phase


def nc_request(label, perm) -> dict:
    """`ncthick nc --type A5` and `--format dot`, one lattice for both."""
    cd = cartan.build_cartan(label)
    lat = noncrossing.enumerate_nc(cd, cartan.coxeter_element(cd, perm))
    return {"json": serialize(noncrossing.to_json(lat)), "dot": noncrossing.hasse_dot(lat)}


def braid_request(label, perm) -> dict:
    """`ncthick braid orbit`, including its brute-force comparison."""
    cd = cartan.build_cartan(label)
    c = cartan.coxeter_element(cd, perm)
    facts = braid.enumerate_factorizations(cd, c)
    start = braid.Factorization(cd, tuple(cartan.simple_reflection(cd, i) for i in perm), c)
    orbit = braid.hurwitz_orbit(start)
    same = {f.key() for f in orbit} == {f.key() for f in facts}
    return {"json": serialize(braid.to_json(orbit)), "brute_count": len(facts), "same": same}


def thick_request(label, oracle_arrows=None, oracle=False) -> dict:
    """`ncthick thick lattice [--oracle]`."""
    cd = cartan.build_cartan(label)
    lat = thicklat.thick_lattice(cd)
    data = thicklat.thick_to_json(lat)
    if oracle:
        result = thicklat.wide_subcategory_oracle(repcat.dynkin_quiver(label, oracle_arrows))
        data["oracle_count"] = result.count
        data["oracle_match"] = result.count == len(lat)
    return {"json": serialize(data)}


def kronecker_request(bound, points) -> dict:
    """`ncthick kronecker --bound b --points p`."""
    return {"json": serialize(thicklat.kronecker_to_json(thicklat.kronecker_lattice(bound, points)))}


def arq_request(label, window, arrows) -> dict:
    """`ncthick arq knit --window lo:hi --check-mesh`."""
    t = derived.build_zdelta(label, window, arrows)
    report = derived.verify_mesh(t)
    head = f"mesh: {len(report.checked)} vertices checked, {len(report.violations)} violations\n"
    return {"stdout": head + serialize(derived.hammocks_json(t))}


def _digest(seed, command, text) -> list[str]:
    return gates.check_digest(command, text) if seed == 0 else []


def batch_requests(workload: str, inp: dict, seed: int) -> list:
    """(name, call, check) per request; check(outputs) -> failure strings."""
    if workload == "nc-build":
        nc_cmd, dot_cmd, braid_cmd = "nc --type A5", "nc --type A5 --format dot", "braid orbit --type A3"
        return [
            (
                nc_cmd,
                lambda: nc_request(NC_LABEL, inp["perm"]),
                lambda o: gates.check_nc(NC_LABEL, inp["perm"], o["json"], o["dot"])
                + _digest(seed, nc_cmd, o["json"])
                + _digest(seed, dot_cmd, o["dot"]),
            ),
            (
                braid_cmd,
                lambda: braid_request(BRAID_LABEL, inp["braid_perm"]),
                lambda o: gates.check_braid(BRAID_LABEL, inp["braid_perm"], o["json"], o["brute_count"], o["same"])
                + _digest(seed, braid_cmd, o["json"]),
            ),
        ]
    if workload == "thick":
        a4 = "thick lattice --type A4 --oracle"
        kron = f"kronecker --bound {KRON_BOUND} --points {KRON_POINTS}"
        return [
            (
                a4,
                lambda: thick_request(ORACLE_LABEL, inp["oracle_arrows"], oracle=True),
                lambda o: gates.check_thick(ORACLE_LABEL, o["json"], oracle=True) + _digest(seed, a4, o["json"]),
            ),
            (
                kron,
                lambda: kronecker_request(KRON_BOUND, inp["points"]),
                lambda o: gates.check_kronecker(o["json"], KRON_BOUND, KRON_POINTS) + _digest(seed, kron, o["json"]),
            ),
        ]
    if workload == "derived-mesh":
        cmd = f"arq knit --type {ARQ_LABEL} --window {ARQ_WINDOW[0]}:{ARQ_WINDOW[1]} --check-mesh"
        return [
            (
                cmd,
                lambda: arq_request(ARQ_LABEL, ARQ_WINDOW, inp["arrows"]),
                lambda o: gates.check_arq(ARQ_LABEL, ARQ_WINDOW, o["stdout"]) + _digest(seed, cmd, o["stdout"]),
            )
        ]
    raise ValueError(f"{workload!r} is not a batch workload")


# ---------------------------------------------------------------------------
# nc-query


def query_setup(inp: dict):
    """Build NC(A5) for the seeded c and all canonical words, finish the
    lattice's lazy set-up, and return it with the queried elements: pick k
    is the k-th element in (rank, matrix) order, which does not depend on
    the library's enumeration order.

    meet(c, c) tests x <= c for every x, which fills NCLattice's cache of
    inverses; a long-lived lattice has paid that once, so it belongs to
    set-up rather than to the first measured request.
    """
    cd = cartan.build_cartan(NC_LABEL)
    lat = noncrossing.enumerate_nc(cd, cartan.coxeter_element(cd, inp["perm"]))
    for w in lat.elements:
        lat.canonical_word(w)
    noncrossing.meet(lat, lat.coxeter, lat.coxeter)
    ordered = sorted(lat.elements, key=lambda w: (lat.ranks[w], w.matrix))
    return lat, [ordered[k] for k in inp["picks"]]


def query_request(lat, w) -> dict:
    """One client request about w and its complement c w^-1."""
    comp = noncrossing.co_kreweras(lat, w)
    krew = noncrossing.kreweras(lat, w)
    return {
        "complement": comp.matrix,
        "meet": noncrossing.meet(lat, w, comp).matrix,
        "join": noncrossing.join(lat, w, comp).matrix,
        "leq": lat.leq(w, comp),
        "kreweras": krew.matrix,
        "round_trip": noncrossing.co_kreweras(lat, krew).matrix,
        "word": lat.canonical_word(w),
    }

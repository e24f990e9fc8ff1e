"""Command-line surface: nc, braid, arq, thick, kronecker, verify.

Exit codes: 0 on success, 1 on verification failure, 2 on usage errors
(including requests outside the library's supported ranges).  Every
error prints a single machine-parsable line to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import braid, cartan, derived, noncrossing, repcat, thicklat
from .errors import NcthickError, OutOfRangeError


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _window(text: str, rank: int) -> tuple[int, int]:
    if text is None:
        return (-2, 2 * rank)
    try:
        lo, hi = text.split(":")
        return (int(lo), int(hi))
    except ValueError:
        raise _UsageError(f"bad window {text!r}; expected lo:hi") from None


def _emit(text: str) -> None:
    """Write text, then a newline if it lacks one: the text is not copied."""
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _cmd_nc(args) -> int:
    # only KRONECKER reads --bound, but a negative one is refused for every label
    if args.bound < 0:
        raise OutOfRangeError(f"truncation bound must be at least 0, got {args.bound}")
    if args.type == cartan.KRONECKER:
        lat = noncrossing.nc_kronecker(args.bound)
    else:
        lat = noncrossing.enumerate_nc(cartan.build_cartan(args.type))
    if args.format == "count":
        _emit(str(len(lat)))
    elif args.format == "dot":
        _emit(noncrossing.hasse_dot(lat))
    else:
        _emit(_dumps(noncrossing.to_json(lat)))
    return 0


def _cmd_braid(args) -> int:
    cd = cartan.build_cartan(args.type)
    c = cartan.coxeter_element(cd)
    facts = braid.enumerate_factorizations(cd)  # enforces the rank cap first
    start = braid.Factorization(
        cd, tuple(cartan.simple_reflection(cd, i) for i in range(1, cd.rank + 1)), c
    )
    orbit = braid.hurwitz_orbit(start)
    orbits = 1 if {f.key() for f in orbit} == {f.key() for f in facts} else "?"
    if args.count:
        noun = "orbit" if orbits == 1 else "orbits"
        _emit(f"{len(facts)} factorizations, {orbits} {noun}")
    else:
        _emit(_dumps(braid.to_json(orbit)))
    if orbits != 1:
        sys.stderr.write("error: the Hurwitz orbit disagrees with the brute-force factorizations\n")
        return 1
    return 0


def _cmd_arq(args) -> int:
    cd = cartan.build_cartan(args.type)
    window = derived.build_zdelta(args.type, _window(args.window, cd.rank))
    code = 0
    if args.check_mesh:
        report = derived.verify_mesh(window)
        for line in report.violations:
            sys.stderr.write(f"mesh-violation: {line}\n")
        _emit(f"mesh: {len(report.checked)} vertices checked, {len(report.violations)} violations")
        if not report.ok:
            code = 1
    if args.format == "dot":
        _emit(derived.window_dot(window))
    else:
        _emit(_dumps(derived.hammocks_json(window)))
    return code


def _cmd_thick(args) -> int:
    cd = cartan.build_cartan(args.type)
    # the oracle runs first, so a request past its cap fails before any work
    if args.oracle:
        oracle = thicklat.wide_subcategory_oracle(repcat.dynkin_quiver(args.type))
    lat = thicklat.thick_lattice(cd)
    if args.format == "dot":
        _emit(noncrossing.hasse_dot(lat))
    else:
        data = thicklat.thick_to_json(lat)
        if args.oracle:
            data["oracle_count"] = oracle.count
            data["oracle_match"] = oracle.count == len(lat)
        _emit(_dumps(data))
    if args.oracle and oracle.count != len(lat):
        sys.stderr.write("error: thick lattice disagrees with the wide-subcategory oracle\n")
        return 1
    return 0


def _cmd_kronecker(args) -> int:
    lat = thicklat.kronecker_lattice(args.bound, args.points)
    if args.format == "dot":
        _emit(thicklat.kronecker_dot(lat))
    else:
        _emit(_dumps(thicklat.kronecker_to_json(lat)))
    return 0


def _cmd_verify(args) -> int:
    from . import selfcheck  # loaded for verify only: the other commands skip compiling it

    results = selfcheck.run_suites(args.suite)
    failures = 0
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        detail = f" ({r.detail})" if r.detail else ""
        _emit(f"{status} {r.suite}/{r.name}{detail}")
        failures += 0 if r.ok else 1
    _emit(f"{len(results) - failures}/{len(results)} invariant checks passed")
    return 0 if failures == 0 else 1


def _build_parser() -> _Parser:
    parser = _Parser(prog="ncthick", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_nc = sub.add_parser("nc", help="noncrossing partition lattice")
    p_nc.add_argument("--type", required=True)
    p_nc.add_argument("--format", choices=["json", "dot", "count"], default="json")
    p_nc.add_argument("--bound", type=int, default=1, help="truncation bound (KRONECKER only)")
    p_nc.set_defaults(fn=_cmd_nc)

    p_braid = sub.add_parser("braid", help="reflection factorizations and Hurwitz orbits")
    braid_sub = p_braid.add_subparsers(dest="subcommand", required=True)
    p_orbit = braid_sub.add_parser("orbit", help="the Hurwitz orbit of s_1...s_n")
    p_orbit.add_argument("--type", required=True)
    p_orbit.add_argument("--count", action="store_true")
    p_orbit.set_defaults(fn=_cmd_braid)

    p_arq = sub.add_parser("arq", help="repetition windows and Hom hammocks")
    arq_sub = p_arq.add_subparsers(dest="subcommand", required=True)
    p_knit = arq_sub.add_parser("knit", help="knit all hammocks over a window")
    p_knit.add_argument("--type", required=True)
    p_knit.add_argument("--window", default=None, help="lo:hi inclusive levels")
    p_knit.add_argument("--check-mesh", action="store_true")
    p_knit.add_argument("--format", choices=["json", "dot"], default="json")
    p_knit.set_defaults(fn=_cmd_arq)

    p_thick = sub.add_parser("thick", help="the lattice of thick subcategories")
    thick_sub = p_thick.add_subparsers(dest="subcommand", required=True)
    p_lat = thick_sub.add_parser("lattice", help="materialize the whole lattice")
    p_lat.add_argument("--type", required=True)
    p_lat.add_argument("--oracle", action="store_true", help="cross-check wide subcategories")
    p_lat.add_argument("--format", choices=["json", "dot"], default="json")
    p_lat.set_defaults(fn=_cmd_thick)

    p_k = sub.add_parser("kronecker", help="the glued Kronecker lattice")
    p_k.add_argument("--bound", type=int, default=1)
    p_k.add_argument("--points", type=int, default=2, help="number of tube points")
    p_k.add_argument("--format", choices=["json", "dot"], default="json")
    p_k.set_defaults(fn=_cmd_kronecker)

    p_v = sub.add_parser("verify", help="run the invariant suites")
    p_v.add_argument("--suite", choices=["all", "nc", "braid", "arq", "thick"], default="all")
    p_v.set_defaults(fn=_cmd_verify)

    return parser


def _merge_window_flag(argv: list[str]) -> list[str]:
    """Join '--window -3:3' into one token so argparse accepts the minus."""
    out = []
    i = 0
    while i < len(argv):
        if argv[i] == "--window" and i + 1 < len(argv):
            out.append(f"--window={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def run(argv=None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _merge_window_flag(list(argv))
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except _UsageError as exc:
        sys.stderr.write(f"usage-error: {exc}\n")
        return 2
    except NcthickError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

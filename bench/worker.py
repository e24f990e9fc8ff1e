"""One pass of one workload in a fresh single-threaded process.

run.py spawns this once per pass, so ncthick's module-level caches start
cold on every pass, the same as for a CLI user.  A pass is: import,
generate the seeded inputs, set up (nc-query only: build the lattice),
then the speed probe, the measured requests and the probe again, then the
correctness checks (not timed).  It prints one JSON line with the pass's
measurements.

    python3 bench/worker.py --workload thick --seed 0 --spawned <CLOCK_MONOTONIC> [--setup-only] [--trace]
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import gates

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROBE_LABEL = "E6"  # the probe multiplies its 36 reflections, 6 x 6 integer matrices


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def probe_s(reflections) -> float:
    """How fast this core runs Python right now: the median time of five
    runs of a fixed loop of integer matrix products that does not touch
    ncthick.  run.py scales every pass's times by it."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            w = reflections[0]
            for k in range(60):
                w = gates.mul(w, reflections[k * 7 % len(reflections)])
            times.append(time.perf_counter() - t0)
    finally:
        if was_enabled:
            gc.enable()
    return statistics.median(times)


def _call(fn):
    """Run one request; an exception is the request's failure, not the pass's."""
    t0 = time.perf_counter()
    try:
        out, err = fn(), None
    except Exception as exc:  # noqa: BLE001 - counted as a failed request
        out, err = None, f"{type(exc).__name__}: {exc}"
    return out, err, (time.perf_counter() - t0) * 1000


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned", type=float, required=True, help="CLOCK_MONOTONIC before the spawn")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import ncthick

    if Path(ncthick.__file__).resolve().parent != (ROOT / "src" / "ncthick").resolve():
        sys.exit(f"ncthick imported from {ncthick.__file__}, not from this checkout")
    import workloads

    inp = workloads.make_inputs(args.workload, args.seed)
    lat, working = workloads.query_setup(inp) if args.workload == "nc-query" else (None, None)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned
    cm = gates.cartan_matrix(PROBE_LABEL)
    reflections = [gates.reflection(cm, r) for r in gates.positive_roots(cm)]
    probe_before = probe_s(reflections)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_probe_s": probe_before}))
        return 0

    if lat is None:
        reqs = workloads.batch_requests(args.workload, inp, args.seed)
        calls = [(name, call) for name, call, _ in reqs]
    else:
        calls = [
            (f"query({k})", lambda w=w: workloads.query_request(lat, w)) for k, w in zip(inp["picks"], working)
        ]

    def measured():
        return [_call(call) for _, call in calls]

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    try:
        results = tracer.run(measured) if tracer else measured()
    finally:
        if tracer:
            tracer.close()
    wall_s = time.perf_counter() - t0
    cpu_s = _cpu_s() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probe_after = probe_s(reflections)

    failures = []
    if lat is None:
        for (name, _, check), (out, err, _) in zip(reqs, results):
            failures.append([err] if err else _checked(check, out))
    else:
        oracle = gates.QueryOracle(workloads.NC_LABEL, inp["perm"], [w.matrix for w in lat.elements])
        for w, (out, err, _) in zip(working, results):
            check = lambda o: oracle.check(w.matrix, o)  # noqa: E731
            failures.append([err] if err else oracle.problems or _checked(check, out))

    report = {
        "setup_s": setup_s,
        "setup_probe_s": probe_before,
        "probe_s": [probe_before, probe_after],
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "requests": [[name, ms, bad] for (name, _), (_, _, ms), bad in zip(calls, results, failures)],
    }
    if tracer:
        report["per_layer"] = tracer.metrics()
        report["output_bytes"] = sum(
            len(v.encode()) for out, _, _ in results if out for v in out.values() if isinstance(v, str)
        )
        report["untraced_targets"] = tracer.missing
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{args.workload}-{args.seed}.json")
    print(json.dumps(report))
    return 0


def _checked(check, out) -> list[str]:
    try:
        return check(out)
    except Exception as exc:  # noqa: BLE001 - a malformed output fails its request
        return [f"check raised {type(exc).__name__}: {exc}"]


if __name__ == "__main__":
    sys.exit(main())

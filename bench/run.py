"""Benchmark entry point: one run of one workload, one JSON result line.

    python3 bench/run.py --workload nc-build --seed 0 --seconds 25 --trace 0

A run spawns fresh worker processes (bench/worker.py), one per pass, and
repeats whole passes until --seconds have passed since the run started.
An untraced run reports each end-to-end time metric as its mean over the
passes, scaled to a reference speed by the workers' speed probe, and
setup_s as the median of at least MIN_SETUPS set-ups, each scaled by the
probe taken right after it (bench/README.md says why).
A traced run alternates untraced and traced passes of the same inputs and
reports the per-layer metrics of the fastest traced pass, plus
trace.overhead_s, its wall time minus the fastest untraced pass's.

The last stdout line is {"correct", "attempted", "failed", "metrics"};
`attempted` counts requests (CLI commands or queried elements) and `failed`
those that raised or failed a correctness check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("nc-build", "nc-query", "thick", "derived-mesh")
DEADLINE_S = 170  # every run must end within 180 s
# set-up is one sample per pass; a short process start is noisier than the
# passes, so a run tops it up to MIN_SETUPS samples with set-up-only workers
MIN_SETUPS = 15
TRACE_PAIRS = 3
# Time metrics are reported at the speed at which the worker's probe
# (worker.probe_s) takes PROBE_REF_S: each pass's times are multiplied by
# PROBE_REF_S / probe.  2.5 ms is about the probe's time on an idle core
# of an x86_64 VM with Python 3.11.
PROBE_REF_S = 0.0025


class BenchError(Exception):
    pass


def p90(values) -> float:
    """Linear interpolation between closest ranks; one value is its own p90."""
    xs = list(values)
    return statistics.quantiles(xs, n=10, method="inclusive")[8] if len(xs) > 1 else xs[0]


def spawn(workload: str, seed: int, started: float, *flags: str) -> dict:
    left = DEADLINE_S - (time.monotonic() - started)
    if left <= 0:
        raise BenchError("run deadline reached")
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    try:
        proc = subprocess.run(
            cmd + ["--spawned", repr(spawned), *flags],
            cwd=ROOT, capture_output=True, text=True, timeout=left,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} pass did not finish before the run deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def untraced(workload: str, seed: int, seconds: int, started: float):
    passes = []
    while not passes or time.monotonic() - started < seconds:
        passes.append(spawn(workload, seed, started))
    setups = list(passes)
    while len(setups) < MIN_SETUPS:
        setups.append(spawn(workload, seed, started, "--setup-only"))
    values = {"wall_s": [], "cpu_s": [], "req_p50_ms": [], "req_p90_ms": []}
    for p in passes:
        if workload == "nc-query":
            latencies = [ms for _, ms, _ in p["requests"]]
        else:  # a batch workload's request is the pass: its CLI commands back to back
            latencies = [p["wall_s"] * 1000]
        values["wall_s"].append(p["wall_s"])
        values["cpu_s"].append(p["cpu_s"])
        values["req_p50_ms"].append(statistics.median(latencies))
        values["req_p90_ms"].append(p90(latencies))
    # the mean pass against the mean probe over the same stretch of time
    speed = PROBE_REF_S / statistics.fmean(x for p in passes for x in p["probe_s"])
    setup = statistics.median(s["setup_s"] * PROBE_REF_S / s["setup_probe_s"] for s in setups)
    metrics = {"setup_s": (setup, "s")}
    metrics.update((k, (statistics.fmean(v) * speed, "ms" if k.endswith("_ms") else "s")) for k, v in values.items())
    metrics["peak_rss_mb"] = (statistics.median([p["peak_rss_mb"] for p in passes]), "MB")
    probes = sorted(x * 1000 for p in passes for x in p["probe_s"])
    print(f"# {workload} seed {seed}: {len(passes)} passes, {len(setups)} set-ups; "
          f"probe {probes[0]:.2f}-{probes[-1]:.2f} ms, mean {statistics.fmean(probes):.2f}")
    print("# unscaled means over passes: " + ", ".join(f"{k} {statistics.fmean(v):.4g}" for k, v in values.items())
          + f", setup_s {statistics.fmean(s['setup_s'] for s in setups):.4g}")
    return passes, metrics


def traced(workload: str, seed: int, started: float):
    passes = [spawn(workload, seed, started, *flags) for _ in range(TRACE_PAIRS) for flags in ((), ("--trace",))]
    base = min(passes[0::2], key=lambda p: p["wall_s"])
    run = min(passes[1::2], key=lambda p: p["wall_s"])
    layer = run["per_layer"]
    layer["trace.overhead_s"] = run["wall_s"] - base["wall_s"]
    layer["cli.output_bytes"] = run["output_bytes"]
    for target in run["untraced_targets"]:
        print(f"# trace: {target} does not exist, its metrics read 0")
    metrics = {k: (v, _unit(k)) for k, v in layer.items()}
    return passes, metrics


def _unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith((".yield", ".per_element", "_share")):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def main() -> int:
    started = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "ncthick" / "__init__.py").is_file():
        sys.exit(f"no ncthick sources under {ROOT / 'src'}; run from a full checkout")
    try:
        if args.trace:
            passes, metrics = traced(args.workload, args.seed, started)
        else:
            passes, metrics = untraced(args.workload, args.seed, args.seconds, started)
    except BenchError as exc:
        sys.exit(f"benchmark failed: {exc}")

    attempted = failed = 0
    for p in passes:
        for name, ms, bad in p["requests"]:
            attempted += 1
            failed += bool(bad)
            if bad:
                print(f"# FAIL {name} ({ms:.1f} ms): {'; '.join(bad)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record one trajectory point of the benchmark.

    python3 bench/record.py --commit d951a2b

Runs bench/run.py untraced for every workload at seeds 1-10 (interleaving
workloads, so slow drift of the machine spreads over all of them), then
once traced at seed 0, and writes bench/trajectory/<commit>.json: per
workload the median, quartiles and values of each end-to-end metric, and
the traced per-layer table.  It also prints each metric's quartile
spread (q3 - q1) / median next to its bound in BENCHMARK.json.  About
20 minutes on 2 vCPUs.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd[1:])} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--commit", required=True, help="name of the trajectory point")
    ap.add_argument("--seeds", type=int, default=10)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(1, args.seeds + 1))

    runs: dict[str, list[dict]] = {w: [] for w in names}
    for seed in seeds:
        for w in names:
            runs[w].append(run(w, seed, spec["run_seconds"], 0))
            print(f"{w} seed {seed}: {json.dumps(runs[w][-1])}", flush=True)

    point = {
        "commit": args.commit,
        "machine": f"{platform.machine()}, python {platform.python_version()}",
        "run_seconds": spec["run_seconds"],
        "seeds": seeds,
        "workloads": {},
    }
    for w in names:
        traced = run(w, 0, spec["run_seconds"], 1)
        summary = {}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs[w]]
            # the default (exclusive) method on purpose: the acceptance rule for
            # the bounds takes its quartiles this way
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / statistics.median(values)
            summary[metric] = {
                "unit": runs[w][0]["metrics"][metric]["unit"],
                "median": statistics.median(values), "q1": q1, "q3": q3,
                "spread": spread, "values": values,
            }
            flag = "" if spread < bound / 3 else ("  > bound/3" if spread <= bound else "  > BOUND")
            print(f"{w:13s} {metric:12s} median {summary[metric]['median']:12.4f} spread {spread:.3f} (bound {bound}){flag}")
        point["workloads"][w] = {
            "attempted": sum(r["attempted"] for r in runs[w]),
            "failed": sum(r["failed"] for r in runs[w]),
            "all_correct": all(r["correct"] for r in runs[w]) and traced["correct"],
            "end_to_end": summary,
            "per_layer_seed0": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    out = HERE / "trajectory" / f"{args.commit}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(point, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark's correctness gate.

    python3 bench/selftest.py

A gate that accepts everything proves nothing.  Each corruption case
takes a clean output, checks that the gate accepts it, corrupts it one
way, and checks that the gate then fails the request, so the run's
failed / attempted ratio rises above 0.  The cases use small instances
(the closed forms hold for every type) so they take seconds; the gate
functions are the ones the benchmark runs.  The last case runs every
workload end to end at a seed other than 0 and requires a clean result
(under a minute on 2 vCPUs).
"""

from __future__ import annotations

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import gates  # noqa: E402
import workloads  # noqa: E402
from ncthick import cartan, noncrossing  # noqa: E402


def fail_ratio(results: list[list[str]]) -> float:
    return sum(bool(r) for r in results) / len(results)


class Corruptions(unittest.TestCase):
    def test_dropped_hasse_edge(self):
        perm = (3, 1, 4, 2)
        out = workloads.nc_request("D4", perm)
        self.assertEqual(gates.check_nc("D4", perm, out["json"], out["dot"]), [])
        data = json.loads(out["json"])
        i, j = data["hasse"].pop(len(data["hasse"]) // 2)
        dot = out["dot"].replace(f"  n{i} -> n{j};\n", "")
        bad = gates.check_nc("D4", perm, workloads.serialize(data), dot)
        self.assertGreater(fail_ratio([bad]), 0)
        self.assertTrue(any("maximal chains" in b for b in bad), bad)

    def test_changed_hammock_value(self):
        arrows = ((3, 1), (2, 4), (4, 3), (4, 5), (6, 5), (6, 7), (8, 7))
        text = workloads.arq_request("E8", (0, 3), arrows)["stdout"]
        self.assertEqual(gates.check_arq("E8", (0, 3), text), [])
        head, body = text.split("\n", 1)
        data = json.loads(body)
        values = data["hammocks"]["1:4"]["values"]
        z = sorted(values)[len(values) // 2]
        values[z] += 1
        bad = gates.check_arq("E8", (0, 3), head + "\n" + workloads.serialize(data))
        self.assertGreater(fail_ratio([bad]), 0)
        self.assertTrue(any("mesh recursion" in b for b in bad), bad)

    def test_swapped_perp_pair(self):
        out = workloads.thick_request("A4")["json"]
        self.assertEqual(gates.check_thick("A4", out, oracle=False), [])
        data = json.loads(out)
        row = next(r for r in data["perp_pairs"] if r[1] != r[2])
        row[1], row[2] = row[2], row[1]
        bad = gates.check_thick("A4", workloads.serialize(data), oracle=False)
        self.assertGreater(fail_ratio([bad]), 0)

    def test_digest_catches_one_byte(self):
        cmd = "kronecker --bound 1 --points 8"
        text = workloads.kronecker_request(1, 8)["json"]
        self.assertEqual(gates.check_digest(cmd, text), [])
        self.assertEqual(gates.check_kronecker(text, 1, 8), [])
        self.assertNotEqual(gates.check_digest(cmd, text.replace('"p1"', '"p0"', 1)), [])

    def test_wrong_meet_answer(self):
        perm = (2, 4, 1, 3)
        cd = cartan.build_cartan("D4")
        lat = noncrossing.enumerate_nc(cd, cartan.coxeter_element(cd, perm))
        oracle = gates.QueryOracle("D4", perm, [w.matrix for w in lat.elements])
        self.assertEqual(oracle.problems, [])
        els = [lat.elements[k] for k in (3, 17, 30)]
        answers = [workloads.query_request(lat, w) for w in els]
        results = [oracle.check(w.matrix, a) for w, a in zip(els, answers)]
        self.assertEqual(results, [[], [], []])
        answers[0]["meet"] = answers[0]["join"]
        results = [oracle.check(w.matrix, a) for w, a in zip(els, answers)]
        self.assertAlmostEqual(fail_ratio(results), 1 / 3)


class OtherSeedRunsClean(unittest.TestCase):
    def test_all_workloads_seed_7(self):
        for workload in ("nc-build", "nc-query", "thick", "derived-mesh"):
            with self.subTest(workload=workload):
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", workload,
                     "--seed", "7", "--seconds", "1", "--trace", "0"],
                    cwd=ROOT, capture_output=True, text=True, timeout=180,
                )
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                self.assertEqual((result["correct"], result["failed"]), (True, 0), proc.stdout)
                self.assertGreater(result["attempted"], 0)


if __name__ == "__main__":
    unittest.main()

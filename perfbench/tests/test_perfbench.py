#!/usr/bin/env python3
"""The benchmark's self-tests.

    python3 perfbench/tests/test_perfbench.py PATH/TO/perfbench

Run from the root of the source checkout (ctest does). Shows that the
output checks catch errors — a tampered schedule or a wrong fingerprint
fails the run on every workload — that a seed fixes the inputs and the
answer-quality metrics exactly, and that the runner refuses to report
from a directory holding only the benchmark.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.getcwd()
BINARY = None


def run(args, cwd=ROOT):
    return subprocess.run(args, cwd=cwd, capture_output=True, text=True, timeout=300)


class TamperedOutputsFailTheRun(unittest.TestCase):
    def check_tamper(self, workload, mode):
        result = run([BINARY, "--workload", workload, "--seed", "7", "--seconds", "1",
                      "--trace", "0", "--small", "--tamper", mode])
        self.assertEqual(result.returncode, 3, result.stderr)
        self.assertIn("check failed", result.stderr)
        last = json.loads(result.stdout.strip().splitlines()[-1])
        self.assertIs(last["correct"], False)

    def test_tampered_schedule(self):
        for workload in ("solve-cold", "serve-repeat"):
            with self.subTest(workload=workload):
                self.check_tamper(workload, "schedule")

    def test_wrong_fingerprint(self):
        for workload in ("solve-cold", "serve-repeat"):
            with self.subTest(workload=workload):
                self.check_tamper(workload, "fingerprint")


class ResultLine(unittest.TestCase):
    def test_last_line_has_exactly_the_contract_keys(self):
        result = run([BINARY, "--workload", "solve-cold", "--seed", "3", "--seconds", "1",
                      "--trace", "0", "--small"])
        self.assertEqual(result.returncode, 0, result.stderr)
        last = json.loads(result.stdout.strip().splitlines()[-1])
        self.assertEqual(sorted(last), ["attempted", "correct", "failed", "metrics"])
        self.assertIs(last["correct"], True)
        self.assertGreaterEqual(last["attempted"], 1)
        for metric in last["metrics"].values():
            self.assertEqual(sorted(metric), ["unit", "value"])

    def test_same_seed_same_inputs_and_answer_quality(self):
        for workload in ("solve-cold", "serve-repeat"):
            seen = []
            for _ in range(2):
                result = run([BINARY, "--workload", workload, "--seed", "5", "--seconds", "1",
                              "--trace", "0", "--small"])
                lines = result.stdout.strip().splitlines()
                info = [l for l in lines if l.startswith("perfbench-info ")]
                metrics = json.loads(lines[-1])["metrics"]
                seen.append((json.loads(info[0][len("perfbench-info "):])["input_digest"],
                             metrics["makespan_gap"]["value"],
                             metrics["feasible_share"]["value"]))
            with self.subTest(workload=workload):
                self.assertEqual(seen[0], seen[1])


class RunnerWithoutSources(unittest.TestCase):
    def test_refuses_without_the_repository(self):
        with tempfile.TemporaryDirectory(dir=os.path.dirname(os.path.abspath(BINARY))) as tmp:
            shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(tmp, "perfbench"))
            if os.path.exists(os.path.join(ROOT, "BENCHMARK.json")):
                shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            result = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "solve-cold", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180, env=env)
            self.assertNotEqual(result.returncode, 0)
            self.assertNotIn('"correct"', result.stdout)


if __name__ == "__main__":
    BINARY = os.path.abspath(sys.argv.pop(1))
    unittest.main()

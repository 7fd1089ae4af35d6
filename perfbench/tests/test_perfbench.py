"""Tests of the end-to-end serving benchmark.

Run from the root of a checkout:

    python3 -m unittest discover -s perfbench/tests -v

They build perfbench_e2e (as run.py does), then check that the layer replay
reproduces the server bit for bit on every workload at two seeds, that
BENCHMARK.json and perfbench_e2e agree on every metric's name, unit and
direction, and that a run prints the result line run.py documents.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(PERFBENCH)
sys.path.insert(0, PERFBENCH)

import run  # noqa: E402  (perfbench/run.py)

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
CHECK_SEEDS = (1, 2)


def load_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def bench(self, *args):
        return subprocess.run([self.binary, *args], cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)

    def listed_metrics(self):
        out = self.bench("--list-metrics")
        self.assertEqual(out.returncode, 0, out.stderr)
        metrics = {}
        for line in out.stdout.splitlines():
            name, unit, better, scope = line.split()
            metrics[name] = (unit, better, scope)
        return metrics

    def test_replay_matches_server(self):
        for workload in load_benchmark_json()["workloads"]:
            for seed in CHECK_SEEDS:
                with self.subTest(workload=workload["name"], seed=seed):
                    out = self.bench("--check", "--workload",
                                     workload["name"], "--seed", str(seed))
                    self.assertEqual(out.returncode, 0,
                                     out.stdout + out.stderr)

    def test_metric_names_units_directions(self):
        bench = load_benchmark_json()
        program = self.listed_metrics()
        for scope in ("end_to_end", "per_layer"):
            for metric in bench[scope]:
                name = metric["name"]
                with self.subTest(metric=name):
                    self.assertRegex(name, NAME_RE)
                    self.assertRegex(metric["unit"], UNIT_RE)
                    self.assertIn(metric["better"], ("higher", "lower"))
                    self.assertEqual(program.get(name),
                                     (metric["unit"], metric["better"],
                                      scope))
        listed = {m["name"] for s in ("end_to_end", "per_layer")
                  for m in bench[s]}
        self.assertEqual(listed, set(program))

    def test_workloads_match(self):
        out = self.bench("--list-workloads")
        names = [line.split("\t")[0] for line in out.stdout.splitlines()]
        self.assertEqual(names,
                         [w["name"] for w in load_benchmark_json()["workloads"]])

    def test_usage_errors(self):
        self.assertEqual(self.bench("--workload", "nope", "--seed", "1",
                                    "--seconds", "1", "--trace", "0")
                         .returncode, 64)
        self.assertEqual(self.bench("--workload", "steady-serve", "--seed",
                                    "-3", "--seconds", "1", "--trace", "0")
                         .returncode, 64)

    def check_run(self, trace, scope):
        out = subprocess.run(
            [sys.executable, os.path.join(PERFBENCH, "run.py"), "--workload",
             "steady-serve", "--seed", "5", "--seconds", "1", "--trace",
             trace], cwd=ROOT, text=True, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE)
        self.assertEqual(out.returncode, 0, out.stderr)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        self.assertEqual(list(result),
                         ["correct", "attempted", "failed", "metrics"])
        self.assertTrue(result["correct"], out.stderr)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        expected = {m["name"]: m["unit"] for m in load_benchmark_json()[scope]}
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                         expected)
        # Every metric is also printed by name, with its unit, above the
        # result line.
        body = "\n".join(out.stdout.strip().splitlines()[:-1])
        for name, unit in expected.items():
            self.assertRegex(body, re.compile(
                rf"^\s+{re.escape(name)}\s+\S+\s+{re.escape(unit)}\s",
                re.M))

    def test_end_to_end_result_line(self):
        self.check_run("0", "end_to_end")

    def test_traced_result_line(self):
        self.check_run("1", "per_layer")

    def test_fails_without_sources(self):
        # Only BENCHMARK.json and the benchmark's own files: no result.
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(PERFBENCH, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "steady-serve", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=bare, text=True, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, timeout=180)
            self.assertNotEqual(out.returncode, 0)
            self.assertEqual(out.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()

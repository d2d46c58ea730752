#!/usr/bin/env python3
"""Tests of the benchmark itself: BENCHMARK.json against the contract and
against the metric catalogue of the perfbench binary, the C++ self-tests of
the benchmark's arithmetic, run.py's result checks, and repeatability of
the work a seed defines.

    python3 perfbench/test_bench.py

Builds .bench_build/ on first use, like run.py.
"""

import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_spec():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


class SpecTest(unittest.TestCase):
    def test_keys_and_limits(self):
        spec = load_spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertIsInstance(spec["run_seconds"], int)
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        self.assertTrue(1 <= len(spec["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(spec["per_layer"]) <= 128)
        for p in spec["paths"]:
            self.assertRegex(p, r"^[A-Za-z0-9_.\-/]{1,200}$")
            self.assertTrue((run.ROOT / p).is_dir())
        self.assertLessEqual(len((run.ROOT / "BENCHMARK.json").read_bytes()),
                             64 * 1024)

    def test_names_units_and_bounds(self):
        spec = load_spec()
        names = []
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
            names.append(w["name"])
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m)
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertIn(m["better"], ("lower", "higher"))
            self.assertRegex(m["unit"], UNIT)
            names.append(m["name"])
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)), "names must be unique")
        setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))

    def test_workloads_match_run_py(self):
        spec = load_spec()
        self.assertEqual(
            [w["name"] for w in spec["workloads"]],
            ["table3", "midshape", "serve"])


class CheckMetricsTest(unittest.TestCase):
    def test_every_required_metric_with_its_unit(self):
        req = {"a_ms": "ms", "b": "count"}
        ok = {"a_ms": {"value": 1.5, "unit": "ms"},
              "b": {"value": 3, "unit": "count"}}
        self.assertEqual(run.check_metrics(ok, req), [])
        self.assertEqual(run.check_metrics({"a_ms": ok["a_ms"]}, req),
                         ["missing b"])
        bad_unit = dict(ok, b={"value": 3, "unit": "s"})
        self.assertEqual(len(run.check_metrics(bad_unit, req)), 1)
        extra = dict(ok, c={"value": 1, "unit": "s"})
        self.assertEqual(run.check_metrics(extra, req), ["unexpected c"])


class BinaryTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build(("perfbench", "perfbench_selftest"))

    def test_selftest(self):
        p = subprocess.run([str(run.BUILD / "perfbench_selftest")],
                           capture_output=True, text=True)
        self.assertEqual(p.returncode, 0, p.stderr)

    def test_catalogue_matches_benchmark_json(self):
        p = subprocess.run([str(run.BUILD / "perfbench"), "--list-metrics"],
                           capture_output=True, text=True, check=True)
        lines = p.stdout.splitlines()
        listed = {}
        for line in lines:
            name, unit, kind = line.split()
            listed[name] = (unit, kind)
        self.assertEqual(len(listed), len(lines), "duplicate metric names")
        spec = load_spec()
        want = {m["name"]: (m["unit"], "end_to_end")
                for m in spec["end_to_end"]}
        want.update({m["name"]: (m["unit"], "per_layer")
                     for m in spec["per_layer"]})
        self.assertEqual(listed, want)

    def run_short(self, seed):
        out = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--workload", "serve",
             "--seed", str(seed), "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=run.ROOT, check=True).stdout
        lines = out.splitlines()
        result = json.loads(lines[-1])
        work = [l for l in lines
                if l.startswith(("# work:", "# input_checksum:"))]
        return result, work

    def test_same_seed_same_work(self):
        r1, w1 = self.run_short(3)
        r2, w2 = self.run_short(3)
        _, w3 = self.run_short(4)
        self.assertTrue(r1["correct"] and r2["correct"])
        self.assertEqual(r1["failed"], 0)
        self.assertEqual(len(w1), 2)
        self.assertEqual(w1, w2)
        self.assertNotEqual(w1, w3)

    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory(dir=run.BUILD) as d:
            shutil.copytree(run.HERE, Path(d) / "perfbench")
            shutil.copy(run.ROOT / "BENCHMARK.json", d)
            p = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "table3",
                 "--seed", "1", "--seconds", "10", "--trace", "0"],
                capture_output=True, text=True, cwd=d, timeout=170)
            self.assertNotEqual(p.returncode, 0)
            self.assertEqual(p.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()

"""Checks on the benchmark itself.

Run from the repository root (about a minute):

    python3 -m unittest perfbench/test_perfbench.py

Wall-clock timings are not checked here; only counts that must repeat.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Per-layer counts that depend only on the seed and the run length.
DETERMINISTIC = ("plates.terms", "pfa.kernel_calls_per_force", "lens.calls",
                 "process.modules_loaded")


def bench(*args: str, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def traced(workload: str, seed: int) -> dict:
    done = bench("--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1")
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


class BenchmarkTest(unittest.TestCase):
    def test_counters_repeat_for_the_same_seed(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                first, second = traced(name, 7), traced(name, 7)
                self.assertTrue(first["correct"] and second["correct"])
                self.assertEqual(set(first["metrics"]), set(run.PER_LAYER))
                for metric in DETERMINISTIC:
                    self.assertEqual(first["metrics"][metric]["value"],
                                     second["metrics"][metric]["value"], metric)

    def test_a_different_seed_changes_the_inputs(self):
        for name, workload in WORKLOADS.items():
            with self.subTest(workload=name):
                self.assertEqual(workload.inputs(7), workload.inputs(7))
                self.assertNotEqual(workload.inputs(7), workload.inputs(8))

    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([m["name"] for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([m["name"] for m in spec["per_layer"]], run.PER_LAYER)
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(WORKLOADS))

    def test_fails_without_the_source_tree(self):
        bare = HERE.parent / ".perfbench-out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        try:
            done = bench("--workload", "plate-kernel", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()

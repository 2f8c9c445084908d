#!/usr/bin/env python3
"""Self-tests of the qtsimage benchmark.

    python3 perfbench/selftest.py

Builds the benchmark through run.py and checks that
  * every metric name in BENCHMARK.json is well formed;
  * one short run of each workload prints exactly the declared end-to-end
    metrics (--trace 0) and per-layer metrics (--trace 1), with no failure;
  * a deliberately wrong reference makes the run report a failed job and
    names it on stderr;
  * traced and plain runs agree on a qrw6 job (the driver fails a job whose
    traced run diverges from its plain run);
  * in a directory holding only BENCHMARK.json and the benchmark, run.py
    exits non-zero without printing a result.
Takes about two minutes.  Scratch files go under .bench_build/.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".bench_build", "selftest")
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)


def run(workload, trace, seed=1, seconds=1, references=None, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if references:
        cmd += ["--references", references]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result(proc):
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError("run failed (exit %d): %s" % (proc.returncode, proc.stderr[-2000:]))
    return json.loads(lines[-1])


class BenchmarkSelfTest(unittest.TestCase):
    def test_metric_names_are_well_formed(self):
        names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
        names += [w["name"] for w in BENCH["workloads"]]
        for name in names:
            self.assertRegex(name, r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        self.assertEqual(len(names), len(set(names)))

    def test_every_declared_metric_appears_on_every_workload(self):
        declared = {0: {m["name"] for m in BENCH["end_to_end"]},
                    1: {m["name"] for m in BENCH["per_layer"]}}
        units = {m["name"]: m["unit"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}
        for w in BENCH["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    r = result(run(w["name"], trace))
                    self.assertEqual(set(r), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(r["correct"])
                    self.assertEqual(r["failed"], 0)
                    self.assertGreaterEqual(r["attempted"], 1)
                    self.assertEqual(set(r["metrics"]), declared[trace])
                    for name, m in r["metrics"].items():
                        self.assertEqual(m["unit"], units[name])
                    if trace == 0:
                        for name, m in r["metrics"].items():
                            self.assertGreater(m["value"], 0, name)

    def test_wrong_reference_counts_as_failed_job(self):
        os.makedirs(SCRATCH, exist_ok=True)
        with open(os.path.join(HERE, "references.txt")) as f:
            text = f.read()
        wrong = re.sub(r"^(qrw-reach\s+qrw8\s+)250", r"\g<1>251", text, flags=re.M)
        self.assertNotEqual(wrong, text)
        path = os.path.join(SCRATCH, "wrong-references.txt")
        with open(path, "w") as f:
            f.write(wrong)
        proc = run("qrw-reach", 0, references=path)
        r = result(proc)
        self.assertFalse(r["correct"])
        self.assertEqual(r["failed"], r["attempted"])
        self.assertLess(r["metrics"]["success_rate"]["value"], 1.0)
        self.assertIn("FAILED qrw-reach/qrw8", proc.stderr)

    def test_traced_and_plain_runs_agree_on_qrw6(self):
        for seed in (1, 2):
            with self.subTest(seed=seed):
                proc = run("selftest-qrw6", 1, seed=seed)
                r = result(proc)
                self.assertTrue(r["correct"], proc.stderr)
                self.assertEqual(r["failed"], 0)
                self.assertNotIn("diverged", proc.stderr)
                self.assertEqual(r["metrics"]["qts.fixpoint.iterations"]["value"], 18)

    def test_bare_directory_fails_without_a_result(self):
        os.makedirs(SCRATCH, exist_ok=True)
        bare = tempfile.mkdtemp(dir=SCRATCH)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run(BENCH["workloads"][0]["name"], 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Checks that the benchmark's correctness checks are live.

    python3 wallbench/test_wallbench.py

Run from the root of a checkout (it builds through run.py, ~1 minute). A
short clean run must pass; a run whose server bit-flips a fraction of its
responses must report failures and exit non-zero, on the write path (ingest)
and on the verified-read path (audit); and run.py must refuse to run, without
printing a result, in a directory that holds only BENCHMARK.json and
wallbench/.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, *extra, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "wallbench", "run.py"),
           "--workload", workload, "--seed", "5", "--seconds", "1",
           "--trace", "0", *extra]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True,
                          timeout=600)


def result(proc):
    return json.loads(proc.stdout.strip().split("\n")[-1])


def error_frac(proc):
    line = next(l for l in proc.stdout.split("\n") if l.startswith("error_frac"))
    return float(line.split()[1])


class Wallbench(unittest.TestCase):
    def test_clean_run_passes(self):
        proc = run("ingest")
        self.assertEqual(proc.returncode, 0, proc.stdout)
        r = result(proc)
        self.assertTrue(r["correct"])
        self.assertEqual(r["failed"], 0)
        self.assertGreater(r["attempted"], 0)
        self.assertEqual(error_frac(proc), 0)

    def test_tampered_responses_fail(self):
        for workload in ("ingest", "audit"):
            with self.subTest(workload=workload):
                proc = run(workload, "--response-bitflip", "0.05")
                self.assertNotEqual(proc.returncode, 0, proc.stdout)
                r = result(proc)
                self.assertFalse(r["correct"])
                self.assertGreater(r["failed"], 0)
                self.assertGreater(error_frac(proc), 0)

    def test_refuses_without_sources(self):
        scratch = os.path.join(ROOT, ".bench_build")
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as d:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            shutil.copytree(HERE, os.path.join(d, "wallbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run("ingest", cwd=d)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()

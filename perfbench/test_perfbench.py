#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 -m unittest perfbench/test_perfbench.py      (from the root)

They build hcbench like run.py does (into $CARGO_TARGET_DIR or
.bench_build) and run every workload briefly, so they take about a
minute once the build exists.
"""

import json
import os
import re
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import compare  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# The five end-to-end metrics every workload prints. fail_ratio is 0 on
# a passing run, so BENCHMARK.json lists it with the per-layer metrics
# (its end-to-end metrics must never read 0); the run's "failed" and
# "correct" fields gate on it.
HEADLINE = ["sim_s_per_host_s", "setup_s", "peak_rss_mb", "paper_err_pct",
            "fail_ratio"]


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_bench(workload, seconds, trace=0, seed=1, slowdown=0.0):
    """Run run.py; @return (exit status, stdout lines, result JSON)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if slowdown:
        cmd += ["--slowdown", str(slowdown)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True,
                          timeout=900)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, lines, result


def printed_metrics(lines):
    out = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            out[parts[1]] = (float(parts[2]), parts[3])
    return out


class SpecTest(unittest.TestCase):
    def test_metric_names_and_units(self):
        spec = load_spec()
        names = []
        for group in ("end_to_end", "per_layer"):
            for m in spec[group]:
                self.assertRegex(m["name"], NAME_RE)
                self.assertRegex(m["unit"], UNIT_RE)
                self.assertIn(m["better"], ("higher", "lower"))
                names.append(m["name"])
        self.assertEqual(len(names), len(set(names)))
        for m in spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")


class WorkloadTest(unittest.TestCase):
    def test_every_workload_emits_headline_metrics(self):
        spec = load_spec()
        for w in spec["workloads"]:
            with self.subTest(workload=w["name"]):
                status, lines, result = run_bench(w["name"], 0.5)
                self.assertEqual(status, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                printed = printed_metrics(lines)
                for name in HEADLINE:
                    self.assertIn(name, printed)
                    self.assertRegex(printed[name][1], UNIT_RE)
                self.assertEqual(printed["fail_ratio"][0], 0.0)
                for m in spec["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"],
                                       0)
                self.assertEqual(set(result["metrics"]),
                                 {m["name"] for m in spec["end_to_end"]})
                for name in printed:
                    self.assertRegex(name, NAME_RE)
                self.assertTrue(any(l.startswith("digest ") for l in lines))

    def test_traced_run_reports_per_layer_metrics_and_spans(self):
        spec = load_spec()
        status, lines, result = run_bench("edge_calls", 0.5, trace=1)
        self.assertEqual(status, 0)
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in spec["per_layer"]})
        trace_line = [l for l in lines if l.startswith("trace written to")]
        self.assertEqual(len(trace_line), 1)
        with open(trace_line[0].split(" to ", 1)[1]) as f:
            events = json.load(f)["traceEvents"]
        self.assertTrue(any(e["name"] == "HotQueue::call" for e in events))
        self.assertGreater(result["metrics"]["host.self_s.hotcalls"]["value"],
                           0)

    def test_same_seed_same_digest(self):
        digests = []
        for _ in range(2):
            _, lines, _ = run_bench("spec_epc", 0.5, seed=5)
            digests.append([l for l in lines if l.startswith("digest ")])
        self.assertEqual(digests[0], digests[1])


class RegressionTest(unittest.TestCase):
    def test_host_slowdown_is_flagged(self):
        """A 50% host slowdown injected by the busy-wait hook (sim rate
        down by a third) is flagged on sim_s_per_host_s."""
        spec = load_spec()
        with tempfile.TemporaryDirectory() as tmp:
            paths = {}
            for label, slowdown in (("base", 0.0), ("slow", 0.5)):
                paths[label] = os.path.join(tmp, label)
                with open(paths[label], "w") as f:
                    for seed in (1, 2, 3):
                        status, lines, _ = run_bench(
                            "edge_calls", 2, seed=seed, slowdown=slowdown)
                        self.assertEqual(status, 0)
                        f.write(lines[-1] + "\n")
            rows = compare.compare(compare.load_runs(paths["base"]),
                                   compare.load_runs(paths["slow"]),
                                   spec["end_to_end"])
        verdicts = {r[0]: r[4] for r in rows}
        self.assertEqual(verdicts["sim_s_per_host_s"], "REGRESSION")


if __name__ == "__main__":
    unittest.main()

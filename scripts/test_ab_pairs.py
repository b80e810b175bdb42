#!/usr/bin/env python3
"""Tests for ab_pairs.py against two fake hcbench binaries.

    python3 -m unittest discover -s scripts -p 'test_ab_pairs.py'

The fakes are shell scripts that log each call and print fixed metric
lines, so the run order, the medians and the win count are known.
"""

import argparse
import contextlib
import io
import os
import stat
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import ab_pairs  # noqa: E402

FAKE = """#!/bin/sh
echo "{name} $*" >> "{log}"
n=$(grep -c '^{name} ' "{log}")
case $n in
  1) v={v1};;
  2) v={v2};;
  *) v={v3};;
esac
echo "run workload=fake"
echo "digest {digest}"
echo "metric sim_s_per_host_s $v s/s"
echo "metric setup_s {setup} s"
echo "metric peak_rss_mb {rss} MB"
echo "metric paper_err_pct 5 %"
echo "metric sdk.ecalls 100 count"
echo "metric sdk.host_ns_per_ecall $n ns"
"""


class AbPairsTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.log = os.path.join(self.dir.name, "calls.log")

    def tearDown(self):
        self.dir.cleanup()

    def fake(self, name, values, digest="d1", setup=0.2, rss=30):
        path = os.path.join(self.dir.name, name)
        with open(path, "w") as f:
            f.write(FAKE.format(name=name, log=self.log, digest=digest,
                                v1=values[0], v2=values[1],
                                v3=values[2], setup=setup, rss=rss))
        os.chmod(path, os.stat(path).st_mode | stat.S_IXUSR)
        return path

    def args(self, a, b, pairs=3):
        return ["--a", a, "--b", b, "--workload", "kv_sdk", "--seed",
                "9001", "--pairs", str(pairs), "--seconds", "20"]

    def test_alternates_which_side_runs_first(self):
        a = self.fake("A", [1.0, 3.0, 2.0])
        b = self.fake("B", [2.0, 2.5, 4.0])
        args = argparse.Namespace(
            a=a, b=b, workload="kv_sdk", seed=9001, pairs=3, seconds=20)
        ab_pairs.run_pairs(args)
        with open(self.log) as f:
            calls = [line.split()[0] for line in f]
        self.assertEqual(calls, ["A", "B", "B", "A", "A", "B"])
        with open(self.log) as f:
            first = f.readline().split()[1:]
        self.assertEqual(first, ["--workload", "kv_sdk", "--seed",
                                 "9001", "--seconds", "20", "--trace",
                                 "0"])

    def test_medians_ratio_and_wins(self):
        a = self.fake("A", [1.0, 3.0, 2.0], setup=0.2, rss=30)
        b = self.fake("B", [2.0, 2.5, 4.0], setup=0.1, rss=31)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = ab_pairs.main(self.args(a, b))
        text = out.getvalue()
        self.assertEqual(status, 0, text)
        # Pairs: (1.0, 2.0), (3.0, 2.5), (2.0, 4.0).
        self.assertIn("median sim_s_per_host_s: A 2  B 2.5", text)
        self.assertIn("median setup_s: A 0.2  B 0.1", text)
        self.assertIn("median peak_rss_mb: A 30  B 31", text)
        # A: 1, 2, 3 (quartiles 1.5, 2.5); B: 2, 2.5, 4 (2.25, 3.25).
        self.assertIn("IQR sim_s_per_host_s: A 1  B 1", text)
        # Ratios 2.0, 0.8333, 2.0.
        self.assertIn("median B/A sim_s_per_host_s: 2.0000"
                      "  (min 0.8333, max 2.0000)", text)
        self.assertIn("B wins: 2/3", text)
        # sdk.host_ns_per_ecall differs per call but is a host metric.
        self.assertIn("simulated outputs match: yes", text)

    def test_digest_mismatch_is_reported(self):
        a = self.fake("A", [1.0, 1.0, 1.0])
        b = self.fake("B", [1.0, 1.0, 1.0], digest="d2")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = ab_pairs.main(self.args(a, b, pairs=2))
        self.assertEqual(status, 1)
        self.assertIn("simulated outputs match: no", out.getvalue())
        self.assertIn("pair 0 B: digest d2 != d1", out.getvalue())

    def test_iqr(self):
        self.assertEqual(ab_pairs.iqr([5.0]), 0.0)
        self.assertEqual(ab_pairs.iqr([1.0, 2.0]), 0.5)
        self.assertAlmostEqual(ab_pairs.iqr([4.0, 1.0, 3.0, 2.0]), 1.5)
        self.assertAlmostEqual(
            ab_pairs.iqr([0.30, 0.31, 0.29, 0.35, 0.30]), 0.01)

    def test_host_metric_classification(self):
        for name in ("sim_s_per_host_s", "setup_s", "peak_rss_mb",
                     "trace.overhead_pct", "host.self_s.os",
                     "sdk.host_ns_per_ecall"):
            self.assertTrue(ab_pairs.is_host_metric(name), name)
        for name in ("paper_err_pct", "sdk.ecalls", "mem.llc_hits",
                     "trace.spans_per_rep"):
            self.assertFalse(ab_pairs.is_host_metric(name), name)


if __name__ == "__main__":
    unittest.main()

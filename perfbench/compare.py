#!/usr/bin/env python3
"""Flag regressions between two sets of benchmark runs of one workload.

    python3 perfbench/compare.py BASE CANDIDATE

BASE and CANDIDATE are files holding the result lines of run.py (the
JSON object each run prints last), one per run, all of one workload
and trace mode; other lines are ignored. For every metric of
BENCHMARK.json that both sets report, the candidate's median is
compared with the base median: a metric with a bound is a regression
when it is worse by more than that share of the base median. A metric
whose base runs spread (interquartile range over median) wider than
its bound is reported as unresolved instead of unchanged.

Exit status: 0 without regressions, 1 with at least one, 2 on bad
input.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(path):
    runs = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line.startswith("{"):
                obj = json.loads(line)
                if "metrics" in obj:
                    runs.append(obj["metrics"])
    return runs


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / abs(med)


def compare(base_runs, cand_runs, spec_metrics):
    """@return [(name, base_median, cand_median, change, verdict)]."""
    rows = []
    for m in spec_metrics:
        name = m["name"]
        base = [r[name]["value"] for r in base_runs if name in r]
        cand = [r[name]["value"] for r in cand_runs if name in r]
        if not base or not cand:
            continue
        b, c = statistics.median(base), statistics.median(cand)
        if b == 0:
            change = 0.0 if c == 0 else float("inf")
        else:
            change = (c - b) / abs(b)
        worse = -change if m["better"] == "higher" else change
        bound = m.get("bound")
        if bound is None:
            verdict = "info"
        elif worse > bound:
            verdict = "REGRESSION"
        elif spread(base) > bound:
            verdict = "unresolved"
        else:
            verdict = "ok"
        rows.append((name, b, c, change, verdict))
    return rows


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    base, cand = load_runs(argv[1]), load_runs(argv[2])
    if not base or not cand:
        print("compare: no result lines in one of the inputs",
              file=sys.stderr)
        return 2
    rows = compare(base, cand, spec["end_to_end"] + spec["per_layer"])
    print(f"runs: base={len(base)} candidate={len(cand)}")
    for name, b, c, change, verdict in rows:
        print(f"{name:34s} base={b:<12.6g} cand={c:<12.6g} "
              f"change={change:+.1%} {verdict}")
    return 1 if any(r[4] == "REGRESSION" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

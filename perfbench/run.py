#!/usr/bin/env python3
"""Repository benchmark: build hcbench from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
simulator libraries and perfbench/hcbench.cc into $CARGO_TARGET_DIR
(default .bench_build) with CMake; later runs rebuild incrementally.
Then hcbench runs the workload in its own process. Its output (plane
positions, output checks, the simulated-statistics digest, every
metric with its unit) is echoed, and the last line printed is one JSON
object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end set, with
--trace 1 its per_layer set; a traced run also writes a Chrome
trace-event file under the build directory.

Exit status: 0 when every output check passed; 1 when a check failed
(the JSON is still printed, with "correct": false) or the build or run
broke (no JSON); 2 on a usage error or a refused configuration
(HC_CHECK set).

--slowdown F makes hcbench busy-wait F times each measured phase's host
time inside that phase; the benchmark's own tests use it to show that
a host slowdown is flagged as a regression.
"""

import argparse
import fcntl
import json
import math
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configure (once) and build hcbench; return its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"simulator sources not found under {ROOT}/src")
        return None
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", out_dir,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                log("configure failed")
                return None
        cmd = ["cmake", "--build", out_dir, "-j", "3"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            log("build failed")
            return None
    exe = os.path.join(out_dir, "hcbench")
    return exe if os.access(exe, os.X_OK) else None


def parse(stdout):
    """hcbench output -> (metrics {name: (value, unit)}, checks, ops)."""
    metrics, checks, ops = {}, [], None
    for line in stdout.splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "metric" and len(parts) == 4:
            metrics[parts[1]] = (float(parts[2]), parts[3])
        elif parts[0] == "check" and len(parts) >= 3:
            checks.append((parts[1], parts[2] == "ok"))
        elif parts[0] == "ops" and len(parts) == 3:
            ops = (int(parts[1]), int(parts[2]))
    return metrics, checks, ops


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--slowdown", type=float, default=0.0)
    args = ap.parse_args()

    if "HC_CHECK" in os.environ:
        log("refusing to run with HC_CHECK set (SimCheck multiplies "
            "host time)")
        return 2
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as err:
        log(f"cannot read BENCHMARK.json: {err}")
        return 1
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"unknown workload {args.workload}")
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    out_dir = build_dir()
    exe = build(out_dir)
    if exe is None:
        return 1

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--slowdown", repr(args.slowdown)]
    if args.trace:
        trace_dir = os.path.join(os.path.dirname(out_dir), "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_file = os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.json")
        cmd += ["--trace-out", trace_file]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"hcbench exceeded {RUN_TIMEOUT_S} s")
        return 1
    sys.stdout.write(proc.stdout)
    if proc.returncode not in (0, 1):
        log(f"hcbench exited with {proc.returncode}")
        return proc.returncode if proc.returncode == 2 else 1

    metrics, checks, ops = parse(proc.stdout)
    missing = [m["name"] for m in wanted
               if m["name"] not in metrics
               or metrics[m["name"]][1] != m["unit"]
               or not math.isfinite(metrics[m["name"]][0])]
    bad_names = [n for n in metrics if not NAME_RE.match(n)]
    if ops is None or missing or bad_names:
        log(f"malformed hcbench output: missing or mismatched={missing} "
            f"bad_names={bad_names} ops={ops}")
        return 1
    if args.trace:
        print(f"trace written to {trace_file}")
    attempted, failed = ops
    correct = (proc.returncode == 0 and failed == 0
               and all(ok for _, ok in checks))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0],
                                "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Paired A/B host-speed comparison of two hcbench binaries.

    python3 scripts/ab_pairs.py --a BIN --b BIN --workload W --seed S \\
        --pairs K --seconds N

Runs K pairs of `BIN --workload W --seed S --seconds N --trace 0`. Pair
i runs A first when i is even and B first when i is odd, so a drift in
host speed over the session lands on both sides alike. For each pair it
prints sim_s_per_host_s, setup_s and peak_rss_mb of both sides; then the
medians, each side's interquartile range of sim_s_per_host_s (its own
noise), the median and the range of the per-pair B/A ratios of
sim_s_per_host_s, the number of pairs B won (higher sim_s_per_host_s),
and whether every run's digest and every simulated metric (all but the
host-time and memory ones) matched the first run of A.

Build the two binaries from the two commits, e.g. with
`cmake -S perfbench -B DIR -DCMAKE_BUILD_TYPE=RelWithDebInfo` in each
checkout. Run on a quiet machine; the per-pair numbers show the noise.

Exit status: 0 when the simulated outputs matched, 1 when they did not,
2 when a run failed or printed no digest.
"""

import argparse
import statistics
import subprocess
import sys

SHOWN = ("sim_s_per_host_s", "setup_s", "peak_rss_mb")
HOST_ONLY = {"sim_s_per_host_s", "setup_s", "peak_rss_mb",
             "trace.overhead_pct"}


def is_host_metric(name):
    """True for a metric that measures the host, not the simulation."""
    return name in HOST_ONLY or "host" in name


def parse_output(text):
    """@return (digest or None, {metric name: float value})."""
    digest = None
    metrics = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) >= 2 and parts[0] == "digest":
            digest = parts[1]
        elif len(parts) >= 3 and parts[0] == "metric":
            metrics[parts[1]] = float(parts[2])
    return digest, metrics


def run_once(binary, args):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", f"{args.seconds:g}", "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    digest, metrics = parse_output(proc.stdout)
    if proc.returncode != 0 or digest is None:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}"
                           f" with digest {digest}")
    return digest, metrics


def run_pairs(args):
    """@return [(a_result, b_result)] in pair order."""
    pairs = []
    for i in range(args.pairs):
        if i % 2 == 0:
            a = run_once(args.a, args)
            b = run_once(args.b, args)
        else:
            b = run_once(args.b, args)
            a = run_once(args.a, args)
        pairs.append((a, b))
    return pairs


def simulated_mismatches(pairs):
    """@return descriptions of runs whose simulated output differs
    from the first run of A."""
    ref_digest, ref_metrics = pairs[0][0]
    ref_sim = {k: v for k, v in ref_metrics.items()
               if not is_host_metric(k)}
    out = []
    for i, pair in enumerate(pairs):
        for side, (digest, metrics) in zip("AB", pair):
            if digest != ref_digest:
                out.append(f"pair {i} {side}: digest {digest} != "
                           f"{ref_digest}")
            sim = {k: v for k, v in metrics.items()
                   if not is_host_metric(k)}
            for name in sorted(set(ref_sim) | set(sim)):
                if ref_sim.get(name) != sim.get(name):
                    out.append(f"pair {i} {side}: {name} "
                               f"{sim.get(name)} != {ref_sim.get(name)}")
    return out


def iqr(values):
    """@return the interquartile range of @p values (0 for fewer than
    two), quartiles interpolated inclusively as numpy does by default."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(pairs):
    """@return {"a": {metric: median}, "b": {...}, "iqr": {"a": IQR of
    A's sim_s_per_host_s, "b": ...}, "ratio": median of per-pair B/A
    sim_s_per_host_s, "ratio_min"/"ratio_max": their range, "wins":
    pairs B won}."""
    med = {}
    for idx, side in enumerate("ab"):
        med[side] = {m: statistics.median(p[idx][1][m] for p in pairs)
                     for m in SHOWN}
    key = SHOWN[0]
    spread = {side: iqr([p[idx][1][key] for p in pairs])
              for idx, side in enumerate("ab")}
    ratios = [b[1][key] / a[1][key] for a, b in pairs]
    wins = sum(1 for a, b in pairs if b[1][key] > a[1][key])
    return {"a": med["a"], "b": med["b"], "iqr": spread,
            "ratio": statistics.median(ratios), "ratio_min": min(ratios),
            "ratio_max": max(ratios), "wins": wins}


def report(pairs, out=None):
    """Print the per-pair table and the summary; @return exit status."""
    out = out or sys.stdout
    print("pair first " + " ".join(f"{'A ' + m:>20} {'B ' + m:>20}"
                                   for m in SHOWN), file=out)
    for i, (a, b) in enumerate(pairs):
        cells = " ".join(f"{a[1][m]:>20.6g} {b[1][m]:>20.6g}"
                         for m in SHOWN)
        print(f"{i:>4} {'A' if i % 2 == 0 else 'B':>5} {cells}", file=out)
    s = summarize(pairs)
    for m in SHOWN:
        print(f"median {m}: A {s['a'][m]:.6g}  B {s['b'][m]:.6g}",
              file=out)
    print(f"IQR {SHOWN[0]}: A {s['iqr']['a']:.6g}  B {s['iqr']['b']:.6g}",
          file=out)
    print(f"median B/A {SHOWN[0]}: {s['ratio']:.4f}"
          f"  (min {s['ratio_min']:.4f}, max {s['ratio_max']:.4f})",
          file=out)
    print(f"B wins: {s['wins']}/{len(pairs)}", file=out)
    bad = simulated_mismatches(pairs)
    print(f"simulated outputs match: {'yes' if not bad else 'no'}",
          file=out)
    for line in bad[:20]:
        print(f"  {line}", file=out)
    return 0 if not bad else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--a", required=True, help="baseline hcbench")
    ap.add_argument("--b", required=True, help="candidate hcbench")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    try:
        pairs = run_pairs(args)
    except RuntimeError as err:
        print(f"ab_pairs: {err}", file=sys.stderr)
        return 2
    return report(pairs)


if __name__ == "__main__":
    sys.exit(main())

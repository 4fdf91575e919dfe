#!/usr/bin/env python3
"""Alternating paired runs of two perfbench_rep binaries.

    python3 tools/perf_pairs.py BASE CHANGE --workload heartbeat --seed 1 \\
        [--pairs 10] [--trace]

BASE and CHANGE are two builds of perfbench_rep (for example the parent
commit's and this tree's .bench_build/perfbench/perfbench_rep). Each pair runs
BASE then CHANGE, swapping the order every other pair so that a drifting host
favours neither side. For every host-time metric (the end-to-end set-up and
wall times and peak RSS, plus the per-layer metrics with --trace) it prints
each side's median and quartiles, the median ratio CHANGE/BASE and in how many
pairs CHANGE was better. It also compares every other end-to-end metric
perfbench_rep prints (the modelled outcomes: wire bytes, turnaround,
makespan, failed and refused fractions, deadline hits), as read from each
run's JSON, and reports any that differs between runs or is missing from
one.

Exits 1 if any run's digest differs from the first run's (the two builds must
simulate the same thing), 2 on a usage or run error, 0 otherwise.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HOST_E2E = ["setup_s", "wall_s", "peak_rss_mb"]
REP_TIMEOUT_S = 600
BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCHMARK.json")


def higher_is_better():
    """Names of the metrics BENCHMARK.json marks "better": "higher"."""
    with open(BENCHMARK_JSON) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["end_to_end"] + spec["per_layer"]
            if m["better"] == "higher"}


def run(binary, workload, seed, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=REP_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        print("perf_pairs: %s exited %d" % (binary, proc.returncode),
              file=sys.stderr)
        sys.exit(2)
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--trace", action="store_true",
                        help="traced runs: compare the per-layer metrics too")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    sides = {"base": [], "change": []}
    for i in range(args.pairs):
        order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
        for side in order:
            binary = args.base if side == "base" else args.change
            sides[side].append(run(binary, args.workload, args.seed, args.trace))

    digests = {r["digest"] for side in sides.values() for r in side}
    failed = sum(r["failed"] for side in sides.values() for r in side)

    metrics = [("e2e", name) for name in HOST_E2E]
    if args.trace:
        metrics += [("layers", name) for name in sides["base"][0]["layers"]]
    higher = higher_is_better()
    print("%s seed %d, %d alternating pairs (median [q1, q3])"
          % (args.workload, args.seed, args.pairs))
    print("%-34s %-30s %-30s %7s %5s" % ("metric", "base", "change", "ratio",
                                         "wins"))
    for section, name in metrics:
        base = [r[section][name][0] for r in sides["base"]]
        change = [r[section][name][0] for r in sides["change"]]
        wins = sum((c > b) if name in higher else (c < b)
                   for b, c in zip(base, change))
        bq = quartiles(base)
        cq = quartiles(change)
        ratio = cq[1] / bq[1] if bq[1] else float("nan")
        print("%-34s %-30s %-30s %7.3f %2d/%-2d"
              % (name, "%.4g [%.4g, %.4g]" % (bq[1], bq[0], bq[2]),
                 "%.4g [%.4g, %.4g]" % (cq[1], cq[0], cq[2]), ratio, wins,
                 args.pairs))

    def readings(side, name):
        """The distinct values `name` took over one side's runs."""
        return sorted({repr(r["e2e"].get(name, [None])[0]) for r in sides[side]})

    modelled = sorted({name for side in sides.values() for r in side
                       for name in r["e2e"]} - set(HOST_E2E))
    for name in modelled:
        base = readings("base", name)
        change = readings("change", name)
        if base != change or len(base) != 1:
            print("modelled %s differs: base %s, change %s"
                  % (name, ", ".join(base), ", ".join(change)))
    print("modelled metrics compared: %s" % ", ".join(modelled))
    print("failed runs: %d" % failed)
    if len(digests) != 1:
        print("DIGESTS DIFFER: %s" % sorted(digests))
        return 1
    print("digest %s on every run" % digests.pop())
    return 0


if __name__ == "__main__":
    sys.exit(main())

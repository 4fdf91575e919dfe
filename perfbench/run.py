#!/usr/bin/env python3
"""Repository benchmark: seeded grid workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call builds perfbench/ (and the
middleware libraries under src/) into .bench_build/perfbench. Each call then
repeats one workload as fresh perfbench_rep processes for about --seconds
seconds and reports medians:

  --trace 0  end-to-end metrics (host time of set-up and of the measured
             phase, peak RSS, and the modelled outcomes grid users see);
  --trace 1  per-layer metrics: untraced and traced repetitions alternate;
             the traced ones step the engine one event at a time and time
             each layer's calls (see perfbench/README.md).

Every repetition checks its exactly-once completion ledger and the Trader's
invariants, and all repetitions of a call, traced or not, must print the same
output digest. The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
A failed check exits 1; a build or usage error exits 2 without a result.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench_rep")

WORKLOADS = ["heartbeat", "burst", "bsp-ckpt", "economy"]

# End-to-end metrics the final JSON line carries, in BENCHMARK.json's order
# (the self-tests check that the two agree). Host-time metrics are medians
# over repetitions; the modelled ones are identical in every repetition.
END_TO_END = [
    "setup_s", "wall_s", "peak_rss_mb", "wire_bytes_per_node_s",
    "turnaround_p50_s", "turnaround_tail_s", "makespan_s",
]

MIN_REPS = 3        # untraced repetitions per call, at least
MIN_PAIRS = 2       # untraced + traced pairs per traced call, at least
REP_TIMEOUT_S = 120


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("middleware sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench_rep",
                  "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(step))


def run_rep(workload, seed, trace, extra=()):
    """One repetition in a fresh process; returns (exit code, parsed JSON)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    cmd.extend(extra)
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=REP_TIMEOUT_S)
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("perfbench_rep printed no result (exit %d)" % proc.returncode)
    return proc.returncode, json.loads(lines[-1])


def median_of(reps, section, name):
    return statistics.median(r[section][name][0] for r in reps)


def unit_of(reps, section, name):
    return reps[0][section][name][1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    build()
    begin = time.monotonic()
    plain, traced = [], []
    codes = []
    while True:
        code, rep = run_rep(args.workload, args.seed, False)
        codes.append(code)
        plain.append(rep)
        if args.trace:
            code, rep = run_rep(args.workload, args.seed, True)
            codes.append(code)
            traced.append(rep)
        enough = len(traced) >= MIN_PAIRS if args.trace else len(plain) >= MIN_REPS
        if enough and time.monotonic() - begin >= args.seconds:
            break

    reps = plain + traced
    digests = {r["digest"] for r in reps}
    correct = (all(c == 0 for c in codes) and all(r["correct"] for r in reps)
               and len(digests) == 1)
    attempted = plain[0]["attempted"]
    failed = max(r["failed"] for r in reps)

    first = plain[0]
    print("perfbench %s seed=%d trace=%d: %d untraced + %d traced repetitions "
          "in %.1f s" % (args.workload, args.seed, args.trace, len(plain),
                         len(traced), time.monotonic() - begin))
    print("host: build_type=%s host_cores=%d host_calib_ns=%.0f" % (
        first["build_type"], first["host_cores"],
        statistics.median(r["host_calib_ns"] for r in reps)))
    print("digest: %s (%s across repetitions)" % (
        first["digest"], "identical" if len(digests) == 1 else "DIFFERENT"))
    print("ledger: %d tasks submitted, %d failed" % (attempted, failed))

    metrics = {}
    if not args.trace:
        print("end-to-end (medians of host time over repetitions):")
        for name in first["e2e"]:
            value = median_of(plain, "e2e", name)
            print("  %-24s %.6g %s" % (name, value, unit_of(plain, "e2e", name)))
        for name in first["info"]:
            print("  %-24s %.6g %s" % (name, median_of(plain, "info", name),
                                       unit_of(plain, "info", name)))
        for name in END_TO_END:
            metrics[name] = {"value": median_of(plain, "e2e", name),
                             "unit": unit_of(plain, "e2e", name)}
    else:
        untraced_wall = median_of(plain, "e2e", "wall_s")
        traced_wall = median_of(traced, "e2e", "wall_s")
        layers = {}
        for name in traced[0]["layers"]:
            layers[name] = (median_of(traced, "layers", name),
                            unit_of(traced, "layers", name))
        layers["sim.events_per_wall_s"] = (
            layers["sim.events"][0] / untraced_wall, "1/s")
        layers["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
        layers["trace.overhead_frac"] = (
            (traced_wall - untraced_wall) / untraced_wall, "ratio")
        print("per-layer (medians over traced repetitions; untraced wall "
              "%.4g s, traced wall %.4g s):" % (untraced_wall, traced_wall))
        for name, (value, unit) in layers.items():
            if not name.startswith("share."):
                print("  %-32s %.6g %s" % (name, value, unit))
        print("estimated share of traced wall time (count x ns/op):")
        shares = sorted(((v[0], k) for k, v in layers.items()
                         if k.startswith("share.")), reverse=True)
        for value, name in shares:
            print("  %-32s %6.1f%%" % (name, value * 100))
        for name, (value, unit) in layers.items():
            metrics[name] = {"value": value, "unit": unit}

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.stdout.flush()
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()

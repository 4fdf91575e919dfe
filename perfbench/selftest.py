#!/usr/bin/env python3
"""Self-tests of the repository benchmark. Run from the repository root:

    python3 perfbench/selftest.py

Checks that one seed always gives the same output digest, that a traced
repetition prints the same digest as an untraced one, that every printed
metric has a well-formed name and a unit (and that the final result lines
carry exactly the metrics BENCHMARK.json names), that a deliberately broken
completion ledger fails the correctness check, and that the benchmark
refuses to run without the middleware sources. Exits 1 if any check fails.
"""
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run as bench  # noqa: E402  (perfbench/run.py)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOAD, SEED = "burst", 3

failures = []


def check(condition, what):
    print(("ok    " if condition else "FAIL  ") + what)
    if not condition:
        failures.append(what)


def well_formed(metrics):
    """metrics: {name: (value, unit)} -> names that break the format."""
    return [n for n, (v, u) in metrics.items()
            if not NAME.match(n) or not UNIT.match(u) or
            not isinstance(v, (int, float))]


def run_cli(trace, cwd=bench.ROOT, script=None):
    cmd = [sys.executable, script or os.path.join(HERE, "run.py"),
           "--workload", WORKLOAD, "--seed", str(SEED), "--seconds", "1",
           "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def main():
    bench.build()
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    check([w["name"] for w in spec["workloads"]] == bench.WORKLOADS,
          "BENCHMARK.json workloads match run.py")
    check([m["name"] for m in spec["end_to_end"]] == bench.END_TO_END,
          "BENCHMARK.json end_to_end metrics match run.py")

    code_a, rep_a = bench.run_rep(WORKLOAD, SEED, False)
    code_b, rep_b = bench.run_rep(WORKLOAD, SEED, False)
    check(code_a == 0 and code_b == 0 and rep_a["correct"] and rep_b["correct"],
          "untraced repetitions pass their correctness checks")
    check(rep_a["digest"] == rep_b["digest"],
          "same seed gives an identical digest (%s)" % rep_a["digest"])
    _, other = bench.run_rep(WORKLOAD, SEED + 1, False)
    check(other["digest"] != rep_a["digest"], "another seed gives another digest")

    code_t, rep_t = bench.run_rep(WORKLOAD, SEED, True)
    check(code_t == 0 and rep_t["digest"] == rep_a["digest"],
          "traced digest equals the untraced digest")

    for section in ("e2e", "info", "layers"):
        bad = well_formed({k: tuple(v) for k, v in rep_t[section].items()})
        check(not bad, "repetition %s metrics are named with units %s" % (
            section, bad or ""))

    code_l, rep_l = bench.run_rep(WORKLOAD, SEED, False, ["--break-ledger"])
    check(code_l == 1 and not rep_l["correct"] and rep_l["failed"] > 0,
          "a broken ledger fails the correctness check")

    for trace, expected in ((0, bench.END_TO_END),
                            (1, [m["name"] for m in spec["per_layer"]])):
        proc = run_cli(trace)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        metrics = {k: (v["value"], v["unit"]) for k, v in result["metrics"].items()}
        check(proc.returncode == 0 and result["correct"] and
              set(result) == {"correct", "attempted", "failed", "metrics"},
              "run.py --trace %d prints a correct result line" % trace)
        check(list(metrics) == expected,
              "run.py --trace %d metrics are exactly BENCHMARK.json's" % trace)
        check(not well_formed(metrics),
              "run.py --trace %d metric names and units are well formed" % trace)

    # Only BENCHMARK.json and perfbench/: no sources to build, no result.
    bare = os.path.join(bench.ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_cli(0, cwd=bare, script=os.path.join(bare, "perfbench", "run.py"))
    check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
          "without the middleware sources the benchmark fails without a result")
    shutil.rmtree(bare, ignore_errors=True)

    print("%d check(s) failed" % len(failures) if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

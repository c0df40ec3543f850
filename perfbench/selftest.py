#!/usr/bin/env python3
"""Self-test of the benchmark at toy sizes (a C4 explore, a short C12 churn).

    python3 perfbench/selftest.py

Run from the root of a checkout.  For every workload in BENCHMARK.json it
runs perfbench/run.py with ``--scale toy`` in both modes and asserts that

- the result line has exactly the keys correct/attempted/failed/metrics;
- every run was correct (each toy digest matched the one fixed in
  bench.ml) and none failed;
- the end-to-end run emits exactly the ``end_to_end`` metrics and the
  traced run exactly the ``per_layer`` metrics, each with its unit and a
  finite numeric value.

It also checks that the benchmark refuses to run, with a non-zero status
and no result line, in a directory holding only BENCHMARK.json and the
benchmark's own files.  Exits non-zero on the first failure.
"""

import json
import math
import os
import shutil
import subprocess
import sys

RUN = os.path.join("perfbench", "run.py")


def check(cond, msg):
    if not cond:
        print(f"selftest: FAIL: {msg}", file=sys.stderr)
        sys.exit(1)


def run(workload, trace):
    # seed 1: the seed whose toy churn digest bench.ml records
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "1",
         "--seconds", "0.2", "--trace", str(trace), "--scale", "toy"],
        stdout=subprocess.PIPE, text=True, timeout=180,
    )
    check(proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(label, result, expected):
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{label}: result keys {sorted(result)}")
    check(result["correct"] is True, f"{label}: digest mismatch")
    check(result["failed"] == 0 and result["attempted"] >= 1,
          f"{label}: attempted={result['attempted']} failed={result['failed']}")
    metrics = result["metrics"]
    check(set(metrics) == set(expected),
          f"{label}: metric names differ: {sorted(set(metrics) ^ set(expected))}")
    for name, unit in expected.items():
        m = metrics[name]
        check(m["unit"] == unit, f"{label}: {name} unit {m['unit']!r} != {unit!r}")
        v = m["value"]
        check(isinstance(v, (int, float)) and math.isfinite(v),
              f"{label}: {name} value {v!r}")


def check_bare_directory():
    bare = os.path.join(".perfbench_tmp", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree("perfbench", os.path.join(bare, "perfbench"))
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", "explore-c5-full", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=180,
    )
    shutil.rmtree(os.path.dirname(bare), ignore_errors=True)
    check(proc.returncode != 0, "bare directory: benchmark did not refuse to run")
    check(proc.stdout.strip() == "", "bare directory: printed a result")


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for w in bench["workloads"]:
        name = w["name"]
        check_result(f"{name} trace=0", run(name, 0), e2e)
        check_result(f"{name} trace=1", run(name, 1), layers)
        print(f"selftest: {name}: ok")
    check_bare_directory()
    print("selftest: bare directory refused: ok")


if __name__ == "__main__":
    main()

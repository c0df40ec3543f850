#!/usr/bin/env python3
"""Perf-regression gate over the perfbench rows.

Usage: check_bench_regression.py record|check BASELINE.json

Run from the root of a checkout.  For every workload BENCHMARK.json
declares, it runs

    python3 perfbench/run.py --workload W --seed 1 --seconds 10

and reads the result line.

  record  writes BASELINE.json: per workload, the result line's metrics,
          plus the commit, seed and seconds they were measured at.  This
          is the one command that regenerates the committed baseline
          (`make bench-seed`); run it on a quiet host after an
          intentional perf change.

  check   fails (exit 1), naming the workload, when a result is
          `correct: false` (a report digest differs from the one fixed in
          perfbench/bench.ml), when any call failed, when the run itself
          errs, or when `ops_per_s` is below baseline x (1 - bound), with
          the bound of `ops_per_s` in BENCHMARK.json's end_to_end list.
          A workload missing from the baseline fails too: regenerate it.

The digests pin every report exactly, the churn workload's
recovery-latency summary included, so the only tolerance the gate
applies is the throughput bound.  Times are host-normalised by
perfbench, so a baseline recorded on one host is comparable on another.
"""

import json
import subprocess
import sys

SEED = 1
SECONDS = 10


def benchmark_spec():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "ops_per_s")
    return workloads, bound


def run_workload(name):
    """Run one workload; return its result line, or None if the run erred."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name,
         "--seed", str(SEED), "--seconds", str(SECONDS)],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def commit():
    proc = subprocess.run(["git", "describe", "--always", "--dirty"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return proc.stdout.strip() or "unknown"


def record(path, workloads):
    rows = {}
    for name in workloads:
        result = run_workload(name)
        if result is None or not result["correct"] or result["failed"]:
            sys.exit(f"{name}: run failed or incorrect, baseline not written")
        rows[name] = result["metrics"]
        print(f"{name}: ops_per_s {rows[name]['ops_per_s']['value']:.0f}")
    with open(path, "w") as f:
        json.dump({"commit": commit(), "seed": SEED, "seconds": SECONDS,
                   "workloads": rows}, f, indent=2)
        f.write("\n")
    print(f"wrote {path}")


def check(path, workloads, bound):
    with open(path) as f:
        baseline = json.load(f)["workloads"]
    failures = []
    for name in workloads:
        if name not in baseline:
            failures.append(f"{name}: not in {path}; regenerate it "
                            "with `make bench-seed`")
            continue
        result = run_workload(name)
        if result is None:
            failures.append(f"{name}: the benchmark run failed")
            continue
        if not result["correct"] or result["failed"]:
            failures.append(f"{name}: incorrect result ({result['failed']} of "
                            f"{result['attempted']} calls failed)")
            continue
        base = baseline[name]["ops_per_s"]["value"]
        cur = result["metrics"]["ops_per_s"]["value"]
        ratio = cur / base
        verdict = "OK"
        if ratio < 1.0 - bound:
            verdict = "FAIL"
            failures.append(f"{name}: throughput regression, ops_per_s "
                            f"{cur:.0f} is {ratio:.0%} of baseline {base:.0f} "
                            f"(floor {1.0 - bound:.0%})")
        print(f"{name}: ops_per_s {cur:.0f} vs baseline {base:.0f} "
              f"({ratio:.0%}) {verdict}")
    for msg in failures:
        print(msg, file=sys.stderr)
    sys.exit(1 if failures else 0)


def main():
    if len(sys.argv) != 3 or sys.argv[1] not in ("record", "check"):
        sys.exit(__doc__.strip().splitlines()[2])
    workloads, bound = benchmark_spec()
    if sys.argv[1] == "record":
        record(sys.argv[2], workloads)
    else:
        check(sys.argv[2], workloads, bound)


if __name__ == "__main__":
    main()

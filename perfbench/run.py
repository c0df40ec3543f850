#!/usr/bin/env python3
"""Benchmark entry point: build the benchmark from source, run one workload,
print the result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The benchmark executable
(perfbench/bench.ml) is built with dune from the checkout's own sources.
Every timed call runs in a fresh process, so each starts from the same cold
heap and has its own peak RSS (from ``wait4``).

- ``--trace 0`` repeats untraced calls for ``--seconds`` (at least
  MIN_CALLS of them; another call starts only while it is expected to end
  in time) and reports each end-to-end metric over the calls that passed
  their correctness check: times at their 10th percentile, throughput at
  its 90th, peak RSS at its median.  On a shared host, other tenants only
  ever add time to a call, and they come and go within a run; a low
  percentile over many short calls tracks the program's own speed, where
  the median would track how busy the neighbours were.
- Times are in host-normalised seconds.  Each call first times a few
  passes of a fixed reference kernel that calls no library code
  (``reference_pass`` in bench.ml); each time the call reports is scaled
  by REFERENCE_S / (the median of those passes).  A neighbour that slows
  the host for minutes slows the reference too, so the scaled time
  follows the program more than the host.  On a host where one reference
  pass takes REFERENCE_S (a quiet 2-vCPU VM), scaled seconds are plain
  seconds.  Throughput is ops per scaled second.  The
  unscaled 10th-percentile wall time is echoed in a ``#`` line.
- ``--trace 1`` makes one untraced call, then one traced call that also
  runs the layer probes, and reports the per-layer metrics.

The last stdout line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A call fails when its report digest differs from the one fixed in bench.ml,
when it raises, or when its digest differs from the run's first call; a
failed call counts in ``failed`` and never in a reported value.  Workloads,
metrics and the reasons behind them are documented in bench.ml and
BENCHMARK.json.
``--scale toy`` runs the same code at toy sizes (the self-test uses it).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
MIN_CALLS = 2
# One reference pass on a quiet host; the unit of the scaled times.
REFERENCE_S = 0.020
# A run must end within 180 s; stop starting calls well before that.
DEADLINE_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a checkout (dune-project and lib/ not found)")
    # --root . keeps dune from adopting a dune-project above the checkout;
    # with its shared cache off, dune writes only under _build.
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
        env=dict(os.environ, DUNE_CACHE="disabled"),
    )
    if proc.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")


def bench(args, extra, timeout):
    """Run the executable once; return (last stdout line as JSON, peak RSS MB)."""
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--scale", args.scale] + extra
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        with proc.stdout:
            out = proc.stdout.read()
        # wait4, not Popen.wait: it also returns the child's peak RSS
        _, status, rusage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"benchmark exited with status {proc.returncode}")
    # ru_maxrss is in KiB on Linux
    return json.loads(lines[-1]), rusage.ru_maxrss / 1024.0


def end_to_end(args, start):
    attempted = failed = 0
    samples, rss = [], []
    first_digest = None
    last_call_s = 0.0
    # Start another call only while it is expected to end within --seconds.
    while attempted < MIN_CALLS or (
        time.monotonic() - start + last_call_s <= args.seconds
    ):
        t0 = time.monotonic()
        remaining = DEADLINE_S - (t0 - start)
        attempted += 1
        s, peak_mb = bench(args, ["--mode", "call"], timeout=max(remaining, 10))
        last_call_s = time.monotonic() - t0
        if s.get("ok") and first_digest not in (None, s["digest"]):
            s["ok"], s["error"] = False, "digest differs from the run's first call"
        if not s.get("ok"):
            failed += 1
            print(f"# call {attempted} failed: {s.get('error')}", file=sys.stderr)
            continue
        first_digest = first_digest or s["digest"]
        samples.append(s)
        rss.append(peak_mb)
    if samples:
        print(f"# instance: {samples[0]['instance']}")
        print(f"# digest: {first_digest}")
    print(f"# calls: {attempted}, failed: {failed}")
    if not samples:
        return {"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}

    def deciles(values):
        values = list(values)
        if len(values) < 2:
            return values * 9
        return statistics.quantiles(values, n=10, method="inclusive")

    def low(f):
        return deciles(f(s) for s in samples)[0]

    def scale(s):
        return REFERENCE_S / statistics.median(s["reference_s"])

    print(f"# reference pass median: "
          f"{statistics.median(x for s in samples for x in s['reference_s']):.6f} s; "
          f"unscaled wall_s: {low(lambda s: s['wall_s']):.6f} s")
    metrics = {
        "setup_s": (deciles(x * scale(s) for s in samples for x in s["setup_s"])[0], "s"),
        "wall_s": (low(lambda s: s["wall_s"] * scale(s)), "s"),
        "ops_per_s": (
            deciles(s["ops"] / (s["wall_s"] * scale(s)) for s in samples)[-1], "1/s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "cpu_s": (low(lambda s: s["cpu_s"] * scale(s)), "s"),
    }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def traced(args, start):
    s, _ = bench(args, ["--mode", "call"], timeout=DEADLINE_S)
    if not s.get("ok"):
        print(f"# untraced call failed: {s.get('error')}", file=sys.stderr)
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    print(f"# instance: {s['instance']}")
    print(f"# digest: {s['digest']}")
    extra = [
        "--mode", "trace",
        "--untraced-wall-s", repr(s["wall_s"]),
        "--untraced-ops", str(s["ops"]),
        "--untraced-minor-words", repr(s["minor_words"]),
        "--untraced-promoted-words", repr(s["promoted_words"]),
        "--untraced-major-collections", str(s["major_collections"]),
    ]
    remaining = DEADLINE_S - (time.monotonic() - start)
    result, _ = bench(args, extra, timeout=max(remaining, 10))
    result["attempted"] += 1
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", choices=["full", "toy"], default="full")
    args = ap.parse_args()

    build()
    start = time.monotonic()
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace}")
    result = (traced if args.trace else end_to_end)(args, start)
    print(json.dumps(result))


if __name__ == "__main__":
    main()

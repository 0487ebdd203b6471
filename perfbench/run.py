#!/usr/bin/env python3
"""Entry point of the co-simulation benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (the vhp library plus the perfbench binary) into
.bench_build/ at the checkout root on first use, runs one workload for S
seconds and prints the binary's table followed by, as the last line, one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are BENCHMARK.json's end_to_end list, with --trace 1 its
per_layer list, each as {"value", "unit"}.

For the reference seed in perfbench/digests.json every repetition must
reproduce the committed digest. A run is not correct when an operation
failed or an end-to-end metric was not measured. Exits non-zero, printing
no result, when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "perfbench"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then brings the binary up to date (a no-op when it is)."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=840)
        if proc.returncode != 0:
            log(f"perfbench: build step failed: {' '.join(cmd)}")
            return False
    return BINARY.exists()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    try:
        if not build():
            return 1
    except (OSError, subprocess.TimeoutExpired) as err:
        log(f"perfbench: build failed: {err}")
        return 1

    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    reference = json.loads((HERE / "digests.json").read_text())
    if args.seed == reference["seed"]:
        cmd += ["--digest", reference["workloads"][args.workload]]
    if args.trace:
        spans = BUILD / "spans"
        spans.mkdir(exist_ok=True)
        cmd += ["--spans", str(spans / f"{args.workload}-{args.seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + 120)
    except subprocess.TimeoutExpired:
        log("perfbench: run timed out")
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        log(f"perfbench: binary exited with {proc.returncode}")
        return 1
    detail = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    correct = bool(detail["correct"])
    metrics = {}
    for m in declared:
        got = detail["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log(f"perfbench: metric {m['name']} missing or not in {m['unit']}")
            correct = False
            continue
        # A per-layer metric may not apply to the workload; an end-to-end
        # one always does, so reading it as 0 would fake a perfect figure.
        if not args.trace and not got["applies"]:
            log(f"perfbench: end-to-end metric {m['name']} was not measured")
            correct = False
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": detail["attempted"],
                      "failed": detail["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

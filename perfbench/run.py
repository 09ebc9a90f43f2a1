#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--tiny]

Run from the repository root. The binary prints its human-readable report
and a final ``RESULT {...}`` line holding every metric it measured; this
script echoes the report, keeps the metrics ``BENCHMARK.json`` lists for
the run's mode (``end_to_end`` untraced, ``per_layer`` traced) and prints
them as the last line:

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

It exits non-zero if the build fails, the run fails or times out, a
correctness check fails or a listed metric is missing.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
RUN_TIMEOUT_S = 170


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")


def build():
    """Builds the release binary; returns its path, or None on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    proc = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
        check=False,
    )
    if proc.returncode != 0:
        return None
    return os.path.join(target_dir(), "release", "ptsim-perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="schema smoke test: minimal sizes")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"run.py: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    binary = build()
    if binary is None:
        print("run.py: build failed", file=sys.stderr)
        return 1
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.tiny:
        cmd.append("--tiny")
    if args.trace:
        cmd += ["--spans", os.path.join(target_dir(), f"spans-{args.workload}-{args.seed}.tsv")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"run.py: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stderr.write(proc.stderr)
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if proc.returncode != 0 or result is None:
        print(f"run.py: benchmark exited with {proc.returncode}", file=sys.stderr)
        return 1

    problems = list(result["problems"])
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if not NAME.match(m["name"]):
            problems.append(f"metric name {m['name']!r} is not [A-Za-z0-9_.-]+")
        if got is None or got["value"] is None or not math.isfinite(got["value"]):
            problems.append(f"metric {m['name']} was not measured")
            continue
        if got["unit"] != m["unit"]:
            problems.append(f"metric {m['name']} came in {got['unit']}, listed as {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    for p in problems:
        print(f"run.py: {p}")
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, result["attempted"]),
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run-to-run steadiness of the benchmark's end-to-end metrics.

    python3 perfbench/steadiness.py [--runs 10] [--sets 2] [--workloads a,b] [--seconds S]

Runs every workload ``--runs`` times per set, each run with its own seed
(the same seeds for every workload of a set, a fresh range per set), and
interleaves the workloads so slow drift of the machine hits them alike.
For each workload x metric it prints each set's median and spread -- the
distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median -- against
the metric's bound in ``BENCHMARK.json``, and how far the last set's median
moved from the first in the worse direction. A spread above the bound, or
a move larger than the bound in either direction (the sets could have run
in the other order), is a FAIL, for every metric, ``setup_s`` included; a
spread above a third of the bound is flagged ``>1/3``. It also checks that the
simulated-output digests (``mc digest``, ``dtm digest``) of one seed are
equal across workloads, which run the same inputs on different thread
counts. The figures a run prints but ``BENCHMARK.json`` does not list
(host-time rates and fleet latencies) are tabled the same way below the
listed ones, with their signed median move and no verdict. Results are
kept in ``.bench_build/steadiness-<time>.json``.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIGEST = re.compile(r"^(mc|dtm) digest: ([0-9a-f]{16})$")
REPORT = re.compile(r"^(\S+) = (\S+) (\S+)( |$)")


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    digests, printed = {}, {}
    for line in lines:
        m = DIGEST.match(line)
        if m:
            digests[m.group(1)] = m.group(2)
        r = REPORT.match(line)
        if r:
            try:
                printed[r.group(1)] = {"value": float(r.group(2)), "unit": r.group(3)}
            except ValueError:
                pass
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode != 0 or result is None or not result.get("correct"):
        sys.stderr.write(proc.stdout[-3000:] + proc.stderr[-3000:])
        raise SystemExit(f"run failed: {workload} seed {seed} (exit {proc.returncode})")
    return dict(printed, **result["metrics"]), digests


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2, q2


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", type=int, default=0)
    ap.add_argument("--seed0", type=int, default=1000)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]

    results = {w: [[] for _ in range(args.sets)] for w in workloads}
    digest_mismatch = []
    for s in range(args.sets):
        for i in range(args.runs):
            seed = args.seed0 + 1000 * s + i
            seen = {}
            for w in workloads:
                t = time.time()
                result, digests = run_once(w, seed, seconds)
                results[w][s].append(result)
                print(f"set {s + 1} run {i + 1} {w} seed {seed}: {time.time() - t:.1f} s", flush=True)
                for kind, d in digests.items():
                    if seen.setdefault(kind, d) != d:
                        digest_mismatch.append(f"seed {seed}: {kind} digest differs across workloads")
    out = os.path.join(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"),
                       f"steadiness-{int(time.time())}.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w", encoding="utf-8") as f:
        json.dump(results, f)

    failures = list(digest_mismatch)
    print(f"\n{'workload':<10} {'metric':<22} {'bound':>6} " + " ".join(
        f"{'median' + str(s + 1):>12} {'spread' + str(s + 1):>8}" for s in range(args.sets)) + f" {'worse':>7}")
    for w in workloads:
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            if any(name not in r for runs in results[w] for r in runs):
                failures.append(f"{w} {name}: missing from a run")
                continue
            cols, medians = [], []
            for s in range(args.sets):
                values = [r[name]["value"] for r in results[w][s]]
                sp, med = spread(values)
                medians.append(med)
                flag = ""
                if sp > bound:
                    flag = "FAIL"
                    failures.append(f"{w} {name}: spread {sp:.3f} > bound {bound} in set {s + 1}")
                elif sp > bound / 3:
                    flag = ">1/3"
                cols.append(f"{med:>12.5g} {sp:>8.3f}{flag:>5}")
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (medians[-1] - medians[0]) / medians[0]
            other_order = sign * (medians[0] - medians[-1]) / medians[-1]
            if max(worse, other_order) > bound:
                failures.append(f"{w} {name}: median moved {worse:.3f} worse ({other_order:.3f} in the "
                                f"other order), bound {bound}")
            print(f"{w:<10} {name:<22} {bound:>6} " + " ".join(cols) + f" {worse:>7.3f}")
    listed = {m["name"] for m in spec["end_to_end"]}
    print(f"\nnot listed, so not gated ('move' is the signed change of the median):")
    for w in workloads:
        names = set.intersection(*(set(r) for runs in results[w] for r in runs)) - listed
        for name in sorted(names):
            cols, medians = [], []
            for s in range(args.sets):
                values = [r[name]["value"] for r in results[w][s]]
                if min(values) <= 0 < max(values) or max(values) <= 0:
                    cols.append(f"{statistics.median(values):>12.5g} {'-':>8}     ")
                    medians.append(None)
                    continue
                sp, med = spread(values)
                medians.append(med)
                cols.append(f"{med:>12.5g} {sp:>8.3f}     ")
            move = ((medians[-1] - medians[0]) / medians[0]
                    if None not in (medians[0], medians[-1]) else float("nan"))
            print(f"{w:<10} {name:<22} {'-':>6} " + " ".join(cols) + f" {move:>7.3f}")
    print(f"\nresults: {out}")
    for f_ in failures:
        print(f"FAIL: {f_}")
    print("steady" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

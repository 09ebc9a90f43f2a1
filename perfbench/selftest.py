#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/selftest.py

1. ``BENCHMARK.json`` has the benchmark file's shape: exactly its keys,
   2-8 workloads, names of ``[A-Za-z0-9_.-]`` used once, units, bounds
   of at most 0.25, and a ``setup_s`` metric in seconds.
2. A tiny-size run of every workload, untraced and traced, exits 0 and
   ends in one JSON line with exactly ``correct``, ``attempted``,
   ``failed`` and ``metrics``, holding every listed metric with its unit.
3. The untraced report prints every end-to-end metric of ``REPORTED`` --
   listed in ``BENCHMARK.json`` or not -- as ``name = value unit``.
4. The simulated-output digests of one seed are equal across workloads
   (they run the same inputs on different thread counts).
"""

import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
DIGEST = re.compile(r"^(mc|dtm) digest: ([0-9a-f]{16})$")
REPORT = re.compile(r"^(\S+) = (\S+) (\S+)( |$)")
# Every end-to-end metric an untraced run prints, with its unit.
REPORTED = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "error_frac": "ratio",
    "read_p50_us.low": "us",
    "read_p99_us.low": "us",
    "read_p50_us.high": "us",
    "read_p99_us.high": "us",
    "scan_p99_us.high": "us",
    "max_rate_rps": "req/s",
    "dies_per_s": "dies/s",
    "rom_dies_per_s": "dies/s",
    "accuracy_budget_frac": "ratio",
    "energy_pj_per_conv": "pJ",
    "dtm_steps_per_s": "steps/s",
    "overshoot_max_c": "C",
    # Beyond the fifteen above: the host-time rates scaled to the
    # yardstick's reference host, and the spec-conformance shares.
    "dies_per_s.ref": "dies/s",
    "rom_dies_per_s.ref": "dies/s",
    "dtm_steps_per_s.ref": "steps/s",
    "fleet_in_spec_frac": "ratio",
    "mc_converted_frac": "ratio",
    "dtm_contained_frac": "ratio",
}


def check_spec(spec, fail):
    if set(spec) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
        fail(f"BENCHMARK.json keys: {sorted(spec)}")
    if not 2 <= len(spec["workloads"]) <= 8:
        fail("2 to 8 workloads")
    if not 1 <= spec["run_seconds"] <= 60 or not isinstance(spec["run_seconds"], int):
        fail("run_seconds is a whole number from 1 to 60")
    names = []
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            fail(f"workload {w}")
        names.append(w["name"])
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            fail(f"end_to_end metric {m}")
    for m in spec["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            fail(f"per_layer metric {m}")
    for m in spec["end_to_end"] + spec["per_layer"]:
        names.append(m["name"])
        if not UNIT.match(m["unit"]) or m["better"] not in ("lower", "higher"):
            fail(f"metric {m}")
    for n in names:
        if not NAME.match(n):
            fail(f"name {n!r}")
    if len(names) != len(set(names)):
        fail("a name is used twice")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        fail("setup_s (s, lower) is missing")


def run(workload, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)


def main():
    failures = []
    fail = failures.append
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    check_spec(spec, fail)
    digests = {}
    for w in spec["workloads"]:
        for trace in (0, 1):
            proc = run(w["name"], trace)
            label = f"{w['name']} --trace {trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                fail(f"{label}: exit {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
                continue
            try:
                result = json.loads(lines[-1])
            except json.JSONDecodeError:
                fail(f"{label}: last line is not JSON: {lines[-1]!r}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"} or result["correct"] is not True:
                fail(f"{label}: result {result}")
            listed = spec["per_layer" if trace else "end_to_end"]
            if set(result["metrics"]) != {m["name"] for m in listed}:
                fail(f"{label}: metrics {sorted(result['metrics'])}")
            for m in listed:
                got = result["metrics"].get(m["name"], {})
                if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
                    fail(f"{label}: {m['name']} -> {got}")
            if trace == 0:
                printed = {}
                for line in lines:
                    r = REPORT.match(line)
                    if r:
                        printed[r.group(1)] = (r.group(2), r.group(3))
                for name, unit in REPORTED.items():
                    got = printed.get(name)
                    if got is None or got[1] != unit or not NAME.match(name):
                        fail(f"{label}: report line for {name} ({unit}): {got}")
                        continue
                    try:
                        float(got[0])
                    except ValueError:
                        fail(f"{label}: {name} = {got[0]!r} is not a number")
                for m in listed:
                    if m["name"] not in REPORTED:
                        fail(f"{label}: listed metric {m['name']} is not in REPORTED")
            for line in lines:
                d = DIGEST.match(line)
                if d and trace == 0:
                    if digests.setdefault(d.group(1), d.group(2)) != d.group(2):
                        fail(f"{label}: {d.group(1)} digest differs from another workload's")
            print(f"ok: {label}")
    if set(digests) != {"mc", "dtm"}:
        fail(f"digests printed: {sorted(digests)}")
    for f_ in failures:
        print(f"FAIL: {f_}")
    print("selftest passed" if not failures else f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

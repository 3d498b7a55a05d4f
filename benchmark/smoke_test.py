#!/usr/bin/env python3
"""Smoke test of the routesync benchmark: every workload at a tiny size.

    python3 benchmark/smoke_test.py

For each workload it runs benchmark/run.py untraced once and traced
twice, and checks that:
  * the last stdout line has exactly correct/attempted/failed/metrics,
    with correct true, attempted >= 1 and failed == 0;
  * every end-to-end (untraced) or per-layer (traced) metric named in
    BENCHMARK.json is printed with its unit, and nothing else is;
  * every end-to-end value is a positive number;
  * every count-type per-layer metric repeats exactly across the two
    traced runs.
Exits 0 when all checks pass, 1 otherwise. Takes about a minute,
including the first build.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["pm_grid", "pm_metro", "lan_grid", "pm_monitor"]


def run(workload, trace):
    cmd = [sys.executable, str(ROOT / "benchmark" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0.3", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(result, specs, label):
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
        return problems
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} "
                        f"attempted={result['attempted']} failed={result['failed']}")
    units = {m["name"]: m["unit"] for m in specs}
    if set(result["metrics"]) != set(units):
        problems.append(f"{label}: metric names differ: "
                        f"{sorted(set(result['metrics']) ^ set(units))}")
    for name, unit in units.items():
        metric = result["metrics"].get(name, {})
        if metric.get("unit") != unit or not isinstance(metric.get("value"), (int, float)):
            problems.append(f"{label}: {name} printed as {metric}")
    return problems


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in WORKLOADS:
        plain = run(workload, 0)
        problems += check_result(plain, bench["end_to_end"], f"{workload} untraced")
        for name, metric in plain["metrics"].items():
            if not metric["value"] > 0:
                problems.append(f"{workload}: end-to-end {name} = {metric['value']}")
        first, second = run(workload, 1), run(workload, 1)
        for result in (first, second):
            problems += check_result(result, bench["per_layer"], f"{workload} traced")
        for spec in bench["per_layer"]:
            name = spec["name"]
            if spec["unit"] == "count" and \
                    first["metrics"][name]["value"] != second["metrics"][name]["value"]:
                problems.append(f"{workload}: count {name} differs between runs")
        print(f"{workload}: checked", flush=True)
    for p in problems:
        print(f"FAIL {p}")
    print("smoke test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

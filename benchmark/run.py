#!/usr/bin/env python3
"""The routesync benchmark: builds the simulator from this checkout, runs
one workload for a fixed host-time budget and prints its metrics.

    python3 benchmark/run.py --workload pm_grid [--seed N] [--seconds S] [--trace 0|1]
    python3 benchmark/run.py --workload all        # every workload, one table

The last line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with the end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer
metrics (--trace 1). The line before it is the run's provenance block
(build identity, host, repetitions, median and quartiles per metric); the
same block is written to <build dir>/results/. Progress goes to stderr.

Correctness: each operation (trial or cell) of every repetition is
compared with an independent reference implementation, with repetition 0,
and, for the seeds recorded in benchmark/expected.json, with the recorded
checksum. `--record` rewrites the recorded checksums of one seed.

Stdlib only. Needs cmake and a C++20 compiler; the build goes to
$CARGO_TARGET_DIR (relative to the checkout) or .bench_build.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
EXPECTED = BENCH_DIR / "expected.json"
WORKLOADS = ["pm_grid", "pm_metro", "lan_grid", "pm_monitor"]
END_TO_END = {"run_s": "s", "setup_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}
BINARY = "routesync_benchmark"
RUN_TIMEOUT_S = 170
# One calibration pass on a quiet host of the kind the benchmark was
# defined on (4-vCPU KVM guest, Intel Xeon, Sapphire Rapids generation).
CALIBRATION_REF_S = 4.0e-3


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = Path(target)
    return path if path.is_absolute() else ROOT / path


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no routesync sources under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        raise RuntimeError("cmake not found on PATH")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja") is not None:
            cmd += ["-G", "Ninja"]
        step(cmd, "configure")
    jobs = str(min(4, os.cpu_count() or 1))
    step(["cmake", "--build", str(out), "--target", BINARY, "-j", jobs], "build")
    return out / BINARY


def step(cmd, what):
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        log(proc.stdout[-4000:])
        raise RuntimeError(f"{what} failed (exit {proc.returncode})")
    log(f"[benchmark] {what}: {time.monotonic() - t0:.1f} s")


def spread(values):
    """Median and quartiles (statistics.quantiles, n=4) of the samples."""
    entry = {"n": len(values), "median": statistics.median(values) if values else None}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        entry.update(q1=q1, q3=q3)
    return entry


def at_reference_speed(samples, calibration):
    """Median of the samples, each scaled to the reference host speed.

    The shared host's speed drifts by tens of percent over minutes, in CPU
    time as well as wall time. The binary times a calibration pass (a
    frozen piece of work outside src/) before every loop iteration and once
    after the last, so iteration k's samples sit between calibration[k] and
    calibration[k + 1]. Each sample is multiplied by CALIBRATION_REF_S over
    the mean of that bracket: seconds on a host where one pass takes
    CALIBRATION_REF_S."""
    per_iteration = len(samples) // (len(calibration) - 1)
    return statistics.median(
        t * CALIBRATION_REF_S * 2 / (calibration[k] + calibration[k + 1])
        for k, t in ((i // per_iteration, t) for i, t in enumerate(samples)))


def run_workload(binary, workload, seed, seconds, trace, size, expected):
    """Runs the binary for one workload; returns (raw output, expect used)."""
    out = build_dir()
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace), "--size", size]
    recorded = expected["workloads"].get(workload, {}).get(str(seed)) if size == "full" else None
    if recorded is not None:
        expect = out / "expect" / f"{workload}-{seed}.txt"
        expect.parent.mkdir(parents=True, exist_ok=True)
        expect.write_text("\n".join(recorded) + "\n")
        cmd += ["--expect", str(expect)]
    if trace:
        spans = out / "spans" / f"{workload}-seed{seed}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans-out", str(spans)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{BINARY} exited {proc.returncode} on {workload}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), recorded is not None


def metrics_of(raw, trace, bench):
    """The result line's metrics: end-to-end (trace 0) or per-layer (1)."""
    if trace:
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        return {name: {"value": raw["layers"][name], "unit": unit}
                for name, unit in units.items()}
    run_s = at_reference_speed(raw["run_s"], raw["calibration_s"])
    values = {
        "run_s": run_s,
        "setup_s": at_reference_speed(raw["setup_s"], raw["calibration_s"]),
        "items_per_s": raw["items_per_run"] / run_s,
        "peak_rss_mb": raw["peak_rss_bytes"] / 2**20,
    }
    return {name: {"value": values[name], "unit": END_TO_END[name]} for name in END_TO_END}


def provenance(raw, args, seed, recorded, metrics):
    samples = {"run_s": raw["run_s"], "setup_s": raw["setup_s"],
               "calibration_s": raw["calibration_s"],
               "traced_wall_s": raw["traced_wall_s"]}
    return {
        "workload": raw["workload"],
        "seed": seed,
        "seed_recorded": recorded,
        "trace": args.trace,
        "size": args.size,
        "seconds": args.seconds,
        "build": raw["provenance"],
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "ops": raw["ops"],
        "reps": raw["reps"],
        "samples": {k: spread(v) for k, v in samples.items() if v},
        "calibration_ref_s": CALIBRATION_REF_S,
        "metrics": metrics,
        "failed_frac": raw["failed"] / raw["attempted"],
        "attribution": raw["attribution"],
        "errors": raw["errors"],
        "warnings": raw["warnings"],
    }


def one(args, binary, bench, expected):
    seed = expected["default_seed"] if args.seed is None else args.seed
    raw, recorded = run_workload(binary, args.workload, seed, args.seconds,
                                 args.trace, args.size, expected)
    if args.record:
        expected["workloads"].setdefault(args.workload, {})[str(seed)] = raw["op_results"]
        with open(EXPECTED, "w") as f:
            json.dump(expected, f, indent=1, sort_keys=True)
            f.write("\n")
        log(f"[benchmark] recorded {len(raw['op_results'])} checksums for "
            f"{args.workload} seed {seed}")
    metrics = metrics_of(raw, args.trace, bench)
    prov = provenance(raw, args, seed, recorded, metrics)
    results = build_dir() / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps(prov, indent=1) + "\n")
    for msg in raw["errors"] + raw["warnings"]:
        log(f"[benchmark] {args.workload}: {msg}")
    correct = raw["failed"] == 0 and not raw["errors"]
    return prov, {"correct": correct, "attempted": raw["attempted"],
                  "failed": raw["failed"], "metrics": metrics}


def table(rows):
    """Every workload's metrics side by side (one row per metric), to stderr."""
    log(f"{'metric':<34}{'unit':<11}" + "".join(f"{w:>14}" for w, _ in rows))
    for name, metric in rows[0][1]["metrics"].items():
        cells = "".join(f"{r['metrics'][name]['value']:>14.5g}" for _, r in rows)
        log(f"{name:<34}{metric['unit']:<11}{cells}")
    cells = "".join(f"{r['failed'] / r['attempted']:>14.3g}" for _, r in rows)
    log(f"{'failed_frac':<34}{'frac':<11}{cells}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the recorded one)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured host seconds per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny: every workload at a smoke-test size")
    parser.add_argument("--record", action="store_true",
                        help="record this seed's per-operation checksums")
    args = parser.parse_args()
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be non-negative")

    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        if args.seconds is None:
            args.seconds = float(bench["run_seconds"])
        expected = json.loads(EXPECTED.read_text())
        binary = build()
        if args.workload != "all":
            prov, result = one(args, binary, bench, expected)
            print(json.dumps({"provenance": prov}))
            print(json.dumps(result), flush=True)
            return 0
        rows = []
        for workload in WORKLOADS:
            args.workload = workload
            _, result = one(args, binary, bench, expected)
            rows.append((workload, result))
        table(rows)
        print(json.dumps({w: r for w, r in rows}), flush=True)
        return 0
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        log(f"[benchmark] error: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())

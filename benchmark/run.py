#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see benchmark/README.md).

One workload, which prints a machine-readable result line:

  python3 benchmark/run.py --workload <name> --seed <n> [--seconds <s>]
                           [--trace 0|1] [--smoke] [--out <dir>]

Every workload, each in its own process:

  python3 benchmark/run.py --seed <n> [--seconds <s>] [--trace 0|1]
                           [--smoke] [--out <dir>]

The benchmark is built incrementally in build-benchmark/ at the repository
root. Every metric is printed as `workload metric value unit`, and
<out>/results.json (default build-benchmark/out) receives the summaries that
benchmark/compare.py reads. With --workload the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics of BENCHMARK.json, or with --trace 1 its per-layer
metrics.

Exit codes: 0 success; 1 a correctness oracle failed; 2 build or run
failure; 3 single-worker determinism broken (the reps of one process
disagree on a virtual-time metric). Only success prints results.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / "build-benchmark"
BINARY = BUILD_DIR / "dfi_benchmark"
# A workload process must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170

# Metrics that live in virtual time (or are fixed by the configuration):
# every rep of one process must report them bit-identically, traced or not.
VIRTUAL_PREFIXES = ("virt_", "registered_mib", "net.",
                    "graph.vertex_finish_ms.", "graph.tuples_")


class RunError(Exception):
    """The benchmark could not produce a result; `code` is the exit code."""

    def __init__(self, message, code=2):
        super().__init__(message)
        self.code = code


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "dfi_benchmark", "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise RunError("build failed: " + " ".join(cmd))


def quartiles(values):
    """(median, q1, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def is_virtual(name):
    return name.startswith(VIRTUAL_PREFIXES)


def check_determinism(workload, raw):
    """Every single-worker rep, the traced one included, must agree exactly
    on every virtual-time metric."""
    reps = raw["reps"] + ([raw["traced"]] if raw["traced"] else [])
    for name in sorted(reps[0]):
        if not is_virtual(name):
            continue
        values = [rep.get(name) for rep in reps]
        if any(v != values[0] for v in values):
            raise RunError(
                f"{workload}: {name} differs between single-worker reps: "
                f"{values}", code=3)


def summarize(raw, spec):
    """Turns one process's reps into end-to-end and per-layer metrics."""
    reps = raw["reps"]
    e2e = {}
    for m in spec["end_to_end"]:
        name = m["name"]
        if name == "peak_rss_mib":
            values = [raw["peak_rss_mib"]]
        else:
            values = [rep[name] for rep in reps]
        median, q1, q3 = quartiles(values)
        # Other work on a shared machine only adds host time, in bursts of
        # seconds, so the fastest rep is the run time it disturbed least.
        value = min(values) if name == "host_run_s" else median
        e2e[name] = {"value": value, "unit": m["unit"], "median": median,
                     "q1": q1, "q3": q3, "n": len(values)}

    per_layer = {}
    traced, pool = raw["traced"], raw["pool"]
    if traced:
        base_run = e2e["host_run_s"]["value"]
        for m in spec["per_layer"]:
            name = m["name"]
            if name == "trace.overhead":
                value = traced["host_run_s"] / base_run - 1
            elif name == "exec.pool4_host_run_s":
                value = pool["host_run_s"]
            elif name == "exec.pool4_virt_divergence":
                value = max(abs(pool[k] - reps[0][k]) / reps[0][k]
                            for k in reps[0]
                            if k.startswith("virt_") and reps[0][k])
            elif name in reps[0]:
                value = quartiles([rep[name] for rep in reps])[0]
            else:
                # Call-site aggregates come from the traced rep; a layer
                # the workload does not use reads 0.
                value = traced.get(name, 0.0)
            per_layer[name] = {"value": value, "unit": m["unit"]}

    return {
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "reps": len(reps),
        "latency_samples": reps[0]["virt_latency_samples"],
        "end_to_end": e2e,
        "per_layer": per_layer,
    }


def run_workload(workload, args, spec, out_dir):
    raw_path = out_dir / f"raw-{workload}.json"
    cmd = [str(BINARY), "--workload", workload, "--seed", str(args.seed),
           "--json", str(raw_path), "--seconds", str(args.seconds)]
    if args.trace:
        cmd += ["--trace", str(out_dir / f"trace-{workload}.json")]
    if args.smoke:
        cmd.append("--smoke")
    log("running:", " ".join(cmd))
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RunError(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    # dfi_benchmark exits 3 when an oracle failed; its result file says how.
    if proc.returncode not in (0, 3):
        raise RunError(f"{workload}: dfi_benchmark exited {proc.returncode}")
    with open(raw_path) as f:
        raw = json.load(f)
    if not raw["correct"]:
        raise RunError(f"{workload}: outputs incorrect: {raw['errors']}",
                       code=1)
    check_determinism(workload, raw)
    return summarize(raw, spec)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", type=Path, default=BUILD_DIR / "out")
    args = parser.parse_args()

    try:
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        if args.workload is not None and args.workload not in names:
            raise RunError(f"unknown workload {args.workload!r}; "
                           f"choose from {names}")
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        build()
        args.out.mkdir(parents=True, exist_ok=True)
        results = {}
        for workload in [args.workload] if args.workload else names:
            results[workload] = run_workload(workload, args, spec, args.out)
    except (RunError, OSError, ValueError, KeyError) as e:
        log("error:", e)
        sys.exit(getattr(e, "code", 2))

    with open(args.out / "results.json", "w") as f:
        json.dump({"seed": args.seed, "smoke": args.smoke,
                   "trace": bool(args.trace), "workloads": results}, f,
                  indent=1)
    section = "per_layer" if args.trace else "end_to_end"
    for workload, r in results.items():
        for name, m in r[section].items():
            print(f"{workload} {name} {m['value']:.6g} {m['unit']}")
    if args.workload:
        r = results[args.workload]
        metrics = {name: {"value": m["value"], "unit": m["unit"]}
                   for name, m in r[section].items()}
        print(json.dumps({"correct": True, "attempted": r["attempted"],
                          "failed": r["failed"], "metrics": metrics}))
    else:
        log("results:", args.out / "results.json")


if __name__ == "__main__":
    main()

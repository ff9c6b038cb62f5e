#!/usr/bin/env python3
"""Repository benchmark: one command for every workload.

    python3 perfbench/run.py --workload fleet-zipf --seed 7 --seconds 10 --trace 0

Run it from the root of a checkout.  The first run configures and builds
perfbench/ (which compiles the program from src/) into .bench_build/;
later runs reuse the binary unless a source file is newer.  The build
log goes to standard error.

Standard output carries the harness's report: diagnostics (hop count,
host_probe_ms, output digests), a metric table, then as its last line
one JSON object with the keys correct, attempted, failed and metrics.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer
metrics of a traced run, whose benchmark-side spans are written as a
Chrome trace under .bench_build/traces/.  The metric names and units
must match BENCHMARK.json, or no result is printed.

Exit status: 0 when every output check passed; 1 when a check failed
(the JSON still says so); 2 for bad arguments; 3 when the build fails;
4 when the harness crashed, timed out or printed a malformed result.
"""
import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fleet-zipf", "mic-stream", "lb-soak")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return (ROOT / base).resolve() / "perfbench"


def newest_source_mtime():
    newest = 0.0
    for tree in (HERE, ROOT / "src"):
        for path in tree.rglob("*"):
            if path.suffix in (".h", ".cpp", ".txt") and path.is_file():
                newest = max(newest, path.stat().st_mtime)
    return newest


def ensure_built():
    out = build_dir()
    binary = out / "mdn_perfbench"
    if binary.exists() and binary.stat().st_mtime >= newest_source_mtime():
        return binary
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(out),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(out), "-j", jobs],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            sys.exit(3)
    # A no-op rebuild leaves the binary's mtime alone; mark it current.
    binary.touch()
    return binary


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def valid_result(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        return None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return None
    if not isinstance(result["correct"], bool):
        return None
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            return None
    if result["attempted"] < 1:
        return None
    metrics = result["metrics"]
    if not isinstance(metrics, dict):
        return None
    for m in metrics.values():
        if not isinstance(m, dict) or set(m) != {"value", "unit"} or \
                isinstance(m["value"], bool) or \
                not isinstance(m["value"], (int, float)):
            return None
    units = {name: m["unit"] for name, m in metrics.items()}
    return result if units == declared_metrics(trace) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    binary = ensure_built()
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace)]
    if args.trace:
        traces = build_dir().parent / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.trace.json")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: harness timed out", file=sys.stderr)
        return 4
    lines = done.stdout.rstrip("\n").split("\n")
    result = valid_result(lines[-1], args.trace) if lines else None
    if done.returncode not in (0, 1) or result is None:
        for line in lines[:-1]:
            print(line)
        print(f"perfbench: harness exited {done.returncode} without a "
              "valid result", file=sys.stderr)
        return 4
    for line in lines[:-1]:
        print(line)
    print(lines[-1])
    return 0 if result["correct"] and done.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

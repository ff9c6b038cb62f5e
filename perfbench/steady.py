#!/usr/bin/env python3
"""Steadiness tool: are two sets of runs of the same build in agreement?

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --workloads mic-stream --runs 5 --seconds 10

Runs perfbench/run.py in two alternating sets (set A run i, set B run
i, ...) with seeds 1..runs in each set, then prints, per workload and
end-to-end metric, each set's median and quartiles, the spread
(interquartile distance over the median) and whether

  * each set's spread is within the metric's bound,
  * set B's median is no worse than set A's by more than the bound,

with the bounds taken from BENCHMARK.json.  It also prints the
host_probe_ms range seen across the runs: a contended host shows up as
a wide or shifted probe, which never scales any metric.  Exit status is
0 when everything agrees, 1 otherwise.
"""
import argparse
import json
import pathlib
import re
import statistics
import subprocess
import sys

from run import WORKLOADS

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2
PROBE = re.compile(r"host_probe_ms before=([0-9.]+) after=([0-9.]+)")


def run_once(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().split("\n")
    if done.returncode != 0:
        sys.exit(f"steady: {workload} seed {seed} exited {done.returncode}:\n"
                 + done.stdout)
    probes = [float(x) for m in map(PROBE.search, lines) if m
              for x in m.groups()]
    metrics = json.loads(lines[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items()}, probes


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=names,
                        choices=WORKLOADS)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()

    results = {w: [[] for _ in range(SETS)] for w in args.workloads}
    probes = []
    for i in range(args.runs):
        for s in range(SETS):
            for w in args.workloads:
                metrics, p = run_once(w, i + 1, args.seconds)
                results[w][s].append(metrics)
                probes += p
                print(f"set {s} run {i} {w}: " + " ".join(
                    f"{k}={v:.6g}" for k, v in metrics.items()),
                    flush=True)

    ok = True
    print(f"\nhost_probe_ms: min {min(probes):.2f} median "
          f"{statistics.median(probes):.2f} max {max(probes):.2f}")
    for w in args.workloads:
        print(f"\n{w}")
        print(f"  {'metric':22} {'set':>3} {'median':>13} {'q1':>13} "
              f"{'q3':>13} {'spread':>7} {'bound':>6}  verdict")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sets = [summary([r[name] for r in runs])
                    for runs in results[w]]
            base = sets[0][0]
            for s, (med, q1, q3, spread) in enumerate(sets):
                verdicts = []
                if spread > bound:
                    verdicts.append("SPREAD")
                elif spread > bound / 3:
                    verdicts.append("spread>bound/3")
                if s > 0 and base:
                    worse = (base - med) / base if m["better"] == "higher" \
                        else (med - base) / base
                    if worse > bound:
                        verdicts.append(f"WORSE {worse:+.1%}")
                if any(v.isupper() for v in verdicts):
                    ok = False
                print(f"  {name:22} {s:>3} {med:13.6g} {q1:13.6g} "
                      f"{q3:13.6g} {spread:7.2%} {bound:6.2f}  "
                      + (" ".join(verdicts) or "ok"))
    print("\nverdict: " + ("sets agree within bounds" if ok
                           else "sets DISAGREE"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Seed self-test for the benchmark.

    python3 perfbench/selftest.py [--workloads mic-stream ...]

For every workload, runs perfbench/run.py three times, briefly: twice
with seed 5 and once with seed 6.  It checks that

  * the same seed gives identical output digests (the "digest" lines)
    and identical deterministic metrics (recall, precision,
    tone_latency_p50_ms);
  * a different seed changes the input trace digest ("digest trace").

Exit status is 0 when every check holds, 1 otherwise.
"""
import argparse
import json
import pathlib
import re
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
DIGEST = re.compile(r"^digest (\w+)=([0-9a-f]+)$")
SEED = 5
DETERMINISTIC = ("recall", "precision", "tone_latency_p50_ms")


def run(workload, seed):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().split("\n")
    if done.returncode != 0:
        sys.exit(f"selftest: {workload} seed {seed} exited "
                 f"{done.returncode}:\n{done.stdout}")
    digests = dict(m.groups() for m in map(DIGEST.match, lines) if m)
    metrics = json.loads(lines[-1])["metrics"]
    return digests, {k: metrics[k]["value"] for k in DETERMINISTIC}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=["fleet-zipf", "mic-stream", "lb-soak"])
    args = parser.parse_args()
    failures = []
    for w in args.workloads:
        a = run(w, SEED)
        b = run(w, SEED)
        c = run(w, SEED + 1)
        if not a[0] or "trace" not in a[0]:
            failures.append(f"{w}: no digests printed")
        if a != b:
            failures.append(f"{w}: seed {SEED} is not reproducible: "
                            f"{a} vs {b}")
        if a[0].get("trace") == c[0].get("trace"):
            failures.append(f"{w}: seeds {SEED} and {SEED + 1} "
                            "gave the same trace digest")
        print(f"{w}: seed {SEED} digests {a[0]} metrics {a[1]}; "
              f"seed {SEED + 1} trace {c[0].get('trace')}")
    for f in failures:
        print("FAIL " + f)
    print("selftest: " + ("ok" if not failures else "FAILED"))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())

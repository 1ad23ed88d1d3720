#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at a small size on two seeds,
untraced and traced.  Each run must exit 0, fail no verdict
(failed_frac == 0) and report every metric BENCHMARK.json names, with its
unit; the metrics are printed per workload.

Usage (from the root of a checkout): python3 perfbench/selftest.py
"""

import json
import os
import subprocess
import sys

SEEDS = (0, 1)


def main():
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    run = [sys.executable, os.path.join(os.path.dirname(__file__), "run.py")]
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in SEEDS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                label = f"{workload} seed {seed} trace {trace}"
                before = len(problems)
                proc = subprocess.run(
                    run + ["--workload", workload, "--seed", str(seed),
                           "--seconds", "1", "--trace", str(trace),
                           "--small"],
                    capture_output=True, text=True, timeout=600)
                if proc.returncode != 0:
                    problems.append(f"{label}: exit {proc.returncode}\n"
                                    f"{proc.stderr[-1500:]}")
                    continue
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                if result["failed"] != 0 or not result["correct"]:
                    problems.append(f"{label}: failed_frac "
                                    f"{result['failed']}/{result['attempted']}"
                                    f"\n{proc.stdout[-1500:]}")
                for m in spec[key]:
                    got = result["metrics"].get(m["name"])
                    if got is None or got["unit"] != m["unit"]:
                        problems.append(f"{label}: metric {m['name']} "
                                        f"missing or not in {m['unit']}")
                status = "ok  " if len(problems) == before else "FAIL"
                print(f"{status} {label}: failed_frac "
                      f"{result['failed'] / result['attempted']:g} ratio "
                      f"({result['attempted']} verdicts)", flush=True)
                for name, m in result["metrics"].items():
                    print(f"       {name:34s} {m['value']:.6g} {m['unit']}")
    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

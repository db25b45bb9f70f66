"""Rerun the steadiness check: each workload with several seeds.

From the repository root:

    python3 perfbench/steadiness.py

runs ``perfbench/run.py`` on every workload of BENCHMARK.json with
seeds 1..10, one process at a time and ``run_seconds`` long, and prints
for every end-to-end metric the median of the runs and the spread: the
distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.
BENCHMARK.json holds each metric's bound; a steady benchmark keeps
every spread (``setup_s`` aside) below a third of it.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10


def run_once(workload: str, seed: int, seconds: float) -> dict:
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - start
    return result


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in (w["name"] for w in spec["workloads"]):
        results = [run_once(workload, seed, spec["run_seconds"])
                   for seed in range(1, RUNS + 1)]
        walls = [r["wall_s"] for r in results]
        print(f"{workload}: {len(results)} runs, all correct: "
              f"{all(r['correct'] for r in results)}, failed/attempted: "
              + ", ".join(f"{r['failed']}/{r['attempted']}"
                          for r in results)
              + f"; wall {min(walls):.0f}-{max(walls):.0f} s")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            quartiles = statistics.quantiles(values, n=4)
            spread = (quartiles[2] - quartiles[0]) / median
            print(f"  {name:18s} median {median:10.3f}  spread "
                  f"{100 * spread:5.1f}%  (bound {100 * bound:.0f}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

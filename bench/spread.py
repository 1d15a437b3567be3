"""Run the benchmark on several seeds and report each metric's spread.

Usage (from the root of a checkout):

    python3 bench/spread.py

For each workload this runs ``bench/run.py --trace 0`` once for each of the
seeds 1 to 10, one run at a time, each measuring the ``run_seconds`` of
``BENCHMARK.json``, and prints for every end-to-end metric the median of the
runs, their first and third quartiles (``statistics.quantiles(n=4)``) and
the spread, the distance between the quartiles as a share of the median.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

from workloads import WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(BENCH_DIR, "run.py")
SEEDS = range(1, 11)


def main() -> int:
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    ok = True
    for name in sorted(WORKLOADS):
        runs = []
        for seed in SEEDS:
            proc = subprocess.run(
                [sys.executable, RUN, "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True,
            )
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                ok = False
                continue
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        if len(runs) < 2:
            continue
        print(f"{name}: {len(runs)} runs, "
              f"{sum(r['failed'] for r in runs)}/{sum(r['attempted'] for r in runs)} "
              f"repetitions failed")
        for metric, first in runs[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("nan")
            print(f"  {metric:<32} median {median:12.6g} {first['unit']:<6} "
                  f"q1 {q1:.6g} q3 {q3:.6g} spread {spread:.4f}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""Run a workload N times on N seeds and compare each metric's spread to its bound.

    python3 perfbench/steady.py --workload serve_warm --runs 10

Runs ``perfbench/run.py`` once per seed, seeds 1 to N, one after another,
from the repository root, and prints each run's result as it ends.  Then,
for every end-to-end metric, it prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``), the spread
``(q3 - q1) / median`` and the metric's bound from ``BENCHMARK.json``:
``ok`` means the spread is under a third of the bound, ``wide`` that it is
inside the bound but above a third of it, ``WIDE`` that it is outside.  It
also prints the share of failed operations, which must be identical in
every run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"seed {seed} exited {completed.returncode}:\n{completed.stderr[-2000:]}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    results = []
    for seed in range(1, args.runs + 1):
        result = run_once(args.workload, seed, spec["run_seconds"])
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
                  f"{name}={entry['value']:.4g}" for name, entry in result["metrics"].items()),
              flush=True)

    print(f"\n{args.workload}: {len(results)} runs")
    print(f"{'metric':18s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for metric in spec["end_to_end"]:
        values = [run["metrics"][metric["name"]]["value"] for run in results]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / q2
        verdict = "ok" if spread < metric["bound"] / 3 else "WIDE" if spread > metric["bound"] else "wide"
        print(f"{metric['name']:18s} {q2:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f} "
              f"{metric['bound']:6.2f} {verdict}")
    shares = {run["failed"] / run["attempted"] for run in results}
    print(f"failed share: {sorted(shares)} ({'identical' if len(shares) == 1 else 'DIFFERS'})")
    print(f"all correct: {all(run['correct'] for run in results)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Steadiness check: run workloads repeatedly, report spread against bounds.

Runs ``run.py`` once per seed for each workload (a fresh process each
time), then prints, for every metric, the median, the quartiles, the
range, and the spread (third minus first quartile, as a share of the
median) next to the metric's bound from BENCHMARK.json.  A spread at or
above a third of the bound is flagged; ``setup_s`` is judged by its
median only, so its spread is shown but not flagged.  Usage, from the
repository root::

    python3 perfbench/steady.py [--workload NAME ...] [--runs 10] [--seconds S]
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


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    steady = True
    for name in args.workload or names:
        values: dict = {}
        shares = set()
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                stdout=subprocess.PIPE, text=True, check=True, cwd=ROOT,
            )
            result = json.loads(proc.stdout.splitlines()[-1])
            if not result["correct"]:
                print(f"{name} seed {seed}: correct is false")
                steady = False
            shares.add(result["failed"] / result["attempted"])
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
        print(f"\n{name}: {args.runs} runs, failed share {sorted(shares)}")
        print(f"{'metric':<30} {'median':>11} {'q1':>11} {'q3':>11} "
              f"{'min':>11} {'max':>11} {'spread':>7} {'bound':>6}")
        for metric, series in values.items():
            q1, med, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(metric)
            flag = ""
            if bound is not None and metric != "setup_s" and spread >= bound / 3:
                flag = "  <-- spread >= bound/3"
                steady = False
            print(f"{metric:<30} {med:>11.5g} {q1:>11.5g} {q3:>11.5g} "
                  f"{min(series):>11.5g} {max(series):>11.5g} {spread:>7.2%} "
                  f"{'' if bound is None else f'{bound:.2f}':>6}{flag}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

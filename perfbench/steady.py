"""Steadiness mode: run each workload repeatedly and report the spread of every metric.

    python3 perfbench/steady.py --runs 10 [--workload bulk_eval ...]

Runs ``run.py --trace 0`` once per seed 1..runs, one run at a time, for the
``run_seconds`` of BENCHMARK.json, and prints for every end-to-end metric and
every workload-level metric the median, the quartiles and the quartile spread
(Q3 - Q1) / median, of the raw and of the normalized values, as
``statistics.quantiles(values, n=4)`` gives them.  The bounds in
BENCHMARK.json are set from these spreads.  Also prints the share of failed
operations of each run, which must be the same in every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True,
                         cwd=HERE.parent).stdout.splitlines()
    detail = next(json.loads(line) for line in out if line.startswith('{"detail"'))
    return detail["detail"], json.loads(out[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all in BENCHMARK.json)")
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload in workloads:
        runs = [run_once(workload, seed, seconds)
                for seed in range(1, args.runs + 1)]
        print(f"== {workload}: {args.runs} runs of {seconds:g} s")
        shares = sorted({res["failed"] / res["attempted"] for _, res in runs})
        print(f"   correct in every run: {all(res['correct'] for _, res in runs)}; "
              f"failed share per run: {shares}")
        print(f"   {'metric':<20} {'kind':<5} {'median':>12} {'Q1':>12} {'Q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for name in runs[0][0]:
            for kind in ("norm", "raw"):
                values = [d[name]["value" if kind == "norm" else "raw"] for d, _ in runs]
                med, q1, q3, s = spread(values)
                bound = f"{bounds[name]:.2f}" if name in bounds and kind == "norm" else ""
                print(f"   {name:<20} {kind:<5} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                      f"{s:>8.4f} {bound:>6}")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""A/A steadiness check: two sets of runs of the same code.

Run from the repository root::

    python3 perfbench/aa.py --runs 10
    python3 perfbench/aa.py --runs 5 --workloads fig45-campaign

Each of the two sets runs ``run.py`` ``--runs`` times per workload, every
time with another seed (1 upward, no seed repeated), for ``run_seconds``
from ``BENCHMARK.json``.  For every end-to-end metric and workload it
prints the median, the quartiles (``statistics.quantiles(values, n=4)``)
and the spread (inter-quartile distance over the median) of each set
against the metric's bound and a third of it, and whether the second
median is no worse than the first by more than the bound.  It exits 1
unless every spread and every median shift is within its bound.  Every
value is saved to ``perfbench/out/aa-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402

SETS = 2


def one_run(root: str, command: List[str], workload: str, seed: int, seconds: int) -> Dict[str, Any]:
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    started = time.perf_counter()
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=300)
    elapsed = time.perf_counter() - started
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed ({done.returncode}):\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = elapsed
    return result


def spread(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def worse_by(first: float, second: float, better: str) -> float:
    """Share by which ``second`` is worse than ``first`` (negative: better)."""
    change = (second - first) / first
    return -change if better == "higher" else change


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", help="comma-separated subset of BENCHMARK.json's")
    args = parser.parse_args()

    root = os.path.dirname(layers.BENCHMARK_JSON)
    bench = layers.load_benchmark()
    seconds = bench["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    values: Dict[str, Dict[str, List[List[float]]]] = {
        w: {m: [[] for _ in range(SETS)] for m in metrics} for w in workloads
    }
    elapsed: List[float] = []
    for which in range(SETS):
        for run in range(args.runs):
            seed = 1 + which * args.runs + run
            for workload in workloads:
                result = one_run(root, bench["command"], workload, seed, seconds)
                elapsed.append(result["elapsed_s"])
                if not result["correct"]:
                    raise SystemExit(f"{workload} seed {seed}: output check failed")
                for name in metrics:
                    values[workload][name][which].append(result["metrics"][name]["value"])
                print(f"set {which + 1} run {run + 1} {workload} seed {seed}: "
                      f"{result['elapsed_s']:.1f} s", file=sys.stderr, flush=True)

    steady = True
    print(f"{'workload':<20} {'metric':<19} {'set':>3} {'median':>11} {'q1':>11} "
          f"{'q3':>11} {'spread':>7} {'bound':>6}  verdict")
    for workload in workloads:
        for name, metric in metrics.items():
            bound = metric["bound"]
            sets = [spread(v) for v in values[workload][name]]
            for which, stats in enumerate(sets):
                verdict = ("ok" if stats["spread"] < bound / 3
                           else "within bound" if stats["spread"] <= bound else "TOO NOISY")
                steady = steady and stats["spread"] <= bound
                print(f"{workload:<20} {name:<19} {which + 1:>3} {stats['median']:>11.5g} "
                      f"{stats['q1']:>11.5g} {stats['q3']:>11.5g} {stats['spread']:>7.2%} "
                      f"{bound:>6.0%}  {verdict}")
            shift = worse_by(sets[0]["median"], sets[1]["median"], metric["better"])
            agree = shift <= bound
            steady = steady and agree
            print(f"{workload:<20} {name:<19} A/A second median worse by {shift:+.2%} "
                  f"(bound {bound:.0%}): {'agree' if agree else 'DISAGREE'}")
    print(f"runs: {len(elapsed)}, mean {statistics.mean(elapsed):.1f} s each; "
          f"{'steady' if steady else 'NOT steady'}")

    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, f"aa-{int(time.time())}.json"), "w", encoding="utf-8") as handle:
        json.dump({"seconds": seconds, "values": values, "elapsed_s": elapsed}, handle, indent=1)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

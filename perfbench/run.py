"""Benchmark entry point: one workload, its metrics, its output checks.

Run from the repository root::

    python3 perfbench/run.py --workload table1-chipless --seed 7 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics: set-up time (median over
several fresh interpreters), Monte Carlo runs per second, the median and
tail time per item, CPU seconds per run and peak memory.  ``--trace 1``
runs the workload again with span shims installed and prints the
per-layer split instead (see ``layers.py``).  Either way the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``, and the exit code is non-zero
when any output check failed.

Each workload runs in a child interpreter (``workloads.py``) with BLAS
threads pinned to 1; the campaign workloads use at most two pool
workers.  Scratch stores go under ``.perfbench/`` in the working
directory and are removed afterwards; traced runs also write their spans
and report to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402

#: The first two are in BENCHMARK.json; smallshard-campaign is kept for
#: traced runs only (see layers.SMALL).
WORKLOADS = ("table1-chipless", "fig45-campaign", "smallshard-campaign")
#: Fresh interpreters whose set-up time is measured per run; the
#: measured child is one of them.
SETUP_SAMPLES = 5
#: Items that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10
#: Seconds a probe child may take to import, build and warm up.
PROBE_TIMEOUT = 60.0

class BenchError(RuntimeError):
    """A child failed to start, crashed or timed out."""


def tail_percentile(items: Sequence[float]) -> Tuple[float, float, int]:
    """``(percentile, value, items beyond)`` for the highest percentile
    with :data:`TAIL_BEYOND` items beyond it (nearest rank), so the value
    is the eleventh-largest item; never below the median."""
    ordered = sorted(items)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND, math.ceil(n / 2), 1)
    return 100.0 * rank / n, ordered[rank - 1], n - rank


def child_env(root: str, workdir: str) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    # Temporary files (SQLite's included) stay inside the checkout.
    env["TMPDIR"] = env["SQLITE_TMPDIR"] = workdir
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def run_child(
    root: str, workdir: str, argv: List[str], timeout: float
) -> Tuple[float, List[str]]:
    """Start ``workloads.py argv`` in a fresh interpreter; return the
    seconds until it printed ``READY`` and the stdout lines after that."""
    started = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "workloads.py")] + argv, cwd=root,
        env=child_env(root, workdir), stdout=subprocess.PIPE, text=True,
    )
    watchdog = threading.Timer(timeout, process.kill)
    watchdog.start()
    try:
        first = process.stdout.readline()
        setup = time.perf_counter() - started
        rest = process.stdout.read()
        code = process.wait()
    finally:
        watchdog.cancel()
        if process.poll() is None:
            process.kill()
            process.wait()
    if code != 0 or first.strip() != "READY":
        raise BenchError(f"workloads.py {' '.join(argv[:2])} exited with code {code}")
    return setup, rest.splitlines()


def workload_argv(args: argparse.Namespace, mode: str, workdir: str) -> List[str]:
    return [
        "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--mode", mode, "--workdir", workdir,
    ]


def outcome(child: Dict[str, Any]) -> Tuple[int, int]:
    """``(attempted, failed)``: runs plus output checks, and the runs that
    failed or were quarantined plus the checks that failed."""
    failed_checks = sum(1 for _, ok, _ in child["checks"] if not ok)
    return child["runs"] + len(child["checks"]), child["runs_failed"] + failed_checks


def print_checks(child: Dict[str, Any]) -> None:
    for name, ok, detail in child["checks"]:
        print(f"  check {name:<34} {'ok' if ok else 'FAILED'}: {detail}")


def measure_main(args: argparse.Namespace, root: str, workdir: str) -> Dict[str, Any]:
    setups = []
    for probe in range(SETUP_SAMPLES - 1):
        setup, _ = run_child(
            root, workdir, workload_argv(args, "probe", os.path.join(workdir, f"probe{probe}")),
            PROBE_TIMEOUT,
        )
        setups.append(setup)
    setup, lines = run_child(
        root, workdir, workload_argv(args, "measure", os.path.join(workdir, "measure")),
        PROBE_TIMEOUT + 3 * args.seconds + 60,
    )
    setups.append(setup)
    child = json.loads(lines[-1])
    items = child["items_s"]
    runs, wall = child["runs"], child["wall_s"]
    percentile, tail, beyond = tail_percentile(items)
    values = {
        "setup_s": statistics.median(setups),
        "runs_per_s": runs / wall,
        "item_s_p50": statistics.median(items),
        "item_s_tail": tail,
        "cpu_s_per_run": child["cpu_s"] / runs,
        "peak_rss_mb": child["peak_rss_mb"],
        "worker_peak_rss_mb": child["worker_peak_rss_mb"],
    }
    samples = {
        "setup_s": f"median of {len(setups)} fresh interpreters",
        "runs_per_s": f"{runs} runs in {wall:.2f} s",
        "item_s_p50": f"{len(items)} items",
        "item_s_tail": f"p{percentile:.1f} of {len(items)} items, {beyond} beyond",
        "cpu_s_per_run": f"{runs} runs, driver + reaped workers",
        "peak_rss_mb": "driver process",
        "worker_peak_rss_mb": (
            "driver process (runs in-process)" if args.workload == WORKLOADS[0]
            else "largest reaped pool worker"
        ),
    }
    attempted, failed = outcome(child)
    units = layers.units("end_to_end")
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"(closed loop, one driver process)")
    for name, value in values.items():
        print(f"  {name:<20} {value:>14.6g} {units[name]:<4} {samples[name]}")
    print(f"  {'fail_ratio':<20} {failed / attempted:>14.6g}      {failed} of {attempted} "
          f"runs and checks")
    print_checks(child)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    }


def parse_importtime(lines: Sequence[str]) -> Tuple[Dict[str, float], List[Tuple[str, float]]]:
    """Split ``-X importtime`` output for ``import repro``: the total, its
    self time per top-level package, and the ten slowest modules."""
    parsed = []
    for line in lines:
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        own, cumulative, name = line.split(":", 1)[1].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        parsed.append((int(own), int(cumulative), name.strip(), depth))
    # Nested imports print before their importer, so the block of
    # ``import repro`` runs back from its line to the previous top level.
    end = max(i for i, row in enumerate(parsed) if row[2] == "repro" and row[3] == 0)
    start = end
    while start > 0 and parsed[start - 1][3] != 0:
        start -= 1
    block = parsed[start:end + 1]
    groups = {"scipy": 0.0, "numpy": 0.0, "repro": 0.0, "other": 0.0}
    for own, _, name, _ in block:
        top = name.split(".")[0]
        groups[top if top in groups else "other"] += own / 1e6
    values = {"setup.import_s": parsed[end][1] / 1e6}
    values.update({f"setup.import_{group}_s": value for group, value in groups.items()})
    slowest = sorted(((name, own / 1e6) for own, _, name, _ in block), key=lambda x: -x[1])
    return values, slowest[:10]


def import_split(root: str, workdir: str) -> Tuple[Dict[str, float], List[Tuple[str, float]]]:
    """``import repro`` in a fresh interpreter under ``-X importtime``."""
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import repro"], cwd=root,
        env=child_env(root, workdir), capture_output=True, text=True,
        timeout=PROBE_TIMEOUT,
    )
    if done.returncode != 0:
        raise BenchError(f"import repro exited with code {done.returncode}")
    return parse_importtime(done.stderr.splitlines())


def print_table(title: str, layers_: Dict[str, Dict[str, float]], wall: float) -> None:
    rows, total = layers.report_rows(layers_, wall)
    print(f"  {title}: wall {wall:.4f} s, self-time sum {total:.4f} s")
    print(f"    {'layer':<32} {'count':>8} {'busy_s':>10} {'self_s':>10} {'share':>7}")
    for name, count, busy, own, share in rows:
        print(f"    {name:<32} {count:>8} {busy:>10.4f} {own:>10.4f} {share:>7.1%}")


def trace_main(args: argparse.Namespace, root: str, workdir: str) -> Dict[str, Any]:
    imports, slowest = import_split(root, workdir)
    _, lines = run_child(
        root, workdir, workload_argv(args, "trace", os.path.join(workdir, "trace")),
        PROBE_TIMEOUT + 3 * args.seconds + 60,
    )
    child = json.loads(lines[-1])
    values = layers.layer_metrics(child, imports)
    untraced = child["runs_untraced"] / child["wall_untraced_s"]
    traced = child["runs_traced"] / child["wall_traced_s"]
    attempted, failed = outcome(child)
    units = layers.units("per_layer")

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} traced")
    print_table("driver process", child["parent"]["layers"], child["parent"]["wall_s"])
    if child["workers"]["count"]:
        print_table(f"{child['workers']['count']} pool workers (summed lifetimes)",
                    child["workers"]["layers"], child["workers"]["wall_s"])
    print(f"  tracing overhead: runs_per_s untraced {untraced:.4f} - traced {traced:.4f} "
          f"= {untraced - traced:.4f} ({(untraced - traced) / untraced:.1%})")
    print(f"  import repro: {imports['setup.import_s']:.4f} s; slowest modules (self): "
          + ", ".join(f"{name} {own:.3f}" for name, own in slowest[:5]))
    print(f"  {'metric':<32} {'value':>12} {'unit':<9} moves")
    for name, value in values.items():
        print(f"  {name:<32} {value:>12.6g} {units[name]:<9} {layers.LAYERS[name][1]}")
    print_checks(child)

    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "runs_per_s_untraced": untraced, "runs_per_s_traced": traced,
        "import_slowest_s": slowest, "metrics": values,
        "predictions": {name: layers.LAYERS[name][1] for name in values},
        "parent": child["parent"], "workers": child["workers"],
        "counters": child["counters"], "spans": child["spans"],
    }
    with open(os.path.join(out, f"{args.workload}-seed{args.seed}-trace.json"), "w",
              encoding="utf-8") as handle:
        json.dump(report, handle)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: no src/repro under the working directory; run it from the "
              "repository root", file=sys.stderr)
        return 2
    compileall.compile_dir(os.path.join(root, "src"), quiet=1)
    workdir = os.path.join(root, ".perfbench", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        result = (trace_main if args.trace else measure_main)(args, root, workdir)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not os.listdir(os.path.dirname(workdir)):
            os.rmdir(os.path.dirname(workdir))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

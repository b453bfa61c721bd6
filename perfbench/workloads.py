"""The benchmark's three workloads, and the child process that runs one.

``run.py`` starts this file in a fresh interpreter::

    python3 perfbench/workloads.py --workload table1-chipless --seed 7 \\
        --seconds 15 --mode measure --workdir .perfbench/tmp

The child imports the program, builds its inputs from ``--seed`` and
warms up, then prints ``READY`` (the parent times set-up up to that
line).  ``--mode probe`` exits there.  ``--mode measure`` then drives a
closed loop -- one item at a time, the next only after the previous one
finished -- for ``--seconds``, checks the outputs and prints one JSON
line.  ``--mode trace`` measures half the time untraced and half with
span shims installed, and prints the per-layer split instead.

Why these workloads (predictions per layer are in ``layers.py``):

- ``table1-chipless``: the paper's Table I point (2000 nodes,
  ~21.4k pairs, q = 20, reactive jammer) on the chipless PHY, run
  in-process.  PHY sweep, pre-distribution and neighbor search
  dominate; the pool and the store are bypassed.
- ``fig45-campaign``: the EXPERIMENTS.md Figure 4/5 campaign recipe as
  written (q x nu x link model, 96 points) at 1 run per point, through
  ``run_campaign`` with the persistent pool and the SQLite store.
  M-NDP and pre-distribution heavy; no chipless sweep.
- ``smallshard-campaign``: 2-run shards of the ``tiny-chipless`` field.
  Compute is nil, so pool dispatch and store commits dominate.  Too
  noisy between runs to gate on (see README.md); used for traced runs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import random
import resource
import sys
import time
from typing import Any, Dict, Iterator, List, Tuple

import spans

#: Revision label every benchmark campaign is stored under, so the
#: canonical store digest does not depend on the commit being measured.
REVISION = "perfbench"
#: Pool workers for the campaign workloads (fewer on smaller machines).
MAX_WORKERS = 2
#: Items re-run serially by the output check.
SERIAL_SAMPLE = 3
#: Theorem 1 tolerance on mean P_D, as in benchmarks/test_table1_defaults.py.
THEOREM1_TOLERANCE = 0.05

Check = Tuple[str, bool, str]


def derive_seed(seed: int, label: str) -> int:
    """A 31-bit seed that depends only on ``seed`` and ``label``."""
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") >> 1


class Table1:
    """The Table I point, run after run through ``run_once``."""

    name = "table1-chipless"
    in_process = True
    runs_failed = 0  # a failing run raises

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.results: Dict[int, Any] = {}

    def setup(self) -> None:
        from repro.experiments.runner import NetworkExperiment
        from repro.experiments.scenarios import preset_config

        self.config = preset_config("paper-chipless")
        self.experiment = NetworkExperiment(self.config, seed=derive_seed(self.seed, "table1"))
        NetworkExperiment(self.config, seed=derive_seed(self.seed, "table1-warmup")).run_once(0)

    def loop(self, seconds: float) -> Tuple[int, List[float]]:
        """Run snapshots until ``seconds`` have passed; item = one run."""
        items: List[float] = []
        clock = time.perf_counter
        deadline = clock() + seconds
        while True:
            index = len(self.results)
            started = clock()
            self.results[index] = self.experiment.run_once(index)
            finished = clock()
            items.append(finished - started)
            if finished >= deadline:
                return len(items), items

    def checks(self, rng: random.Random) -> List[Check]:
        from repro.analysis.dndp_theory import dndp_lower_bound
        from repro.experiments.runner import NetworkExperiment

        runs = list(self.results.values())
        p_dndp = sum(r.p_dndp for r in runs) / len(runs)
        bound = dndp_lower_bound(self.config, self.config.n_compromised)
        checks = [(
            "theorem1-p-minus",
            abs(p_dndp - bound) < THEOREM1_TOLERANCE,
            f"mean P_D {p_dndp:.4f} vs Theorem 1 P- {bound:.4f} over {len(runs)} runs",
        )]
        fresh = NetworkExperiment(self.config, seed=derive_seed(self.seed, "table1"))
        for index in sorted(rng.sample(sorted(self.results), min(SERIAL_SAMPLE, len(runs)))):
            checks.append((
                f"serial-rerun-run-{index}",
                fresh.run_once(index) == self.results[index],
                "fresh serial run_once equals the timed run",
            ))
        return checks


class Campaign:
    """A campaign workload: whole campaigns back to back, item = shard."""

    name = ""
    in_process = False

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.done: List[Tuple[Any, str, Any]] = []  # (spec, store path, status)

    def spec_dict(self, label: str) -> Dict[str, Any]:
        raise NotImplementedError

    def warmup_dict(self) -> Dict[str, Any]:
        raise NotImplementedError

    def setup(self) -> None:
        from repro.campaigns import executor
        from repro.campaigns.spec import CampaignSpec
        from repro.experiments.pool import available_cpu_count

        self.executor = executor
        self.CampaignSpec = CampaignSpec
        self.workers = max(1, min(MAX_WORKERS, available_cpu_count()))
        self.run_one(self.CampaignSpec.from_dict(self.warmup_dict()), "warmup")
        self.done.clear()

    @property
    def runs_failed(self) -> int:
        """Quarantined runs over every timed campaign."""
        return sum(status.runs_quarantined for _, _, status in self.done)

    def run_one(self, spec: Any, label: str) -> List[float]:
        """Run one campaign to completion; return its shard intervals."""
        path = os.path.join(self.workdir, f"{label}.sqlite")
        clock = time.perf_counter
        stamps = [clock()]

        def progress(line: str) -> None:
            if line.startswith("shard ") and " committed " in line:
                stamps.append(clock())

        # Resolved through the module so a traced run's shim applies.
        status = self.executor.run_campaign(
            spec, path, processes=self.workers, git_revision=REVISION,
            progress=progress,
        )
        self.done.append((spec, path, status))
        return [b - a for a, b in zip(stamps, stamps[1:])]

    def loop(self, seconds: float) -> Tuple[int, List[float]]:
        items: List[float] = []
        runs = 0
        clock = time.perf_counter
        deadline = clock() + seconds
        while clock() < deadline or not items:
            label = f"rep{len(self.done)}"
            spec = self.CampaignSpec.from_dict(self.spec_dict(label))
            items.extend(self.run_one(spec, label))
            runs += self.done[-1][2].runs_executed
        return runs, items

    def checks(self, rng: random.Random) -> List[Check]:
        from repro.campaigns.store import CampaignStore
        from repro.experiments.runner import NetworkExperiment

        checks: List[Check] = []
        shards: List[Tuple[Any, Any, Any]] = []  # (spec, shard, stored point result)
        for spec, path, status in self.done:
            with CampaignStore(path) as store:
                labels = [row["git_revision"] for row in store.list_campaigns()]
                digest = store.canonical_digest()
                points = store.point_results(spec.name, spec.spec_hash(), REVISION)
            ok = (
                status.complete
                and status.runs_quarantined == 0
                and not status.degraded
                and status.git_revision == REVISION
                and labels == [REVISION]
                and digest == status.canonical_digest
            )
            checks.append((
                f"campaign-{os.path.basename(path)}",
                ok,
                f"complete={status.complete} quarantined={status.runs_quarantined} "
                f"degraded={len(status.degraded)} revisions={labels} "
                f"digest-stable={digest == status.canonical_digest}",
            ))
            shards.extend(
                (spec, shard, points[shard.point.index][1]) for shard in spec.shards()
            )
        for position in sorted(rng.sample(range(len(shards)), min(SERIAL_SAMPLE, len(shards)))):
            spec, shard, result = shards[position]
            point = shard.point
            experiment = NetworkExperiment(
                spec.point_config(point),
                seed=point.seed,
                strategy=spec.point_strategy(point),
                mndp_rounds=spec.mndp_rounds,
                link_model=spec.point_link_model(point),
                compute_backend=spec.compute_backend,
                phy_backend=spec.phy_backend,
            )
            same = all(
                experiment.run_once(index) == result.runs[index]
                for index in shard.run_indices
            )
            checks.append((
                f"serial-rerun-{spec.name}-shard-{shard.index}",
                same,
                f"serial run_once of runs {shard.run_start}..{shard.run_stop - 1} equals the store",
            ))
        return checks


class Fig45(Campaign):
    """EXPERIMENTS.md's Figure 4/5 recipe at 1 run per point.

    One run per shard keeps one pool worker busy at a time (the pool runs
    jobs in submission order), so the workload uses about one of the two
    cores and its wall time is less exposed to CPU taken by other tenants
    of a shared host than a run that saturates both.
    """

    name = "fig45-campaign"

    def spec_dict(self, label: str) -> Dict[str, Any]:
        return {
            "name": "fig45",
            "seed": derive_seed(self.seed, f"fig45-{label}"),
            "runs_per_point": 1,
            "runs_per_shard": 10,
            "base": "paper",
            "grid": {
                "n_compromised": [0, 20, 40, 60, 80, 100],
                "nu": [1, 2, 3, 4, 5, 6, 7, 8],
                "link_model": ["codes", "independent"],
            },
        }

    def warmup_dict(self) -> Dict[str, Any]:
        spec = self.spec_dict("warmup")
        spec["grid"] = {"n_compromised": [20], "nu": [3],
                        "link_model": ["codes", "independent"]}
        return spec


class SmallShard(Campaign):
    """Hundreds of 2-run shards of the 120-node chipless field."""

    name = "smallshard-campaign"

    def spec_dict(self, label: str) -> Dict[str, Any]:
        return {
            "name": "smallshard",
            "seed": derive_seed(self.seed, f"smallshard-{label}"),
            "runs_per_point": 400,
            "runs_per_shard": 2,
            "base": "tiny-chipless",
            "grid": {"n_compromised": [5, 10]},
        }

    def warmup_dict(self) -> Dict[str, Any]:
        spec = self.spec_dict("warmup")
        spec["runs_per_point"] = 20
        return spec


WORKLOADS = {cls.name: cls for cls in (Table1, Fig45, SmallShard)}


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def measure(workload: Any, seconds: float) -> Dict[str, Any]:
    cpu_before = _cpu_seconds()
    started = time.perf_counter()
    runs, items = workload.loop(seconds)
    wall = time.perf_counter() - started
    cpu = _cpu_seconds() - cpu_before
    peak = _peak_rss_mb(resource.RUSAGE_SELF)
    return {
        "runs": runs,
        "wall_s": wall,
        "items_s": items,
        "cpu_s": cpu,
        "peak_rss_mb": peak,
        # Runs execute in the driver itself on the in-process workload.
        "worker_peak_rss_mb": (
            peak if workload.in_process else _peak_rss_mb(resource.RUSAGE_CHILDREN)
        ),
    }


@contextlib.contextmanager
def absorbing_outcomes(registry: Any) -> Iterator[None]:
    """Absorb the metrics pool workers return with each shard's runs
    into ``registry``: wraps ``collect_outcomes`` where ``run_campaign``
    resolves it (over the span shim, if installed)."""
    from repro.campaigns import executor

    collect = executor.collect_outcomes

    def absorbing(*args: Any, **kwargs: Any) -> Any:
        result = collect(*args, **kwargs)
        registry.absorb(result.merged_metrics())
        return result

    executor.collect_outcomes = absorbing
    try:
        yield
    finally:
        executor.collect_outcomes = collect


def trace(workload: Any, seconds: float) -> Dict[str, Any]:
    """Half the time untraced, half traced; per-layer split of the latter."""
    from repro.obs import MetricsRegistry, installed
    from repro.obs import names

    half = seconds / 2.0
    started = time.perf_counter()
    untraced_runs, _ = workload.loop(half)
    untraced_wall = time.perf_counter() - started

    trace_dir = os.path.join(workload.workdir, "spans")
    os.makedirs(trace_dir, exist_ok=True)
    in_process = workload.in_process
    registry = MetricsRegistry()
    tracer = spans.Tracer()
    spans.install(None if in_process else trace_dir)
    try:
        with installed(registry), absorbing_outcomes(registry):
            spans.activate(tracer)
            root = tracer.begin("bench.driver")
            try:
                traced_runs, _ = workload.loop(half)
            finally:
                tracer.end(root)
                spans.activate(None)
    finally:
        spans.uninstall()
    traced_wall = spans.root_wall(tracer.spans)
    snapshot = registry.snapshot()
    sweep = snapshot.timers.get(names.PHY_SWEEP_SECONDS)

    parent = spans.layer_table(tracer.spans)
    worker_lists = [] if in_process else spans.read_worker_spans(trace_dir)
    workers = spans.merge_tables(spans.layer_table(s) for s in worker_lists)
    worker_wall = sum(spans.root_wall(s) for s in worker_lists)
    runs_table = parent if in_process else workers
    if sweep is not None:
        spans.carve_sweep(runs_table, sweep.total_seconds, sweep.count)

    return {
        "runs": untraced_runs + traced_runs,
        "runs_untraced": untraced_runs,
        "wall_untraced_s": untraced_wall,
        "runs_traced": traced_runs,
        "wall_traced_s": traced_wall,
        "parent": {"wall_s": traced_wall, "layers": parent},
        "workers": {"wall_s": worker_wall, "count": len(worker_lists), "layers": workers},
        "sweep_timer": sweep is not None,
        "counters": dict(snapshot.counters),
        "spans": {"parent": tracer.spans, "workers": worker_lists},
    }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("probe", "measure", "trace"), required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    os.makedirs(args.workdir, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    workload.setup()
    print("READY", flush=True)
    if args.mode == "probe":
        return 0
    if args.mode == "measure":
        result = measure(workload, args.seconds)
    else:
        result = trace(workload, args.seconds)
    checks = workload.checks(random.Random(derive_seed(args.seed, "checks")))
    result["checks"] = [list(check) for check in checks]
    result["runs_failed"] = workload.runs_failed
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

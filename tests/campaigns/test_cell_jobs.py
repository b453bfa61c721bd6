"""Campaign block and cell jobs: the shards of one run block run as one
pool job.

``run_campaign`` groups every pending shard of one run range into one
*block job*, cuts a block with fewer run indices than the pool has
workers into *cell jobs* (consecutive shards whose points differ only
in ``nu``), keeps the launch's first pending shard a job of its own,
and commits each job's shards in one transaction.  None of that may
show in the rows: every point equals fresh ``run_once`` runs,
deterministic metrics included, and the stores are byte-identical at
``processes`` 1 and 2.
"""

import os
import subprocess
import sys

import pytest

from repro.campaigns import CampaignSpec, CampaignStore, run_campaign
from repro.campaigns.executor import _jobs
from repro.campaigns.store import QUARANTINE_KIND
from repro.errors import is_quarantined_failure
from repro.experiments import pool as pool_module
from repro.experiments.pool import SupervisionPolicy
from repro.experiments.runner import (
    ExperimentResult,
    FieldSnapshot,
    NetworkExperiment,
)
from repro.faults import WorkerKiller
from repro.obs import installed
from repro.obs import names as _names
from repro.obs.registry import MetricsRegistry

REV = "testrev"
REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)
)))


def nu_spec(**overrides):
    """Both link models, q=20 and a non-monotone nu axis (innermost)."""
    kwargs = dict(
        name="cells",
        seed=2011,
        runs_per_point=4,
        runs_per_shard=2,
        base="tiny",
        grid={
            "link_model": ["codes", "independent"],
            "n_compromised": [20],
            "nu": [3, 1, 2],
        },
    )
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


def _launch(spec, path, processes, **kwargs):
    return run_campaign(
        spec, str(path), processes=processes, git_revision=REV, **kwargs
    )


def _fresh_shards(spec):
    """Each shard's fresh runs and deterministic metrics JSON."""
    expected = {}
    for shard in spec.shards():
        point = shard.point
        experiment = NetworkExperiment(
            spec.point_config(point),
            seed=spec.seed,
            strategy=spec.point_strategy(point),
            mndp_rounds=spec.mndp_rounds,
            sample_latency=spec.sample_latency,
            link_model=spec.point_link_model(point),
            collect_metrics=True,
            compute_backend=spec.compute_backend,
            phy_backend=spec.phy_backend,
        )
        runs = tuple(experiment.run_once(i) for i in shard.run_indices)
        metrics = ExperimentResult(runs=runs).merged_metrics()
        expected[shard.index] = (
            runs, metrics.deterministic().to_json(indent=None)
        )
    return expected


def _stored_shards(spec, path):
    with CampaignStore(str(path)) as store:
        points = store.point_results(spec.name, spec.spec_hash(), REV)
        metrics = store.shard_metrics(spec.name, spec.spec_hash(), REV)
    return {
        shard.index: (
            points[shard.point.index][1].runs[
                shard.run_start:shard.run_stop
            ],
            metrics[shard.index].to_json(indent=None),
        )
        for shard in spec.shards()
    }


def _read(path):
    with open(path, "rb") as handle:
        return handle.read()


#: More workers than ``nu_spec``'s 2-run blocks: they run as cell jobs.
SMALL_BLOCK_WORKERS = 3


def _indices(jobs):
    return [[shard.index for shard in job] for job in jobs]


class TestGrouping:
    def test_nu_shards_of_a_cell_form_one_job_after_a_lone_first(self):
        jobs = _jobs(nu_spec().shards(), SMALL_BLOCK_WORKERS)
        assert _indices(jobs) == [
            [0], [1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11],
        ]

    def test_nu_not_innermost_gives_one_shard_per_job(self):
        """With a ``strategy`` axis after ``nu``, consecutive shards
        differ in strategy: no two group into a cell job."""
        spec = nu_spec(grid=dict(
            nu_spec().grid, strategy=["reactive", "random"]
        ))
        shards = spec.shards()
        assert [job for job in _jobs(shards, SMALL_BLOCK_WORKERS)] == [
            (shard,) for shard in shards
        ]

    def test_a_run_block_boundary_splits_a_job(self):
        """One cell's points in two run blocks: the same points, but
        not the same run range."""
        shards = nu_spec(grid={"nu": [3, 1, 2]}).shards()
        for workers in (2, SMALL_BLOCK_WORKERS):
            assert _indices(_jobs(shards, workers)) == [
                [0], [1, 2], [3, 4, 5],
            ]

    def test_resumed_pending_shards_group_only_within_a_cell(self):
        shards = nu_spec().shards()
        pending = [shards[i] for i in (0, 2, 4, 5, 7, 8, 10)]
        assert _indices(_jobs(pending, SMALL_BLOCK_WORKERS)) == [
            [0], [2], [4, 5], [7, 8], [10],
        ]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_run_block_forms_one_job_after_a_lone_first(self, workers):
        jobs = _jobs(nu_spec().shards(), workers)
        assert _indices(jobs) == [
            [0], [1, 2, 3, 4, 5], [6, 7, 8, 9, 10, 11],
        ]

    def test_resumed_pending_shards_group_by_run_block(self):
        shards = nu_spec().shards()
        pending = [shards[i] for i in (2, 4, 5, 7, 8, 10)]
        assert _indices(_jobs(pending, 2)) == [[2], [4, 5], [7, 8, 10]]

    @pytest.mark.parametrize("axis, values, cells", [
        # A cell axis: each (link model, strategy) cell together.
        ("strategy", ["reactive", "random"], [
            ("codes", "reactive"), ("codes", "random"),
            ("independent", "reactive"), ("independent", "random"),
        ]),
        # A topology axis: each share count's snapshot, then its cells.
        ("share_count", [10, 6], [
            ("codes", 10), ("independent", 10),
            ("codes", 6), ("independent", 6),
        ]),
    ], ids=["strategy", "share_count"])
    def test_a_block_job_runs_each_cell_together(self, axis, values, cells):
        """An axis that sorts after ``nu`` interleaves the points of
        different cells in shard order; a block job still runs the
        points sharing a snapshot together, each cell's points one
        after another, ``nu`` in spec order."""
        spec = nu_spec(grid=dict(nu_spec().grid, **{axis: values}))
        shards = spec.shards()
        assert [shard.point.params_dict["nu"] for shard in shards[:4]] == [
            3, 3, 1, 1,
        ]
        jobs = _jobs(shards, 2)
        assert [len(job) for job in jobs] == [1, 11, 12]
        params = [shard.point.params_dict for shard in jobs[2]]
        assert [point["nu"] for point in params] == [3, 1, 2] * 4
        assert [
            (point["link_model"], point[axis]) for point in params
        ] == [cell for cell in cells for _ in range(3)]


CASES = {
    "tiny-reactive": dict(base="tiny"),
    "tiny-random": dict(base="tiny", strategy="random"),
    "chipless-reactive": dict(base="tiny-chipless"),
    "chipless-random": dict(base="tiny-chipless", strategy="random"),
    "two-rounds": dict(base="tiny", mndp_rounds=2),
    "chipless-random-two-rounds": dict(
        base="tiny-chipless", strategy="random", mndp_rounds=2
    ),
    "reference-backend": dict(base="tiny", compute_backend="reference"),
    "latency": dict(base="tiny", sample_latency=True),
    # 1-run blocks: cell jobs at processes 2, block jobs in-process.
    "small-blocks": dict(base="tiny", runs_per_shard=1),
}


class TestCellJobsEqualFreshRuns:
    """Block and cell jobs: message and chipless PHY, both link models,
    reactive and random jamming, one and two M-NDP rounds, both compute
    backends."""

    @pytest.fixture(scope="class", params=sorted(CASES))
    def stores(self, request, tmp_path_factory):
        spec = nu_spec(**CASES[request.param])
        root = tmp_path_factory.mktemp(request.param)
        paths = {}
        for processes in (1, 2):
            registry = MetricsRegistry()
            with installed(registry):
                status = _launch(spec, root / f"p{processes}.sqlite", processes)
            assert status.complete
            # One store commit per job: the jobs did form.
            counters = registry.snapshot().counters
            assert counters[_names.CAMPAIGNS_STORE_COMMITS] == len(
                _jobs(spec.shards(), processes)
            ) < len(spec.shards())
            paths[processes] = root / f"p{processes}.sqlite"
        return spec, paths

    def test_rows_and_metrics_equal_fresh_runs(self, stores):
        spec, paths = stores
        expected = _fresh_shards(spec)
        for path in paths.values():
            assert _stored_shards(spec, path) == expected
        # Non-vacuous: the nu points of a cell recover different counts.
        assert len({
            sum(run.mndp_successes for run in runs)
            for runs, _ in expected.values()
        }) > 2

    def test_stores_are_byte_identical_across_engines(self, stores):
        _, paths = stores
        assert _read(paths[1]) == _read(paths[2])


def test_random_jamming_gives_fractional_chipless_outcomes():
    """The chipless random-jammer case is the one that exercises the
    per-pair success draws: its D-NDP counts differ from the message
    model's, unlike reactive jamming's 0-or-1 probabilities."""
    counts = {}
    for base in ("tiny", "tiny-chipless"):
        spec = nu_spec(base=base, strategy="random")
        counts[base] = [
            runs[0].dndp_successes
            for runs, _ in _fresh_shards(spec).values()
        ]
    assert counts["tiny"] != counts["tiny-chipless"]


def _killed_launch(spec, tmp_path, kill_after_shards):
    """Launch ``spec`` at ``processes`` 2 through the CLI, SIGKILLed
    after ``kill_after_shards`` commits; return the shards committed."""
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(spec.to_json())
    path = tmp_path / "killed.sqlite"
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro", "campaign", "launch",
            "--spec", str(spec_path), "--store", str(path),
            "--revision", REV, "--processes", "2",
            "--kill-after-shards", str(kill_after_shards),
        ],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode in (-9, 137), proc.stderr
    with CampaignStore(str(path)) as store:
        return path, store.completed_shards(spec.name, spec.spec_hash(), REV)


def _poisoned(spec, tmp_path):
    """Launch ``spec`` at ``processes`` 2 with run 3 killing its worker
    on every attempt; return the store path, status and records."""
    path = tmp_path / "poison.sqlite"
    status = _launch(
        spec, path, 2,
        supervision=SupervisionPolicy(max_run_retries=1, close_grace=5.0),
        execution_faults=WorkerKiller(kills={3: 99}),
    )
    with CampaignStore(str(path)) as store:
        done = store.completed_shards(spec.name, spec.spec_hash(), REV)
        records = store.failure_records(
            spec.name, spec.spec_hash(), REV, kind=QUARANTINE_KIND
        )
    assert all(is_quarantined_failure(r["detail"]) for r in records)
    return path, status, done, [
        (record["shard_index"], record["run_index"]) for record in records
    ]


class TestInterruptions:
    """``nu_spec()`` runs as block jobs at ``processes`` 2; with
    ``runs_per_shard`` 1 its 1-run blocks run as cell jobs."""

    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("ref") / "ref.sqlite"
        assert _launch(nu_spec(), path, 1).complete
        return _read(path)

    @pytest.fixture(scope="class")
    def small_reference(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("small") / "ref.sqlite"
        assert _launch(nu_spec(runs_per_shard=1), path, 1).complete
        return _read(path)

    @pytest.mark.parametrize("max_shards", [2, 4])
    def test_max_shards_mid_cell_is_exact(
        self, tmp_path, reference, max_shards
    ):
        """``max_shards`` cuts the pending shards before they group, so
        a block cut in two still stops after exactly that many shards."""
        path = tmp_path / "partial.sqlite"
        partial = _launch(nu_spec(), path, 2, max_shards=max_shards)
        assert partial.shards_executed == max_shards
        assert not partial.complete
        spec = nu_spec()
        with CampaignStore(str(path)) as store:
            done = store.completed_shards(spec.name, spec.spec_hash(), REV)
        assert done == frozenset(range(max_shards))
        resumed = _launch(nu_spec(), path, 2)
        assert resumed.complete
        assert resumed.shards_skipped == max_shards
        assert _read(path) == reference

    def test_quarantine_inside_a_cell_job(self, tmp_path, small_reference):
        """Run 3 is the fourth 1-run block, one cell job of three
        shards per link model: every shard of those jobs records the
        failure and stays uncommitted, and ``retry_quarantined``
        re-runs them to the reference bytes."""
        spec = nu_spec(runs_per_shard=1)
        path, status, done, records = _poisoned(spec, tmp_path)
        assert not status.complete
        assert status.shards_quarantined == 6
        assert status.runs_quarantined == 6
        assert done == frozenset(range(18))
        assert records == [(shard, 3) for shard in range(18, 24)]
        retried = _launch(spec, path, 2, retry_quarantined=True)
        assert retried.complete and retried.runs_quarantined == 0
        assert _read(path) == small_reference

    def test_quarantine_inside_a_block_job(self, tmp_path, reference):
        """Run 3 lives in the second run block, one block job of six
        shards: every shard of the job records the failure and stays
        uncommitted, and ``retry_quarantined`` re-runs them to the
        reference bytes."""
        spec = nu_spec()
        path, status, done, records = _poisoned(spec, tmp_path)
        assert not status.complete
        assert status.shards_quarantined == 6
        assert status.runs_quarantined == 6
        assert done == frozenset(range(6))
        assert records == [(shard, 3) for shard in range(6, 12)]
        retried = _launch(spec, path, 2, retry_quarantined=True)
        assert retried.complete and retried.runs_quarantined == 0
        assert _read(path) == reference

    def test_sigkill_inside_a_cell_job_then_resume(
        self, tmp_path, small_reference
    ):
        """``--kill-after-shards 2`` kills after the commit that brings
        the count to at least 2: the lone first shard, then the rest of
        its cell in one transaction."""
        spec = nu_spec(runs_per_shard=1)
        path, done = _killed_launch(spec, tmp_path, 2)
        assert done == frozenset({0, 1, 2})
        resumed = _launch(spec, path, 2)
        assert resumed.complete and resumed.shards_skipped == 3
        assert _read(path) == small_reference

    def test_sigkill_inside_a_block_job_then_resume(
        self, tmp_path, reference
    ):
        """``--kill-after-shards 2`` lands inside the first block job:
        the kill follows the commit of the lone first shard, then the
        rest of its block in one transaction."""
        spec = nu_spec()
        path, done = _killed_launch(spec, tmp_path, 2)
        assert done == frozenset(range(6))
        resumed = _launch(spec, path, 2)
        assert resumed.complete and resumed.shards_skipped == 6
        assert _read(path) == reference


class _CountingSnapshot(FieldSnapshot):
    """A :class:`FieldSnapshot` that records the key of each build."""

    built = []

    def __init__(self, key):
        type(self).built.append(key)
        super().__init__(key)


def _count_work(monkeypatch):
    """Record each snapshot build and each ``_decide`` (run, cell)."""
    built, decided = [], []
    monkeypatch.setattr(_CountingSnapshot, "built", built)
    monkeypatch.setattr(pool_module, "FieldSnapshot", _CountingSnapshot)
    decide = NetworkExperiment._decide

    def counted(self, snapshot, pairs, key):
        decided.append((snapshot.key, key))
        return decide(self, snapshot, pairs, key)

    monkeypatch.setattr(NetworkExperiment, "_decide", counted)
    return built, decided


@pytest.mark.parametrize("grid", [
    nu_spec().grid,
    dict(nu_spec().grid, share_count=[10, 6]),
    dict(nu_spec().grid, strategy=["reactive", "random"]),
], ids=["nu-innermost", "share_count-after-nu", "strategy-after-nu"])
def test_block_jobs_build_each_snapshot_once(tmp_path, monkeypatch, grid):
    """In-process, on ``tiny``: a block job builds each of a run's
    snapshots once and decides each (run, cell) once; only the lone
    first shard's runs are built and decided a second time, in the
    first block's job."""
    spec = nu_spec(grid=grid)
    built, decided = _count_work(monkeypatch)
    assert _launch(spec, tmp_path / "counted.sqlite", 1).complete
    topologies = len(grid.get("share_count", [None]))
    cells = 2 * len(grid.get("strategy", [None])) * topologies
    first = spec.shards()[0].n_runs
    assert len(set(built)) == spec.runs_per_point * topologies
    assert len(built) == len(set(built)) + first
    assert len(set(decided)) == spec.runs_per_point * cells
    assert len(decided) == len(set(decided)) + first

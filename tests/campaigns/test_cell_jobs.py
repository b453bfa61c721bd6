"""Campaign cell jobs: the ``nu`` shards of one cell run as one pool job.

``run_campaign`` groups consecutive pending shards that run the same
run range on points differing only in ``nu`` into one job, keeps the
launch's first pending shard a job of its own, and commits each job's
shards in one transaction.  None of that may show in the rows: every
point equals fresh ``run_once`` runs, deterministic metrics included,
and the stores are byte-identical at ``processes`` 1 and 2.
"""

import os
import subprocess
import sys

import pytest

from repro.campaigns import CampaignSpec, CampaignStore, run_campaign
from repro.campaigns.executor import _cell_jobs
from repro.campaigns.store import QUARANTINE_KIND
from repro.errors import is_quarantined_failure
from repro.experiments.pool import SupervisionPolicy
from repro.experiments.runner import ExperimentResult, NetworkExperiment
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


class TestGrouping:
    def test_nu_shards_of_a_cell_form_one_job_after_a_lone_first(self):
        jobs = _cell_jobs(nu_spec().shards())
        assert [[shard.index for shard in job] for job in jobs] == [
            [0], [1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11],
        ]

    def test_nu_not_innermost_gives_one_shard_per_job(self):
        """With a ``strategy`` axis after ``nu``, consecutive shards
        differ in strategy: no two group."""
        spec = nu_spec(grid=dict(
            nu_spec().grid, strategy=["reactive", "random"]
        ))
        shards = spec.shards()
        assert [job for job in _cell_jobs(shards)] == [
            (shard,) for shard in shards
        ]

    def test_a_run_block_boundary_splits_a_job(self):
        """One cell's points in two run blocks: the same points, but
        not the same run range."""
        shards = nu_spec(grid={"nu": [3, 1, 2]}).shards()
        assert [[shard.index for shard in job]
                for job in _cell_jobs(shards)] == [[0], [1, 2], [3, 4, 5]]

    def test_resumed_pending_shards_group_only_within_a_cell(self):
        shards = nu_spec().shards()
        pending = [shards[i] for i in (0, 2, 4, 5, 7, 8, 10)]
        assert [[shard.index for shard in job]
                for job in _cell_jobs(pending)] == [
            [0], [2], [4, 5], [7, 8], [10],
        ]


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
}


class TestCellJobsEqualFreshRuns:
    """Message and chipless PHY, both link models, reactive and random
    jamming, one and two M-NDP rounds, both compute backends."""

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
            # One store commit per job: the cell jobs did form.
            counters = registry.snapshot().counters
            assert counters[_names.CAMPAIGNS_STORE_COMMITS] == len(
                _cell_jobs(spec.shards())
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


class TestInterruptions:
    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("ref") / "ref.sqlite"
        assert _launch(nu_spec(), path, 1).complete
        return _read(path)

    @pytest.mark.parametrize("max_shards", [2, 4])
    def test_max_shards_mid_cell_is_exact(
        self, tmp_path, reference, max_shards
    ):
        """``max_shards`` cuts the pending shards before they group, so
        a cell cut in two still stops after exactly that many shards."""
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

    def test_quarantine_inside_a_cell_job(self, tmp_path, reference):
        """Run 3 lives in the second run block, one cell job of three
        shards per link model: every shard of those jobs records the
        failure and stays uncommitted, and ``retry_quarantined``
        re-runs them to the reference bytes."""
        spec = nu_spec()
        path = tmp_path / "poison.sqlite"
        status = _launch(
            spec, path, 2,
            supervision=SupervisionPolicy(max_run_retries=1, close_grace=5.0),
            execution_faults=WorkerKiller(kills={3: 99}),
        )
        assert not status.complete
        assert status.shards_quarantined == 6
        assert status.runs_quarantined == 6
        with CampaignStore(str(path)) as store:
            done = store.completed_shards(spec.name, spec.spec_hash(), REV)
            records = store.failure_records(
                spec.name, spec.spec_hash(), REV, kind=QUARANTINE_KIND
            )
        assert done == frozenset(range(6))
        assert [
            (record["shard_index"], record["run_index"])
            for record in records
        ] == [(shard, 3) for shard in range(6, 12)]
        assert all(is_quarantined_failure(r["detail"]) for r in records)
        retried = _launch(spec, path, 2, retry_quarantined=True)
        assert retried.complete and retried.runs_quarantined == 0
        assert _read(path) == reference

    def test_sigkill_inside_a_cell_job_then_resume(
        self, tmp_path, reference
    ):
        """``--kill-after-shards 2`` kills after the commit that brings
        the count to at least 2: the lone first shard, then the rest of
        its cell in one transaction."""
        spec = nu_spec()
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(spec.to_json())
        path = tmp_path / "killed.sqlite"
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro", "campaign", "launch",
                "--spec", str(spec_path), "--store", str(path),
                "--revision", REV, "--processes", "2",
                "--kill-after-shards", "2",
            ],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode in (-9, 137), proc.stderr
        with CampaignStore(str(path)) as store:
            done = store.completed_shards(spec.name, spec.spec_hash(), REV)
        assert done == frozenset({0, 1, 2})
        resumed = _launch(spec, path, 2)
        assert resumed.complete and resumed.shards_skipped == 3
        assert _read(path) == reference

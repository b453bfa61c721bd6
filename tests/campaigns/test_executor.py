"""End-to-end executor tests: the resume bit-identity guarantee.

The expensive guarantee under test: a campaign killed mid-flight
(gracefully via ``max_shards`` or violently via SIGKILL) and then
resumed produces a results store *byte-identical* to an uninterrupted
run's.  The subprocess test drives the real ``--kill-after-shards``
CLI hook, which delivers an actual ``SIGKILL`` — no atexit, no sqlite
cleanup — so the recovery path exercised here is the one a crash or
OOM kill takes in production.
"""

import functools
import os
import shutil
import sqlite3
import subprocess
import sys

import pytest

from repro.campaigns import CampaignSpec, CampaignStore, run_campaign
from repro.errors import ConfigurationError
from repro.experiments.runner import NetworkExperiment
from tests.injectors import HoldRun

REV = "testrev"


def tiny_spec():
    return CampaignSpec(
        name="smoke",
        seed=2011,
        runs_per_point=4,
        runs_per_shard=2,
        base="tiny",
        grid={"n_compromised": [5, 10]},
    )


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """An uninterrupted campaign's canonical store (path, bytes)."""
    path = str(tmp_path_factory.mktemp("ref") / "ref.sqlite")
    status = run_campaign(tiny_spec(), path, git_revision=REV)
    assert status.complete
    with open(path, "rb") as handle:
        return path, handle.read(), status


class TestUninterrupted:
    def test_status_accounting(self, reference):
        _, _, status = reference
        assert status.shards_total == 4
        assert status.shards_executed == 4
        assert status.shards_skipped == 0
        assert status.runs_executed == 8
        assert not status.was_noop

    def test_summary_sidecar_written(self, reference):
        path, _, status = reference
        import json

        with open(path + ".summary.json") as handle:
            summary = json.load(handle)
        assert summary["campaign_id"] == "smoke"
        assert summary["canonical_digest"] == status.canonical_digest
        assert summary["shards"] == 4


class TestSpecForwarding:
    @pytest.mark.parametrize("processes", [1, 2])
    def test_sample_latency_reaches_every_run(self, tmp_path, processes):
        """``sample_latency`` is part of the spec hash, so it must also
        shape the stored runs: each equals the serial run with latency
        sampling on."""
        spec = CampaignSpec.from_dict(
            dict(tiny_spec().to_dict(), sample_latency=True)
        )
        path = str(tmp_path / "latency.sqlite")
        status = run_campaign(
            spec, path, processes=processes, git_revision=REV
        )
        assert status.complete
        with CampaignStore(path) as store:
            points = store.point_results(spec.name, spec.spec_hash(), REV)
        for point in spec.points():
            experiment = NetworkExperiment(
                spec.point_config(point),
                seed=point.seed,
                strategy=spec.point_strategy(point),
                sample_latency=True,
                link_model=spec.point_link_model(point),
            )
            stored = points[point.index][1].runs
            assert len(stored) == spec.runs_per_point
            for index, run in enumerate(stored):
                latency = experiment.run_once(index).mean_dndp_latency
                assert latency is not None
                assert run.mean_dndp_latency == latency


class TestResume:
    def test_graceful_stop_then_resume_is_bit_identical(
        self, tmp_path, reference
    ):
        _, expected, ref_status = reference
        path = str(tmp_path / "partial.sqlite")
        partial = run_campaign(
            tiny_spec(), path, max_shards=2, git_revision=REV
        )
        assert partial.shards_executed == 2
        assert not partial.complete
        resumed = run_campaign(tiny_spec(), path, git_revision=REV)
        assert resumed.complete
        assert resumed.shards_skipped == 2
        assert resumed.shards_executed == 2
        assert resumed.canonical_digest == ref_status.canonical_digest
        with open(path, "rb") as handle:
            assert handle.read() == expected

    def test_sigkill_then_resume_is_bit_identical(
        self, tmp_path, reference
    ):
        """Real SIGKILL mid-campaign via the CLI testing hook."""
        _, expected, ref_status = reference
        path = str(tmp_path / "killed.sqlite")
        spec_path = str(tmp_path / "spec.json")
        with open(spec_path, "w") as handle:
            handle.write(tiny_spec().to_json())
        env = dict(os.environ)
        repo_src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.dirname(
                os.path.abspath(__file__)
            ))),
            "src",
        )
        env["PYTHONPATH"] = repo_src
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro", "campaign", "launch",
                "--spec", spec_path, "--store", path,
                "--revision", REV, "--kill-after-shards", "2",
            ],
            env=env,
            capture_output=True,
            text=True,
        )
        # SIGKILL surfaces as -9 (POSIX) or 137 (through a shell).
        assert proc.returncode in (-9, 137), proc.stderr
        with CampaignStore(path) as store:
            spec = tiny_spec()
            done = store.completed_shards(
                spec.name, spec.spec_hash(), REV
            )
        assert done == frozenset({0, 1})
        resumed = run_campaign(tiny_spec(), path, git_revision=REV)
        assert resumed.complete
        assert resumed.shards_skipped == 2
        assert resumed.canonical_digest == ref_status.canonical_digest
        with open(path, "rb") as handle:
            assert handle.read() == expected

    def test_closed_progress_reader_still_commits_everything(
        self, tmp_path, reference
    ):
        """A progress sink whose reader went away (``... | head``)
        gets no further lines; the campaign still runs to the end and
        commits the reference bytes."""
        _, expected, _ = reference
        lines = []

        def closed(line):
            lines.append(line)
            raise BrokenPipeError(32, "Broken pipe")

        path = str(tmp_path / "piped.sqlite")
        status = run_campaign(
            tiny_spec(), path, processes=2, git_revision=REV,
            progress=closed,
        )
        assert status.complete
        assert len(lines) == 1
        with open(path, "rb") as handle:
            assert handle.read() == expected

    def test_cli_launch_into_a_closed_pipe_commits_everything(
        self, tmp_path, reference
    ):
        """``campaign launch ... | head`` with the reader gone before
        the first line: no traceback, exit code ``EXIT_STDOUT_CLOSED``,
        and a complete store with the reference bytes."""
        from repro.cli import EXIT_STDOUT_CLOSED

        _, expected, _ = reference
        path = str(tmp_path / "piped.sqlite")
        spec_path = str(tmp_path / "spec.json")
        with open(spec_path, "w") as handle:
            handle.write(tiny_spec().to_json())
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(
            os.path.dirname(os.path.dirname(os.path.dirname(
                os.path.abspath(__file__)
            ))),
            "src",
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "campaign", "launch",
                "--spec", spec_path, "--store", path,
                "--revision", REV, "--processes", "2",
            ],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) == EXIT_STDOUT_CLOSED, err
        assert err == ""
        with open(path, "rb") as handle:
            assert handle.read() == expected

    def test_finished_campaign_rerun_is_a_noop(
        self, tmp_path, reference
    ):
        ref_path, expected, _ = reference
        path = str(tmp_path / "copy.sqlite")
        shutil.copyfile(ref_path, path)
        again = run_campaign(tiny_spec(), path, git_revision=REV)
        assert again.was_noop
        assert again.shards_executed == 0
        with open(path, "rb") as handle:
            assert handle.read() == expected


class TestValidation:
    @pytest.mark.parametrize("processes", [0, -1])
    def test_non_positive_processes_refused_before_store_opens(
        self, tmp_path, processes
    ):
        """``processes=0`` used to mean "all CPUs" and ``-1`` failed
        only after the campaign was registered; both are refused
        before any store file exists."""

        path = tmp_path / "never.sqlite"
        with pytest.raises(ConfigurationError, match="processes"):
            run_campaign(
                tiny_spec(), str(path), processes=processes,
                git_revision=REV,
            )
        assert list(tmp_path.iterdir()) == []

    def test_cli_processes_zero_refused(self, tmp_path, cli_refused):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(tiny_spec().to_json())
        cli_refused([
            "campaign", "launch", "--spec", str(spec_path),
            "--store", str(tmp_path / "never.sqlite"),
            "--revision", REV, "--processes", "0",
        ], "processes")
        assert not (tmp_path / "never.sqlite").exists()


class TestPersistentPoolEngine:
    """The worker count must be invisible in the store bytes.

    The module-scoped ``reference`` store is built with the default
    worker count (a multiprocess pool on a multi-CPU machine,
    in-process on a single CPU), so comparing ``processes=1`` and
    ``processes=2`` stores against it checks both rungs of the engine
    ladder against each other, not against themselves.
    """

    def test_pool_store_is_bit_identical(self, tmp_path, reference):
        _, expected, ref_status = reference
        path = str(tmp_path / "pooled.sqlite")
        status = run_campaign(
            tiny_spec(), path, processes=2, git_revision=REV
        )
        assert status.complete
        assert status.canonical_digest == ref_status.canonical_digest
        with open(path, "rb") as handle:
            assert handle.read() == expected

    def test_in_process_store_is_bit_identical(self, tmp_path, reference):
        _, expected, _ = reference
        path = str(tmp_path / "in-process.sqlite")
        status = run_campaign(
            tiny_spec(), path, processes=1, git_revision=REV,
        )
        assert status.complete
        with open(path, "rb") as handle:
            assert handle.read() == expected

    def test_two_workers_write_the_rows_of_one(self, tmp_path):
        """The ``runs`` and ``shards`` rows and the canonical digest do
        not depend on how many shards were in flight."""
        stores = {}
        for processes in (1, 2):
            path = str(tmp_path / f"p{processes}.sqlite")
            status = run_campaign(
                tiny_spec(), path, processes=processes, git_revision=REV
            )
            assert status.complete
            conn = sqlite3.connect(path)
            try:
                stores[processes] = (
                    status.canonical_digest,
                    conn.execute(
                        "SELECT * FROM runs ORDER BY 1, 2, 3, 4, 5"
                    ).fetchall(),
                    conn.execute(
                        "SELECT * FROM shards ORDER BY 1, 2, 3, 4"
                    ).fetchall(),
                )
            finally:
                conn.close()
        assert len(stores[2][1]) == 8 and len(stores[2][2]) == 4
        assert stores[1] == stores[2]

    def test_commits_in_shard_order_when_a_later_shard_finishes_first(
        self, tmp_path, monkeypatch
    ):
        """One point, two shards: run 0 (only in shard 0) is held, so
        the other worker finishes shard 1 (runs 2-3) first; shards
        still commit 1, 2 and the store equals an unheld run's."""
        from repro.campaigns import executor
        from repro.experiments.pool import PendingRun

        spec = CampaignSpec.from_dict(dict(tiny_spec().to_dict(), grid={}))
        assert [shard.run_indices for shard in spec.shards()] == [
            range(0, 2), range(2, 4)
        ]
        reference = str(tmp_path / "unheld.sqlite")
        assert run_campaign(
            spec, reference, processes=1, git_revision=REV
        ).complete
        shard_of = {}
        finished = []
        submit, finish = executor._submit_job, PendingRun._finish

        def recording_submit(pool, spec, job):
            (shard,) = job  # no nu axis: one shard per job
            handle = submit(pool, spec, job)
            shard_of[id(handle)] = shard.index
            return handle

        def recording_finish(handle, outcomes):
            finished.append(shard_of.get(id(handle)))
            finish(handle, outcomes)

        monkeypatch.setattr(executor, "_submit_job", recording_submit)
        monkeypatch.setattr(PendingRun, "_finish", recording_finish)
        monkeypatch.setattr(
            executor, "NetworkExperiment",
            functools.partial(HoldRun, hold_run=0, seconds=1.0),
        )
        lines = []
        path = str(tmp_path / "held.sqlite")
        status = run_campaign(
            spec, path, processes=2, git_revision=REV,
            progress=lines.append,
        )
        assert status.complete
        assert finished == [1, 0]
        committed = [
            line.split()[1] for line in lines if " committed " in line
        ]
        assert committed == ["1/2", "2/2"]
        with open(path, "rb") as handle, open(reference, "rb") as unheld:
            assert handle.read() == unheld.read()

    def test_progress_reports_rate_and_eta(self, tmp_path):
        import re

        lines = []
        run_campaign(
            tiny_spec(), str(tmp_path / "progress.sqlite"),
            processes=2, git_revision=REV, progress=lines.append,
        )
        committed = [line for line in lines if "committed" in line]
        assert len(committed) == 4
        for line in committed:
            assert re.search(
                r"\[\d+(\.\d+)? runs/s, ETA \d+(\.\d+)?s\]", line
            ), line

    def test_sigkill_mid_pooled_run_then_pooled_resume(
        self, tmp_path, reference
    ):
        """Kill/resume byte-identity with the pool on both sides of
        the crash: the shards in flight behind the last commit are
        simply lost and re-executed, and no later shard can have
        committed before an earlier one."""
        _, expected, ref_status = reference
        path = str(tmp_path / "killed.sqlite")
        spec_path = str(tmp_path / "spec.json")
        with open(spec_path, "w") as handle:
            handle.write(tiny_spec().to_json())
        env = dict(os.environ)
        repo_src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.dirname(
                os.path.abspath(__file__)
            ))),
            "src",
        )
        env["PYTHONPATH"] = repo_src
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro", "campaign", "launch",
                "--spec", spec_path, "--store", path,
                "--revision", REV, "--kill-after-shards", "2",
                "--processes", "2",
            ],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode in (-9, 137), proc.stderr
        with CampaignStore(path) as store:
            spec = tiny_spec()
            done = store.completed_shards(
                spec.name, spec.spec_hash(), REV
            )
        assert done == frozenset({0, 1})
        resumed = run_campaign(
            tiny_spec(), path, processes=2, git_revision=REV
        )
        assert resumed.complete
        assert resumed.shards_skipped == 2
        assert resumed.canonical_digest == ref_status.canonical_digest
        with open(path, "rb") as handle:
            assert handle.read() == expected


class TestCli:
    def test_status_query_diff(self, reference, capsys):
        from repro.cli import main

        path, _, _ = reference
        assert main(["campaign", "status", "--store", path]) == 0
        out = capsys.readouterr().out
        assert "smoke" in out and "complete" in out
        assert "canonical digest:" in out

        assert main([
            "campaign", "query", "--store", path,
            "--campaign", "smoke",
        ]) == 0
        out = capsys.readouterr().out
        assert "p_dndp" in out and "n_compromised" in out

        # Diffing a revision against itself is refused.
        assert main([
            "campaign", "diff", "--store", path,
            "--campaign", "smoke",
        ]) == 1
        out = capsys.readouterr().out
        assert "nothing to diff" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["status", "--store", "{typo}"],
            ["status", "--store", "{typo}", "--json"],
            ["query", "--store", "{typo}", "--campaign", "smoke"],
            ["diff", "--store", "{ref}", "--campaign", "smoke",
             "--other", "{typo}"],
            ["resume", "--store", "{typo}", "--campaign", "smoke"],
        ],
        ids=["status", "status-json", "query", "diff-other", "resume"],
    )
    def test_missing_store_is_refused_not_created(
        self, reference, tmp_path, argv, cli_refused
    ):
        """Reading a mistyped store path must not create an empty
        store there and report on it."""
        typo = str(tmp_path / "typo.sqlite")
        argv = [arg.format(typo=typo, ref=reference[0]) for arg in argv]
        cli_refused(["campaign", *argv], typo)
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize(
        "grid,empty_mndp",
        [
            ({"n_compromised": [5, 10]}, False),
            # share_count = n_nodes: every node holds every code, so
            # with q = 0 every pair discovers directly and no run has
            # a failure for M-NDP to recover.
            ({"n_compromised": [0], "share_count": [120]}, True),
        ],
        ids=["smoke", "no-dndp-failures"],
    )
    def test_query_prints_every_figure_column(
        self, tmp_path, capsys, grid, empty_mndp
    ):
        """The Theorem 2/4 latency columns are the closed forms at
        each point's config; an empty P_M series prints ``nan`` as its
        value and its half-width instead of failing."""
        from repro.analysis.combined import combined_latency
        from repro.analysis.dndp_theory import dndp_expected_latency
        from repro.analysis.mndp_theory import mndp_expected_latency
        from repro.campaigns import query_rows
        from repro.cli import main

        spec = CampaignSpec(
            name="columns", seed=2011, runs_per_point=2, base="tiny",
            grid=grid,
        )
        path = str(tmp_path / "columns.sqlite")
        run_campaign(spec, path, processes=1, git_revision=REV)
        with CampaignStore(path) as store:
            rows = query_rows(spec, store.point_results(
                spec.name, spec.spec_hash(), REV
            ))
        capsys.readouterr()
        assert main([
            "campaign", "query", "--store", path, "--campaign", "columns",
        ]) == 0
        lines = capsys.readouterr().out.splitlines()
        header = lines[1].split()
        printed = [dict(zip(header, line.split())) for line in lines[3:]]
        assert len(printed) == len(rows) == len(spec.points())
        for point, row, cells in zip(spec.points(), rows, printed):
            config = spec.point_config(point)
            closed = {
                "dndp_expected_latency": dndp_expected_latency(config),
                "mndp_expected_latency": mndp_expected_latency(config),
                "combined_latency": combined_latency(config),
            }
            for column, value in closed.items():
                assert row[column] == value
                assert cells[column] == f"{value:.4f}"
            for kind in ("dndp", "jrsnd"):
                assert row[f"p_{kind}_ci"] >= 0.0
            if empty_mndp:
                assert row["p_dndp"] == 1.0
                assert cells["p_mndp"] == "nan"
                assert cells["p_mndp_ci"] == "nan"
            else:
                assert row["p_mndp_ci"] >= 0.0

    def test_diff_across_stores(self, reference, tmp_path, capsys):
        from repro.cli import main

        path, _, _ = reference
        other = str(tmp_path / "other.sqlite")
        status = run_campaign(
            tiny_spec(), other, git_revision="otherrev"
        )
        assert status.complete
        capsys.readouterr()
        assert main([
            "campaign", "diff", "--store", path, "--campaign", "smoke",
            "--against", "otherrev", "--other", other,
        ]) == 0
        out = capsys.readouterr().out
        # Same spec, same seeds: every delta is exactly zero.
        assert "d_jrsnd" in out
        assert "0.0000" in out

    def test_resume_reuses_stored_spec(self, tmp_path, reference,
                                       capsys):
        from repro.cli import main

        _, expected, _ = reference
        path = str(tmp_path / "partial.sqlite")
        run_campaign(
            tiny_spec(), path, max_shards=1, git_revision=REV
        )
        capsys.readouterr()
        assert main([
            "campaign", "resume", "--store", path,
            "--campaign", "smoke", "--revision", REV,
        ]) == 0
        with open(path, "rb") as handle:
            assert handle.read() == expected


def crn_spec():
    """Eight points over q, nu and the link model, with two-run shards
    and a short last block: consecutive shards share run indices."""
    return CampaignSpec(
        name="crn",
        seed=2011,
        runs_per_point=3,
        runs_per_shard=2,
        base="tiny",
        grid={
            "n_compromised": [5, 10],
            "nu": [1, 8],
            "link_model": ["codes", "independent"],
        },
    )


class TestCommonRandomNumbers:
    """Every point runs on the campaign seed, and pool workers reuse
    field snapshots across the shards that share run indices."""

    @pytest.fixture(scope="class")
    def stores(self, tmp_path_factory):
        """The crn campaign at --processes 1 (in-process) and 2."""
        paths = {}
        for processes in (1, 2):
            path = str(
                tmp_path_factory.mktemp("crn") / f"p{processes}.sqlite"
            )
            status = run_campaign(
                crn_spec(), path, processes=processes, git_revision=REV
            )
            assert status.complete
            paths[processes] = path
        return paths

    def test_point_equals_experiment_on_campaign_seed(self, stores):
        spec = crn_spec()
        with CampaignStore(stores[2]) as store:
            points = store.point_results(spec.name, spec.spec_hash(), REV)
        for point in spec.points():
            expected = NetworkExperiment(
                spec.point_config(point),
                seed=spec.seed,
                strategy=spec.point_strategy(point),
                mndp_rounds=spec.mndp_rounds,
                link_model=spec.point_link_model(point),
                phy_backend=spec.phy_backend,
            ).run(spec.runs_per_point)
            assert points[point.index][1].runs == expected.runs
        # Paired, not identical: the points share topologies and differ
        # in outcomes.
        runs = [result.runs[0] for _, result in points.values()]
        assert len({run.n_pairs for run in runs}) == 1
        assert len({run.dndp_successes for run in runs}) > 1

    def test_shard_metrics_bytes_equal_across_engines(self, stores):
        def shard_metrics(path):
            conn = sqlite3.connect(path)
            try:
                return conn.execute(
                    "SELECT shard_index, metrics_json FROM shards "
                    "ORDER BY shard_index"
                ).fetchall()
            finally:
                conn.close()

        inline, pooled = shard_metrics(stores[1]), shard_metrics(stores[2])
        assert len(inline) == len(crn_spec().shards()) == 16
        assert all(text for _, text in inline)
        assert inline == pooled
        with open(stores[1], "rb") as a, open(stores[2], "rb") as b:
            assert a.read() == b.read()

    def test_store_from_before_common_random_numbers_is_refused(
        self, tmp_path
    ):
        """A store written while every point had its own seed holds a
        spec JSON without ``sampling``; resuming it must not extend it
        with shards drawn the new way."""
        import hashlib
        import json

        spec = tiny_spec()
        path = tmp_path / "old.sqlite"
        run_campaign(spec, str(path), max_shards=2, git_revision=REV)
        old = spec.to_dict()
        del old["sampling"]
        old_json = json.dumps(old, sort_keys=True, separators=(",", ":"))
        old_hash = hashlib.sha256(old_json.encode("utf-8")).hexdigest()[:16]
        assert old_hash != spec.spec_hash()
        conn = sqlite3.connect(path)
        with conn:
            conn.execute(
                "UPDATE campaigns SET spec_json = ?, spec_hash = ?",
                (old_json, old_hash),
            )
            for table in ("shards", "runs"):
                conn.execute(f"UPDATE {table} SET spec_hash = ?", (old_hash,))
        conn.close()
        before = path.read_bytes()
        with pytest.raises(ConfigurationError, match="refusing to mix"):
            run_campaign(spec, str(path), git_revision=REV)
        assert path.read_bytes() == before


NU_SMOKE_SPEC = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    os.pardir,
    os.pardir,
    "examples",
    "campaign_smoke_nu.json",
)


BLOCK_SMOKE_SPEC = os.path.join(
    os.path.dirname(NU_SMOKE_SPEC), "campaign_smoke_block.json"
)


def _fresh_points(spec):
    """Each point's fresh ``run_once`` results, by point index."""
    fresh = {}
    for point in spec.points():
        experiment = NetworkExperiment(
            spec.point_config(point),
            seed=spec.seed,
            strategy=spec.point_strategy(point),
            mndp_rounds=spec.mndp_rounds,
            link_model=spec.point_link_model(point),
            phy_backend=spec.phy_backend,
        )
        fresh[point.index] = tuple(
            experiment.run_once(index)
            for index in range(spec.runs_per_point)
        )
    return fresh


def _stored_points(spec, path):
    with CampaignStore(path) as store:
        points = store.point_results(spec.name, spec.spec_hash(), REV)
    return {index: result.runs for index, (_, result) in points.items()}


def _launch_at_both_engines(spec, root):
    paths = {}
    for processes in (1, 2):
        path = str(root / f"p{processes}.sqlite")
        status = run_campaign(
            spec, path, processes=processes, git_revision=REV
        )
        assert status.complete
        paths[processes] = path
    return paths


class TestNuSmokeSpec:
    """``examples/campaign_smoke_nu.json`` (the CI ``campaign-smoke``
    job launches it at ``--processes 2`` and ``1`` and ``cmp``s the
    stores): its nu axis is not monotone, so a pool worker serves each
    (run, q, link model) cell's nu points from one held snapshot,
    resuming the closure upward and thresholding it downward."""

    @pytest.fixture(scope="class")
    def stores(self, tmp_path_factory):
        spec = CampaignSpec.from_file(NU_SMOKE_SPEC)
        return spec, _launch_at_both_engines(
            spec, tmp_path_factory.mktemp("nu")
        )

    def test_every_point_equals_fresh_run_once_rows(self, stores):
        spec, paths = stores
        assert [point.params_dict["nu"] for point in spec.points()] == [
            3, 1, 2, 3, 1, 2,
        ]
        fresh = _fresh_points(spec)
        for path in paths.values():
            assert _stored_points(spec, path) == fresh
        # Non-vacuous: the nu points of a cell recover different counts.
        assert len({runs[0].mndp_successes for runs in fresh.values()}) > 3

    def test_stores_are_byte_identical_across_engines(self, stores):
        _, paths = stores
        with open(paths[1], "rb") as a, open(paths[2], "rb") as b:
            assert a.read() == b.read()


class TestBlockSmokeSpec:
    """``examples/campaign_smoke_block.json`` (the CI ``campaign-smoke``
    job launches it at ``--processes 2`` and ``1`` and ``cmp``s the
    stores): one shard per point, so after the lone first shard every
    point is one block job, and its ``share_count`` axis sorts after
    ``nu``, so the job reorders its points to share each snapshot."""

    @pytest.fixture(scope="class")
    def stores(self, tmp_path_factory):
        spec = CampaignSpec.from_file(BLOCK_SMOKE_SPEC)
        return spec, _launch_at_both_engines(
            spec, tmp_path_factory.mktemp("block")
        )

    def test_every_point_equals_fresh_run_once_rows(self, stores):
        spec, paths = stores
        assert spec.runs_per_shard is None
        assert [
            (point.params_dict["nu"], point.params_dict["share_count"])
            for point in spec.points()[:3]
        ] == [(3, 10), (3, 6), (1, 10)]
        fresh = _fresh_points(spec)
        for path in paths.values():
            assert _stored_points(spec, path) == fresh
        # Non-vacuous: the share counts and nu points disagree.
        assert len({runs for runs in fresh.values()}) == len(fresh)

    def test_stores_are_byte_identical_across_engines(self, stores):
        _, paths = stores
        with open(paths[1], "rb") as a, open(paths[2], "rb") as b:
            assert a.read() == b.read()

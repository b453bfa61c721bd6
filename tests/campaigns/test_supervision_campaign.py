"""Campaign-level supervision: chaos, quarantine, degradation, damage.

Everything here drives ``run_campaign`` under the seeded
execution-plane injectors (:mod:`repro.faults.execution`) and pins the
headline robustness guarantee: supervision may change *how long* a
campaign takes, never *what bytes* it produces.  Every recovery
scenario ends with a byte comparison against the module's
uninterrupted reference store; a damaged store is not recovered but
refused, and its bytes are compared with themselves.
"""

import sqlite3

import pytest

from repro.campaigns import CampaignSpec, CampaignStore, run_campaign
from repro.campaigns.store import QUARANTINE_KIND
from repro.errors import ConfigurationError, is_quarantined_failure
from repro.experiments.pool import SupervisionPolicy
from repro.faults import WorkerKiller
from repro.obs import installed
from repro.obs import names as _names
from repro.obs.registry import MetricsRegistry

REV = "testrev"

FAST = SupervisionPolicy(close_grace=5.0)


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


class TestChaosCompletes:
    """Worker kills inside the retry budget are invisible in the store."""

    def test_pooled_campaign_survives_worker_kills(
        self, tmp_path, reference
    ):
        _, expected, ref_status = reference
        path = str(tmp_path / "chaos.sqlite")
        status = run_campaign(
            tiny_spec(), path, processes=2, git_revision=REV,
            supervision=FAST,
            execution_faults=WorkerKiller(kills={1: 1, 3: 2}),
        )
        assert status.complete
        assert status.runs_quarantined == 0
        assert status.degraded == ()
        assert status.canonical_digest == ref_status.canonical_digest
        with open(path, "rb") as handle:
            assert handle.read() == expected

    def test_in_process_campaign_skips_faults(
        self, tmp_path, reference
    ):
        """With one worker the campaign runs in-process, where a
        ``WorkerKiller`` would SIGKILL this test process: the fault
        hook is never called and the store is the reference bytes."""
        _, expected, _ = reference
        path = str(tmp_path / "chaos-in-process.sqlite")
        status = run_campaign(
            tiny_spec(), path, processes=1, git_revision=REV,
            supervision=FAST,
            execution_faults=WorkerKiller(kills={0: 1, 2: 1}),
        )
        assert status.complete
        assert status.runs_quarantined == 0
        assert status.degraded == ()
        with open(path, "rb") as handle:
            assert handle.read() == expected


class TestQuarantine:
    POLICY = SupervisionPolicy(
        max_run_retries=1, close_grace=5.0
    )
    # Run 3 exists in both points, so the shards covering runs 2..3
    # of each point (indices 2 and 3: shards iterate points inside
    # each run block) both quarantine one run.
    POISON = WorkerKiller(kills={3: 99})

    def test_poison_run_quarantines_shard_not_campaign(self, tmp_path):
        path = str(tmp_path / "poison.sqlite")
        status = run_campaign(
            tiny_spec(), path, processes=2, git_revision=REV,
            supervision=self.POLICY, execution_faults=self.POISON,
        )
        assert not status.complete
        assert status.runs_quarantined == 2
        assert status.shards_quarantined == 2
        spec = tiny_spec()
        with CampaignStore(path) as store:
            done = store.completed_shards(
                spec.name, spec.spec_hash(), REV
            )
            records = store.failure_records(
                spec.name, spec.spec_hash(), REV,
                kind=QUARANTINE_KIND,
            )
        assert done == frozenset({0, 1})
        assert [
            (record["shard_index"], record["run_index"])
            for record in records
        ] == [(2, 3), (3, 3)]
        assert all(
            is_quarantined_failure(record["detail"])
            and record["attempts"] == 2
            for record in records
        )

    def test_resume_skips_then_retry_quarantined_completes(
        self, tmp_path, reference
    ):
        _, expected, ref_status = reference
        path = str(tmp_path / "poison.sqlite")
        run_campaign(
            tiny_spec(), path, processes=2, git_revision=REV,
            supervision=self.POLICY, execution_faults=self.POISON,
        )
        # Plain resume must not re-execute known-poison shards.
        lines = []
        plain = run_campaign(
            tiny_spec(), path, processes=2, git_revision=REV,
            progress=lines.append,
        )
        assert not plain.complete
        assert plain.shards_executed == 0
        assert plain.runs_quarantined == 2
        assert any("retry-quarantined" in line for line in lines)
        # --retry-quarantined clears the records and re-executes; with
        # the fault gone the campaign finishes bit-identically.
        retried = run_campaign(
            tiny_spec(), path, processes=2, git_revision=REV,
            retry_quarantined=True,
        )
        assert retried.complete
        assert retried.runs_quarantined == 0
        assert retried.canonical_digest == ref_status.canonical_digest
        with open(path, "rb") as handle:
            assert handle.read() == expected


class TestDegradationLadder:
    def test_pool_failure_degrades_to_serial_and_completes(
        self, tmp_path, reference
    ):
        """With a zero respawn budget every worker death is an
        infrastructure failure: the executor steps down its one rung,
        multiprocess pool → in-process (serial) execution, loudly, and
        still produces the reference bytes (degradation events are
        telemetry, not content)."""
        _, expected, ref_status = reference
        path = str(tmp_path / "degraded.sqlite")
        lines = []
        registry = MetricsRegistry()
        with installed(registry):
            status = run_campaign(
                tiny_spec(), path, processes=2, git_revision=REV,
                supervision=SupervisionPolicy(
                    max_respawns=0, close_grace=5.0
                ),
                execution_faults=WorkerKiller(kills={0: 1}),
                progress=lines.append,
            )
        assert status.complete
        assert len(status.degraded) == 1
        assert [
            line for line in lines if "degrading to" in line
        ] == ["!! " + status.degraded[0]]
        assert "degrading to 'in-process'" in status.degraded[0]
        assert registry.snapshot().counters[_names.POOL_DEGRADED] == 1
        assert status.canonical_digest == ref_status.canonical_digest
        with open(path, "rb") as handle:
            assert handle.read() == expected


    def test_break_on_second_in_flight_shard_degrades_once(
        self, tmp_path, reference
    ):
        """Run 2 lives in shards 2 and 3 (the second run block),
        submitted beside shard 0: its death breaks the pool with later
        shards in flight.  Every uncommitted shard re-runs in-process,
        with one degradation event and the reference bytes."""
        _, expected, ref_status = reference
        path = str(tmp_path / "degraded-second.sqlite")
        registry = MetricsRegistry()
        with installed(registry):
            status = run_campaign(
                tiny_spec(), path, processes=2, git_revision=REV,
                supervision=SupervisionPolicy(
                    max_respawns=0, close_grace=5.0
                ),
                execution_faults=WorkerKiller(kills={2: 1}),
            )
        assert status.complete
        assert len(status.degraded) == 1
        assert registry.snapshot().counters[_names.POOL_DEGRADED] == 1
        assert status.canonical_digest == ref_status.canonical_digest
        with open(path, "rb") as handle:
            assert handle.read() == expected


def _torn(path):
    """Two committed shards, then one run row of shard 1 deleted."""
    run_campaign(tiny_spec(), str(path), max_shards=2, git_revision=REV)
    conn = sqlite3.connect(path)
    conn.execute(
        "DELETE FROM runs WHERE shard_index = 1 AND run_index = 1"
    )
    conn.commit()
    conn.close()


def _corrupt(path):
    """Two committed shards, then every page past the header
    overwritten with garbage."""
    run_campaign(tiny_spec(), str(path), max_shards=2, git_revision=REV)
    with open(path, "r+b") as handle:
        remaining = handle.seek(0, 2) - 4096
        handle.seek(4096)
        handle.write(b"\xa5" * remaining)


class TestSalvage:
    """A damaged store is refused with a typed error, never salvaged:
    the open names the file and the finding and leaves its bytes as
    they were."""

    @staticmethod
    def _assert_resume_refused(path, finding):
        before = path.read_bytes()
        with pytest.raises(ConfigurationError) as excinfo:
            run_campaign(tiny_spec(), str(path), git_revision=REV)
        message = str(excinfo.value)
        assert f"campaign store {path} failed verification" in message
        assert finding in message and "seed-pure" in message
        assert path.read_bytes() == before

    def test_torn_store_is_refused_unchanged(self, tmp_path):
        """One run row lost from a committed shard (logical tear)."""
        _torn(tmp_path / "torn.sqlite")
        self._assert_resume_refused(tmp_path / "torn.sqlite", "torn commit")

    def test_corrupt_store_is_refused_unchanged(self, tmp_path):
        """Garbage over every page past the header (physical damage)."""
        _corrupt(tmp_path / "corrupt.sqlite")
        self._assert_resume_refused(tmp_path / "corrupt.sqlite", "malformed")

    def test_cli_query_leaves_torn_store_unchanged(
        self, tmp_path, cli_refused
    ):
        path = tmp_path / "torn.sqlite"
        _torn(path)
        before = path.read_bytes()
        cli_refused(["campaign", "query", "--store", str(path),
                     "--campaign", "smoke"], "torn commit")
        assert path.read_bytes() == before

    def test_unsupported_schema_version_is_refused_not_salvaged(
        self, tmp_path
    ):
        path = str(tmp_path / "future.sqlite")
        with CampaignStore(path):
            pass
        conn = sqlite3.connect(path)
        conn.execute("PRAGMA user_version = 99")
        conn.commit()
        conn.close()
        with pytest.raises(ConfigurationError, match="schema"):
            CampaignStore(path)


class TestCli:
    def test_chaos_within_budget_completes_clean(
        self, tmp_path, reference, capsys
    ):
        """The CI chaos scenario: every run kills its worker once,
        which is inside the default retry budget, so the campaign
        finishes with zero quarantined runs and reference bytes."""
        from repro.cli import main

        _, expected, _ = reference
        path = str(tmp_path / "chaos-cli.sqlite")
        spec_path = str(tmp_path / "spec.json")
        with open(spec_path, "w") as handle:
            handle.write(tiny_spec().to_json())
        rc = main([
            "campaign", "launch", "--spec", spec_path,
            "--store", path, "--revision", REV, "--processes", "2",
            "--chaos-kill-rate", "1.0", "--chaos-max-kills", "1",
        ])
        capsys.readouterr()
        assert rc == 0
        with open(path, "rb") as handle:
            assert handle.read() == expected
        assert main([
            "campaign", "status", "--store", path, "--json",
        ]) == 0

    def test_status_json_reports_quarantine_with_exit_3(
        self, tmp_path, reference, capsys
    ):
        import json

        from repro.cli import main

        _, expected, _ = reference
        path = str(tmp_path / "poison-cli.sqlite")
        run_campaign(
            tiny_spec(), path, processes=2, git_revision=REV,
            supervision=TestQuarantine.POLICY,
            execution_faults=TestQuarantine.POISON,
        )
        assert main([
            "campaign", "status", "--store", path, "--json",
        ]) == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["runs_quarantined"] == 2
        (campaign,) = payload["campaigns"]
        assert campaign["shards_done"] == 2
        assert campaign["shards_pending"] == 2
        assert campaign["shards_quarantined"] == 2
        assert [
            (entry["shard_index"], entry["run_index"])
            for entry in campaign["quarantined_runs"]
        ] == [(2, 3), (3, 3)]
        # Plain (non-JSON) status surfaces the same exit code.
        assert main([
            "campaign", "status", "--store", path,
        ]) == 3
        capsys.readouterr()
        # The resume CLI with --retry-quarantined finishes the job.
        assert main([
            "campaign", "resume", "--store", path,
            "--campaign", "smoke", "--revision", REV,
            "--processes", "2", "--retry-quarantined",
        ]) == 0
        capsys.readouterr()
        with open(path, "rb") as handle:
            assert handle.read() == expected

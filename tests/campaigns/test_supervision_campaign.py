"""Campaign failure and resume: a dead worker stops the launch, resume
finishes it.

Resume is the only recovery.  A pool worker that dies mid-campaign
fails the launch with ``WorkerPoolError`` naming the run indices it
held; the shards committed before it stay committed, and resuming
gives the bytes of an uninterrupted in-process run.  A damaged store
is not recovered but refused, and its bytes are compared with
themselves.
"""

import functools
import os
import signal
import sqlite3

import pytest

from repro.campaigns import CampaignSpec, CampaignStore, run_campaign
from repro.campaigns import executor
from repro.errors import ConfigurationError, WorkerPoolError
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


def long_spec():
    """``tiny_spec`` over four 2-run blocks: five jobs at two workers,
    so jobs are still to be submitted after the first commit."""
    return CampaignSpec.from_dict(
        dict(tiny_spec().to_dict(), runs_per_point=8)
    )


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """``long_spec``'s uninterrupted in-process canonical store bytes."""
    path = str(tmp_path_factory.mktemp("ref") / "ref.sqlite")
    status = run_campaign(long_spec(), path, processes=1, git_revision=REV)
    assert status.complete
    with open(path, "rb") as handle:
        return handle.read()


def _committed(path):
    spec = long_spec()
    with CampaignStore(path) as store:
        return store.completed_shards(spec.name, spec.spec_hash(), REV)


class TestWorkerDeath:
    def test_worker_killed_after_first_commit_then_resume(
        self, tmp_path, monkeypatch, reference
    ):
        """SIGKILL one pool worker from the progress sink right after
        the first commit.  The jobs still to be submitted reach the
        dead worker, so the launch fails naming the chunk it held;
        the committed prefix stays, and resume gives the in-process
        bytes."""
        pools = []

        class RecordingPool(executor.WorkerPool):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                pools.append(self)

        monkeypatch.setattr(executor, "WorkerPool", RecordingPool)
        killed = []

        def progress(line):
            if " committed " in line and not killed:
                (pool,) = pools
                victim = pool._processes[0].pid
                os.kill(victim, signal.SIGKILL)
                killed.append(victim)

        path = str(tmp_path / "killed.sqlite")
        with pytest.raises(
            WorkerPoolError, match=r"run indices \[\d+(, \d+)*\]"
        ):
            run_campaign(
                long_spec(), path, processes=2, git_revision=REV,
                progress=progress,
            )
        assert killed
        done = _committed(path)
        assert 0 in done and done == frozenset(range(len(done)))
        assert len(done) < len(long_spec().shards())
        monkeypatch.undo()
        resumed = run_campaign(
            long_spec(), path, processes=2, git_revision=REV
        )
        assert resumed.complete
        assert resumed.shards_skipped == len(done)
        with open(path, "rb") as handle:
            assert handle.read() == reference


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
    def test_worker_death_exits_3_naming_the_resume_command(
        self, tmp_path, monkeypatch, capsys, reference
    ):
        """Run 5 SIGKILLs its worker: ``launch`` prints one ``error:``
        line naming the run and the resume command and exits
        ``EXIT_WORKER_POOL_ERROR``; that command finishes the store
        with the in-process bytes."""
        from repro.cli import EXIT_WORKER_POOL_ERROR, main

        path = str(tmp_path / "cli.sqlite")
        spec_path = str(tmp_path / "spec.json")
        with open(spec_path, "w") as handle:
            handle.write(long_spec().to_json())
        monkeypatch.setattr(
            executor, "NetworkExperiment",
            functools.partial(HoldRun, hold_run=5, kill=True),
        )
        capsys.readouterr()
        assert main([
            "campaign", "launch", "--spec", spec_path,
            "--store", path, "--revision", REV, "--processes", "2",
        ]) == EXIT_WORKER_POOL_ERROR == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "died holding run indices [5]" in err
        assert "committed shards are kept" in err
        resume = (
            f"python -m repro campaign resume --store {path} "
            f"--campaign smoke --revision {REV}"
        )
        assert resume in err
        monkeypatch.undo()
        assert main(
            resume.split()[3:] + ["--processes", "2"]
        ) == 0
        capsys.readouterr()
        with open(path, "rb") as handle:
            assert handle.read() == reference

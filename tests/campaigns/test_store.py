"""Tests for the SQLite campaign results store."""

import hashlib
import json
import sqlite3

import pytest

from repro.campaigns import CampaignSpec, CampaignStore
from repro.errors import ConfigurationError
from repro.experiments.runner import RunResult
from repro.obs import MetricsRegistry

REV = "deadbeef"


def tiny_spec(**overrides):
    kwargs = dict(
        name="smoke",
        seed=2011,
        runs_per_point=4,
        runs_per_shard=2,
        base="tiny",
        grid={"n_compromised": [5, 10]},
    )
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


def fake_results(shard):
    return [
        RunResult(
            n_pairs=10,
            dndp_successes=5 + run_index,
            mndp_successes=7,
            mean_degree=12.5,
            mean_dndp_latency=2.0 + run_index,
        )
        for run_index in shard.run_indices
    ]


def populate(store, spec, revision=REV):
    store.register_campaign(spec, revision)
    for shard in spec.shards():
        store.write_shard(
            spec, revision, shard, fake_results(shard), None
        )


class TestLifecycle:
    def test_register_is_idempotent(self, tmp_path):
        spec = tiny_spec()
        with CampaignStore(str(tmp_path / "s.sqlite")) as store:
            store.register_campaign(spec, REV)
            store.register_campaign(spec, REV)
            status = store.campaign_status(
                spec.name, spec.spec_hash(), REV
            )
            assert status == "running"

    def test_refuses_spec_hash_mixing(self, tmp_path):
        with CampaignStore(str(tmp_path / "s.sqlite")) as store:
            store.register_campaign(tiny_spec(), REV)
            with pytest.raises(ConfigurationError, match="refusing"):
                store.register_campaign(tiny_spec(seed=7), REV)

    def test_unopenable_path_is_a_typed_error(self, tmp_path):
        path = str(tmp_path / "nodir" / "x.sqlite")
        with pytest.raises(
            ConfigurationError, match=f"cannot open campaign store {path}"
        ):
            CampaignStore(path)
        with pytest.raises(ConfigurationError, match="cannot open"):
            CampaignStore(str(tmp_path))  # a directory
        for fileless in ("", ":memory:"):
            with pytest.raises(ConfigurationError, match="name a file"):
                CampaignStore(fileless)

    def test_schema_version_mismatch_is_rejected(self, tmp_path):
        import sqlite3

        path = str(tmp_path / "s.sqlite")
        with CampaignStore(path):
            pass
        conn = sqlite3.connect(path)
        conn.execute("PRAGMA user_version = 99")
        conn.commit()
        conn.close()
        with pytest.raises(ConfigurationError, match="schema"):
            CampaignStore(path)


class TestShards:
    def test_write_and_completed_round_trip(self, tmp_path):
        spec = tiny_spec()
        with CampaignStore(str(tmp_path / "s.sqlite")) as store:
            populate(store, spec)
            done = store.completed_shards(
                spec.name, spec.spec_hash(), REV
            )
            assert done == frozenset(range(4))

    def test_wrong_result_count_is_rejected(self, tmp_path):
        spec = tiny_spec()
        shard = spec.shards()[0]
        with CampaignStore(str(tmp_path / "s.sqlite")) as store:
            store.register_campaign(spec, REV)
            with pytest.raises(ConfigurationError, match="expected"):
                store.write_shard(
                    spec, REV, shard, fake_results(shard)[:1], None
                )

    def test_point_results_rebuild_experiment_result(self, tmp_path):
        spec = tiny_spec()
        with CampaignStore(str(tmp_path / "s.sqlite")) as store:
            populate(store, spec)
            results = store.point_results(
                spec.name, spec.spec_hash(), REV
            )
        assert sorted(results) == [0, 1]
        params, result = results[0]
        assert params["n_compromised"] == 5
        assert len(result.runs) == 4
        # run order is run-index order: dndp = 5, 6, 7, 8
        assert [r.dndp_successes for r in result.runs] == [5, 6, 7, 8]
        assert result.discovery_probability("dndp") == pytest.approx(
            (5 + 6 + 7 + 8) / 40
        )

    def test_metrics_snapshot_round_trip(self, tmp_path):
        """A shard's merged snapshot survives persistence with timers
        stripped (the deterministic subset) and counters intact."""
        spec = tiny_spec()
        shard = spec.shards()[0]
        registry = MetricsRegistry()
        registry.inc("experiment.runs", 2)
        registry.observe("net.degree", 12.5)
        with registry.timer("experiment.run_seconds"):
            pass
        snapshot = registry.snapshot()
        assert snapshot.timers
        with CampaignStore(str(tmp_path / "s.sqlite")) as store:
            store.register_campaign(spec, REV)
            store.write_shard(
                spec, REV, shard, fake_results(shard), snapshot
            )
            stored = store.shard_metrics(
                spec.name, spec.spec_hash(), REV
            )
        assert set(stored) == {shard.index}
        restored = stored[shard.index]
        assert restored.counters["experiment.runs"] == 2
        assert not restored.timers
        deterministic = snapshot.deterministic()
        assert restored.counters == deterministic.counters
        assert restored.histograms == deterministic.histograms


class TestCanonicalForm:
    def test_export_is_byte_deterministic(self, tmp_path):
        """Two stores with the same content but different insertion
        histories export to identical bytes."""
        spec = tiny_spec()
        forward = str(tmp_path / "fwd.sqlite")
        backward = str(tmp_path / "bwd.sqlite")
        with CampaignStore(forward) as store:
            populate(store, spec)
        with CampaignStore(backward) as store:
            store.register_campaign(spec, REV)
            for shard in reversed(spec.shards()):
                store.write_shard(
                    spec, REV, shard, fake_results(shard), None
                )
        exports = []
        for path in (forward, backward):
            out = path + ".canonical"
            with CampaignStore(path) as store:
                store.export_canonical(out)
            with open(out, "rb") as handle:
                exports.append(handle.read())
        assert exports[0] == exports[1]

    def test_digest_ignores_insertion_order(self, tmp_path):
        spec = tiny_spec()
        digests = []
        for name, order in (("a", False), ("b", True)):
            with CampaignStore(str(tmp_path / f"{name}.sqlite")) as store:
                store.register_campaign(spec, REV)
                shards = spec.shards()
                if order:
                    shards = list(reversed(shards))
                for shard in shards:
                    store.write_shard(
                        spec, REV, shard, fake_results(shard), None
                    )
                digests.append(store.canonical_digest())
        assert digests[0] == digests[1]

    def test_mark_complete_only_in_export(self, tmp_path):
        spec = tiny_spec()
        path = str(tmp_path / "s.sqlite")
        out = str(tmp_path / "out.sqlite")
        key = (spec.name, spec.spec_hash(), REV)
        with CampaignStore(path) as store:
            populate(store, spec)
            store.export_canonical(out, mark_complete=key)
            assert store.campaign_status(*key) == "running"
        with CampaignStore(out) as store:
            assert store.campaign_status(*key) == "complete"

    def test_spec_for_round_trip(self, tmp_path):
        spec = tiny_spec()
        with CampaignStore(str(tmp_path / "s.sqlite")) as store:
            populate(store, spec)
            stored, revision = store.spec_for("smoke")
        assert revision == REV
        assert stored.spec_hash() == spec.spec_hash()

    def test_spec_for_unknown_campaign_raises(self, tmp_path):
        with CampaignStore(str(tmp_path / "s.sqlite")) as store:
            with pytest.raises(ConfigurationError, match="not found"):
                store.spec_for("ghost")


def make_legacy(path, spec, revision=REV):
    """Rewrite a populated store as it was written while campaign specs
    still carried ``pool_cache_size`` and ``pool_chunksize``; returns
    the legacy spec hash its rows are keyed under."""
    data = spec.to_dict()
    data.update(pool_cache_size=8, pool_chunksize=None)
    legacy_json = json.dumps(data, sort_keys=True, separators=(",", ":"))
    legacy_hash = hashlib.sha256(legacy_json.encode("utf-8")).hexdigest()[:16]
    conn = sqlite3.connect(path)
    with conn:
        conn.execute(
            "UPDATE campaigns SET spec_json = ?, spec_hash = ? "
            "WHERE git_revision = ?",
            (legacy_json, legacy_hash, revision),
        )
        for table in ("shards", "runs"):
            conn.execute(
                f"UPDATE {table} SET spec_hash = ? WHERE git_revision = ?",
                (legacy_hash, revision),
            )
    conn.close()
    return legacy_hash


class TestLegacySpecs:
    """Stores written before two pool knobs left the spec still read."""

    def test_list_campaigns_and_spec_for(self, tmp_path):
        spec = tiny_spec()
        path = str(tmp_path / "old.sqlite")
        with CampaignStore(path) as store:
            populate(store, spec)
        legacy_hash = make_legacy(path, spec)
        assert legacy_hash != spec.spec_hash()
        with CampaignStore(path) as store:
            [row] = store.list_campaigns()
            stored, revision = store.spec_for("smoke")
        assert row["spec"] == spec and stored == spec
        assert row["spec_hash"] == legacy_hash
        assert row["shards_done"] == row["shards_total"] == 4
        assert revision == REV

    def test_cli_status_query_diff(self, tmp_path, capsys):
        from repro.cli import main

        spec = tiny_spec()
        path = str(tmp_path / "old.sqlite")
        with CampaignStore(path) as store:
            populate(store, spec)
            populate(store, spec, revision="newrev")
        make_legacy(path, spec)
        assert main(["campaign", "status", "--store", path]) == 0
        assert main([
            "campaign", "query", "--store", path,
            "--campaign", "smoke", "--revision", REV,
        ]) == 0
        assert "p_dndp" in capsys.readouterr().out
        # The legacy revision diffs against a current one point by point.
        assert main([
            "campaign", "diff", "--store", path, "--campaign", "smoke",
            "--revision", REV, "--against", "newrev",
        ]) == 0
        out = capsys.readouterr().out
        assert "d_jrsnd" in out and "only on one side" not in out


def change_counter(path):
    """SQLite's file change counter: one per write transaction."""
    with open(path, "rb") as handle:
        return int.from_bytes(handle.read(28)[24:28], "big")


class TestSchemaBootstrap:
    def test_new_store_is_one_write_transaction(self, tmp_path):
        path = str(tmp_path / "s.sqlite")
        with CampaignStore(path):
            pass
        assert change_counter(path) == 1
        conn = sqlite3.connect(path)
        try:
            (version,) = conn.execute("PRAGMA user_version").fetchone()
            tables = {
                name for (name,) in conn.execute(
                    "SELECT name FROM sqlite_master WHERE type = 'table'"
                )
            }
        finally:
            conn.close()
        assert version == 3
        assert tables == {"campaigns", "shards", "runs"}
        # Reopening a current store writes nothing.
        with CampaignStore(path):
            pass
        assert change_counter(path) == 1

    def test_v1_store_migrates_in_one_transaction(self, tmp_path):
        """A v1 store (the v3 tables) gains the v3 stamp in one write,
        and keeps its rows."""
        spec = tiny_spec()
        path = str(tmp_path / "v1.sqlite")
        with CampaignStore(path) as store:
            populate(store, spec)
        conn = sqlite3.connect(path)
        conn.execute("PRAGMA user_version = 1")
        conn.commit()
        conn.close()
        before = change_counter(path)
        with CampaignStore(path) as store:
            done = store.completed_shards(spec.name, spec.spec_hash(), REV)
        assert done == frozenset(range(4))
        assert change_counter(path) == before + 1
        conn = sqlite3.connect(path)
        try:
            (version,) = conn.execute("PRAGMA user_version").fetchone()
        finally:
            conn.close()
        assert version == 3


#: The ``failures`` table of schema v2, as stores of that version hold it.
V2_FAILURES = """
CREATE TABLE failures (
    campaign_id  TEXT NOT NULL,
    spec_hash    TEXT NOT NULL,
    git_revision TEXT NOT NULL,
    shard_index  INTEGER NOT NULL,
    run_index    INTEGER NOT NULL,
    kind         TEXT NOT NULL,
    attempts     INTEGER NOT NULL,
    detail       TEXT NOT NULL,
    PRIMARY KEY (campaign_id, spec_hash, git_revision, shard_index,
                 run_index, kind)
)
"""


def make_v2(path, spec, failures=()):
    """Rewrite a populated store as schema v2 wrote it: a ``failures``
    table holding ``failures`` rows, and a spec that still carries
    ``max_run_retries``.  Returns the spec hash its rows are keyed
    under."""
    data = spec.to_dict()
    data.update(max_run_retries=2)
    old_json = json.dumps(data, sort_keys=True, separators=(",", ":"))
    old_hash = hashlib.sha256(old_json.encode("utf-8")).hexdigest()[:16]
    conn = sqlite3.connect(path)
    with conn:
        conn.execute(
            "UPDATE campaigns SET spec_json = ?, spec_hash = ?",
            (old_json, old_hash),
        )
        for table in ("shards", "runs"):
            conn.execute(f"UPDATE {table} SET spec_hash = ?", (old_hash,))
        conn.execute(V2_FAILURES)
        conn.executemany(
            "INSERT INTO failures VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
            [
                (spec.name, old_hash, REV, shard, run, kind, 3, "detail")
                for shard, run, kind in failures
            ],
        )
    conn.execute("PRAGMA user_version = 2")
    conn.close()
    return old_hash


class TestSchemaV2:
    """Stores written while the spec carried ``max_run_retries`` and the
    store a ``failures`` table."""

    def test_store_with_failure_records_is_refused_unchanged(
        self, tmp_path, cli_refused
    ):
        path = tmp_path / "v2.sqlite"
        spec = tiny_spec()
        with CampaignStore(str(path)) as store:
            populate(store, spec)
        make_v2(str(path), spec, failures=[(2, 3, "quarantine")])
        before = path.read_bytes()
        with pytest.raises(ConfigurationError) as excinfo:
            CampaignStore(str(path))
        message = str(excinfo.value)
        assert str(path) in message and "1 failure record" in message
        cli_refused(
            ["campaign", "query", "--store", str(path),
             "--campaign", "smoke"],
            "schema v2",
        )
        assert path.read_bytes() == before

    def test_store_without_failure_records_opens_verifies_and_queries(
        self, tmp_path, capsys
    ):
        """An empty ``failures`` table is read as it is: the store
        opens and verifies without a write, lists and queries its
        campaign under the hash it was stored with, and ``status``
        reports it."""
        from repro.cli import main

        path = tmp_path / "v2.sqlite"
        spec = tiny_spec()
        with CampaignStore(str(path)) as store:
            populate(store, spec)
            expected = store.point_results(spec.name, spec.spec_hash(), REV)
        old_hash = make_v2(str(path), spec)
        assert old_hash != spec.spec_hash()
        before = path.read_bytes()
        with CampaignStore(str(path)) as store:
            [row] = store.list_campaigns()
            stored, revision = store.spec_for("smoke")
            assert store.point_results(spec.name, old_hash, REV) == expected
        assert row["spec"] == spec and stored == spec
        assert row["spec_hash"] == old_hash and revision == REV
        assert row["shards_done"] == row["shards_total"] == 4
        capsys.readouterr()
        assert main([
            "campaign", "query", "--store", str(path), "--campaign", "smoke",
        ]) == 0
        out = capsys.readouterr().out
        assert "p_dndp" in out and f"(spec {old_hash})" in out
        assert main(["campaign", "status", "--store", str(path)]) == 0
        assert "4/4" in capsys.readouterr().out
        assert path.read_bytes() == before


def per_shard_torn(conn):
    """The torn-shard findings as one ``COUNT(*)`` per shard finds
    them: the reference for the grouped scan."""
    torn = []
    for (campaign_id, spec_hash, revision, shard_index, run_start,
         run_stop) in conn.execute(
        "SELECT campaign_id, spec_hash, git_revision, "
        "shard_index, run_start, run_stop FROM shards"
    ).fetchall():
        (count,) = conn.execute(
            "SELECT COUNT(*) FROM runs WHERE campaign_id = ? "
            "AND spec_hash = ? AND git_revision = ? "
            "AND shard_index = ?",
            (campaign_id, spec_hash, revision, shard_index),
        ).fetchone()
        if count != run_stop - run_start:
            torn.append(f"shard {shard_index} of {campaign_id}@{revision}")
    return torn


class TestTornShards:
    def test_grouped_scan_equals_per_shard_counts(self, tmp_path):
        """Torn shards in two campaigns and two revisions, one shard
        with every run row gone: the findings, and their order, are the
        per-shard counts' own."""
        path = str(tmp_path / "torn.sqlite")
        other = tiny_spec(name="other", runs_per_shard=1)
        with CampaignStore(path) as store:
            populate(store, tiny_spec())
            populate(store, tiny_spec(), revision="newrev")
            populate(store, other)
        conn = sqlite3.connect(path)
        with conn:
            for campaign, revision, shard, run in (
                ("smoke", REV, 1, 1),
                ("smoke", "newrev", 3, 2),
                ("smoke", "newrev", 3, 3),
                ("other", REV, 6, 3),
            ):
                conn.execute(
                    "DELETE FROM runs WHERE campaign_id = ? AND "
                    "git_revision = ? AND shard_index = ? AND "
                    "run_index = ?",
                    (campaign, revision, shard, run),
                )
        try:
            expected = per_shard_torn(conn)
            assert CampaignStore._torn_shards(conn) == expected
        finally:
            conn.close()
        assert expected == [
            "shard 1 of smoke@deadbeef",
            "shard 3 of smoke@newrev",
            "shard 6 of other@deadbeef",
        ]
        with pytest.raises(ConfigurationError, match="torn commit"):
            CampaignStore(path)

    def test_healthy_store_has_no_findings(self, tmp_path):
        path = str(tmp_path / "ok.sqlite")
        with CampaignStore(path) as store:
            populate(store, tiny_spec())
            populate(store, tiny_spec(), revision="newrev")
        conn = sqlite3.connect(path)
        try:
            assert CampaignStore._torn_shards(conn) == []
            assert per_shard_torn(conn) == []
        finally:
            conn.close()


class TestBatchedCommit:
    def test_several_shards_commit_in_one_transaction(self, tmp_path):
        """``write_shard(..., more=...)`` lands every shard in one
        write, with the rows one call per shard would write."""
        spec = tiny_spec()
        shards = spec.shards()
        batched, single = (
            str(tmp_path / "batched.sqlite"), str(tmp_path / "single.sqlite")
        )
        with CampaignStore(single) as store:
            populate(store, spec)
        with CampaignStore(batched) as store:
            store.register_campaign(spec, REV)
            before = change_counter(batched)
            first, *rest = [
                (shard, fake_results(shard), None) for shard in shards
            ]
            store.write_shard(spec, REV, *first, more=rest)
            assert change_counter(batched) == before + 1
            with CampaignStore(single) as reference:
                assert store.canonical_digest() == reference.canonical_digest()

    def test_a_bad_shard_in_the_batch_writes_nothing(self, tmp_path):
        spec = tiny_spec()
        good, bad = spec.shards()[:2]
        with CampaignStore(str(tmp_path / "s.sqlite")) as store:
            store.register_campaign(spec, REV)
            with pytest.raises(ConfigurationError, match="expected"):
                store.write_shard(
                    spec, REV, good, fake_results(good), None,
                    more=[(bad, fake_results(bad)[:1], None)],
                )
            assert store.completed_shards(
                spec.name, spec.spec_hash(), REV
            ) == frozenset()

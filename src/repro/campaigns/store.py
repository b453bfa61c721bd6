"""The SQLite campaign results store.

One file holds everything a campaign produces: the spec that generated
it, every shard's :class:`~repro.experiments.runner.RunResult` rows,
and each shard's deterministic merged
:class:`~repro.obs.MetricsSnapshot`.  Rows are keyed by
``(campaign id, spec hash, git revision, shard index)`` so one store
can hold the same campaign executed at several revisions — which is
what ``campaign diff`` compares.

Two properties carry the resume guarantees:

- **Shard atomicity.**  A shard lands in a single transaction (shard
  row + run rows together; the executor puts the shards of one job
  in the same one).  SIGKILL mid-commit rolls the transaction
  back on the next open; the shards simply re-run, and because a run
  depends only on the campaign seed, the run index and the point's
  parameters, they re-run to the identical result.
- **Canonical form.**  On campaign completion the executor rebuilds
  the store from scratch — fixed page size, rows inserted in sorted
  key order, one transaction — and atomically replaces the working
  file.  A fresh SQLite database built by the same insert sequence is
  byte-deterministic, so a resumed campaign's final store is
  *bit-identical* to an uninterrupted run's.

Robustness (schema v2):

- a ``failures`` table records **quarantined runs** (runs benched by
  the pool supervisor after repeatedly killing their worker) and
  **infrastructure events** (engine degradations), keyed like every
  other row so resume logic can skip — or, with
  ``--retry-quarantined``, clear and re-execute — poisoned shards;
- every open runs ``PRAGMA integrity_check``, a spec-hash check over
  the stored campaign rows and a torn-shard check (one grouped scan of
  the run rows); a store that fails
  any of them (torn by a crash mid-page, bit-rotted, hand-edited) is
  **refused** with a ``ConfigurationError`` naming the file and the
  finding, and is left as it was.  Nothing is rebuilt from it: runs
  are seed-pure, so re-running the campaign into a fresh store gives
  the same bytes;
- v1 stores migrate in place (the new table is created and the
  version stamped, in one transaction, which is also how a new store
  is bootstrapped); unknown versions are still refused.

Canonical form is unaffected: quarantine rows block completion (their
shards never commit) and infrastructure events are execution telemetry,
excluded from the canonical export — so a completed campaign's bytes
are identical whether or not supervision had to intervene on the way.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import subprocess
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.campaigns.spec import REMOVED_FIELDS, CampaignSpec, Shard
from repro.errors import ConfigurationError
from repro.experiments.runner import ExperimentResult, RunResult
from repro.obs import MetricsSnapshot

__all__ = [
    "CampaignStore",
    "current_git_revision",
    "STORE_SCHEMA_VERSION",
    "QUARANTINE_KIND",
    "INFRASTRUCTURE_KIND",
]

STORE_SCHEMA_VERSION = 2

#: One finished shard as :meth:`CampaignStore.write_shard` commits it:
#: the shard, its runs in index order, its merged metrics (or ``None``).
ShardRows = Tuple[Shard, Sequence[RunResult], Optional[MetricsSnapshot]]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS campaigns (
    campaign_id  TEXT NOT NULL,
    spec_hash    TEXT NOT NULL,
    git_revision TEXT NOT NULL,
    spec_json    TEXT NOT NULL,
    status       TEXT NOT NULL,
    PRIMARY KEY (campaign_id, spec_hash, git_revision)
);
CREATE TABLE IF NOT EXISTS shards (
    campaign_id  TEXT NOT NULL,
    spec_hash    TEXT NOT NULL,
    git_revision TEXT NOT NULL,
    shard_index  INTEGER NOT NULL,
    point_index  INTEGER NOT NULL,
    params_json  TEXT NOT NULL,
    run_start    INTEGER NOT NULL,
    run_stop     INTEGER NOT NULL,
    metrics_json TEXT,
    PRIMARY KEY (campaign_id, spec_hash, git_revision, shard_index)
);
CREATE TABLE IF NOT EXISTS runs (
    campaign_id       TEXT NOT NULL,
    spec_hash         TEXT NOT NULL,
    git_revision      TEXT NOT NULL,
    shard_index       INTEGER NOT NULL,
    run_index         INTEGER NOT NULL,
    n_pairs           INTEGER NOT NULL,
    dndp_successes    INTEGER NOT NULL,
    mndp_successes    INTEGER NOT NULL,
    mean_degree       REAL NOT NULL,
    mean_dndp_latency REAL,
    PRIMARY KEY (campaign_id, spec_hash, git_revision, run_index,
                 shard_index)
);
CREATE TABLE IF NOT EXISTS failures (
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
);
"""

#: Failure-record kinds (the store is agnostic; these are the two the
#: executor writes).
QUARANTINE_KIND = "quarantine"
INFRASTRUCTURE_KIND = "infrastructure"


def _stored_spec(spec_json: str) -> CampaignSpec:
    """Parse a stored ``spec_json``, dropping :data:`REMOVED_FIELDS`.

    :meth:`CampaignSpec.from_dict` rejects those fields, but stores
    written before their removal still carry them.
    """
    data = json.loads(spec_json)
    for name in REMOVED_FIELDS:
        data.pop(name, None)
    return CampaignSpec.from_dict(data)


def current_git_revision(cwd: Optional[str] = None) -> str:
    """The working tree's HEAD commit, or ``"unknown"`` outside git."""
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            check=True,
            cwd=cwd,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return result.stdout.strip() or "unknown"


class CampaignStore:
    """Checkpointed SQLite persistence for campaign results.

    Use as a context manager; every write method commits its own
    transaction so an interrupted process never leaves a partial shard
    visible.
    """

    def __init__(self, path: str) -> None:
        self._path = path
        # SQLite reads both as a database with no file behind it, which
        # the executor's canonical rebuild could never replace.
        if path in ("", ":memory:"):
            raise ConfigurationError(
                f"campaign store path must name a file, got {path!r}"
            )
        try:
            self._conn = sqlite3.connect(path)
        except sqlite3.OperationalError as error:
            raise ConfigurationError(
                f"cannot open campaign store {path}: {error}"
            ) from None
        try:
            finding = self._verify()
        except BaseException:  # jrsnd: noqa(JRS003) -- verification failed for *any* reason: close the handle, then re-raise unchanged
            self._conn.close()
            raise
        if finding is not None:
            self._conn.close()
            raise ConfigurationError(
                f"campaign store {path} failed verification: {finding}; "
                f"runs are seed-pure, so re-running the campaign into a "
                f"fresh store gives the same bytes"
            )

    @property
    def path(self) -> str:
        return self._path

    def __enter__(self) -> "CampaignStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        self._conn.close()

    def _ensure_schema(self) -> None:
        conn = self._conn
        # Fix the page size *before* the first table exists so working
        # and canonical stores share their on-disk geometry everywhere.
        conn.execute("PRAGMA page_size = 4096")
        (version,) = conn.execute("PRAGMA user_version").fetchone()
        if version not in (0, 1, STORE_SCHEMA_VERSION):
            raise ConfigurationError(
                f"campaign store {self._path} has schema v{version}, "
                f"which is not supported (expected "
                f"v{STORE_SCHEMA_VERSION})"
            )
        # ``IF NOT EXISTS`` throughout makes this both the fresh-file
        # bootstrap and the v1 → v2 migration (v2 only adds the
        # ``failures`` table; existing rows are untouched), in one
        # write transaction: the tables and the version stamp land
        # together, with one journal sync instead of one per statement.
        script = _SCHEMA
        if version != STORE_SCHEMA_VERSION:
            script += f"PRAGMA user_version = {STORE_SCHEMA_VERSION};\n"
        conn.executescript(f"BEGIN;\n{script}COMMIT;")

    # -- open-time verification ----------------------------------------

    def _verify(self) -> Optional[str]:
        """The damage that makes this file unfit to open, or ``None``.

        Verification is two-layered: SQLite's own ``PRAGMA
        integrity_check`` catches physical damage (torn pages, broken
        b-trees), and re-hashing every stored ``spec_json`` against its
        ``spec_hash`` column, plus counting every shard's run rows,
        catches logical damage that leaves the pages well-formed.  An
        unsupported schema *version* is not damage: it raises its own
        ``ConfigurationError``.  Nothing here writes to a store that
        is already at the current schema version.
        """
        conn = self._conn
        try:
            findings = conn.execute("PRAGMA integrity_check").fetchall()
        except sqlite3.DatabaseError as error:
            return f"unreadable database: {error}"
        if findings != [("ok",)]:
            summary = "; ".join(str(row[0]) for row in findings[:3])
            return f"integrity_check failed: {summary}"
        try:
            self._ensure_schema()
            mismatched = self._spec_hash_mismatches(conn)
            torn = self._torn_shards(conn)
        except sqlite3.DatabaseError as error:
            return f"damaged schema: {error}"
        if mismatched:
            return (
                "spec hash does not match stored spec for: "
                + ", ".join(mismatched)
            )
        if torn:
            return (
                "shards missing run rows (torn commit): "
                + ", ".join(torn)
            )
        return None

    @staticmethod
    def _spec_hash_mismatches(conn: sqlite3.Connection) -> List[str]:
        mismatched = []
        for campaign_id, spec_hash, revision, spec_json in conn.execute(
            "SELECT campaign_id, spec_hash, git_revision, spec_json "
            "FROM campaigns"
        ):
            digest = hashlib.sha256(
                str(spec_json).encode("utf-8")
            ).hexdigest()[:16]
            if digest != spec_hash:
                mismatched.append(f"{campaign_id}@{revision}")
        return mismatched

    @staticmethod
    def _torn_shards(conn: sqlite3.Connection) -> List[str]:
        """Shards whose run-row count disagrees with their range.

        Shard commits are single transactions, so a healthy store can
        never disagree — a mismatch means the file lost rows to
        corruption that left the pages themselves well-formed.  The
        run rows are counted in one grouped scan: ``shard_index`` is
        not a prefix of the ``runs`` key, so a count per shard would
        scan the whole campaign once for every shard.
        """
        counts = {
            tuple(key): count
            for *key, count in conn.execute(
                "SELECT campaign_id, spec_hash, git_revision, "
                "shard_index, COUNT(*) FROM runs GROUP BY "
                "campaign_id, spec_hash, git_revision, shard_index"
            )
        }
        torn = []
        for (campaign_id, spec_hash, revision, shard_index, run_start,
             run_stop) in conn.execute(
            "SELECT campaign_id, spec_hash, git_revision, "
            "shard_index, run_start, run_stop FROM shards"
        ).fetchall():
            count = counts.get(
                (campaign_id, spec_hash, revision, shard_index), 0
            )
            if count != run_stop - run_start:
                torn.append(
                    f"shard {shard_index} of {campaign_id}@{revision}"
                )
        return torn

    # -- campaign lifecycle --------------------------------------------

    def register_campaign(
        self, spec: CampaignSpec, git_revision: str
    ) -> None:
        """Idempotently record the campaign row for this revision.

        Re-registering the same ``name`` with a *different* spec hash
        raises: a store must never silently mix results of two specs
        under one campaign id.
        """
        spec_hash = spec.spec_hash()
        rows = self._conn.execute(
            "SELECT spec_hash FROM campaigns WHERE campaign_id = ?",
            (spec.name,),
        ).fetchall()
        for (existing_hash,) in rows:
            if existing_hash != spec_hash:
                raise ConfigurationError(
                    f"campaign {spec.name!r} already exists with spec "
                    f"hash {existing_hash}; refusing to mix results "
                    f"with spec hash {spec_hash}"
                )
        existing = self._conn.execute(
            "SELECT status FROM campaigns WHERE campaign_id = ? "
            "AND spec_hash = ? AND git_revision = ?",
            (spec.name, spec_hash, git_revision),
        ).fetchone()
        if existing is None:
            self._conn.execute(
                "INSERT INTO campaigns VALUES (?, ?, ?, ?, ?)",
                (spec.name, spec_hash, git_revision, spec.to_json(),
                 "running"),
            )
            self._conn.commit()

    def campaign_status(
        self, campaign_id: str, spec_hash: str, git_revision: str
    ) -> Optional[str]:
        row = self._conn.execute(
            "SELECT status FROM campaigns WHERE campaign_id = ? "
            "AND spec_hash = ? AND git_revision = ?",
            (campaign_id, spec_hash, git_revision),
        ).fetchone()
        return None if row is None else str(row[0])

    def mark_complete(
        self, campaign_id: str, spec_hash: str, git_revision: str,
        status: str = "complete",
    ) -> None:
        self._conn.execute(
            "UPDATE campaigns SET status = ? WHERE campaign_id = ? "
            "AND spec_hash = ? AND git_revision = ?",
            (status, campaign_id, spec_hash, git_revision),
        )
        self._conn.commit()

    # -- shard persistence ---------------------------------------------

    def completed_shards(
        self, campaign_id: str, spec_hash: str, git_revision: str
    ) -> frozenset:
        """Indices of shards already committed for this key."""
        rows = self._conn.execute(
            "SELECT shard_index FROM shards WHERE campaign_id = ? "
            "AND spec_hash = ? AND git_revision = ?",
            (campaign_id, spec_hash, git_revision),
        ).fetchall()
        return frozenset(index for (index,) in rows)

    def write_shard(
        self,
        spec: CampaignSpec,
        git_revision: str,
        shard: Shard,
        results: Sequence[RunResult],
        metrics: Optional[MetricsSnapshot],
        more: Sequence[ShardRows] = (),
    ) -> None:
        """Commit one finished shard atomically (shard row + runs).

        Each ``(shard, results, metrics)`` of ``more`` lands in the
        same transaction: the executor commits the shards of one cell
        job together, so they pay one journal sync between them.
        """
        batch: List[ShardRows] = [(shard, results, metrics), *more]
        for shard, results, _ in batch:
            if len(results) != shard.n_runs:
                raise ConfigurationError(
                    f"shard {shard.index} expected {shard.n_runs} "
                    f"results, got {len(results)}"
                )
        key = (spec.name, spec.spec_hash(), git_revision)
        with self._conn:  # one transaction: all rows or none
            self._conn.executemany(
                "INSERT INTO shards VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                [
                    key + (
                        shard.index, shard.point.index,
                        shard.point.params_json(), shard.run_start,
                        shard.run_stop,
                        None if metrics is None
                        else metrics.deterministic().to_json(indent=None),
                    )
                    for shard, _, metrics in batch
                ],
            )
            self._conn.executemany(
                "INSERT INTO runs VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                [
                    key + (
                        shard.index, run_index, result.n_pairs,
                        result.dndp_successes, result.mndp_successes,
                        result.mean_degree, result.mean_dndp_latency,
                    )
                    for shard, results, _ in batch
                    for run_index, result in zip(
                        shard.run_indices, results
                    )
                ],
            )

    # -- failure records ------------------------------------------------

    def record_failure(
        self,
        campaign_id: str,
        spec_hash: str,
        git_revision: str,
        shard_index: int,
        run_index: int,
        kind: str,
        attempts: int,
        detail: str,
    ) -> None:
        """Upsert one failure record (quarantine or infrastructure).

        ``run_index`` is the quarantined run for ``kind="quarantine"``;
        infrastructure events use negative indices (``-1``, ``-2``,
        ...) — they describe the engine, not a run — so several events
        at one shard coexist under the primary key.
        """
        with self._conn:
            self._conn.execute(
                "INSERT OR REPLACE INTO failures "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    campaign_id, spec_hash, git_revision,
                    int(shard_index), int(run_index), kind,
                    int(attempts), detail,
                ),
            )

    def failure_records(
        self,
        campaign_id: str,
        spec_hash: str,
        git_revision: str,
        kind: Optional[str] = None,
    ) -> List[Dict[str, Any]]:
        """Failure records for this key, ordered deterministically."""
        query = (
            "SELECT shard_index, run_index, kind, attempts, detail "
            "FROM failures WHERE campaign_id = ? AND spec_hash = ? "
            "AND git_revision = ?"
        )
        params: List[Any] = [campaign_id, spec_hash, git_revision]
        if kind is not None:
            query += " AND kind = ?"
            params.append(kind)
        query += " ORDER BY shard_index, run_index, kind"
        return [
            {
                "shard_index": shard_index,
                "run_index": run_index,
                "kind": row_kind,
                "attempts": attempts,
                "detail": detail,
            }
            for shard_index, run_index, row_kind, attempts, detail
            in self._conn.execute(query, params)
        ]

    def quarantined_shards(
        self, campaign_id: str, spec_hash: str, git_revision: str
    ) -> frozenset:
        """Indices of shards holding at least one quarantined run."""
        rows = self._conn.execute(
            "SELECT DISTINCT shard_index FROM failures "
            "WHERE campaign_id = ? AND spec_hash = ? "
            "AND git_revision = ? AND kind = ?",
            (campaign_id, spec_hash, git_revision, QUARANTINE_KIND),
        ).fetchall()
        return frozenset(index for (index,) in rows)

    def clear_failures(
        self,
        campaign_id: str,
        spec_hash: str,
        git_revision: str,
        kind: Optional[str] = None,
    ) -> int:
        """Delete failure records for this key; returns rows removed."""
        query = (
            "DELETE FROM failures WHERE campaign_id = ? "
            "AND spec_hash = ? AND git_revision = ?"
        )
        params: List[Any] = [campaign_id, spec_hash, git_revision]
        if kind is not None:
            query += " AND kind = ?"
            params.append(kind)
        with self._conn:
            cursor = self._conn.execute(query, params)
        return int(cursor.rowcount)

    # -- queries --------------------------------------------------------

    def list_campaigns(self) -> List[Dict[str, Any]]:
        """One row per (campaign, spec hash, revision) with progress.

        ``spec_hash`` is the key the rows are stored under.  For a spec
        written before a field was removed it differs from
        ``spec.spec_hash()`` of the parsed spec, so address stored rows
        by this value.
        """
        rows = self._conn.execute(
            "SELECT campaign_id, spec_hash, git_revision, spec_json, "
            "status FROM campaigns "
            "ORDER BY campaign_id, spec_hash, git_revision"
        ).fetchall()
        campaigns = []
        for campaign_id, spec_hash, revision, spec_json, status in rows:
            spec = _stored_spec(spec_json)
            done = len(
                self.completed_shards(campaign_id, spec_hash, revision)
            )
            campaigns.append(
                {
                    "campaign_id": campaign_id,
                    "spec_hash": spec_hash,
                    "git_revision": revision,
                    "status": status,
                    "shards_done": done,
                    "shards_total": len(spec.shards()),
                    "spec": spec,
                }
            )
        return campaigns

    def spec_for(
        self, campaign_id: str, git_revision: Optional[str] = None
    ) -> Tuple[CampaignSpec, str]:
        """``(spec, git_revision)`` for a stored campaign.

        With several revisions present and none requested, the
        lexicographically last revision is returned (deterministic).
        """
        if git_revision is None:
            row = self._conn.execute(
                "SELECT spec_json, git_revision FROM campaigns "
                "WHERE campaign_id = ? "
                "ORDER BY git_revision DESC LIMIT 1",
                (campaign_id,),
            ).fetchone()
        else:
            row = self._conn.execute(
                "SELECT spec_json, git_revision FROM campaigns "
                "WHERE campaign_id = ? AND git_revision = ?",
                (campaign_id, git_revision),
            ).fetchone()
        if row is None:
            raise ConfigurationError(
                f"campaign {campaign_id!r} not found in {self._path}"
            )
        return _stored_spec(row[0]), str(row[1])

    def point_results(
        self, campaign_id: str, spec_hash: str, git_revision: str
    ) -> Dict[int, Tuple[Dict[str, Any], ExperimentResult]]:
        """Per-point ``(params, ExperimentResult)`` rebuilt from runs.

        Runs are ordered by run index (then shard index), so the
        reconstructed :class:`ExperimentResult` aggregates exactly as
        an in-process sweep of the same point would.
        """
        shard_points = {
            shard_index: (point_index, params_json)
            for shard_index, point_index, params_json
            in self._conn.execute(
                "SELECT shard_index, point_index, params_json "
                "FROM shards WHERE campaign_id = ? AND spec_hash = ? "
                "AND git_revision = ?",
                (campaign_id, spec_hash, git_revision),
            )
        }
        by_point: Dict[int, List[RunResult]] = {}
        params_by_point: Dict[int, Dict[str, Any]] = {}
        rows = self._conn.execute(
            "SELECT shard_index, run_index, n_pairs, dndp_successes, "
            "mndp_successes, mean_degree, mean_dndp_latency FROM runs "
            "WHERE campaign_id = ? AND spec_hash = ? "
            "AND git_revision = ? ORDER BY run_index, shard_index",
            (campaign_id, spec_hash, git_revision),
        ).fetchall()
        for (shard_index, _run_index, n_pairs, dndp, mndp, degree,
             latency) in rows:
            point_index, params_json = shard_points[shard_index]
            params_by_point.setdefault(
                point_index, json.loads(params_json)
            )
            by_point.setdefault(point_index, []).append(
                RunResult(
                    n_pairs=n_pairs,
                    dndp_successes=dndp,
                    mndp_successes=mndp,
                    mean_degree=degree,
                    mean_dndp_latency=latency,
                )
            )
        return {
            point_index: (
                params_by_point[point_index],
                ExperimentResult(runs=tuple(results)),
            )
            for point_index, results in sorted(by_point.items())
        }

    def shard_metrics(
        self, campaign_id: str, spec_hash: str, git_revision: str
    ) -> Dict[int, Optional[MetricsSnapshot]]:
        """Each committed shard's merged deterministic snapshot."""
        rows = self._conn.execute(
            "SELECT shard_index, metrics_json FROM shards "
            "WHERE campaign_id = ? AND spec_hash = ? "
            "AND git_revision = ? ORDER BY shard_index",
            (campaign_id, spec_hash, git_revision),
        ).fetchall()
        return {
            index: (
                None if text is None
                else MetricsSnapshot.from_json(text)
            )
            for index, text in rows
        }

    # -- canonical form -------------------------------------------------

    def _all_rows(self) -> Dict[str, List[Tuple[Any, ...]]]:
        tables = {}
        for table in ("campaigns", "shards", "runs", "failures"):
            columns = [
                info[1]
                for info in self._conn.execute(
                    f"PRAGMA table_info({table})"
                )
            ]
            order = ", ".join(columns)
            tables[table] = self._conn.execute(
                f"SELECT * FROM {table} ORDER BY {order}"
            ).fetchall()
        return tables

    def canonical_digest(self) -> str:
        """SHA-256 over every row in canonical order.

        A logical content address: two stores with identical results
        have identical digests regardless of the insertion history
        that produced them.  ``campaign status`` prints it and the CI
        smoke compares it across the kill/resume and uninterrupted
        paths (alongside byte equality of the canonical files).
        """
        digest = hashlib.sha256()
        for table, rows in sorted(self._all_rows().items()):
            digest.update(table.encode("utf-8"))
            for row in rows:
                digest.update(
                    json.dumps(row, sort_keys=True).encode("utf-8")
                )
        return digest.hexdigest()

    def export_canonical(
        self,
        path: str,
        mark_complete: Optional[Tuple[str, str, str]] = None,
    ) -> None:
        """Rebuild this store's content as a byte-deterministic file.

        Fresh database, fixed page size, schema first, then every row
        inserted in sorted-key order inside one transaction: the same
        content always produces the same bytes.

        ``mark_complete`` — a ``(campaign_id, spec_hash, revision)``
        key — stamps that campaign's status as ``complete`` *in the
        exported rows only*.  The executor relies on this: the working
        store stays ``running`` until the canonical file atomically
        replaces it, so a crash at any instant leaves either a
        resumable working store or a finished canonical one, never an
        ambiguous in-between.

        Infrastructure failure records (engine degradations) are
        execution telemetry, not campaign content: they are dropped
        from the export so a campaign that had to degrade mid-flight
        still canonicalizes byte-identically to an undisturbed one.
        Quarantine records *are* content (they block completion) and
        are carried through.
        """
        if os.path.exists(path):
            os.unlink(path)
        conn = sqlite3.connect(path)
        try:
            conn.execute("PRAGMA page_size = 4096")
            conn.executescript(_SCHEMA)
            conn.execute(
                f"PRAGMA user_version = {STORE_SCHEMA_VERSION}"
            )
            conn.commit()
            rows = self._all_rows()
            if mark_complete is not None:
                rows["campaigns"] = [
                    (
                        tuple(row[:4]) + ("complete",)
                        if tuple(row[:3]) == tuple(mark_complete)
                        else row
                    )
                    for row in rows["campaigns"]
                ]
            rows["failures"] = [
                row for row in rows["failures"]
                if row[5] != INFRASTRUCTURE_KIND
            ]
            with conn:
                for table in ("campaigns", "shards", "runs",
                              "failures"):
                    if not rows[table]:
                        continue
                    placeholders = ", ".join(
                        "?" for _ in rows[table][0]
                    )
                    conn.executemany(
                        f"INSERT INTO {table} VALUES ({placeholders})",
                        rows[table],
                    )
        finally:
            conn.close()

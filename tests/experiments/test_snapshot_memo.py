"""Field snapshots shared between runs: a snapshot a pool worker serves
from its memo gives exactly the run a fresh ``run_once`` gives."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments import pool as pool_module
from repro.experiments.pool import _run_chunk, _SnapshotMemo
from repro.experiments.runner import FieldSnapshot, NetworkExperiment
from repro.experiments.scenarios import preset_config

SEED = 2011


def _cells(base):
    """Every (link model, nu, q) cell of a small grid on one seed."""
    config = preset_config(base)
    return [
        NetworkExperiment(
            config.replace(nu=nu, n_compromised=q),
            seed=SEED,
            link_model=link_model,
            collect_metrics=True,
        )
        for link_model in ("codes", "independent")
        for nu in (1, 8)
        for q in (5, 10)
    ]


class _CountingSnapshot(FieldSnapshot):
    built = 0

    def __init__(self, key, kept=False):
        type(self).built += 1
        super().__init__(key, kept)


@pytest.mark.parametrize("base", ["tiny", "tiny-chipless"])
def test_memo_hits_equal_fresh_runs(base, monkeypatch):
    """Message and chipless PHY, both link models, nu 1 and 8: the 8
    cells share two snapshots, and every served run equals a fresh
    ``run_once`` with the same deterministic metrics."""
    monkeypatch.setattr(_CountingSnapshot, "built", 0)
    monkeypatch.setattr(pool_module, "FieldSnapshot", _CountingSnapshot)
    memo = _SnapshotMemo()
    cells = _cells(base)
    served = [_run_chunk(cell, [(0, 0), (1, 0)], memo, 2) for cell in cells]
    assert _CountingSnapshot.built == 2
    for cell, outcomes in zip(cells, served):
        assert [index for index, _, _ in outcomes] == [0, 1]
        for index, result, failure in outcomes:
            assert failure is None
            fresh = cell.run_once(index)
            assert result == fresh
            assert (
                result.metrics.deterministic().to_json()
                == fresh.metrics.deterministic().to_json()
            )
    # Non-vacuous: the cells disagree with each other.
    assert len({outcomes[0][1] for outcomes in served}) > 1


def test_memo_evicts_least_recent_before_building(monkeypatch):
    monkeypatch.setattr(_CountingSnapshot, "built", 0)
    monkeypatch.setattr(pool_module, "FieldSnapshot", _CountingSnapshot)
    memo = _SnapshotMemo()
    experiment = NetworkExperiment(preset_config("tiny"), seed=SEED)
    first = memo.get(experiment, 0, 2)
    memo.get(experiment, 1, 2)
    assert memo.get(experiment, 0, 2) is first
    memo.get(experiment, 2, 2)  # evicts run 1, the least recent
    assert _CountingSnapshot.built == 3
    assert memo.get(experiment, 0, 2) is first
    memo.get(experiment, 1, 2)
    assert _CountingSnapshot.built == 4
    # A smaller job shrinks the memo to its own size.
    memo.get(experiment, 5, 1)
    assert _CountingSnapshot.built == 5 and len(memo._held) == 1
    assert memo.get(experiment, 0, 1) is not first
    assert _CountingSnapshot.built == 6


def test_memo_holds_under_its_byte_budget_before_a_build(monkeypatch):
    """Whatever the job's size, the snapshots held ahead of a build
    total under ``SNAPSHOT_MEMO_BYTES``."""
    monkeypatch.setattr(_CountingSnapshot, "built", 0)
    monkeypatch.setattr(pool_module, "FieldSnapshot", _CountingSnapshot)
    experiment = NetworkExperiment(preset_config("tiny"), seed=SEED)
    sizes = [
        FieldSnapshot(experiment.snapshot_key(index), kept=True).nbytes
        for index in range(2)
    ]
    monkeypatch.setattr(pool_module, "SNAPSHOT_MEMO_BYTES", sum(sizes))
    memo = _SnapshotMemo()
    first = memo.get(experiment, 0, 100)
    second = memo.get(experiment, 1, 100)
    assert memo.nbytes == sum(sizes)
    memo.get(experiment, 2, 100)  # evicts run 0 only
    assert list(memo._held.values())[0] is second
    assert len(memo._held) == 2
    assert memo.get(experiment, 0, 100) is not first
    assert _CountingSnapshot.built == 4
    # A budget below one snapshot still serves the run at hand.
    monkeypatch.setattr(pool_module, "SNAPSHOT_MEMO_BYTES", 1)
    held = memo.get(experiment, 3, 100)
    assert len(memo._held) == 1 and memo.get(experiment, 3, 100) is held


def test_memo_keys_on_the_topology_not_the_point():
    memo = _SnapshotMemo()
    config = preset_config("tiny")
    base = NetworkExperiment(config, seed=SEED)
    shared = memo.get(base, 0, 4)
    for same in (
        NetworkExperiment(config.replace(n_compromised=0, nu=8), seed=SEED,
                          link_model="independent"),
        NetworkExperiment(config, seed=SEED, mndp_rounds=3),
    ):
        assert memo.get(same, 0, 4) is shared
    for other in (
        NetworkExperiment(config, seed=SEED + 1),
        NetworkExperiment(config.replace(share_count=6), seed=SEED),
        NetworkExperiment(config.replace(tx_range=250.0), seed=SEED),
        NetworkExperiment(config, seed=SEED, compute_backend="reference"),
    ):
        assert memo.get(other, 0, 4) is not shared


def test_kept_snapshot_narrows_what_it_holds():
    experiment = NetworkExperiment(preset_config("tiny"), seed=SEED)
    fresh = FieldSnapshot(experiment.snapshot_key(0))
    snapshot = FieldSnapshot(experiment.snapshot_key(0), kept=True)
    assert snapshot._pairs.itemsize < fresh.pairs.itemsize
    assert not snapshot._pairs.flags.writeable
    assert snapshot.pairs.dtype == np.int64
    assert not snapshot.pairs.flags.writeable
    assert np.array_equal(snapshot.pairs, fresh.pairs)
    first = snapshot.assignment()
    again = snapshot.assignment()
    assert again is not first
    assert np.array_equal(again.codes, first.codes)
    assert again.codes.dtype == np.int64
    assert again.pool_size == first.pool_size
    assert not snapshot._codes.flags.writeable
    assert snapshot._codes.itemsize < first.codes.itemsize
    assert snapshot.nbytes == snapshot._pairs.nbytes + snapshot._codes.nbytes


def test_unkept_snapshot_holds_only_its_pairs():
    """``run_once`` without a memo gets the arrays it built, unchanged."""
    experiment = NetworkExperiment(preset_config("tiny"), seed=SEED)
    snapshot = FieldSnapshot(experiment.snapshot_key(0))
    assert snapshot.pairs is snapshot.pairs
    assert snapshot.pairs.dtype == np.int64
    assert not snapshot.pairs.flags.writeable
    assignment = snapshot.assignment()
    assert assignment.codes.dtype == np.int64
    assert snapshot._codes is None
    assert np.array_equal(snapshot.assignment().codes, assignment.codes)


def test_run_once_refuses_another_runs_snapshot():
    experiment = NetworkExperiment(preset_config("tiny"), seed=SEED)
    snapshot = FieldSnapshot(experiment.snapshot_key(0))
    assert experiment.run_once(0, snapshot) == experiment.run_once(0)
    with pytest.raises(ConfigurationError, match="does not belong"):
        experiment.run_once(1, snapshot)

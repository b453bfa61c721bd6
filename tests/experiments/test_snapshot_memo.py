"""Field snapshots shared between runs: the snapshot a pool worker
holds, with the cell it last served, gives exactly the run a fresh
``run_once`` gives."""

import numpy as np
import pytest

from repro.adversary.jammer import JammerStrategy
from repro.core import mndp as mndp_module
from repro.core.mndp import HopClosure
from repro.errors import ConfigurationError
from repro.experiments import pool as pool_module
from repro.experiments.pool import _HeldSnapshot, _run_chunk
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

    def __init__(self, key):
        type(self).built += 1
        super().__init__(key)


@pytest.mark.parametrize("base", ["tiny", "tiny-chipless"])
def test_memo_hits_equal_fresh_runs(base, monkeypatch):
    """Message and chipless PHY, both link models, nu 1 and 8: the 8
    cells, run as one job, share two snapshots, and every served run
    equals a fresh ``run_once`` with the same deterministic metrics."""
    monkeypatch.setattr(_CountingSnapshot, "built", 0)
    monkeypatch.setattr(pool_module, "FieldSnapshot", _CountingSnapshot)
    cells = _cells(base)
    served = _run_chunk(tuple(cells), [(0, 0), (1, 0)], _HeldSnapshot())
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


def test_memo_keys_on_the_topology_not_the_point():
    """A process holds one snapshot: the next point reuses it when it
    has the same topology, and replaces it otherwise."""
    held = _HeldSnapshot()
    config = preset_config("tiny")
    base = NetworkExperiment(config, seed=SEED)
    shared = held.get(base, 0)
    for same in (
        NetworkExperiment(config.replace(n_compromised=0, nu=8), seed=SEED,
                          link_model="independent"),
        NetworkExperiment(config, seed=SEED, mndp_rounds=3),
    ):
        assert held.get(same, 0) is shared
    assert held.get(base, 1) is not shared
    for other in (
        NetworkExperiment(config, seed=SEED + 1),
        NetworkExperiment(config.replace(share_count=6), seed=SEED),
        NetworkExperiment(config.replace(tx_range=250.0), seed=SEED),
        NetworkExperiment(config, seed=SEED, compute_backend="reference"),
    ):
        shared = held.get(base, 0)
        replaced = held.get(other, 0)
        assert replaced is not shared
        assert held.get(other, 0) is replaced


def test_snapshot_holds_its_pairs_and_one_assignment():
    experiment = NetworkExperiment(preset_config("tiny"), seed=SEED)
    snapshot = FieldSnapshot(experiment.snapshot_key(0))
    assert snapshot.pairs.dtype == np.int64
    assert not snapshot.pairs.flags.writeable
    assignment = snapshot.assignment()
    assert snapshot.assignment() is assignment
    assert assignment.codes.dtype == np.int64
    assert not assignment.codes.flags.writeable
    fresh = FieldSnapshot(experiment.snapshot_key(0))
    assert np.array_equal(snapshot.pairs, fresh.pairs)
    assert np.array_equal(assignment.codes, fresh.assignment().codes)


def test_run_once_refuses_another_runs_snapshot():
    experiment = NetworkExperiment(preset_config("tiny"), seed=SEED)
    snapshot = FieldSnapshot(experiment.snapshot_key(0))
    assert experiment.run_once(0, snapshot) == experiment.run_once(0)
    with pytest.raises(ConfigurationError, match="does not belong"):
        experiment.run_once(1, snapshot)


# -- the cell a snapshot last served ----------------------------------

NU_ORDERS = {
    "ascending": [1, 2, 3, 4, 5, 6, 7, 8],
    "descending": [8, 7, 6, 5, 4, 3, 2, 1],
    "shuffled": [5, 2, 8, 1, 7, 3, 6, 4],
    "repeated": [3, 3, 6, 2, 6, 8, 1, 8],
}


def _point(base, nu, q=20, **kwargs):
    """One (q, nu) point of ``base`` on the shared seed; q=20 keeps
    M-NDP recovering more pairs up to nu=8 on the tiny field."""
    config = preset_config(base).replace(n_compromised=q, nu=nu)
    return NetworkExperiment(config, seed=SEED, collect_metrics=True, **kwargs)


def _assert_same_run(served, fresh):
    assert served == fresh
    assert (
        served.metrics.deterministic().to_json()
        == fresh.metrics.deterministic().to_json()
    )


def _counting(monkeypatch, owner, name):
    """Wrap ``owner.name`` so calls are counted in the returned list."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("order", sorted(NU_ORDERS))
@pytest.mark.parametrize("backend", ["vectorized", "reference"])
@pytest.mark.parametrize("link_model", ["codes", "independent"])
@pytest.mark.parametrize("base", ["tiny", "tiny-chipless"])
def test_one_cell_serves_every_nu(base, link_model, backend, order):
    """Every nu of one cell, in any order, from one snapshot:
    each run equals a fresh ``run_once`` with the same deterministic
    metrics, and the snapshot keeps serving the same cell."""
    snapshot = None
    cells = set()
    recovered = set()
    for nu in NU_ORDERS[order]:
        experiment = _point(
            base, nu, link_model=link_model, compute_backend=backend
        )
        if snapshot is None:
            snapshot = FieldSnapshot(experiment.snapshot_key(0))
        served = experiment.run_once(0, snapshot)
        _assert_same_run(served, experiment.run_once(0))
        cells.add(id(snapshot._cell))
        recovered.add(served.mndp_successes)
    assert len(cells) == 1
    assert (snapshot._cell.closure is not None) == (backend == "vectorized")
    # Non-vacuous: the nu points disagree.
    assert len(recovered) > 3


@pytest.mark.parametrize("base", ["tiny", "tiny-chipless"])
def test_one_cell_serves_every_nu_under_random_jamming(base):
    """Under reactive jamming at the tiny presets every chipless pair
    probability is 0 or 1; random jamming makes the sweep's uniform
    draws decide outcomes, and a reused cell still equals fresh runs."""
    snapshot = None
    for nu in NU_ORDERS["shuffled"]:
        experiment = _point(
            base, nu, q=10, strategy=JammerStrategy.RANDOM,
            sample_latency=True,
        )
        if snapshot is None:
            snapshot = FieldSnapshot(experiment.snapshot_key(0))
        served = experiment.run_once(0, snapshot)
        _assert_same_run(served, experiment.run_once(0))
        assert served.mean_dndp_latency is not None
    assert 0 < served.dndp_successes < served.n_pairs


@pytest.mark.parametrize("link_model", ["codes", "independent"])
def test_two_rounds_reuse_only_the_dndp_outcome(link_model, monkeypatch):
    """Links from one M-NDP round feed the next, so with two rounds a
    cell holds the direct mask, not a closure, and every point runs
    M-NDP afresh over it."""
    decided = _counting(monkeypatch, NetworkExperiment, "_decide")
    snapshot = None
    served = []
    for nu in NU_ORDERS["shuffled"]:
        experiment = _point("tiny", nu, link_model=link_model, mndp_rounds=2)
        if snapshot is None:
            snapshot = FieldSnapshot(experiment.snapshot_key(0))
        served.append((experiment, experiment.run_once(0, snapshot)))
    assert len(decided) == 1
    cell = snapshot._cell
    assert cell.closure is None
    assert cell.direct is not None and not cell.direct.flags.writeable
    for experiment, result in served:
        _assert_same_run(result, experiment.run_once(0))
    assert len({result.mndp_successes for _, result in served}) > 3


@pytest.mark.parametrize(
    "change",
    [
        {"q": 10},
        {"strategy": JammerStrategy.RANDOM},
        {"link_model": "independent"},
        {"mndp_rounds": 2},
        {"sample_latency": True},
    ],
    ids=lambda change: next(iter(change)),
)
def test_any_input_but_nu_is_a_cell_miss(change, monkeypatch):
    decided = _counting(monkeypatch, NetworkExperiment, "_decide")
    base = _point("tiny", 3)
    snapshot = FieldSnapshot(base.snapshot_key(0))
    base.run_once(0, snapshot)
    _point("tiny", 6).run_once(0, snapshot)
    assert len(decided) == 1
    other = _point("tiny", 3, **change)
    served = other.run_once(0, snapshot)
    assert len(decided) == 2
    _assert_same_run(served, other.run_once(0))
    # The snapshot now holds the other cell: the base cell misses again.
    base.run_once(0, snapshot)
    assert len(decided) == 4


def test_eight_points_sweep_once_and_grow_each_ball_once(monkeypatch):
    sweeps = _counting(monkeypatch, NetworkExperiment, "_sample_dndp")
    grows = _counting(monkeypatch, mndp_module, "_grow")
    first_balls = _counting(monkeypatch, HopClosure, "_first_ball")
    snapshot = None
    for nu in NU_ORDERS["shuffled"]:
        experiment = _point("tiny", nu)
        if snapshot is None:
            snapshot = FieldSnapshot(experiment.snapshot_key(0))
        experiment.run_once(0, snapshot)
    closure = snapshot._cell.closure
    assert closure.level == 8
    assert len(sweeps) == 1
    assert len(first_balls) == 1
    # B_2, B_3 and B_4 answer levels 3 to 8, one growth each.
    assert len(grows) == 3
    # A fresh run at nu=8 grows the same balls again.
    _point("tiny", 8).run_once(0)
    assert len(grows) == 6 and len(sweeps) == 2

"""Unit tests for the node compromise model."""

import numpy as np
import pytest

from repro.adversary.compromise import CompromiseModel
from repro.adversary.jammer import JammerStrategy, JammingModel
from repro.errors import ConfigurationError
from repro.experiments.runner import FieldSnapshot, NetworkExperiment
from repro.experiments.scenarios import preset_config
from repro.predistribution.authority import PreDistributor


@pytest.fixture
def assignment(rng):
    return PreDistributor(40, codes_per_node=4, share_count=8).assign(rng)


class TestCompromise:
    def test_random_count(self, assignment, rng):
        state = CompromiseModel(assignment).compromise_random(5, rng)
        assert state.n_nodes == 5

    def test_codes_are_union(self, assignment, rng):
        model = CompromiseModel(assignment)
        state = model.compromise_nodes([0, 3])
        expected = set(assignment.node_codes[0]) | set(
            assignment.node_codes[3]
        )
        assert set(state.codes) == expected
        assert state.n_codes == len(expected)

    def test_knows_queries(self, assignment, rng):
        model = CompromiseModel(assignment)
        state = model.compromise_nodes([1])
        assert state.knows_node(1)
        assert not state.knows_node(2)
        for code in assignment.node_codes[1]:
            assert state.knows_code(code)

    def test_empty(self, assignment):
        state = CompromiseModel(assignment).empty()
        assert state.n_nodes == 0
        assert state.n_codes == 0

    def test_zero_q(self, assignment, rng):
        state = CompromiseModel(assignment).compromise_random(0, rng)
        assert state.n_nodes == 0

    def test_q_exceeds_n(self, assignment, rng):
        with pytest.raises(ConfigurationError):
            CompromiseModel(assignment).compromise_random(99, rng)

    def test_distinct_nodes(self, assignment, rng):
        state = CompromiseModel(assignment).compromise_random(10, rng)
        assert len(state.nodes) == 10


class TestTypedQ:
    @pytest.mark.parametrize("q", [2.5, 3.0, True, "3", None])
    def test_non_integer_q_rejected(self, assignment, rng, q):
        with pytest.raises(ConfigurationError):
            CompromiseModel(assignment).compromise_random(q, rng)

    def test_numpy_integer_q_accepted(self, assignment, rng):
        state = CompromiseModel(assignment).compromise_random(
            np.int64(3), rng
        )
        assert state.n_nodes == 3

    @pytest.mark.parametrize("nodes", [[1.7], [True], np.array([2.0])])
    def test_non_integer_nodes_rejected(self, assignment, nodes):
        with pytest.raises(ConfigurationError):
            CompromiseModel(assignment).compromise_nodes(nodes)


class TestArrayState:
    """The array-held state equals the set union it replaces, and the
    runner's compromised-code mask follows it."""

    @pytest.mark.parametrize("q", [0, 1, 40])
    def test_random_state_matches_the_set_union(self, assignment, q):
        state = CompromiseModel(assignment).compromise_random(
            q, np.random.default_rng(9)
        )
        drawn = (
            np.random.default_rng(9).choice(40, size=q, replace=False)
            if q
            else np.empty(0, dtype=np.int64)
        )
        codes = set()
        for node in drawn.tolist():
            codes |= set(assignment.node_codes[node])
        assert state.nodes == frozenset(drawn.tolist())
        assert state.codes == frozenset(codes)
        assert state.node_array.tolist() == sorted(drawn.tolist())
        assert state.code_array.tolist() == sorted(codes)
        assert state.n_codes == len(codes)
        assert not state.code_array.flags.writeable
        jamming = JammingModel.from_compromise(
            JammerStrategy.REACTIVE, state, 8, 1.0
        )
        assert jamming.n_compromised == len(codes)
        assert all(
            jamming.knows(code) == (code in codes)
            for code in range(assignment.pool_size)
        )

    @pytest.mark.parametrize("q", [0, 1, 2000])
    def test_runner_mask_matches_the_codes(self, q):
        config = preset_config("paper").replace(n_compromised=q)
        experiment = NetworkExperiment(config, seed=4)
        snapshot = FieldSnapshot(experiment.snapshot_key(0))
        assignment, mask, jamming = experiment._code_state(snapshot)
        drawn = (
            snapshot.seeds.rng("compromise").choice(
                2000, size=q, replace=False
            )
            if q
            else []
        )
        codes = set()
        for node in list(drawn):
            codes |= set(assignment.node_codes[int(node)])
        assert mask.shape == (assignment.pool_size,)
        assert np.flatnonzero(mask).tolist() == sorted(codes)
        assert jamming.n_compromised == len(codes)

    def test_equal_states_compare_and_hash_equal(self, assignment):
        model = CompromiseModel(assignment)
        a = model.compromise_nodes([3, 0, 3])
        b = model.compromise_nodes(np.array([0, 3]))
        assert a == b and hash(a) == hash(b)
        assert a != model.compromise_nodes([0])
        assert model.empty() == model.compromise_nodes([])

"""Reference vs vectorized pre-distribution assignment equivalence."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.predistribution.authority import CodeAssignment, PreDistributor


class TestAssignBackends:
    @pytest.mark.parametrize(
        "n,m,l",
        [
            (10, 3, 2),       # no virtual nodes
            (11, 3, 4),       # virtual padding
            (40, 10, 40),     # one subset per round
            (97, 7, 13),      # awkward arithmetic
        ],
    )
    def test_identical_assignments(self, n, m, l):
        distributor = PreDistributor(n, m, l)
        for seed in (0, 1, 99):
            want = distributor.assign(
                np.random.default_rng(seed), backend="reference"
            )
            got = distributor.assign(
                np.random.default_rng(seed), backend="vectorized"
            )
            assert want.node_codes == got.node_codes
            assert want.code_holders == got.code_holders
            # Key insertion order matters for deterministic iteration.
            assert list(want.code_holders) == list(got.code_holders)
            assert want.pool_size == got.pool_size

    def test_same_rng_stream_consumption(self):
        # Both backends draw exactly one permutation per round, so a
        # draw made *after* assign must agree between them.
        distributor = PreDistributor(23, 5, 4)
        rng_a = np.random.default_rng(7)
        rng_b = np.random.default_rng(7)
        distributor.assign(rng_a, backend="reference")
        distributor.assign(rng_b, backend="vectorized")
        assert rng_a.integers(0, 1 << 30) == rng_b.integers(0, 1 << 30)

    def test_node_codes_are_python_ints(self):
        assignment = PreDistributor(9, 2, 3).assign(
            np.random.default_rng(3)
        )
        for codes in assignment.node_codes:
            assert all(type(code) is int for code in codes)
        for holders in assignment.code_holders.values():
            assert all(type(node) is int for node in holders)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            PreDistributor(9, 2, 3).assign(
                np.random.default_rng(0), backend="fast"
            )


def _assert_round_aligned(assignment, w):
    codes = assignment.codes
    assert codes.dtype == np.int64
    rounds = np.arange(codes.shape[1])
    assert ((codes >= w * rounds) & (codes < w * (rounds + 1))).all()


class TestRoundAlignedLayout:
    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    @pytest.mark.parametrize("n,m,l", [(10, 3, 2), (253, 6, 10), (97, 7, 13)])
    def test_assign_puts_round_r_in_its_block(self, backend, n, m, l):
        distributor = PreDistributor(n, m, l)
        assignment = distributor.assign(
            np.random.default_rng(4), backend=backend
        )
        assert assignment.codes.shape == (n, m)
        _assert_round_aligned(assignment, distributor.subsets_per_round)

    @pytest.mark.parametrize("n_new", [2, 3, 9, 40])
    def test_joins_keep_the_layout(self, n_new):
        # n=57, l=10: three virtual slots, so n_new=2 uses only slots,
        # 3 exhausts them, and 9 and 40 need one and several extra
        # passes.
        distributor = PreDistributor(57, codes_per_node=4, share_count=10)
        rng = np.random.default_rng(8)
        assignment = distributor.assign(rng)
        extended, new = distributor.admit_new_nodes(assignment, n_new, rng)
        assert new == list(range(57, 57 + n_new))
        assert extended.codes.shape == (57 + n_new, 4)
        assert np.array_equal(extended.codes[:57], assignment.codes)
        _assert_round_aligned(extended, distributor.subsets_per_round)

    def test_joins_after_joins_keep_the_layout(self):
        distributor = PreDistributor(60, codes_per_node=3, share_count=10)
        rng = np.random.default_rng(2)
        assignment = distributor.assign(rng)
        for n_new in (4, 7):
            assignment, _ = distributor.admit_new_nodes(
                assignment, n_new, rng
            )
        assert assignment.n_nodes == 71
        _assert_round_aligned(assignment, distributor.subsets_per_round)


class TestCodeAssignment:
    @pytest.mark.parametrize(
        "codes,pool_size",
        [
            ([[1, 0]], 4),          # round 1's code from round 0's block
            ([[0, 4]], 4),          # past the pool
            ([[-1, 2]], 4),         # negative index
            ([[0, 2], [2, 3]], 4),  # node 1's round-0 code in round 1
            ([[0, 2, 4]], 4),       # pool not a multiple of m
            ([0, 2], 4),            # not a matrix
            ([[0, 2], [1]], 4),     # ragged rows
        ],
    )
    def test_rejects_codes_outside_the_layout(self, codes, pool_size):
        with pytest.raises(ConfigurationError):
            CodeAssignment(codes, pool_size=pool_size)

    def test_views_are_built_from_the_matrix(self):
        # w = 3: round 0 draws from [0, 3), round 1 from [3, 6).
        assignment = CodeAssignment([[0, 3], [1, 3], [0, 4]], pool_size=6)
        assert assignment.node_codes == [[0, 3], [1, 3], [0, 4]]
        # Every pool code has a key, in index order, empty ones too.
        assert list(assignment.code_holders.items()) == [
            (0, {0, 2}), (1, {1}), (2, set()), (3, {0, 1}), (4, {2}),
            (5, set()),
        ]
        assert assignment.shared_codes(0, 1) == [3]
        assert assignment.shared_codes(0, 2) == [0]
        assert assignment.compromised_codes([1, 2]) == {0, 1, 3, 4}
        assert assignment.max_share_count() == 2

    def test_matrix_is_read_only(self):
        assignment = CodeAssignment([[0, 2]], pool_size=4)
        with pytest.raises(ValueError):
            assignment.codes[0, 0] = 1


class TestRoundLocalKeys:
    """The assignment holds round-local keys; every view derived from
    them equals the per-subset reference's."""

    @pytest.mark.parametrize(
        "n,m,l",
        [
            (57, 6, 10),    # n % l != 0: three virtual slots per round
            (600, 4, 2),    # w = 300 > 255: uint16 keys
            (601, 3, 2),    # both: w = 301 and one virtual slot
            (40, 5, 40),    # w = 1: every key is 0
        ],
    )
    def test_views_equal_the_reference(self, n, m, l):
        distributor = PreDistributor(n, m, l)
        w = distributor.subsets_per_round
        for seed in (0, 5):
            want = distributor.assign(
                np.random.default_rng(seed), backend="reference"
            )
            got = distributor.assign(
                np.random.default_rng(seed), backend="vectorized"
            )
            assert got.keys.dtype == np.min_scalar_type(w - 1)
            assert got.keys.shape == (n, m)
            assert not got.keys.flags.writeable
            assert np.array_equal(got.keys, want.keys)
            assert np.array_equal(
                got.codes, got.keys + w * np.arange(m)
            )
            assert got.codes.dtype == np.int64
            assert not got.codes.flags.writeable
            assert np.array_equal(got.codes, want.codes)
            assert got.node_codes == want.node_codes
            assert list(got.code_holders.items()) == list(
                want.code_holders.items()
            )
            for a, b in ((0, 1), (2, n - 1), (n - 1, 3)):
                assert got.shared_codes(a, b) == want.shared_codes(a, b)
            assert got.max_share_count() == want.max_share_count()
            rng_a = np.random.default_rng(seed + 1)
            rng_b = np.random.default_rng(seed + 1)
            joined_want, new_want = distributor.admit_new_nodes(
                want, l + 3, rng_a
            )
            joined_got, new_got = distributor.admit_new_nodes(
                got, l + 3, rng_b
            )
            assert new_got == new_want
            assert np.array_equal(joined_got.keys, joined_want.keys)
            assert joined_got.node_codes == joined_want.node_codes

    def test_wide_keys_need_uint16(self):
        assignment = PreDistributor(600, 4, 2).assign(
            np.random.default_rng(2)
        )
        assert assignment.keys.dtype == np.uint16
        assert int(assignment.keys.max()) == 299

    def test_keys_from_the_constructor(self):
        # w = 3: round 1's codes [3, 6) become keys [0, 3).
        assignment = CodeAssignment([[0, 3], [2, 5]], pool_size=6)
        assert assignment.keys.dtype == np.uint8
        assert assignment.keys.tolist() == [[0, 0], [2, 2]]
        assert assignment.offsets.tolist() == [0, 3]

    @pytest.mark.parametrize(
        "keys",
        [
            np.array([[0, 1]], dtype=np.int64),   # not the key dtype
            np.array([[0, 3]], dtype=np.uint8),   # key >= w
            np.array([0, 1], dtype=np.uint8),     # not a matrix
        ],
    )
    def test_assignment_path_checks_its_keys(self, keys):
        with pytest.raises(ConfigurationError):
            CodeAssignment._from_keys(keys, pool_size=6)


class TestTypedCodes:
    @pytest.mark.parametrize(
        "codes",
        [
            [[0.7, 3.2], [1.9, 2.0]],         # floats would truncate
            [[True, 3], [1, 2]],              # a bool among integers
            [[0, "3"], [1, 2]],               # text
            np.array([[0.0, 3.0], [1.0, 2.0]]),
            np.array([[True, False], [True, True]]),
            [[0, 2**70], [1, 2]],             # beyond int64
        ],
    )
    def test_non_integer_codes_rejected(self, codes):
        with pytest.raises(ConfigurationError):
            CodeAssignment(codes, pool_size=4)

    def test_numpy_integer_entries_accepted(self):
        assignment = CodeAssignment(
            [[np.int32(0), np.uint8(3)], [1, np.int64(2)]], pool_size=4
        )
        assert assignment.node_codes == [[0, 3], [1, 2]]

    @pytest.mark.parametrize(
        "nodes", [[1.7], [True], np.array([1.0]), np.array([True]), ["1"]]
    )
    def test_non_integer_nodes_rejected(self, nodes):
        assignment = CodeAssignment([[0, 2], [1, 3]], pool_size=4)
        with pytest.raises(ConfigurationError):
            assignment.compromised_codes(nodes)

    def test_integer_nodes_accepted(self):
        assignment = CodeAssignment([[0, 2], [1, 3]], pool_size=4)
        assert assignment.compromised_codes(np.array([1], np.uint8)) == {
            1, 3
        }
        assert assignment.compromised_codes([]) == set()

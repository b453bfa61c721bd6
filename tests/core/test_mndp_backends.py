"""Reference vs vectorized M-NDP closure equivalence."""

import random
from collections import Counter

import numpy as np
import pytest

from repro.core.mndp import LogicalGraph, MNDPSampler
from repro.errors import ConfigurationError
from repro.obs import MetricsRegistry, installed
from repro.obs import names


def _random_instance(rnd):
    n = rnd.randrange(5, 35)
    graph = LogicalGraph(n)
    for _ in range(rnd.randrange(0, 3 * n)):
        a, b = rnd.sample(range(n), 2)
        graph.add_link(a, b)
    pairs = sorted(
        {
            tuple(sorted(rnd.sample(range(n), 2)))
            for _ in range(rnd.randrange(1, 25))
        }
    )
    return n, graph, pairs


def _run_backend(backend, nu, pairs, graph, exclude=(), rounds=1):
    """``discover`` on one backend: the recovered pair array and the
    metrics."""
    registry = MetricsRegistry()
    with installed(registry):
        recovered = MNDPSampler(
            nu, exclude=exclude, backend=backend
        ).discover(pairs, graph, rounds=rounds)
    return recovered, registry.snapshot()


def _assert_backends_agree(nu, pairs, graph, exclude=(), rounds=1):
    """Same pairs, counters and ``mndp.recovery_hops`` histogram from
    both backends, and the same hop count for every pending pair (see
    :func:`_per_pair_hops`).  Returns the recovered pairs and the hop
    counts in pending order, round by round."""
    want, want_metrics = _run_backend(
        "reference", nu, pairs, graph, exclude, rounds
    )
    got, got_metrics = _run_backend(
        "vectorized", nu, pairs, graph, exclude, rounds
    )
    _assert_sorted_pairs(want)
    _assert_sorted_pairs(got)
    assert np.array_equal(got, want)
    assert got_metrics.counters == want_metrics.counters
    assert got_metrics.histograms == want_metrics.histograms
    found = _per_pair_hops(nu, pairs, graph, exclude, rounds)
    assert sorted(found) == [tuple(pair) for pair in want.tolist()]
    hops = list(found.values())
    stat = want_metrics.histograms.get(names.MNDP_RECOVERY_HOPS)
    assert (stat.counts if stat else ()) == tuple(
        sorted(Counter(float(h) for h in hops).items())
    )
    return want, hops


def _per_pair_hops(nu, pairs, graph, exclude, rounds):
    """Round by round, the reference ``_one_round`` pair → hops dict
    equals the vectorized ``_closure_distances`` of the same pending
    pairs; returns every round's dict merged, in pending order."""
    sampler = MNDPSampler(nu, exclude=exclude)
    working = graph.copy()
    found = {}
    for _ in range(rounds):
        pending = [
            (min(a, b), max(a, b))
            for a, b in np.asarray(pairs).reshape(-1, 2).tolist()
            if not working.has_link(a, b)
        ]
        want = sampler._one_round(pending, working)
        assert _closure_hops(sampler, pending, working) == want
        if not want:
            break
        found.update(want)
        working.add_links(list(want))
    return found


def _closure_hops(sampler, pending, graph):
    """The vectorized closure's pair → hops dict for ``pending``."""
    excluded = sampler.excluded
    ends = np.array(pending, dtype=np.int64).reshape(-1, 2)
    edges = graph.edge_array()
    relay = np.array(
        [a not in excluded and b not in excluded
         for a, b in edges.tolist()],
        dtype=bool,
    )
    valid = np.array(
        [a != b and a not in excluded and b not in excluded
         for a, b in pending],
        dtype=bool,
    )
    dist = sampler._closure_distances(
        ends[:, 0], ends[:, 1], valid,
        edges[relay, 0], edges[relay, 1], graph.n_nodes,
    )
    return {
        pair: hops for pair, hops in zip(pending, dist.tolist()) if hops
    }


def _assert_sorted_pairs(recovered):
    """A ``(k, 2)`` int64 array of ``a < b`` rows in ``(a, b)`` order."""
    assert recovered.dtype == np.int64
    assert recovered.ndim == 2 and recovered.shape[1] == 2
    assert (recovered[:, 0] < recovered[:, 1]).all()
    assert recovered.tolist() == sorted(recovered.tolist())


class TestBackendEquivalence:
    @pytest.mark.parametrize("nu", [1, 2, 3, 5])
    def test_one_round_identical_dicts(self, nu):
        rnd = random.Random(500 + nu)
        for _ in range(40):
            n, graph, pairs = _random_instance(rnd)
            exclude = rnd.sample(range(n), rnd.randrange(0, 3))
            _assert_backends_agree(nu, pairs, graph, exclude)

    def test_discover_identical_over_rounds(self):
        rnd = random.Random(900)
        for _ in range(30):
            n, graph, pairs = _random_instance(rnd)
            rounds = rnd.randrange(1, 4)
            want = MNDPSampler(2, backend="reference").discover(
                pairs, graph, rounds=rounds
            )
            got = MNDPSampler(2, backend="vectorized").discover(
                pairs, graph, rounds=rounds
            )
            assert np.array_equal(want, got)

    def test_discover_leaves_caller_graph_untouched(self):
        graph = LogicalGraph(4)
        graph.add_link(0, 1)
        graph.add_link(1, 2)
        edges_before = graph.edges()
        recovered = MNDPSampler(2).discover(
            [(0, 2), (0, 3)], graph, rounds=3
        )
        assert recovered.tolist() == [[0, 2]]
        assert graph.edges() == edges_before

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            MNDPSampler(2, backend="gpu")

    def test_backend_property(self):
        assert MNDPSampler(2).backend == "vectorized"
        assert MNDPSampler(2, backend="reference").backend == "reference"

    def test_discover_with_excludes_and_duplicates(self):
        # Duplicate and reversed pairs must resolve once (dict-key
        # semantics of the reference), and excluded nodes must neither
        # relay nor discover.
        rnd = random.Random(77)
        for _ in range(25):
            n, graph, pairs = _random_instance(rnd)
            noisy = pairs + [(b, a) for a, b in pairs[::2]] + pairs[:3]
            exclude = rnd.sample(range(n), rnd.randrange(0, 4))
            want = MNDPSampler(
                3, exclude=exclude, backend="reference"
            ).discover(noisy, graph, rounds=2)
            got = MNDPSampler(
                3, exclude=exclude, backend="vectorized"
            ).discover(noisy, graph, rounds=2)
            assert np.array_equal(want, got)

    def test_discover_metrics_identical(self):
        rnd = random.Random(4242)
        for _ in range(10):
            n, graph, pairs = _random_instance(rnd)
            exclude = rnd.sample(range(n), rnd.randrange(0, 3))
            _assert_backends_agree(3, pairs, graph, exclude, rounds=3)

    def test_self_pairs_never_recovered(self):
        graph = LogicalGraph(4)
        graph.add_link(0, 1)
        graph.add_link(1, 2)
        recovered, hops = _assert_backends_agree(
            3, [(1, 1), (0, 0), (0, 2)], graph
        )
        assert recovered.tolist() == [[0, 2]]
        assert hops == [2]

    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    @pytest.mark.parametrize("index", [-1, 6])
    def test_out_of_range_pair_rejected(self, backend, index):
        # -1 would otherwise wrap to node n-1 on the array path and fake
        # (or hide) a recovery.
        graph = LogicalGraph(6)
        graph.add_links([(0, 5), (5, 4)])
        sampler = MNDPSampler(3, backend=backend)
        with pytest.raises(
            ConfigurationError,
            match=rf"node index {index} out of range \[0, 6\)",
        ):
            sampler.discover([(0, 4), (index, 4)], graph)
        with pytest.raises(ConfigurationError):
            sampler.discover(np.array([[4, index]]), graph)


NUS = list(range(1, 9))


def _path_graph(n):
    graph = LogicalGraph(n)
    graph.add_links([(i, i + 1) for i in range(n - 1)])
    return graph


class TestClosureEquivalence:
    """The ball closure against the per-source networkx oracle for
    every hop budget the Figure 5 sweep uses."""

    @pytest.mark.parametrize("n", [63, 64, 65, 128, 129])
    def test_word_boundary_sizes(self, n):
        # Balls pack n nodes into ceil(n/64) words; these sizes put the
        # last node on, just past, and just before a word boundary.
        rnd = random.Random(n)
        graph = LogicalGraph(n)
        graph.add_links(
            {tuple(sorted(rnd.sample(range(n), 2))) for _ in range(n)}
        )
        edges = graph.edges()
        boundary = [0, 1, 62, 63, 64, 65, n - 2, n - 1]
        pairs = sorted(
            {
                tuple(sorted(rnd.sample(range(n), 2)))
                for _ in range(3 * n)
            }
            | {
                (a, b)
                for a in boundary
                for b in boundary
                if a < b < n
            }
        )
        exclude = rnd.sample(range(n), 3)
        for nu in NUS:
            _assert_backends_agree(nu, pairs, graph)
            _assert_backends_agree(nu, pairs, graph, exclude)
        recovered, _ = _assert_backends_agree(8, pairs, graph)
        # Non-vacuous: some pairs recover and some stay out of reach.
        assert 0 < len(recovered) < len(
            [p for p in pairs if p not in edges]
        )

    @pytest.mark.parametrize("nu", NUS)
    def test_path_at_exactly_nu_and_one_past(self, nu):
        graph = _path_graph(12)
        pairs = [(0, nu), (0, nu + 1), (3, 3 + nu), (2, 3 + nu)]
        recovered, hops = _assert_backends_agree(nu, pairs, graph)
        if nu == 1:
            assert recovered.shape == (0, 2)
        else:
            assert recovered.tolist() == [[0, nu], [3, 3 + nu]]
            assert hops == [nu, nu]

    @pytest.mark.parametrize("nu", NUS)
    def test_ring_at_exactly_nu_and_one_past(self, nu):
        # Both ways round a ring of 2 * nu + 3 nodes: node nu sits nu
        # hops away, node nu + 1 is nu + 1 hops away either way.
        n = 2 * nu + 3
        graph = _path_graph(n)
        graph.add_link(n - 1, 0)
        pairs = [(0, nu), (0, nu + 1), (0, n - nu), (0, n - nu - 1)]
        recovered, hops = _assert_backends_agree(nu, pairs, graph)
        if nu == 1:
            assert recovered.shape == (0, 2)
        else:
            assert recovered.tolist() == [[0, nu], [0, n - nu]]
            assert hops == [nu, nu]

    @pytest.mark.parametrize("nu", NUS)
    def test_excluded_relay_mid_path(self, nu):
        # 0-1-2-3-4 (4 hops) plus the detour 0-5-6-7-8-4 (5 hops).
        graph = LogicalGraph(9)
        graph.add_links([(0, 1), (1, 2), (2, 3), (3, 4)])
        graph.add_links([(0, 5), (5, 6), (6, 7), (7, 8), (8, 4)])
        pairs = [(0, 4), (1, 4), (0, 7)]
        full, _ = _assert_backends_agree(nu, pairs, graph)
        cut, cut_hops = _assert_backends_agree(
            nu, pairs, graph, exclude=[2]
        )
        assert ([0, 4] in full.tolist()) == (nu >= 4)
        # With relay 2 out, 0 reaches 4 only by the 5-hop detour, and
        # 1 only through 0 (6 hops).
        assert ([0, 4] in cut.tolist()) == (nu >= 5)
        assert ([1, 4] in cut.tolist()) == (nu >= 6)
        if nu >= 6:
            assert cut_hops == [5, 6, 3]
        both, _ = _assert_backends_agree(
            nu, pairs, graph, exclude=[2, 6]
        )
        assert [0, 4] not in both.tolist()
        assert [1, 4] not in both.tolist()

    @pytest.mark.parametrize("nu", NUS)
    def test_excluded_endpoints(self, nu):
        graph = _path_graph(10)
        pairs = [(0, 5), (2, 9), (4, 6), (0, 9)]
        recovered, _ = _assert_backends_agree(
            nu, pairs, graph, exclude=[0, 9]
        )
        assert not np.isin(recovered, [0, 9]).any()

    @pytest.mark.parametrize("rounds", [2, 3])
    @pytest.mark.parametrize("nu", [3, 4, 6, 8])
    def test_multi_round_cascades(self, nu, rounds):
        rnd = random.Random(31 * nu + rounds)
        for _ in range(15):
            n, graph, pairs = _random_instance(rnd)
            exclude = rnd.sample(range(n), rnd.randrange(0, 3))
            _assert_backends_agree(nu, pairs, graph, exclude, rounds)
        # A chain whose round-1 links bring far pairs within budget.
        n = 4 * nu + 1
        graph = _path_graph(n)
        pairs = [(0, nu), (nu, 2 * nu), (0, 2 * nu), (0, n - 1)]
        recovered, _ = _assert_backends_agree(
            nu, pairs, graph, rounds=rounds
        )
        assert [0, 2 * nu] in recovered.tolist()

    @pytest.mark.parametrize("nu", [3, 8])
    def test_paper_scale_field(self, nu):
        # The Table I field: 2000 nodes, 300 m range in 5000 m x 5000 m,
        # with ~30% of the physical links logical after D-NDP.
        from repro.sim.field import RectangularField
        from repro.sim.mobility import uniform_positions

        rng = np.random.default_rng(20110620)
        field = RectangularField(5000.0, 5000.0, 300.0)
        pairs = field.neighbor_pairs(uniform_positions(field, 2000, rng))
        graph = LogicalGraph(2000)
        graph.add_links(pairs[rng.random(len(pairs)) < 0.3])
        recovered, hops = _assert_backends_agree(nu, pairs, graph)
        assert max(hops) == nu and len(recovered) > len(pairs) // 4


class TestLogicalGraphBulk:
    def test_add_links_matches_add_link(self):
        one = LogicalGraph(6)
        for a, b in [(0, 1), (1, 2), (4, 5)]:
            one.add_link(a, b)
        bulk = LogicalGraph(6)
        bulk.add_links(np.array([[0, 1], [1, 2], [4, 5]]))
        assert bulk.edges() == one.edges()
        assert bulk.n_edges == 3
        assert bulk.has_link(1, 2)
        assert bulk.neighbors(1) == {0, 2}

    def test_add_links_accepts_iterables_and_empty(self):
        graph = LogicalGraph(4)
        graph.add_links([(0, 1), (2, 3)])
        graph.add_links([])
        assert graph.edges() == {(0, 1), (2, 3)}

    def test_add_links_rejects_self_loops(self):
        graph = LogicalGraph(4)
        with pytest.raises(ConfigurationError):
            graph.add_links([(0, 1), (2, 2)])
        # The rejected batch left no partial state behind.
        assert graph.edges() == set()

    def test_edge_array_covers_both_insert_paths(self):
        graph = LogicalGraph(5)
        graph.add_link(0, 1)
        graph.add_links(np.array([[1, 2], [3, 4]]))
        recorded = {
            tuple(sorted(edge)) for edge in graph.edge_array().tolist()
        }
        assert recorded == {(0, 1), (1, 2), (3, 4)}

    def test_copy_preserves_buffered_links(self):
        graph = LogicalGraph(4)
        graph.add_links([(0, 1)])
        clone = graph.copy()
        clone.add_links([(2, 3)])
        assert clone.edges() == {(0, 1), (2, 3)}
        assert graph.edges() == {(0, 1)}

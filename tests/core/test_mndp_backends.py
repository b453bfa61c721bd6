"""The M-NDP closure against its networkx oracle.

``"vectorized"`` is :meth:`MNDPSampler.discover` (the hop-ball
closure), ``"reference"`` the per-source networkx loop of
:func:`repro.oracles.reference_discover`.
"""

import random
from collections import Counter

import numpy as np
import pytest

from repro.core.mndp import HopClosure, LogicalGraph, MNDPSampler
from repro.errors import ConfigurationError
from repro.obs import MetricsRegistry, installed
from repro.obs import names
from repro.oracles import ReferenceGraph, reference_discover, reference_round

#: ``discover(nu, pairs, graph, rounds)`` of each implementation.
DISCOVER = {
    "reference": reference_discover,
    "vectorized": lambda nu, pairs, graph, rounds=1: MNDPSampler(
        nu
    ).discover(pairs, graph, rounds=rounds),
}


def _random_instance(rnd):
    n = rnd.randrange(5, 35)
    graph = ReferenceGraph(n)
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


def _run_backend(backend, nu, pairs, graph, rounds=1):
    """``discover`` on one backend: the recovered pair array and the
    metrics."""
    registry = MetricsRegistry()
    with installed(registry):
        recovered = DISCOVER[backend](nu, pairs, graph, rounds=rounds)
    return recovered, registry.snapshot()


def _assert_backends_agree(nu, pairs, graph, rounds=1):
    """Same pairs, counters and ``mndp.recovery_hops`` histogram from
    both backends, and the same hop count for every pending pair (see
    :func:`_per_pair_hops`).  Returns the recovered pairs and the hop
    counts in pending order, round by round."""
    want, want_metrics = _run_backend("reference", nu, pairs, graph, rounds)
    got, got_metrics = _run_backend("vectorized", nu, pairs, graph, rounds)
    _assert_sorted_pairs(want)
    _assert_sorted_pairs(got)
    assert np.array_equal(got, want)
    assert got_metrics.counters == want_metrics.counters
    assert got_metrics.histograms == want_metrics.histograms
    found = _per_pair_hops(nu, pairs, graph, rounds)
    assert sorted(found) == [tuple(pair) for pair in want.tolist()]
    hops = list(found.values())
    stat = want_metrics.histograms.get(names.MNDP_RECOVERY_HOPS)
    assert (stat.counts if stat else ()) == tuple(
        sorted(Counter(float(h) for h in hops).items())
    )
    return want, hops


def _per_pair_hops(nu, pairs, graph, rounds):
    """Round by round, the reference ``reference_round`` pair → hops
    dict equals the vectorized ``HopClosure`` distances of the same
    pending pairs; returns every round's dict merged, in pending
    order."""
    working = graph.copy()
    found = {}
    for _ in range(rounds):
        pending = _pending(pairs, working)
        want = reference_round(nu, pending, working)
        dist = _closure(pending, working).distances(nu)
        assert {
            pair: hops for pair, hops in zip(pending, dist.tolist()) if hops
        } == want
        if not want:
            break
        found.update(want)
        working.add_links(list(want))
    return found


def _pending(pairs, graph):
    """``pairs`` as ``(a, b), a <= b`` tuples, in order, without the
    ones ``graph`` already links."""
    return [
        (min(a, b), max(a, b))
        for a, b in np.asarray(pairs).reshape(-1, 2).tolist()
        if not graph.has_link(a, b)
    ]


def _closure(pending, graph):
    """The vectorized closure of the ``pending`` pairs over every link
    of ``graph``."""
    ends = np.array(pending, dtype=np.int64).reshape(-1, 2)
    edges = graph.edge_array()
    return HopClosure(
        ends[:, 0], ends[:, 1], edges[:, 0], edges[:, 1], graph.n_nodes
    )


def _without(graph, nodes):
    """A copy of ``graph`` in which ``nodes`` relay nothing: every link
    touching one is dropped."""
    kept = ReferenceGraph(graph.n_nodes)
    kept.add_links(
        [edge for edge in graph.edges() if not set(edge) & set(nodes)]
    )
    return kept


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
            cut = _without(graph, rnd.sample(range(n), rnd.randrange(0, 3)))
            _assert_backends_agree(nu, pairs, cut)

    def test_discover_identical_over_rounds(self):
        rnd = random.Random(900)
        for _ in range(30):
            n, graph, pairs = _random_instance(rnd)
            rounds = rnd.randrange(1, 4)
            want = reference_discover(2, pairs, graph, rounds=rounds)
            got = MNDPSampler(2).discover(pairs, graph, rounds=rounds)
            assert np.array_equal(want, got)

    def test_discover_leaves_caller_graph_untouched(self):
        graph = ReferenceGraph(4)
        graph.add_link(0, 1)
        graph.add_link(1, 2)
        edges_before = graph.edges()
        logged_before = graph.edge_array().tolist()
        for discover in DISCOVER.values():
            recovered = discover(2, [(0, 2), (0, 3)], graph, rounds=3)
            assert recovered.tolist() == [[0, 2]]
            assert graph.edges() == edges_before
            assert graph.edge_array().tolist() == logged_before

    def test_discover_with_excludes_and_duplicates(self):
        # Duplicate and reversed pairs must resolve once (dict-key
        # semantics of the reference), and nodes cut off the graph must
        # neither relay nor discover.
        rnd = random.Random(77)
        for _ in range(25):
            n, graph, pairs = _random_instance(rnd)
            noisy = pairs + [(b, a) for a, b in pairs[::2]] + pairs[:3]
            excluded = rnd.sample(range(n), rnd.randrange(0, 4))
            cut = _without(graph, excluded)
            want = reference_discover(3, noisy, cut, rounds=2)
            got = MNDPSampler(3).discover(noisy, cut, rounds=2)
            assert np.array_equal(want, got)
            assert not np.isin(want, excluded).any()

    def test_discover_metrics_identical(self):
        rnd = random.Random(4242)
        for _ in range(10):
            n, graph, pairs = _random_instance(rnd)
            cut = _without(graph, rnd.sample(range(n), rnd.randrange(0, 3)))
            _assert_backends_agree(3, pairs, cut, rounds=3)

    def test_self_pairs_never_recovered(self):
        graph = ReferenceGraph(4)
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
        graph = ReferenceGraph(6)
        graph.add_links([(0, 5), (5, 4)])
        discover = DISCOVER[backend]
        with pytest.raises(
            ConfigurationError,
            match=rf"node index {index} out of range \[0, 6\)",
        ):
            discover(3, [(0, 4), (index, 4)], graph)
        with pytest.raises(ConfigurationError):
            discover(3, np.array([[4, index]]), graph)


NUS = list(range(1, 9))


def _path_graph(n):
    graph = ReferenceGraph(n)
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
        graph = ReferenceGraph(n)
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
        cut = _without(graph, rnd.sample(range(n), 3))
        for nu in NUS:
            _assert_backends_agree(nu, pairs, graph)
            _assert_backends_agree(nu, pairs, cut)
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
        graph = ReferenceGraph(9)
        graph.add_links([(0, 1), (1, 2), (2, 3), (3, 4)])
        graph.add_links([(0, 5), (5, 6), (6, 7), (7, 8), (8, 4)])
        pairs = [(0, 4), (1, 4), (0, 7)]
        full, _ = _assert_backends_agree(nu, pairs, graph)
        cut, cut_hops = _assert_backends_agree(
            nu, pairs, _without(graph, [2])
        )
        assert ([0, 4] in full.tolist()) == (nu >= 4)
        # With relay 2 out, 0 reaches 4 only by the 5-hop detour, and
        # 1 only through 0 (6 hops).
        assert ([0, 4] in cut.tolist()) == (nu >= 5)
        assert ([1, 4] in cut.tolist()) == (nu >= 6)
        if nu >= 6:
            assert cut_hops == [5, 6, 3]
        both, _ = _assert_backends_agree(
            nu, pairs, _without(graph, [2, 6])
        )
        assert [0, 4] not in both.tolist()
        assert [1, 4] not in both.tolist()

    @pytest.mark.parametrize("nu", NUS)
    def test_excluded_endpoints(self, nu):
        # Nodes 0 and 9 sit on no link of the path 1-...-8.
        graph = ReferenceGraph(10)
        graph.add_links([(i, i + 1) for i in range(1, 8)])
        pairs = [(0, 5), (2, 9), (4, 6), (0, 9), (1, 8)]
        recovered, _ = _assert_backends_agree(nu, pairs, graph)
        assert not np.isin(recovered, [0, 9]).any()
        assert ([4, 6] in recovered.tolist()) == (nu >= 2)

    def test_isolated_endpoints_at_nu_8(self):
        # Nodes 10..14 sit on no logical link, so every pair touching
        # one is out of reach and is dropped before a ball is built;
        # pairs_attempted and the hop histogram still count them as
        # the oracle does.
        graph = ReferenceGraph(15)
        graph.add_links([(i, i + 1) for i in range(9)])
        graph.add_links([(0, 5), (3, 9), (12, 13)])
        pairs = [
            (a, b)
            for a in range(15)
            for b in range(a + 1, 15)
            if not graph.has_link(a, b)
        ]
        recovered, hops = _assert_backends_agree(8, pairs, graph)
        isolated = [10, 11, 14]
        assert not np.isin(recovered, isolated).any()
        assert len(recovered) == 45 - 11 and max(hops) <= 8
        # Only isolated endpoints pending: nothing to resolve at all.
        only, _ = _assert_backends_agree(
            8, [(0, 10), (11, 14), (9, 12)], graph
        )
        assert only.shape == (0, 2)

    @pytest.mark.parametrize("rounds", [2, 3])
    @pytest.mark.parametrize("nu", [3, 4, 6, 8])
    def test_multi_round_cascades(self, nu, rounds):
        rnd = random.Random(31 * nu + rounds)
        for _ in range(15):
            n, graph, pairs = _random_instance(rnd)
            cut = _without(graph, rnd.sample(range(n), rnd.randrange(0, 3)))
            _assert_backends_agree(nu, pairs, cut, rounds)
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
        graph = ReferenceGraph(2000)
        graph.add_links(pairs[rng.random(len(pairs)) < 0.3])
        recovered, hops = _assert_backends_agree(nu, pairs, graph)
        assert max(hops) == nu and len(recovered) > len(pairs) // 4


class TestResumedClosure:
    """One :class:`HopClosure` queried at several hop budgets equals a
    fresh closure per budget, and ``discover`` resuming it from any
    level equals a plain ``discover``."""

    @pytest.mark.parametrize("seed", range(6))
    def test_any_order_equals_fresh(self, seed):
        rnd = random.Random(1300 + seed)
        for _ in range(20):
            n, graph, pairs = _random_instance(rnd)
            pending = _pending(pairs, graph)
            closure = _closure(pending, graph)
            budgets = [rnd.randrange(1, 9) for _ in range(6)]
            for nu in budgets:
                fresh = _closure(pending, graph)
                assert np.array_equal(
                    closure.distances(nu), fresh.distances(nu)
                )
                assert closure.level <= max(budgets)

    @pytest.mark.parametrize("nu", [1, 2, 5, 8])
    def test_discover_resumes_with_the_same_pairs_and_metrics(self, nu):
        rnd = random.Random(1400 + nu)
        for _ in range(25):
            n, graph, pairs = _random_instance(rnd)
            graph = _without(graph, rnd.sample(range(n), rnd.randrange(0, 3)))
            pending = _pending(pairs, graph)
            closure = _closure(pending, graph)
            # Resumed from any level reached before.
            closure.distances(rnd.randrange(1, 9))
            want, want_metrics = _run_backend("reference", nu, pairs, graph)
            registry = MetricsRegistry()
            with installed(registry):
                got = MNDPSampler(nu).discover(pending, None, closure=closure)
            _assert_sorted_pairs(got)
            assert np.array_equal(got, want)
            got_metrics = registry.snapshot()
            assert got_metrics.counters == want_metrics.counters
            assert got_metrics.histograms == want_metrics.histograms

    def test_resolved_closure_drops_its_ball(self):
        # A path 0-1-2-3: the pair (0, 3) sits at distance 3.
        graph = ReferenceGraph(4)
        graph.add_links([(0, 1), (1, 2), (2, 3)])
        closure = _closure([(0, 3)], graph)
        assert closure.distances(2).tolist() == [0]
        assert closure._ball is not None
        assert closure.distances(3).tolist() == [3]
        assert closure._ball is None
        assert closure._table is None and closure._links is None
        assert closure.distances(8).tolist() == [3]
        assert closure.distances(2).tolist() == [0]

    def test_closure_needs_one_vectorized_round(self):
        graph = ReferenceGraph(3)
        graph.add_link(0, 1)
        closure = _closure([(0, 2)], graph)
        with pytest.raises(ConfigurationError, match="one round"):
            MNDPSampler(2).discover([(0, 2)], None, rounds=2, closure=closure)
        assert MNDPSampler(2).discover(
            [(0, 2)], None, closure=closure
        ).shape == (0, 2)


def _random_hub_graph(n, rnd):
    """A graph over ``n`` nodes: about a fifth of them on no link, a
    path through twelve others, and two hubs linked to about a third of
    the rest, which also carry sparse random links."""
    isolated = set(rnd.sample(range(n), max(1, n // 5)))
    linked = [node for node in range(n) if node not in isolated]
    rnd.shuffle(linked)
    body, path = linked[:-12], linked[-12:]
    edges = set(zip(path, path[1:]))
    if body:
        edges.add((body[-1], path[0]))
    for hub in body[:2]:
        for node in body:
            if node != hub and rnd.random() < 0.35:
                edges.add((hub, node))
    for _ in range(len(body) if len(body) > 1 else 0):
        edges.add(tuple(rnd.sample(body, 2)))
    graph = ReferenceGraph(n)
    graph.add_links(sorted(edges))
    return graph


def _flower_hub_graph(n, rnd):
    """A graph over ``n`` nodes in which no link has a detour of three
    hops or fewer: two hubs of different degrees, each the meeting
    point of 9-node cycles, a ring of the nodes left over if it has at
    least 7, and about a fifth of the nodes (with any leftovers) on no
    link.  Every neighbor then brings a node of its own into each ball
    that grows through it."""
    nodes = list(range(n))
    rnd.shuffle(nodes)
    rest = nodes[max(1, n // 5):]
    edges = []

    def cycle(ring):
        edges.extend(zip(ring, ring[1:] + ring[:1]))

    petals = max(1, len(rest) // 16)
    for count in (petals, petals - 1):
        if count and len(rest) >= 9:
            hub, rest = rest[0], rest[1:]
            for _ in range(count):
                if len(rest) >= 8:
                    cycle([hub] + rest[:8])
                    rest = rest[8:]
    if len(rest) >= 7:
        cycle(rest)
    graph = ReferenceGraph(n)
    graph.add_links(edges)
    return graph


class TestDegreeOrderedGrowth:
    """The closure relabels the relaying nodes by descending degree and
    grows each ball over degree-ordered neighbor columns; its distances
    must equal networkx BFS over the original labels."""

    @pytest.mark.parametrize("n", [2, 63, 64, 65, 130])
    @pytest.mark.parametrize("shape", [_random_hub_graph, _flower_hub_graph])
    def test_distances_equal_bfs_at_every_budget(self, shape, n):
        rnd = random.Random(4000 + n)
        graph = shape(n, rnd)
        # Every unlinked pair both ways round (the closure grows the
        # first end's ball past the second's at odd levels), isolated
        # endpoints and self pairs included.
        pending = [
            pair
            for a in range(n)
            for b in range(a + 1, n)
            if not graph.has_link(a, b)
            for pair in ((a, b), (b, a))
        ] + [(0, 0), (n - 1, n - 1)]
        reach = {a: graph.within_hops(a, 8) for a in range(n)}
        closure = _closure(pending, graph)
        budgets = NUS[:]
        rnd.shuffle(budgets)
        for nu in budgets:
            want = [
                hops if hops <= nu else 0
                for hops in (reach[a].get(b, 0) for a, b in pending)
            ]
            assert closure.distances(nu).tolist() == want
            assert _closure(pending, graph).distances(nu).tolist() == want
        # Non-vacuous: every hop count from 2 to 8 occurs, and so do
        # pairs out of reach.
        if n > 2:
            hops = {reach[a].get(b, 0) for a, b in pending}
            assert hops == {0, *range(2, 9)}

    def test_relabelling_is_not_the_identity(self):
        # Node 4 is the hub: it must sort first, so the pair ends and
        # the links both move to new labels.
        graph = ReferenceGraph(6)
        graph.add_links([(0, 1), (1, 2), (4, 0), (4, 2), (4, 3), (4, 5)])
        closure = _closure([(0, 2), (1, 3), (1, 5), (2, 5)], graph)
        assert closure._degree.tolist() == [4, 2, 2, 2, 1, 1]
        assert closure.distances(3).tolist() == [2, 3, 3, 2]


def _logged(graph):
    """The links ``graph`` logged, as a set of ``(a, b), a < b``."""
    return {tuple(sorted(edge)) for edge in graph.edge_array().tolist()}


class TestLogicalGraphBulk:
    def test_add_links_matches_add_link(self):
        one = LogicalGraph(6)
        for a, b in [(0, 1), (1, 2), (4, 5)]:
            one.add_link(a, b)
        bulk = LogicalGraph(6)
        bulk.add_links(np.array([[0, 1], [1, 2], [4, 5]]))
        assert _logged(bulk) == _logged(one) == {(0, 1), (1, 2), (4, 5)}
        reference = ReferenceGraph(6)
        reference.add_links(bulk.edge_array())
        assert reference.edges() == _logged(one)
        assert reference.n_edges == 3
        assert reference.has_link(1, 2)
        assert reference.neighbors(1) == {0, 2}

    def test_add_links_accepts_iterables_and_empty(self):
        graph = LogicalGraph(4)
        graph.add_links([(0, 1), (2, 3)])
        graph.add_links([])
        assert _logged(graph) == {(0, 1), (2, 3)}

    def test_add_links_rejects_self_loops(self):
        graph = LogicalGraph(4)
        with pytest.raises(ConfigurationError):
            graph.add_links([(0, 1), (2, 2)])
        # The rejected batch left no partial state behind.
        assert graph.edge_array().shape == (0, 2)

    def test_edge_array_covers_both_insert_paths(self):
        graph = LogicalGraph(5)
        graph.add_link(0, 1)
        graph.add_links(np.array([[1, 2], [3, 4]]))
        assert _logged(graph) == {(0, 1), (1, 2), (3, 4)}

    def test_copy_preserves_buffered_links(self):
        graph = ReferenceGraph(4)
        graph.add_links([(0, 1)])
        clone = graph.copy()
        clone.add_links([(2, 3)])
        assert clone.edges() == {(0, 1), (2, 3)}
        assert graph.edges() == {(0, 1)}
        assert _logged(graph) == {(0, 1)}

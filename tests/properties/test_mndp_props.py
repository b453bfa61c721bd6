"""Property-based tests for the M-NDP closure model."""

import networkx as nx
import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.mndp import LogicalGraph, MNDPSampler


@st.composite
def random_graph_case(draw):
    n = draw(st.integers(min_value=3, max_value=25))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            max_size=60,
        )
    )
    edges = [(a, b) for a, b in edges if a != b]
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            min_size=1,
            max_size=20,
        )
    )
    pairs = [(min(a, b), max(a, b)) for a, b in pairs if a != b]
    nu = draw(st.integers(min_value=1, max_value=5))
    return n, edges, pairs, nu


class TestClosureProperties:
    @given(random_graph_case())
    @settings(max_examples=80, deadline=None)
    def test_matches_networkx_shortest_paths(self, case):
        n, edges, pairs, nu = case
        logical = LogicalGraph(n)
        reference = nx.Graph()
        reference.add_nodes_from(range(n))
        for a, b in edges:
            logical.add_link(a, b)
            reference.add_edge(a, b)
        discovered = MNDPSampler(nu).discover(pairs, logical, rounds=1)
        assert discovered.dtype == np.int64 and discovered.shape[1:] == (2,)
        assert discovered.tolist() == sorted(discovered.tolist())
        found = discovered.tolist()
        for a, b in set(pairs):
            if logical.has_link(a, b):
                assert [a, b] not in found
                continue
            try:
                reachable = (
                    nx.shortest_path_length(reference, a, b) <= nu
                )
            except nx.NetworkXNoPath:
                reachable = False
            assert ([a, b] in found) == reachable

    @given(random_graph_case())
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_nu(self, case):
        n, edges, pairs, nu = case
        logical = LogicalGraph(n)
        for a, b in edges:
            logical.add_link(a, b)
        smaller = MNDPSampler(nu).discover(pairs, logical, rounds=1)
        larger = MNDPSampler(nu + 1).discover(pairs, logical, rounds=1)
        assert set(map(tuple, smaller.tolist())) <= set(
            map(tuple, larger.tolist())
        )

    @given(random_graph_case())
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_rounds(self, case):
        n, edges, pairs, nu = case
        logical = LogicalGraph(n)
        for a, b in edges:
            logical.add_link(a, b)
        one = MNDPSampler(nu).discover(pairs, logical, rounds=1)
        three = MNDPSampler(nu).discover(pairs, logical, rounds=3)
        assert set(map(tuple, one.tolist())) <= set(
            map(tuple, three.tolist())
        )

"""Unit tests for the M-NDP graph model and chain validation.

Graph queries (``has_link``, ``within_hops``, ...) belong to the
networkx test oracle :class:`repro.oracles.ReferenceGraph`, a
:class:`LogicalGraph` that keeps its links in a networkx graph too.
"""

import numpy as np
import pytest

from repro.core.messages import MNDPExtension, MNDPRequest, MNDPResponse
from repro.core.mndp import (
    LogicalGraph,
    MNDPSampler,
    validate_request_chain,
    validate_response_chain,
)
from repro.crypto.identity import TrustedAuthority
from repro.crypto.signatures import SignatureScheme
from repro.errors import ConfigurationError
from repro.oracles import ReferenceGraph, reference_discover

#: ``discover(nu, pairs, graph)`` of each implementation.
DISCOVER = {
    "reference": reference_discover,
    "vectorized": lambda nu, pairs, graph: MNDPSampler(nu).discover(
        pairs, graph
    ),
}


class TestLogicalGraph:
    def test_links(self):
        graph = ReferenceGraph(5)
        graph.add_link(0, 1)
        assert graph.has_link(0, 1)
        assert graph.has_link(1, 0)
        assert not graph.has_link(0, 2)
        assert graph.n_edges == 1

    def test_self_link_rejected(self):
        with pytest.raises(ConfigurationError):
            LogicalGraph(3).add_link(1, 1)

    def test_neighbors(self):
        graph = ReferenceGraph(4)
        graph.add_link(0, 1)
        graph.add_link(0, 2)
        assert graph.neighbors(0) == {1, 2}

    def test_within_hops(self):
        graph = ReferenceGraph(5)
        for a, b in [(0, 1), (1, 2), (2, 3), (3, 4)]:
            graph.add_link(a, b)
        reach = graph.within_hops(0, 2)
        assert reach == {0: 0, 1: 1, 2: 2}

    def test_hop_distance(self):
        graph = ReferenceGraph(4)
        graph.add_link(0, 1)
        graph.add_link(1, 2)
        assert graph.hop_distance(0, 2, 3) == 2
        assert graph.hop_distance(0, 3, 3) == 0  # unreachable

    def test_copy_independent(self):
        graph = ReferenceGraph(3)
        graph.add_link(0, 1)
        clone = graph.copy()
        clone.add_link(1, 2)
        assert not graph.has_link(1, 2)

    def test_copy_before_and_after_first_query(self):
        # A copy taken either side of the first query holds the same
        # links and stays independent of the original.
        for query_first in (False, True):
            graph = ReferenceGraph(5)
            graph.add_links(np.array([[0, 1], [1, 2]]))
            graph.add_link(2, 3)
            if query_first:
                assert graph.n_edges == 3
            clone = graph.copy()
            clone.add_links([(3, 4)])
            assert graph.edges() == {(0, 1), (1, 2), (2, 3)}
            assert clone.edges() == {(0, 1), (1, 2), (2, 3), (3, 4)}

    def test_links_added_after_first_query_are_seen(self):
        graph = ReferenceGraph(4)
        graph.add_link(0, 1)
        assert graph.neighbors(1) == {0}
        graph.add_link(1, 2)
        graph.add_links(np.array([[2, 3]]))
        assert graph.within_hops(0, 3) == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_out_of_range_index_rejected(self):
        graph = LogicalGraph(5)
        for a, b in [(0, 9), (0, 5), (-1, 2), (0, -1)]:
            with pytest.raises(ConfigurationError):
                graph.add_link(a, b)
        assert graph.edge_array().shape == (0, 2)

    def test_add_links_negative_index_rejected(self):
        # -1 used to wrap to node 4 in the vectorized scatter, so the
        # links (0,-1), (-1,2) made (0,2) look recovered over 2 hops.
        for discover in DISCOVER.values():
            graph = ReferenceGraph(5)
            with pytest.raises(ConfigurationError):
                graph.add_links([(0, -1), (-1, 2)])
            assert discover(2, [(0, 2)], graph).shape == (0, 2)

    def test_add_links_index_past_end_rejected(self):
        graph = LogicalGraph(5)
        with pytest.raises(ConfigurationError):
            graph.add_links(np.array([[0, 7]]))
        with pytest.raises(ConfigurationError):
            graph.add_links([(1, 2), (3, 5)])
        assert graph.edge_array().shape == (0, 2)


class TestPairArrays:
    BAD = {
        "fractional array": np.array([[0.7, 2.2]]),
        "fractional list": [(0.5, 1.9)],
        "nan": np.array([[0.0, np.nan]]),
        "three columns": [(0, 1, 2)],
        "one column": np.array([[1], [2]]),
        "flat": [0, 1, 2, 3],
        "ragged": [(0, 1), (2,)],
        "bool": np.array([[True, False]]),
        "text": [("0", "1")],
    }

    @pytest.mark.parametrize("case", sorted(BAD))
    def test_add_links_rejects(self, case):
        graph = LogicalGraph(5)
        with pytest.raises(ConfigurationError):
            graph.add_links(self.BAD[case])
        assert graph.edge_array().shape == (0, 2)

    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    @pytest.mark.parametrize("case", sorted(BAD))
    def test_discover_rejects(self, backend, case):
        graph = ReferenceGraph(5)
        graph.add_links([(0, 2), (2, 1)])
        with pytest.raises(ConfigurationError):
            DISCOVER[backend](2, self.BAD[case], graph)

    @pytest.mark.parametrize(
        "pairs",
        [
            [(0, 1), (3, 4)],
            np.array([[0, 1], [3, 4]], dtype=np.int32),
            np.array([[0, 1], [3, 4]], dtype=np.uint16),
            [(np.int64(0), 1), (3, np.int8(4))],
            np.array([[0.0, 1.0], [3.0, 4.0]]),
        ],
    )
    def test_integer_pairs_accepted(self, pairs):
        graph = ReferenceGraph(5)
        graph.add_links(pairs)
        assert graph.edges() == {(0, 1), (3, 4)}
        recovered = MNDPSampler(2).discover(pairs, LogicalGraph(5))
        assert recovered.dtype == np.int64 and recovered.shape == (0, 2)


class TestMNDPSampler:
    def test_two_hop_recovery(self):
        """A-B fail D-NDP but share logical neighbor C."""
        logical = LogicalGraph(3)
        logical.add_link(0, 2)
        logical.add_link(1, 2)
        sampler = MNDPSampler(nu=2)
        discovered = sampler.discover([(0, 1)], logical)
        assert discovered.tolist() == [[0, 1]]

    def test_respects_hop_budget(self):
        logical = LogicalGraph(4)
        # path 0-2-3-1 has 3 hops
        for a, b in [(0, 2), (2, 3), (3, 1)]:
            logical.add_link(a, b)
        assert MNDPSampler(nu=2).discover([(0, 1)], logical).shape == (0, 2)
        assert MNDPSampler(nu=3).discover(
            [(0, 1)], logical
        ).tolist() == [[0, 1]]

    def test_already_logical_pairs_skipped(self):
        logical = LogicalGraph(2)
        logical.add_link(0, 1)
        assert MNDPSampler(nu=2).discover([(0, 1)], logical).shape == (0, 2)

    def test_single_round_uses_initial_graph(self):
        """rounds=1 matches Theorem 3: new links don't cascade."""
        logical = LogicalGraph(4)
        logical.add_link(0, 2)
        logical.add_link(1, 2)
        logical.add_link(3, 1)
        # (0,1) is 2-hop recoverable now; (0,3) becomes 2-hop only
        # after (0,1) exists.
        pairs = [(0, 1), (0, 3)]
        one_round = MNDPSampler(nu=2).discover(pairs, logical, rounds=1)
        assert one_round.tolist() == [[0, 1]]

    def test_multi_round_cascades(self):
        logical = LogicalGraph(4)
        logical.add_link(0, 2)
        logical.add_link(1, 2)
        logical.add_link(3, 1)
        pairs = [(0, 1), (0, 3)]
        two_rounds = MNDPSampler(nu=2).discover(pairs, logical, rounds=2)
        assert two_rounds.tolist() == [[0, 1], [0, 3]]

    def test_rejects_bad_nu(self):
        with pytest.raises(ConfigurationError):
            MNDPSampler(nu=0)


@pytest.fixture
def chain_setup():
    authority = TrustedAuthority(b"m")
    scheme = SignatureScheme(authority.public_parameters())
    ids = [authority.make_id(i) for i in range(1, 5)]
    keys = [authority.issue_private_key(node) for node in ids]
    return authority, scheme, ids, keys


def _build_request(scheme, ids, keys, tamper=None):
    a, c, b, d = ids
    request = MNDPRequest(
        source=a,
        source_neighbors=(c, d),
        nonce=5,
        hop_budget=3,
        source_signature=None,
    )
    sig_a = scheme.sign(keys[0], request.source_signed_bytes())
    request = MNDPRequest(
        source=a, source_neighbors=(c, d), nonce=5, hop_budget=3,
        source_signature=sig_a,
    )
    unsigned = MNDPExtension(c, (a, b), None)
    sig_c = scheme.sign(
        keys[1], unsigned.signed_bytes(request.source_signed_bytes())
    )
    return request.extended(MNDPExtension(c, (a, b), sig_c))


class TestRequestChainValidation:
    def test_valid_chain(self, chain_setup):
        _, scheme, ids, keys = chain_setup
        request = _build_request(scheme, ids, keys)
        assert validate_request_chain(request, scheme)

    def test_bad_source_signature(self, chain_setup):
        _, scheme, ids, keys = chain_setup
        request = _build_request(scheme, ids, keys)
        forged = MNDPRequest(
            source=request.source,
            source_neighbors=request.source_neighbors,
            nonce=request.nonce + 1,  # signature no longer matches
            hop_budget=request.hop_budget,
            source_signature=request.source_signature,
            extensions=request.extensions,
        )
        assert not validate_request_chain(forged, scheme)

    def test_extension_not_in_previous_neighbors(self, chain_setup):
        """A relay that is not the previous hop's neighbor is rejected."""
        _, scheme, ids, keys = chain_setup
        a, c, b, d = ids
        request = MNDPRequest(
            source=a,
            source_neighbors=(d,),  # c NOT a neighbor of a
            nonce=5,
            hop_budget=3,
            source_signature=None,
        )
        sig_a = scheme.sign(keys[0], request.source_signed_bytes())
        request = MNDPRequest(
            source=a, source_neighbors=(d,), nonce=5, hop_budget=3,
            source_signature=sig_a,
        )
        unsigned = MNDPExtension(c, (a, b), None)
        sig_c = scheme.sign(
            keys[1], unsigned.signed_bytes(request.source_signed_bytes())
        )
        bad = request.extended(MNDPExtension(c, (a, b), sig_c))
        assert not validate_request_chain(bad, scheme)

    def test_tampered_extension_neighbors(self, chain_setup):
        _, scheme, ids, keys = chain_setup
        request = _build_request(scheme, ids, keys)
        original = request.extensions[0]
        tampered = MNDPRequest(
            source=request.source,
            source_neighbors=request.source_neighbors,
            nonce=request.nonce,
            hop_budget=request.hop_budget,
            source_signature=request.source_signature,
            extensions=(
                MNDPExtension(
                    original.node,
                    original.neighbors + (ids[3],),
                    original.signature,
                ),
            ),
        )
        assert not validate_request_chain(tampered, scheme)


class TestResponseChainValidation:
    def test_valid_response(self, chain_setup):
        _, scheme, ids, keys = chain_setup
        a, c, b, _ = ids
        response = MNDPResponse(
            source=a, via=c, responder=b,
            responder_neighbors=(c,), nonce=8, hop_budget=2,
            responder_signature=None,
        )
        sig = scheme.sign(keys[2], response.responder_signed_bytes())
        response = MNDPResponse(
            source=a, via=c, responder=b,
            responder_neighbors=(c,), nonce=8, hop_budget=2,
            responder_signature=sig,
        )
        assert validate_response_chain(response, scheme)

    def test_forged_responder(self, chain_setup):
        _, scheme, ids, keys = chain_setup
        a, c, b, d = ids
        response = MNDPResponse(
            source=a, via=c, responder=b,
            responder_neighbors=(c,), nonce=8, hop_budget=2,
            responder_signature=None,
        )
        # d signs but claims to be b.
        sig = scheme.sign(keys[3], response.responder_signed_bytes())
        from repro.crypto.signatures import IdentitySignature
        forged = MNDPResponse(
            source=a, via=c, responder=b,
            responder_neighbors=(c,), nonce=8, hop_budget=2,
            responder_signature=IdentitySignature(b, sig.tag),
        )
        assert not validate_response_chain(forged, scheme)

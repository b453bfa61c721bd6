"""Pinned fingerprints of fault-free event-driven runs.

A fingerprint is everything a run exposes at its end: the logical
pairs, the network's counters, the medium's delivered and jammed
counts and the final simulated time.  The digests below were recorded
from the event protocol as it runs on the paper's medium; a change to
the event path that moves any of them is not bit-identical.
"""

import hashlib
import json

import pytest

from repro.adversary.jammer import JammerStrategy
from repro.core.config import JRSNDConfig
from repro.experiments.scenarios import build_event_network

# The retry property's single handshaking pair; at seeds 0 and 10 a
# fire-and-forget handshake wedges and only the AUTH retry links it.
PAIR = JRSNDConfig(
    n_nodes=2,
    codes_per_node=3,
    share_count=2,
    n_compromised=0,
    field_width=400.0,
    field_height=400.0,
    tx_range=300.0,
    rho=1e-9,
)

# The 8-node field of the end-to-end partial-compromise test.
FIELD = JRSNDConfig(
    n_nodes=8,
    codes_per_node=3,
    share_count=4,
    n_compromised=2,
    field_width=500.0,
    field_height=500.0,
    tx_range=300.0,
    rho=1e-9,
)

# The small_config fixture's field, for the expiry run.
SMALL = JRSNDConfig(
    n_nodes=5,
    codes_per_node=3,
    share_count=3,
    n_compromised=0,
    field_width=400.0,
    field_height=400.0,
    tx_range=300.0,
    rho=1e-9,
)


def _fingerprint(net):
    return {
        "pairs": sorted(net.logical_pairs()),
        "counters": dict(net.metrics.snapshot().counters),
        "delivered": net.medium.delivered_count,
        "jammed": net.medium.jammed_count,
        "now": repr(net.simulator.now),
    }


def _discover(net, dndp_until, nu, mndp_for):
    for node in net.nodes:
        node.initiate_dndp()
    net.simulator.run(until=dndp_until)
    start = net.simulator.now
    for node in net.nodes:
        node.initiate_mndp(nu=nu)
    net.simulator.run(until=start + mndp_for)


def _pair_run(seed):
    net = build_event_network(PAIR, seed=seed)
    _discover(net, 30.0, 2, 60.0)
    return net


def _field_run(strategy):
    net = build_event_network(FIELD, seed=23, jammer_strategy=strategy)
    _discover(net, 40.0, 4, 200.0)
    return net


def _expiry_run():
    net = build_event_network(SMALL, seed=11)
    for node in net.nodes:
        node.initiate_dndp()
    net.simulator.run(until=30.0)
    for node in net.nodes:
        node.start_maintenance(threshold=20.0, interval=10.0)
    net.simulator.run(until=130.0)
    return net


RUNS = {
    "pair-seed0": lambda: _pair_run(0),
    "pair-seed10": lambda: _pair_run(10),
    "field-benign": lambda: _field_run(None),
    "field-reactive": lambda: _field_run(JammerStrategy.REACTIVE),
    "small-expiry": _expiry_run,
}

DIGESTS = {
    "pair-seed0": (
        "ec3740432bbcaf4f12a819c08d54ce18"
        "d9af9de18136366ffb77ae08a037d1c9"
    ),
    "pair-seed10": (
        "4cc9b29f345e87965387a9d66ab428bf"
        "21f05dbb9262ae4f399a2792c6fd69b3"
    ),
    "field-benign": (
        "10681f54801efe592760062976349262"
        "c05e5c99a87080ae13b63eec35f799c5"
    ),
    "field-reactive": (
        "93b1fcfb07e63edb06b03e912f4b9f60"
        "e2ff14d1e495287aefbc7cd99685646b"
    ),
    "small-expiry": (
        "04ceaf8e3c379b9a71b3dddb0f3865ce"
        "818f003d00b2da2b6a585bcdd8ba3fe6"
    ),
}


def _digest(fingerprint):
    blob = json.dumps(fingerprint, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_event_run_fingerprint_is_pinned(name):
    assert _digest(_fingerprint(RUNS[name]())) == DIGESTS[name]


def test_fingerprints_are_not_trivial():
    """The pinned runs retransmit an AUTH_REQUEST, link pairs over
    M-NDP, jam frames and expire neighbors, so each digest covers a
    live path."""
    pair = _fingerprint(_pair_run(0))
    assert pair["pairs"] == [(0, 1)]
    assert pair["counters"]["retry.auth_retransmits"] >= 1
    benign = _fingerprint(_field_run(None))
    assert benign["counters"]["mndp.established"] > 0
    reactive = _fingerprint(_field_run(JammerStrategy.REACTIVE))
    assert reactive["jammed"] > 0
    expiry = _fingerprint(_expiry_run())
    assert expiry["counters"]["neighbors.expired"] > 0

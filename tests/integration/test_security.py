"""Security-behavior tests: active attacks against the event protocol.

The jamming figures measure availability; these tests check the
*authentication* claims — an adversary without the right private key
cannot be accepted as a logical neighbor, replays are dropped, and the
event-level DoS flood is contained by revocation.
"""

import pytest

from repro.adversary.dos import EventDoSInjector
from repro.core.messages import AuthRequest, Confirm, Hello
from repro.crypto.identity import TrustedAuthority
from repro.crypto.mac import MessageAuthenticator
from repro.experiments.scenarios import build_event_network
from repro.utils.rng import derive_rng


class TestImpersonation:
    def test_wrong_key_auth_request_rejected(self, small_config):
        """An attacker replays a HELLO/CONFIRM exchange but cannot
        produce a valid MAC for the claimed identity."""
        net = build_event_network(small_config, seed=11)
        victim = net.nodes[0]
        victim_code = next(iter(victim.revocation.active_codes()))
        claimed = net.nodes[1].node_id  # the identity being impersonated

        # A foreign authority key (attacker's own material).
        rogue_authority = TrustedAuthority(b"rogue")
        rogue_key = rogue_authority.issue_private_key(
            rogue_authority.make_id(claimed.value)
        )

        net.medium.register_node(50, lambda: victim.position)
        # Step 1: fake HELLO so the victim opens a responder session.
        schedule = victim._schedule
        window = schedule.window(schedule.first_index() + 1)
        net.simulator.call_at(
            window.buffer_start + 1e-5,
            net.medium.transmit, 50, victim_code, Hello(claimed), 1e-4,
        )
        # The copy sits at the start of the buffer, so it is decoded
        # shortly after buffering ends; stop just after that moment so
        # the responder's CONFIRM window (length t_p) is still open.
        net.simulator.run(until=window.buffer_end + 0.01)
        session = victim.session_with(claimed)
        assert session is not None  # HELLO accepted (it carries no proof)
        # The responder is confirming and monitors the code in real
        # time, so the forged AUTH reaches the MAC check.
        assert session.state.name == "CONFIRMING"

        # Step 2: forged AUTH_REQUEST under a wrong pairwise key.
        bad_shared = rogue_key.shared_key(
            rogue_authority.make_id(victim.node_id.value)
        )
        mac = MessageAuthenticator(bad_shared, small_config.mac_bits)
        from repro.core.messages import nonce_bytes

        forged = AuthRequest(
            sender=claimed,
            nonce=7,
            mac_tag=mac.tag(claimed.to_bytes(), nonce_bytes(7)),
        )
        net.medium.transmit(50, victim_code, forged, 1e-4)
        net.simulator.run(until=net.simulator.now + 1.0)

        assert claimed not in victim.logical_neighbors
        assert net.metrics.counter("dndp.bad_mac_ignored") >= 1

    def test_confirm_spoofing_cannot_complete(self, small_config):
        """Spoofed CONFIRMs make the victim start the handshake, but it
        dies at the MAC stage; no logical neighbor is recorded."""
        net = build_event_network(small_config, seed=11)
        victim = net.nodes[0]
        victim_code = next(iter(victim.revocation.active_codes()))
        phantom = net.authority.make_id(999)  # never-deployed identity

        net.medium.register_node(51, lambda: victim.position)
        schedule = victim._schedule
        window = schedule.window(schedule.first_index() + 1)
        net.simulator.call_at(
            window.buffer_start + 1e-5,
            net.medium.transmit, 51, victim_code, Confirm(phantom), 1e-4,
        )
        net.simulator.run(until=window.processing_done + 5.0)
        # The victim sent an AUTH_REQUEST into the void; nothing valid
        # ever came back.
        assert phantom not in victim.logical_neighbors


class TestReplay:
    def test_auth_replay_dropped(self, small_config):
        """Replaying a captured AUTH_REQUEST does not re-trigger the
        responder handshake."""
        net = build_event_network(small_config, seed=11)
        for node in net.nodes:
            node.initiate_dndp()
        net.simulator.run(until=30.0)
        # Pick an established pair and replay the initiator's request.
        pair = next(iter(net.logical_pairs()))
        a, b = net.nodes[pair[0]], net.nodes[pair[1]]
        session = b.session_with(a.node_id)
        assert session is not None
        # Craft the exact request A sent (same nonce, same MAC).
        from repro.core.messages import nonce_bytes

        initiator_session = a.session_with(b.node_id)
        mac = MessageAuthenticator(
            initiator_session.shared_key, small_config.mac_bits
        )
        nonce = initiator_session.my_nonce
        replayed = AuthRequest(
            sender=a.node_id,
            nonce=nonce,
            mac_tag=mac.tag(a.node_id.to_bytes(), nonce_bytes(nonce)),
        )
        dndp_before = b.outcome().dndp_count
        code = next(iter(initiator_session.codes))
        net.medium.register_node(52, lambda: b.position)
        net.medium.transmit(52, code, replayed, 1e-4)
        net.simulator.run(until=net.simulator.now + 1.0)
        # The replay changes nothing: the session stays established
        # exactly once and no duplicate establishment is counted.
        assert b.session_with(a.node_id).state.name == "ESTABLISHED"
        assert b.outcome().dndp_count == dndp_before


class TestEventDoS:
    def test_injector_flood_contained(self, small_config):
        net = build_event_network(small_config, seed=11)
        victim = net.nodes[0]
        codes = sorted(victim.revocation.active_codes())
        injector = EventDoSInjector(
            medium=net.medium,
            simulator=net.simulator,
            compromised_codes=codes,
            position=victim.position,
            rng=derive_rng(1, "dos"),
            claimed_sender=net.nodes[1].node_id,
            frame_duration=1e-3,
        )
        # Flood long enough that many fakes land in buffered windows.
        injector.start(interval=2e-3, count=3000)
        net.simulator.run()
        assert injector.injected == 3000
        verifications = net.metrics.counter("dos.verifications")
        assert verifications > 0
        # Containment: every holder revokes after gamma + 1, so the
        # total wasted work across all victims is bounded.
        gamma = small_config.revocation_gamma
        total_holders = sum(
            len(net.assignment.holders_of(code)) for code in codes
        )
        assert verifications <= total_holders * (gamma + 1)

    def test_injector_needs_codes(self, small_config):
        net = build_event_network(small_config, seed=11)
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            EventDoSInjector(
                medium=net.medium,
                simulator=net.simulator,
                compromised_codes=[],
                position=(0, 0),
                rng=derive_rng(1, "dos"),
                claimed_sender=net.nodes[1].node_id,
            )

"""Pre-wired event-driven scenarios.

Building a full event-driven JR-SND network takes a dozen steps (pool,
pre-distribution, authority, per-node keys, medium registration,
jammers); :func:`build_event_network` performs all of them from a
configuration and a seed, and is what the examples and the event-level
tests use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.adversary.compromise import CompromiseModel, CompromiseState
from repro.adversary.jammer import JammerStrategy, JammingModel, MediumJammer
from repro.core.config import JRSNDConfig
from repro.core.jrsnd import JRSNDNode
from repro.crypto.identity import TrustedAuthority
from repro.crypto.signatures import SignatureScheme
from repro.dsss.spread_code import CodePool
from repro.errors import ConfigurationError
from repro.obs import MetricsRegistry
from repro.predistribution.authority import CodeAssignment, PreDistributor
from repro.sim.engine import Simulator
from repro.sim.field import Position, RectangularField
from repro.sim.medium import RadioMedium
from repro.sim.mobility import uniform_positions
from repro.utils.rng import SeedSequencer

__all__ = [
    "EventNetwork",
    "build_event_network",
    "admit_node",
    "CONFIG_PRESETS",
    "preset_config",
]


def _paper_config() -> JRSNDConfig:
    """Table I exactly: 2000 nodes on the 5000 x 5000 m field."""
    return JRSNDConfig()


def _small_config() -> JRSNDConfig:
    """A 400-node field that keeps full sweeps tractable on a laptop."""
    return JRSNDConfig(
        n_nodes=400,
        codes_per_node=20,
        share_count=15,
        n_compromised=10,
        field_width=2000.0,
        field_height=2000.0,
        tx_range=300.0,
    )


def _tiny_config() -> JRSNDConfig:
    """A 120-node field for CI smoke campaigns (sub-second shards)."""
    return JRSNDConfig(
        n_nodes=120,
        codes_per_node=12,
        share_count=10,
        n_compromised=6,
        field_width=1200.0,
        field_height=1200.0,
        tx_range=300.0,
    )


def _paper_chipless_config() -> JRSNDConfig:
    """Table I on the analytic PHY: the full 2000-node field with every
    pair's D-NDP outcome decided by the closed-form chipless sweep."""
    return JRSNDConfig(phy_backend="chipless")


def _tiny_chipless_config() -> JRSNDConfig:
    """The CI smoke field on the chipless PHY backend."""
    return JRSNDConfig(
        n_nodes=120,
        codes_per_node=12,
        share_count=10,
        n_compromised=6,
        field_width=1200.0,
        field_height=1200.0,
        tx_range=300.0,
        phy_backend="chipless",
    )


#: Named base configurations a campaign spec's ``base`` field resolves
#: through.  Presets are factories (not instances) so every expansion
#: starts from a fresh, validated ``JRSNDConfig``.
CONFIG_PRESETS = {
    "paper": _paper_config,
    "small": _small_config,
    "tiny": _tiny_config,
    "paper-chipless": _paper_chipless_config,
    "tiny-chipless": _tiny_chipless_config,
}


def preset_config(name: str) -> JRSNDConfig:
    """The base :class:`JRSNDConfig` registered under ``name``."""
    try:
        factory = CONFIG_PRESETS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown config preset {name!r}; choose one of "
            f"{sorted(CONFIG_PRESETS)}"
        ) from None
    return factory()


@dataclass
class EventNetwork:
    """A fully wired event-driven JR-SND deployment.

    ``metrics`` is the network's one registry: every count and latency
    sample its nodes and fault plan record lands there exactly once.
    """

    config: JRSNDConfig
    simulator: Simulator
    field: RectangularField
    medium: RadioMedium
    nodes: List[JRSNDNode]
    metrics: MetricsRegistry
    pool: CodePool
    assignment: CodeAssignment
    authority: TrustedAuthority
    compromise: CompromiseState
    jammer: Optional[MediumJammer]

    def node_pairs_in_range(self) -> List[tuple]:
        """Physical-neighbor index pairs of the current placement."""
        positions = [node.position for node in self.nodes]
        pairs = self.field.neighbor_pairs(positions).tolist()
        return [(a, b) for a, b in pairs]

    def logical_pairs(self) -> set:
        """All established logical links as ordered index pairs."""
        by_id = {node.node_id: node.index for node in self.nodes}
        links = set()
        for node in self.nodes:
            for peer in node.logical_neighbors:
                a, b = sorted((node.index, by_id[peer]))
                links.add((a, b))
        return links


def build_event_network(
    config: JRSNDConfig,
    seed: int,
    positions: Optional[Sequence[Position]] = None,
    jammer_strategy: Optional[JammerStrategy] = None,
    link_model=None,
    faults=None,
) -> EventNetwork:
    """Wire up a complete event-driven network.

    Parameters
    ----------
    config:
        Deployment parameters; event-level runs want small ``n_nodes``
        and ``codes_per_node`` (event counts grow as ``r * m`` per
        initiator).
    seed:
        Root seed for pool, keys, placement, compromise, and every
        node's private stream.
    positions:
        Explicit placement (defaults to uniform).
    jammer_strategy:
        Attach a medium jammer with the configured ``q`` compromise; or
        ``None`` for a benign run.
    link_model:
        Optional :class:`repro.sim.links.LinkModel` (e.g.
        ``LogNormalShadowingModel``); defaults to the paper's unit
        disk.
    faults:
        Optional :class:`repro.sim.medium.FaultHook` (typically a
        :class:`repro.faults.FaultPlan`) injected into the medium and
        counting into the network's ``metrics``; ``None`` keeps the
        legacy fault-free delivery path.
    """
    seeds = SeedSequencer(seed)
    simulator = Simulator()
    metrics = MetricsRegistry()
    field = RectangularField(
        config.field_width, config.field_height, config.tx_range
    )
    medium = RadioMedium(
        simulator,
        field,
        config.mu,
        link_model=link_model,
        link_rng=seeds.rng("links"),
        faults=faults,
        metrics=metrics,
    )

    pool = CodePool.generate(
        config.pool_size, config.code_length, seeds.rng("pool-seed").integers(0, 2**31)
    )
    distributor = PreDistributor(
        config.n_nodes, config.codes_per_node, config.share_count
    )
    assignment = distributor.assign(seeds.rng("assignment"))

    authority = TrustedAuthority(b"jr-snd-authority", id_bits=config.id_bits)
    scheme = SignatureScheme(authority.public_parameters())

    if positions is None:
        positions = uniform_positions(
            field, config.n_nodes, seeds.rng("placement")
        ).tolist()
    elif len(positions) != config.n_nodes:
        raise ValueError(
            f"{len(positions)} positions for {config.n_nodes} nodes"
        )

    nodes: List[JRSNDNode] = []
    for index in range(config.n_nodes):
        node_id = authority.make_id(index + 1)
        key = authority.issue_private_key(node_id)
        codes = pool.subset(assignment.node_codes[index])
        node = JRSNDNode(
            index=index,
            node_id=node_id,
            private_key=key,
            codes=codes,
            config=config,
            simulator=simulator,
            medium=medium,
            scheme=scheme,
            rng=seeds.rng(f"node-{index}"),
            metrics=metrics,
            position=tuple(positions[index]),
        )
        node.start()
        nodes.append(node)

    compromise = CompromiseModel(assignment).compromise_random(
        config.n_compromised, seeds.rng("compromise")
    )
    jammer: Optional[MediumJammer] = None
    if jammer_strategy is not None:
        model = JammingModel.from_compromise(
            jammer_strategy, compromise, config.z_jamming_signals, config.mu
        )
        jammer = MediumJammer(model, seeds.rng("jammer"))
        medium.add_jammer(jammer)

    return EventNetwork(
        config=config,
        simulator=simulator,
        field=field,
        medium=medium,
        nodes=nodes,
        metrics=metrics,
        pool=pool,
        assignment=assignment,
        authority=authority,
        compromise=compromise,
        jammer=jammer,
    )


def admit_node(
    network: EventNetwork,
    position: Position,
    seed_label: str = "joiner",
) -> JRSNDNode:
    """Admit one late joiner into a running event network.

    Runs the Section V-A join procedure (virtual-node slots first, then
    an extra distribution pass), issues the newcomer an ID-based key,
    wires it to the medium, and returns the started node — ready for
    ``initiate_dndp``.  The network's ``assignment`` is replaced by the
    extended one.
    """
    config = network.config
    distributor = PreDistributor(
        config.n_nodes, config.codes_per_node, config.share_count
    )
    # hash() is salted per process; the sequencer's label derivation is
    # the stable way to turn the label into a seed.
    seeds = SeedSequencer(4242).child(seed_label)
    extended, new_indices = distributor.admit_new_nodes(
        network.assignment, 1, seeds.rng("join")
    )
    network.assignment = extended
    index = new_indices[0]
    node_id = network.authority.make_id(index + 1)
    key = network.authority.issue_private_key(node_id)
    codes = network.pool.subset(extended.node_codes[index])
    scheme = SignatureScheme(network.authority.public_parameters())
    node = JRSNDNode(
        index=index,
        node_id=node_id,
        private_key=key,
        codes=codes,
        config=config,
        simulator=network.simulator,
        medium=network.medium,
        scheme=scheme,
        rng=seeds.rng(f"node-{index}"),
        metrics=network.metrics,
        position=tuple(position),
    )
    node.start()
    network.nodes.append(node)
    return node

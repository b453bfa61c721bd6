#!/usr/bin/env python
"""Mobility scenario: periodic discovery with neighbor expiry.

The paper's motivation: due to node mobility, neighbor discovery must
run *periodically*, and a node that hears nothing from a logical
neighbor for a threshold time assumes it moved away and stops
monitoring its code.  This example moves a squad with the
random-waypoint model in discrete epochs; each epoch the nodes expire
stale neighbors, re-run D-NDP + M-NDP, and we report how well the
logical graph tracks the changing physical one.

Usage:
    python examples/mobility_rounds.py [--epochs E] [--seed S]
"""

import argparse

from repro import JRSNDConfig
from repro.experiments.scenarios import build_event_network
from repro.sim.field import RectangularField
from repro.sim.mobility import RandomWaypointModel
from repro.utils.rng import derive_rng


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--epochs", type=int, default=4)
    parser.add_argument("--seed", type=int, default=12)
    args = parser.parse_args()

    config = JRSNDConfig(
        n_nodes=8,
        codes_per_node=3,
        share_count=4,
        n_compromised=0,
        field_width=800.0,
        field_height=800.0,
        tx_range=300.0,
        rho=1e-9,
        nu=3,
    )
    field = RectangularField(
        config.field_width, config.field_height, config.tx_range
    )
    mobility = RandomWaypointModel(
        field,
        config.n_nodes,
        speed_range=(20.0, 40.0),  # fast movers: links churn per epoch
        pause_time=0.0,
        rng=derive_rng(args.seed, "mobility"),
    )
    net = build_event_network(
        config, seed=args.seed, positions=mobility.positions_at(0.0)
    )

    epoch_gap = 30.0  # seconds of movement between discovery rounds
    print(f"{config.n_nodes} nodes, random waypoint 20-40 m/s, "
          f"{args.epochs} discovery epochs {epoch_gap:.0f} s apart\n")

    for epoch in range(args.epochs):
        wall = epoch * epoch_gap
        # Teleport everyone to their trajectory position for this epoch.
        for index, node in enumerate(net.nodes):
            node.position = mobility.position(index, wall)
        physical = set(net.node_pairs_in_range())

        # Expire neighbors not heard from since the last epoch.
        expired = sum(
            len(node.expire_stale_neighbors(threshold=epoch_gap / 2))
            for node in net.nodes
        ) // 2

        for node in net.nodes:
            node.initiate_dndp()
        net.simulator.run(until=net.simulator.now + 40.0)
        for node in net.nodes:
            node.initiate_mndp()
        net.simulator.run(until=net.simulator.now + 200.0)

        logical = net.logical_pairs()
        tracked = logical & physical
        stale = logical - physical  # moved-away pairs not yet expired
        coverage = len(tracked) / len(physical) if physical else 1.0
        print(f"epoch {epoch}: physical={len(physical):>2}  "
              f"tracked={len(tracked):>2} ({coverage:5.0%})  "
              f"stale={len(stale):>2}  expired_before_round={expired:>2}")

    counters = net.metrics.snapshot().counters
    print(f"\ntotals: D-NDP establishments "
          f"{counters.get('dndp.established', 0)}, "
          f"M-NDP {counters.get('mndp.established', 0)}, "
          f"expiries {counters.get('neighbors.expired', 0)}")


if __name__ == "__main__":
    main()

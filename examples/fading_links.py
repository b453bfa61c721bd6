#!/usr/bin/env python
"""Fading demo: JR-SND over a log-normal shadowing radio.

The paper (and the figure experiments) use the unit-disk model: two
nodes hear each other iff they are within 300 m.  Real links fade.
This example runs the same event-driven squad twice — once on the disk,
once with log-normal shadowing (the configured range becoming the
*median* range) — and shows how discovery changes: fading both breaks
some "guaranteed" close links and occasionally lets discovery succeed
past the nominal range.

Usage:
    python examples/fading_links.py [--sigma DB] [--seed S]
"""

import argparse

from repro import JRSNDConfig
from repro.experiments.scenarios import build_event_network
from repro.sim.field import RectangularField
from repro.sim.links import DiskLinkModel, LogNormalShadowingModel


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sigma", type=float, default=6.0,
                        help="shadowing std-dev in dB")
    parser.add_argument("--seed", type=int, default=9)
    args = parser.parse_args()

    config = JRSNDConfig(
        n_nodes=8,
        codes_per_node=3,
        share_count=4,
        n_compromised=0,
        field_width=900.0,
        field_height=900.0,
        tx_range=300.0,
        rho=1e-9,
        nu=3,
    )

    results = {}
    for label, model in (
        ("disk", DiskLinkModel(config.tx_range)),
        (
            f"shadowing σ={args.sigma} dB",
            LogNormalShadowingModel(
                config.tx_range, path_loss_exponent=3.0,
                sigma_db=args.sigma,
            ),
        ),
    ):
        net = build_event_network(config, seed=args.seed, link_model=model)
        for node in net.nodes:
            node.initiate_dndp()
        net.simulator.run(until=60.0)
        start = net.simulator.now
        for node in net.nodes:
            node.initiate_mndp()
        net.simulator.run(until=start + 200.0)
        results[label] = net

    field = RectangularField(
        config.field_width, config.field_height, config.tx_range
    )
    disk_net = results["disk"]
    positions = [n.position for n in disk_net.nodes]
    disk_pairs = set(map(tuple, field.neighbor_pairs(positions).tolist()))

    print(f"{config.n_nodes} nodes, nominal range "
          f"{config.tx_range:.0f} m; {len(disk_pairs)} disk-range "
          "pairs\n")
    for label, net in results.items():
        logical = net.logical_pairs()
        inside = logical & disk_pairs
        beyond = logical - disk_pairs
        print(f"{label:24} discovered {len(logical):>2} pairs "
              f"({len(inside)} within nominal range, "
              f"{len(beyond)} beyond it)")
    print("\nUnder fading, border-distance links flicker: some "
          "nominal neighbors are lost, while occasionally a pair past "
          "300 m completes discovery — the disk model the paper uses "
          "is the σ → 0 limit.")


if __name__ == "__main__":
    main()

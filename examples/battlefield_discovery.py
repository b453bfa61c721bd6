#!/usr/bin/env python
"""Battlefield scenario: an event-driven squad under reactive jamming.

A 10-node squad deploys in a 600 x 600 m area with 2 captured radios.
Every node runs the *full* JR-SND protocol on the discrete-event kernel:
real pre-distributed spread codes, ECC-framed messages, pairwise
ID-based keys, MACs, signed M-NDP chains, and session spread-code
derivation — with a reactive jammer that knows the captured radios'
codes and attacks every pool-code transmission it can identify.

Shows which pairs discovered each other directly, which needed the
multi-hop protocol, and which stayed dark.

Usage:
    python examples/battlefield_discovery.py [--seed S] [--nu H]
"""

import argparse

from repro import JRSNDConfig
from repro.adversary.jammer import JammerStrategy
from repro.experiments.scenarios import build_event_network


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--nu", type=int, default=3,
                        help="M-NDP hop budget")
    args = parser.parse_args()

    config = JRSNDConfig(
        n_nodes=10,
        codes_per_node=4,
        share_count=4,
        n_compromised=2,
        field_width=600.0,
        field_height=600.0,
        tx_range=300.0,
        rho=1e-9,  # modest receivers: keeps lambda event-simulatable
        nu=args.nu,
    )
    net = build_event_network(
        config, seed=args.seed, jammer_strategy=JammerStrategy.REACTIVE
    )

    captured = sorted(net.compromise.nodes)
    print(f"Squad of {config.n_nodes}; radios of nodes {captured} "
          f"captured -> {net.compromise.n_codes} of "
          f"{config.pool_size} pool codes compromised")

    physical = set(net.node_pairs_in_range())
    print(f"{len(physical)} physical-neighbor pairs in range\n")

    print("Phase 1: D-NDP (direct discovery under jamming)...")
    for node in net.nodes:
        node.initiate_dndp()
    net.simulator.run(until=60.0)
    direct = set(net.logical_pairs())
    print(f"  {len(direct)}/{len(physical)} pairs discovered directly; "
          f"jammer fired {net.jammer.effective} effective jams")

    print(f"Phase 2: M-NDP (multi-hop recovery, nu = {args.nu})...")
    start = net.simulator.now
    for node in net.nodes:
        node.initiate_mndp()
    net.simulator.run(until=start + 300.0)
    logical = net.logical_pairs()
    recovered = logical - direct
    dark = physical - logical
    print(f"  {len(recovered)} pairs recovered via relays; "
          f"{len(dark)} still dark\n")

    print("Pair-by-pair outcome:")
    for a, b in sorted(physical):
        shared = net.assignment.shared_codes(a, b)
        safe = [c for c in shared if not net.compromise.knows_code(c)]
        if (a, b) in direct:
            how = "D-NDP"
        elif (a, b) in logical:
            how = "M-NDP"
        else:
            how = "DARK"
        print(f"  {a:>2}-{b:<2}  shared codes {len(shared)} "
              f"(safe {len(safe)})  -> {how}")

    latency = net.metrics.snapshot().histograms.get("dndp.latency")
    if latency is not None:
        print(f"\nMean D-NDP handshake latency: "
              f"{latency.mean:.3f} s over {latency.count} handshakes")


if __name__ == "__main__":
    main()

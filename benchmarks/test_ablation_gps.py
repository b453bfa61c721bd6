"""Ablation: GPS false-positive filtering in M-NDP (Section V-C).

Without GPS, a node answers every M-NDP request from an unknown source:
it derives a key (t_key), signs a response (t_sig), and beacons a HELLO
for the full tau_h — all wasted when the source is out of range (the
confirmation exchange prevents the false positive either way).  With
the source position embedded, out-of-range requests are dropped after
signature verification.  This bench measures the wasted responder work
saved on a line topology where most nu-hop "neighbors" are physically
unreachable.
"""

from repro.core.config import JRSNDConfig
from repro.experiments.reporting import format_series_table
from repro.experiments.scenarios import build_event_network


def _chain_network(use_gps, n=6, spacing=250.0, seed=3):
    """Nodes on a line, 250 m apart, 300 m range: only adjacent pairs
    are physical neighbors, but nu-hop requests reach much further.
    Seed 3 makes every adjacent pair share a code, so the D-NDP chain
    forms completely and the M-NDP flood exercises the GPS filter."""
    config = JRSNDConfig(
        n_nodes=n,
        codes_per_node=3,
        share_count=4,
        n_compromised=0,
        field_width=spacing * n + 100.0,
        field_height=50.0,
        tx_range=300.0,
        rho=1e-9,
        nu=4,
        use_gps=use_gps,
    )
    positions = [(50.0 + i * spacing, 25.0) for i in range(n)]
    return build_event_network(config, seed=seed, positions=positions)


def _run(net):
    for node in net.nodes:
        node.initiate_dndp()
    net.simulator.run(until=40.0)
    start = net.simulator.now
    for node in net.nodes:
        node.initiate_mndp()
    net.simulator.run(until=start + 400.0)
    return net


def test_gps_filter_saves_responder_work(benchmark):
    def run_both():
        rows = []
        for use_gps in (False, True):
            net = _run(_chain_network(use_gps))
            counters = net.metrics.snapshot().counters
            rows.append(
                {
                    "gps": float(use_gps),
                    "logical_pairs": float(len(net.logical_pairs())),
                    "physical_pairs": float(
                        len(net.node_pairs_in_range())
                    ),
                    "filtered": float(
                        counters.get("mndp.gps_filtered", 0)
                    ),
                    "verifications": float(
                        counters.get("mndp.verifications", 0)
                    ),
                }
            )
        return rows

    rows = benchmark.pedantic(run_both, rounds=1, iterations=1)
    print()
    print(
        format_series_table(
            rows,
            title="GPS ablation on a 6-node chain (nu = 4): wasted "
                  "responder work with and without position filtering",
        )
    )
    without, with_gps = rows
    # Same correctness either way: logical == physical, no falses.
    assert without["logical_pairs"] == without["physical_pairs"]
    assert with_gps["logical_pairs"] == with_gps["physical_pairs"]
    # The filter fires for the out-of-range sources...
    assert with_gps["filtered"] > 0
    assert without["filtered"] == 0
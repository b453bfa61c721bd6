"""Figure 3: impact of the share count ``l`` (a) and network size
``n`` (b) on discovery probability.

Paper shapes: P rises with ``l`` up to about 100 and then declines
slowly (sharing helps until compromise exposure dominates); with ``n``,
D-NDP first rises (alpha falls) then declines (sharing probability
falls), while M-NDP benefits from density and keeps JR-SND high.
"""

from repro.experiments.reporting import format_series_table


def test_figure3a_impact_of_l(benchmark, figure_rows):
    rows = benchmark.pedantic(
        figure_rows, args=("fig3a",), rounds=1, iterations=1
    )
    print()
    print(
        format_series_table(
            rows,
            columns=["share_count", "p_dndp", "p_dndp_ci", "p_mndp",
                     "p_mndp_ci", "p_jrsnd", "p_jrsnd_ci"],
            title="Figure 3(a): discovery probability vs l",
        )
    )
    by_l = {row["share_count"]: row for row in rows}
    # Rising branch.
    assert by_l[100]["p_dndp"] > by_l[5]["p_dndp"]
    assert by_l[40]["p_dndp"] > by_l[10]["p_dndp"]
    # Declining branch after the optimum (~100).
    assert by_l[200]["p_dndp"] < by_l[100]["p_dndp"]


def test_figure3b_impact_of_n(benchmark, figure_rows):
    rows = benchmark.pedantic(
        figure_rows, args=("fig3b",), rounds=1, iterations=1
    )
    print()
    print(
        format_series_table(
            rows,
            columns=["n_nodes", "p_dndp", "p_dndp_ci", "p_mndp",
                     "p_mndp_ci", "p_jrsnd", "p_jrsnd_ci", "degree"],
            title="Figure 3(b): discovery probability vs n",
        )
    )
    by_n = {row["n_nodes"]: row for row in rows}
    # D-NDP: rise (alpha falls with n at fixed q) to a peak around
    # n ~ 1000, then decline as the sharing probability falls.
    assert by_n[1000]["p_dndp"] > by_n[500]["p_dndp"]
    assert by_n[4000]["p_dndp"] < by_n[1000]["p_dndp"]
    assert by_n[4000]["p_dndp"] < by_n[2000]["p_dndp"]
    # Density helps M-NDP: JR-SND stays high at large n.
    assert by_n[4000]["p_jrsnd"] > 0.9

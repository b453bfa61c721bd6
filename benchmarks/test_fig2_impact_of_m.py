"""Figure 2: impact of the number of preloaded codes ``m``.

(a) Discovery probability of D-NDP / M-NDP / JR-SND vs ``m``
    (reactive jamming, Table I otherwise).
(b) Latency vs ``m``: Theorem 2's T_D grows quadratically, crosses
    Theorem 4's T_M near m ~ 60, and JR-SND stays under 2 s at m = 100.
"""

from repro.experiments.reporting import format_series_table


def test_figure2_impact_of_m(benchmark, figure_rows):
    rows = benchmark.pedantic(
        figure_rows, args=("fig2",), rounds=1, iterations=1
    )
    print()
    print(
        format_series_table(
            rows,
            columns=["codes_per_node", "p_dndp", "p_dndp_ci", "p_mndp",
                     "p_mndp_ci", "p_jrsnd", "p_jrsnd_ci"],
            title="Figure 2(a): discovery probability vs m "
                  "(reactive jamming)",
        )
    )
    print()
    print(
        format_series_table(
            rows,
            columns=["codes_per_node", "dndp_expected_latency",
                     "mndp_expected_latency", "combined_latency"],
            title="Figure 2(b): latency vs m (seconds, Theorems 2/4)",
        )
    )

    by_m = {row["codes_per_node"]: row for row in rows}
    # (a) probability grows with m for every curve.
    assert by_m[200]["p_dndp"] > by_m[20]["p_dndp"]
    assert by_m[200]["p_jrsnd"] >= by_m[20]["p_jrsnd"]
    # (b) T_D quadratic; crossover with T_M between m = 40 and m = 80.
    t_d, t_m = "dndp_expected_latency", "mndp_expected_latency"
    assert by_m[200][t_d] / by_m[100][t_d] > 3.5
    assert by_m[40][t_d] < by_m[40][t_m]
    assert by_m[80][t_d] > by_m[80][t_m]
    # Headline: under 2 s at the default m = 100.
    assert by_m[100]["combined_latency"] < 2.0

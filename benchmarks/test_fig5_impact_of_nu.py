"""Figure 5: impact of the M-NDP hop budget ``nu``.

(a) P_M and combined P vs nu at heavy compromise (q = 100, l = 40,
    giving P_D ~ 0.2 as in the paper); the paper's curve rises with nu
    and exceeds 0.9 for nu >= 6.
(b) T_M vs nu (Theorem 4); about 4 s at nu = 6.

Two link models are reported (see EXPERIMENTS.md): the faithful
code-level model saturates by nu ~ 3 because relay-level correlations
make logical paths short; the independent-link model — evidently what
the authors' C++ simulator sampled — reproduces their plotted
nu-dependence.
"""

from repro.experiments.reporting import format_series_table

COLUMNS = ["nu", "p_dndp", "p_dndp_ci", "p_mndp", "p_mndp_ci", "p_jrsnd",
           "p_jrsnd_ci"]


def test_figure5_impact_of_nu(benchmark, figure_rows):
    rows = benchmark.pedantic(
        figure_rows, args=("fig5",), rounds=1, iterations=1
    )
    independent = [row for row in rows if row["link_model"] == "independent"]
    faithful = [row for row in rows if row["link_model"] == "codes"]
    print()
    print(
        format_series_table(
            independent,
            columns=COLUMNS,
            title="Figure 5(a): probability vs nu — independent-link "
                  "model (matches the paper's plotted curve)",
        )
    )
    print()
    print(
        format_series_table(
            faithful,
            columns=COLUMNS,
            title="Figure 5(a)': same sweep, faithful code-level model "
                  "(correlations shorten logical paths)",
        )
    )
    print()
    print(
        format_series_table(
            independent,
            columns=["nu", "mndp_expected_latency"],
            title="Figure 5(b): M-NDP latency vs nu (Theorem 4, seconds)",
        )
    )

    by_nu = {row["nu"]: row for row in independent}
    # P_D ~ 0.2 regardless of nu (plotted for reference in the paper).
    for row in independent:
        assert 0.1 < row["p_dndp"] < 0.35
    # Paper shape: monotone improvement with nu, > 0.9 at nu >= 6.
    p_m = [row["p_mndp"] for row in independent]
    assert all(a <= b + 0.02 for a, b in zip(p_m, p_m[1:]))
    assert by_nu[2.0]["p_jrsnd"] < by_nu[6.0]["p_jrsnd"]
    assert by_nu[6.0]["p_jrsnd"] > 0.9
    # Latency about 4 s at nu = 6 (order-of-magnitude shape).
    t_m = "mndp_expected_latency"
    assert 2.0 < by_nu[6.0][t_m] < 8.0
    assert by_nu[8.0][t_m] > by_nu[1.0][t_m]
    # Faithful model saturates earlier than the independent one: by
    # nu = 5 it is within two points of its nu = 8 ceiling (isolated
    # nodes, not path length, are what is left).
    faithful_by_nu = {row["nu"]: row for row in faithful}
    assert faithful_by_nu[5.0]["p_mndp"] > (
        faithful_by_nu[8.0]["p_mndp"] - 0.02
    )

"""Figure 4: impact of the number of compromised nodes ``q``.

(a) l = 40 and (b) l = 20, q swept 0..100 under reactive jamming.
Paper shape: every curve decreases in q; at l = 40 JR-SND drops to
about 0.5 around q = 60.
"""

from repro.experiments.reporting import format_series_table

COLUMNS = ["n_compromised", "p_dndp", "p_dndp_ci", "p_mndp", "p_mndp_ci",
           "p_jrsnd", "p_jrsnd_ci"]


def rows_at(rows, share_count):
    """One l curve of the Fig 4 campaign, in q order."""
    return [row for row in rows if row["share_count"] == share_count]


def test_figure4a_l40(benchmark, figure_rows):
    rows = rows_at(
        benchmark.pedantic(
            figure_rows, args=("fig4",), rounds=1, iterations=1
        ),
        40,
    )
    print()
    print(
        format_series_table(
            rows,
            columns=COLUMNS,
            title="Figure 4(a): discovery probability vs q at l = 40",
        )
    )
    series = [row["p_jrsnd"] for row in rows]
    assert all(a >= b - 0.03 for a, b in zip(series, series[1:]))
    by_q = {row["n_compromised"]: row for row in rows}
    # Paper shape: every curve declines in q, D-NDP fastest; the paper
    # plots JR-SND ~ 0.5 at q = 60, below its own Theorem 3, while our
    # faithful model reaches that level around q ~ 100 (see
    # EXPERIMENTS.md) — the decline and ordering hold.
    assert by_q[0]["p_jrsnd"] > 0.95
    assert by_q[100]["p_dndp"] < 0.3
    assert by_q[100]["p_jrsnd"] < 0.7
    for row in rows:
        assert row["p_jrsnd"] >= row["p_dndp"] - 1e-9


def test_figure4b_l20(benchmark, figure_rows):
    rows = rows_at(
        benchmark.pedantic(
            figure_rows, args=("fig4",), rounds=1, iterations=1
        ),
        20,
    )
    print()
    print(
        format_series_table(
            rows,
            columns=COLUMNS,
            title="Figure 4(b): discovery probability vs q at l = 20",
        )
    )
    series = [row["p_jrsnd"] for row in rows]
    assert all(a >= b - 0.03 for a, b in zip(series, series[1:]))
    # Smaller l: less exposure per compromised node — at the same q the
    # code-compromise probability alpha is lower, but so is the
    # sharing probability; the q -> 0 endpoint reflects the latter.
    by_q = {row["n_compromised"]: row for row in rows}
    assert by_q[0]["p_dndp"] < 0.95

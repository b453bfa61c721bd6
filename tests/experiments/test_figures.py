"""The paper's figure shapes on small campaigns' query rows.

Each figure is a campaign spec plus ``campaign query``
(``examples/fig2.json`` … ``examples/fig5.json`` at the paper's scale);
these checks run the same axes on the ``tiny`` preset, two runs per
point, and read the rows :func:`repro.campaigns.query_rows` builds.
"""

import pytest

from repro.analysis.combined import combined_probability
from repro.campaigns import (
    CampaignSpec,
    CampaignStore,
    query_rows,
    run_campaign,
)

REV = "figrows"


def campaign_rows(tmp_path_factory, name, grid, runs=2):
    """Launch a tiny-preset campaign over ``grid``; its query rows."""
    spec = CampaignSpec(
        name=name, seed=2011, runs_per_point=runs, base="tiny", grid=grid
    )
    path = str(tmp_path_factory.mktemp(name) / "store.sqlite")
    assert run_campaign(spec, path, processes=1, git_revision=REV).complete
    with CampaignStore(path) as store:
        results = store.point_results(spec.name, spec.spec_hash(), REV)
    return query_rows(spec, results)


class TestFigure2:
    @pytest.fixture(scope="class")
    def rows(self, tmp_path_factory):
        return campaign_rows(
            tmp_path_factory, "fig2", {"codes_per_node": [5, 20, 40]}
        )

    def test_rows_and_columns(self, rows):
        assert [row["codes_per_node"] for row in rows] == [5, 20, 40]
        for row in rows:
            for key in ("p_dndp", "p_mndp", "p_jrsnd", "p_dndp_ci",
                        "p_mndp_ci", "p_jrsnd_ci", "degree",
                        "dndp_expected_latency", "mndp_expected_latency",
                        "combined_latency", "runs"):
                assert key in row
            assert row["runs"] == 2

    def test_latency_quadratic_in_m(self, rows):
        t = [row["dndp_expected_latency"] for row in rows]
        assert t[2] / t[1] > 3.0

    def test_probability_increases_with_m(self, rows):
        assert rows[-1]["p_dndp"] > rows[0]["p_dndp"]


class TestFigure3:
    def test_3a_shape(self, tmp_path_factory):
        rows = campaign_rows(
            tmp_path_factory, "fig3a", {"share_count": [3, 10]}
        )
        assert rows[1]["p_dndp"] > rows[0]["p_dndp"]

    def test_3b_columns(self, tmp_path_factory):
        rows = campaign_rows(
            tmp_path_factory, "fig3b", {"n_nodes": [60, 120]}, runs=1
        )
        assert [row["n_nodes"] for row in rows] == [60, 120]
        assert rows[1]["degree"] > rows[0]["degree"]


class TestFigure4:
    @pytest.fixture(scope="class")
    def rows(self, tmp_path_factory):
        return campaign_rows(
            tmp_path_factory, "fig4",
            {"n_compromised": [0, 40], "share_count": [10]},
        )

    def test_decreasing_in_q(self, rows):
        assert rows[0]["p_dndp"] > rows[1]["p_dndp"]

    def test_carries_l(self, rows):
        assert [row["share_count"] for row in rows] == [10, 10]
        assert [row["n_compromised"] for row in rows] == [0, 40]


class TestFigure5:
    @pytest.fixture(scope="class")
    def rows(self, tmp_path_factory):
        return campaign_rows(
            tmp_path_factory, "fig5",
            {"n_compromised": [20], "nu": [1, 2, 4]},
        )

    def test_nu_improves_mndp(self, rows):
        p_m = [row["p_mndp"] for row in rows]
        assert p_m == sorted(p_m)
        assert p_m[-1] > p_m[0]

    def test_latency_grows_with_nu(self, rows):
        t_m = [row["mndp_expected_latency"] for row in rows]
        assert t_m[0] < t_m[1] < t_m[2]

    def test_combined_check_consistent(self, rows):
        """P = P_D + (1-P_D) P_M holds per run; across-run averaging
        of the conditional P_M introduces only a small discrepancy."""
        for row in rows:
            assert row["p_jrsnd"] == pytest.approx(
                combined_probability(row["p_dndp"], row["p_mndp"]),
                abs=0.02,
            )

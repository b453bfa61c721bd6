"""Pinned paper-scale run results.

Each case is one Table I snapshot (2000 nodes on the 5000 x 5000 m
field, 300 m range, q = 60 compromised nodes unless noted, reactive
jammer) at its own run index.  The counts were recorded before the
occupied-cell neighbor search, the array-returning M-NDP closure and
its degree-ordered growth replaced their predecessors, so a kernel
change that alters any placement, neighbor pair, D-NDP draw or M-NDP
recovery shows up here as a changed tuple.

Under the reactive jammer every chipless pair probability is 0 or 1,
so those rows cannot see the chipless sweep's per-pair uniform draws;
the random-jammer rows can (their pair probabilities are fractional).

The last two tables pin the M-NDP stage alone: one codes run's
recoveries at every hop budget from 3 to 7 (at Figure 5's q = 100), and
the ``mndp.*`` counters and hop histogram of two runs at nu = 8.
"""

import pytest

from repro.adversary.jammer import JammerStrategy
from repro.core.config import JRSNDConfig
from repro.experiments.runner import NetworkExperiment
from repro.obs import names

SEED = 2011

# (phy_backend, link_model, nu, run_index,
#  (n_pairs, dndp_successes, mndp_successes, mean_degree))
GOLDEN = [
    ("message", "codes", 2, 0, (21399, 9173, 9877, 21.399)),
    ("message", "codes", 8, 1, (21598, 9307, 10999, 21.598)),
    ("message", "independent", 2, 2, (21691, 9453, 11059, 21.691)),
    ("message", "independent", 8, 3, (21970, 9448, 12513, 21.97)),
    ("chipless", "codes", 2, 4, (21195, 8921, 9663, 21.195)),
    ("chipless", "codes", 8, 5, (21415, 9014, 11118, 21.415)),
    ("chipless", "independent", 2, 6, (21454, 9207, 10984, 21.454)),
    ("chipless", "independent", 8, 7, (21608, 9454, 12154, 21.608)),
]


@pytest.mark.parametrize(
    "phy, link_model, nu, run_index, expected",
    GOLDEN,
    ids=[f"{phy}-{link}-nu{nu}" for phy, link, nu, _, _ in GOLDEN],
)
def test_paper_scale_run_is_pinned(phy, link_model, nu, run_index, expected):
    config = JRSNDConfig(phy_backend=phy, nu=nu, n_compromised=60)
    result = NetworkExperiment(
        config, seed=SEED, link_model=link_model
    ).run_once(run_index)
    got = (
        result.n_pairs,
        result.dndp_successes,
        result.mndp_successes,
        result.mean_degree,
    )
    assert got == expected
    assert result.mean_dndp_latency is None


# Random jammer, q = 60: (phy_backend, link_model, nu, run_index,
#  (n_pairs, dndp_successes, mndp_successes, mean_degree))
RANDOM_GOLDEN = [
    ("chipless", "codes", 2, 8, (21558, 18465, 3093, 21.558)),
    ("chipless", "codes", 8, 9, (21568, 18445, 3123, 21.568)),
    ("message", "codes", 2, 10, (21348, 18334, 3013, 21.348)),
]


@pytest.mark.parametrize(
    "phy, link_model, nu, run_index, expected",
    RANDOM_GOLDEN,
    ids=[f"{phy}-{link}-nu{nu}" for phy, link, nu, _, _ in RANDOM_GOLDEN],
)
def test_random_jammer_run_is_pinned(
    phy, link_model, nu, run_index, expected
):
    config = JRSNDConfig(phy_backend=phy, nu=nu, n_compromised=60)
    result = NetworkExperiment(
        config,
        seed=SEED,
        strategy=JammerStrategy.RANDOM,
        link_model=link_model,
    ).run_once(run_index)
    got = (
        result.n_pairs,
        result.dndp_successes,
        result.mndp_successes,
        result.mean_degree,
    )
    assert got == expected


# Reactive jammer, q = 100 (Figure 5's compromise), message PHY, codes
# link model, run 11 at each hop budget: (nu, mndp_successes).  Every
# budget shares the run's 21461 pairs and 4500 direct successes.
NU_LADDER = [(3, 11898), (4, 13530), (5, 13996), (6, 14139), (7, 14209)]


@pytest.mark.parametrize(
    "nu, expected", NU_LADDER, ids=[f"nu{nu}" for nu, _ in NU_LADDER]
)
def test_codes_run_is_pinned_at_every_budget(nu, expected):
    config = JRSNDConfig(phy_backend="message", nu=nu, n_compromised=100)
    result = NetworkExperiment(
        config, seed=SEED, link_model="codes"
    ).run_once(11)
    got = (result.n_pairs, result.dndp_successes, result.mndp_successes)
    assert got == (21461, 4500, expected)


# Reactive jammer, q = 60, nu = 8, with metrics: (phy_backend,
#  link_model, run_index, (mndp.pairs_attempted, mndp.pairs_recovered,
#  mndp.recovery_hops counts)).
MNDP_METRICS_GOLDEN = [
    (
        "message", "codes", 12,
        (12315, 11005, ((2.0, 10088), (3.0, 865), (4.0, 45), (5.0, 7))),
    ),
    (
        "chipless", "independent", 13,
        (12256, 12248, ((2.0, 10934), (3.0, 1268), (4.0, 43), (5.0, 3))),
    ),
]


@pytest.mark.parametrize(
    "phy, link_model, run_index, expected",
    MNDP_METRICS_GOLDEN,
    ids=[f"{phy}-{link}-nu8" for phy, link, _, _ in MNDP_METRICS_GOLDEN],
)
def test_mndp_metrics_are_pinned(phy, link_model, run_index, expected):
    config = JRSNDConfig(phy_backend=phy, nu=8, n_compromised=60)
    result = NetworkExperiment(
        config, seed=SEED, link_model=link_model, collect_metrics=True
    ).run_once(run_index)
    metrics = result.metrics
    got = (
        metrics.counters[names.MNDP_PAIRS_ATTEMPTED],
        metrics.counters[names.MNDP_PAIRS_RECOVERED],
        metrics.histograms[names.MNDP_RECOVERY_HOPS].counts,
    )
    assert got == expected
    assert result.mndp_successes == expected[1]

"""repro — a reproduction of JR-SND (ICDCS 2011).

JR-SND is a jamming-resilient secure neighbor discovery scheme for
single-authority mobile ad hoc networks (MANETs).  This package contains a
full, from-scratch implementation of the scheme and of every substrate it
depends on:

``repro.dsss``
    A chip-level Direct Sequence Spread Spectrum physical layer: spread
    codes, spreading, correlation de-spreading, a superposition channel,
    and the sliding-window synchronizer used by the protocol receivers.

``repro.ecc``
    Error-correcting codes: a complete Reed-Solomon codec over GF(2^8)
    (with errors-and-erasures decoding) and the rate-``mu`` codec
    wrapper used by the JR-SND messages.

``repro.crypto``
    A simulated identity-based cryptography substrate (pairwise
    non-interactive keys, ID-based signatures, MACs, session spread-code
    derivation).

``repro.predistribution``
    The random spread-code pre-distribution scheme of Section V-A, its
    closed-form analysis (Eqs. 1 and 2) and the gamma-counter local
    revocation defense of Section V-D.

``repro.sim``
    A discrete-event network simulator: event kernel, 2-D field geometry,
    mobility models and a code-addressed radio medium.

``repro.adversary``
    Node-compromise, random/reactive jammer, and DoS attacker models.

``repro.core``
    The paper's contribution: the D-NDP and M-NDP protocols and the
    combined JR-SND scheme, plus the timing model of Section V-B.

``repro.analysis``
    Closed forms for Theorems 1-4.

``repro.experiments``
    The Monte Carlo harness that regenerates every figure in the paper's
    evaluation section.

``repro.obs``
    Metrics and tracing: a process-installable registry of counters,
    gauges, timers and histograms that every layer above reports into,
    and JSON-round-trippable snapshots for machine-readable telemetry.

Quickstart::

    from repro import JRSNDConfig, NetworkExperiment

    config = JRSNDConfig()          # Table I defaults
    exp = NetworkExperiment(config, seed=7)
    result = exp.run()
    print(result.discovery_probability("jrsnd"))
"""

from repro.core.config import JRSNDConfig, default_config
from repro.core.jrsnd import JRSNDNode, JRSNDOutcome
from repro.experiments.runner import ExperimentResult, NetworkExperiment
from repro.obs import MetricsRegistry, MetricsSnapshot
from repro.version import __version__

__all__ = [
    "JRSNDConfig",
    "default_config",
    "JRSNDNode",
    "JRSNDOutcome",
    "NetworkExperiment",
    "ExperimentResult",
    "MetricsRegistry",
    "MetricsSnapshot",
    "__version__",
]

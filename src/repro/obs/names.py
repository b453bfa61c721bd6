"""Central registry of every metric name reported to :mod:`repro.obs`.

A typo'd counter name silently no-ops: ``registry.inc("dsss.scnas")``
creates a fresh counter nobody reads while the dashboards and the
serial==parallel equality gates watch ``dsss.scans`` sit at zero.  This
module is the single source of truth the instrumented layers import
from, and the ``JRS004`` lint rule (:mod:`repro.lint`) checks every
string literal passed to a registry method against it.

Three kinds of entry:

- **constants** — one module-level ``UPPER_SNAKE`` string per static
  metric name (counters, gauges, timers, histograms, and structured
  event categories all share the namespace);
- **dynamic-name helpers** — :func:`cache_hits` and
  :func:`cache_misses` build names with a runtime component (the cache
  kind); their shapes are registered as ``DYNAMIC_PATTERNS`` so the
  linter can still validate expanded names;
- **lookup API** — :data:`ALL_NAMES`, :func:`is_registered`, and
  :data:`CONSTANT_FOR` (``JRS004`` names the declaring constant when a
  registered name is written as a raw literal).

Adding a metric: declare the constant here, report through it at the
call site, and the lint gate keeps both sides honest.
"""

from __future__ import annotations

import re
from typing import Dict, FrozenSet, Tuple

__all__ = [
    "ALL_NAMES",
    "CONSTANT_FOR",
    "DYNAMIC_PATTERNS",
    "NAME_PATTERN",
    "FAULTS_PREFIX",
    "RETRY_PREFIX",
    "cache_hits",
    "cache_misses",
    "is_registered",
    "looks_like_metric_name",
]

# -- simulation kernel -------------------------------------------------

SIM_EVENTS_EXECUTED = "sim.events_executed"
SIM_TIME = "sim.time"
SIM_HEAP_HIGH_WATER = "sim.heap_high_water"

# -- DSSS synchronizer -------------------------------------------------

DSSS_SCANS = "dsss.scans"
DSSS_CORRELATIONS_COMPUTED = "dsss.correlations_computed"
DSSS_FALSE_ALARMS = "dsss.false_alarms"
DSSS_LOCKS = "dsss.locks"

# -- ECC codecs --------------------------------------------------------

ECC_SYMBOLS_ENCODED = "ecc.symbols_encoded"
ECC_SYMBOLS_DECODED = "ecc.symbols_decoded"

# -- wire / framing ----------------------------------------------------

WIRE_UNDECODABLE = "wire.undecodable"

# -- PHY backends (the chipless sweep) ---------------------------------

PHY_PAIRS_SWEPT = "phy.pairs_swept"
PHY_SWEEP_SECONDS = "phy.sweep_seconds"

# -- D-NDP (direct neighbor discovery) ---------------------------------

DNDP_PAIRS_SAMPLED = "dndp.pairs_sampled"
DNDP_SUCCESSES = "dndp.successes"
DNDP_FAILURES = "dndp.failures"
DNDP_SHARED_CODES = "dndp.shared_codes"
DNDP_ESTABLISHED = "dndp.established"
DNDP_RESPONDER_TIMEOUT = "dndp.responder_timeout"
DNDP_BAD_MAC_IGNORED = "dndp.bad_mac_ignored"
DNDP_REPLAYS_DROPPED = "dndp.replays_dropped"
DNDP_LATENCY = "dndp.latency"  # event-driven handshake latency (s)

# -- M-NDP (multi-hop recovery) ----------------------------------------

MNDP_ROUNDS = "mndp.rounds"
MNDP_PAIRS_ATTEMPTED = "mndp.pairs_attempted"
MNDP_PAIRS_RECOVERED = "mndp.pairs_recovered"
MNDP_RECOVERY_HOPS = "mndp.recovery_hops"
MNDP_ESTABLISHED = "mndp.established"
MNDP_VERIFICATIONS = "mndp.verifications"
MNDP_INVALID_REQUESTS = "mndp.invalid_requests"
MNDP_INVALID_RESPONSES = "mndp.invalid_responses"
MNDP_GPS_FILTERED = "mndp.gps_filtered"
MNDP_LATENCY = "mndp.latency"  # event-driven recovery latency (s)

# -- revocation / DoS defence ------------------------------------------

REVOCATION_INVALID_REQUESTS = "revocation.invalid_requests"
REVOCATION_CODES_REVOKED = "revocation.codes_revoked"
REVOCATION_REVOKED = "revocation.revoked"  # structured event category
DOS_VERIFICATIONS = "dos.verifications"
NEIGHBORS_EXPIRED = "neighbors.expired"

# -- handshake retry / session GC --------------------------------------

RETRY_PREFIX = "retry."
RETRY_SESSIONS_FAILED = "retry.sessions_failed"
RETRY_AUTH_RETRANSMITS = "retry.auth_retransmits"
RETRY_AUTH_RESPONSE_RETRANSMITS = "retry.auth_response_retransmits"
RETRY_MNDP_QUEUED = "retry.mndp_queued"
RETRY_MNDP_QUEUE_DROPPED = "retry.mndp_queue_dropped"
RETRY_MNDP_REQUEUED = "retry.mndp_requeued"
RETRY_MNDP_DROPPED = "retry.mndp_dropped"
RETRY_MNDP_DEQUEUED = "retry.mndp_dequeued"
RETRY_MNDP_EXPIRED = "retry.mndp_expired"
RETRY_MNDP_STATE_PRUNED = "retry.mndp_state_pruned"
RETRY_SESSIONS_GCED = "retry.sessions_gced"

# -- fault injection ---------------------------------------------------

FAULTS_PREFIX = "faults."
FAULTS_BURST_JAMMED = "faults.burst_jammed"
FAULTS_TX_SUPPRESSED = "faults.tx_suppressed"
FAULTS_RX_CRASHED = "faults.rx_crashed"
FAULTS_DROPPED = "faults.dropped"
FAULTS_DELAYED = "faults.delayed"
FAULTS_DUPLICATED = "faults.duplicated"

# -- experiment harness ------------------------------------------------

EXPERIMENT_RUN_SECONDS = "experiment.run_seconds"
EXPERIMENT_RUNS = "experiment.runs"
EXPERIMENT_PAIRS = "experiment.pairs"
EXPERIMENT_DNDP_SUCCESSES = "experiment.dndp_successes"
EXPERIMENT_MNDP_RECOVERED = "experiment.mndp_recovered"
EXPERIMENT_MEAN_DEGREE = "experiment.mean_degree"

# -- campaign layer (sharded, resumable sweeps) ------------------------

CAMPAIGNS_SHARDS_COMPLETED = "campaigns.shards_completed"
CAMPAIGNS_SHARDS_SKIPPED = "campaigns.shards_skipped"
CAMPAIGNS_RUNS_EXECUTED = "campaigns.runs_executed"
CAMPAIGNS_SHARD_SECONDS = "campaigns.shard_seconds"
CAMPAIGNS_STORE_COMMITS = "campaigns.store_commits"
CAMPAIGNS_RESUMED = "campaigns.resumed"

# -- persistent worker pool (campaign engine) --------------------------

POOL_WORKERS_SPAWNED = "pool.workers_spawned"
POOL_TASKS_DISPATCHED = "pool.tasks_dispatched"
POOL_WORKERS_FORCE_KILLED = "pool.workers_force_killed"

# -- dynamic-name helpers ----------------------------------------------

def cache_hits(kind: str) -> str:
    """Hit counter for artifact-cache partition ``kind``."""
    return f"cache.{kind}.hits"


def cache_misses(kind: str) -> str:
    """Miss counter for artifact-cache partition ``kind``."""
    return f"cache.{kind}.misses"


#: Regexes matching the names the helpers above can produce.  A name is
#: "registered" if it is a static constant or matches one of these.
DYNAMIC_PATTERNS: Tuple[str, ...] = (
    r"^cache\.[a-z0-9_]+\.(hits|misses)$",
)

_DYNAMIC_RES = tuple(re.compile(pattern) for pattern in DYNAMIC_PATTERNS)


#: Shape of a well-formed metric name: dotted lower_snake segments.
NAME_PATTERN = r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$"

_NAME_RE = re.compile(NAME_PATTERN)


def _collect() -> Tuple[FrozenSet[str], Dict[str, str]]:
    names: Dict[str, str] = {}
    for constant, value in sorted(globals().items()):
        if not constant.isupper():
            continue
        if not isinstance(value, str) or not _NAME_RE.match(value):
            continue
        if value in names:
            raise ValueError(
                f"duplicate metric name {value!r}: declared by both "
                f"{names[value]} and {constant}"
            )
        names[value] = constant
    return frozenset(names), {name: const for name, const in names.items()}


#: Every static metric name (event categories included).
ALL_NAMES, CONSTANT_FOR = _collect()


def is_registered(name: str) -> bool:
    """True if ``name`` is a declared metric name or a helper product."""
    if name in ALL_NAMES:
        return True
    return any(regex.match(name) for regex in _DYNAMIC_RES)


def looks_like_metric_name(text: str) -> bool:
    """True if ``text`` has the dotted lower_snake shape of a metric
    name (used by the ``JRS004`` lint rule to skip unrelated string
    literals like ``some_list.count("x")``)."""
    return _NAME_RE.match(text) is not None

"""repro.campaigns — sharded, resumable Monte Carlo sweep campaigns.

The paper's evaluation (Section VI) sweeps n/m/l/q/nu and the jammer
strategy over a 2000-node field, 100 runs per point.  One
``NetworkExperiment`` call can execute a point, but a full evaluation
is hours of compute that must survive interruption and leave a
queryable record.  This package adds that layer:

- :class:`CampaignSpec` — a declarative grid over the paper's
  parameters plus runs-per-point and a root seed, expanded
  *deterministically* into numbered shards (``spec.shards()``); the
  spec's canonical JSON is content-hashed so a store can refuse to mix
  results from different specs under one campaign name;
- :class:`CampaignStore` — a SQLite results store; each finished shard
  commits its :class:`~repro.experiments.runner.RunResult` rows and
  deterministic merged :class:`~repro.obs.MetricsSnapshot` in a single
  transaction keyed by ``(campaign id, spec hash, shard index, git
  revision)``, so a SIGKILL mid-shard rolls back cleanly;
- :func:`run_campaign` — the executor: skips shards already in the
  store, runs the rest on one
  :class:`~repro.experiments.pool.WorkerPool`, and on completion
  rewrites the store into a canonical byte-deterministic
  form — resuming after a kill yields a file bit-identical to an
  uninterrupted run, and re-running a finished campaign is a no-op.

- :func:`query_rows` — a campaign's stored points as the rows a paper
  figure plots, with confidence intervals and the Theorem 2/4
  latencies computed at print time.

``python -m repro campaign launch|resume|status|query|diff`` is the
command-line surface; see ``docs/architecture.md`` ("Campaigns & the
results store").  Every figure of the paper is one spec under
``examples/`` (``fig2.json`` … ``fig5.json``).
"""

from repro.campaigns.spec import (
    CampaignPoint,
    CampaignSpec,
    Shard,
    GRID_AXES,
)
from repro.campaigns.store import CampaignStore, current_git_revision
from repro.campaigns.executor import CampaignStatus, run_campaign
from repro.campaigns.query import query_rows

__all__ = [
    "CampaignPoint",
    "CampaignSpec",
    "CampaignStatus",
    "CampaignStore",
    "GRID_AXES",
    "Shard",
    "current_git_revision",
    "query_rows",
    "run_campaign",
]

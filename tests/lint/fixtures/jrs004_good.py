"""JRS004 negative fixture: constants and registered helpers."""

from repro.obs import current as _metrics
from repro.obs import names as _names


def report(kind: str, name: str) -> None:
    registry = _metrics()
    registry.inc(_names.DSSS_SCANS)
    registry.observe(_names.MNDP_RECOVERY_HOPS, 3)
    registry.inc(_names.CAMPAIGNS_SHARDS_COMPLETED)
    registry.inc(_names.PHY_PAIRS_SWEPT)
    registry.inc(_names.POOL_WORKERS_SPAWNED)
    registry.inc(_names.POOL_WORKERS_FORCE_KILLED)
    registry.inc(_names.CAMPAIGNS_RESUMED)
    registry.inc(_names.CAMPAIGNS_STORE_COMMITS)
    registry.inc(_names.POOL_TASKS_DISPATCHED)
    registry.inc(_names.CAMPAIGNS_SHARDS_SKIPPED)
    registry.inc(_names.cache_hits(kind))
    registry.inc(name)  # forwarder: literal checked at its call site
    ["a", "b"].count("a")
    "x.y".count(".")

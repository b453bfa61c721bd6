"""A process-local LRU cache for PHY artifacts.

The chip-level PHY loop rebuilds several artifacts that are invariant
across rounds and trials: the stacked code matrices inside
:class:`~repro.dsss.engine.CorrelationEngine`, the spread chip waveform
of a repeated HELLO, and :class:`~repro.ecc.reed_solomon.ReedSolomonCodec`
instances for each parity width.  :class:`ArtifactCache` memoizes them
behind one explicit, bounded interface:

- entries are keyed by ``(kind, key)`` where ``kind`` is a short
  namespace string (``"rs_codec"``, ``"correlation_engine"``,
  ``"waveform"``) and ``key`` is any hashable value derived from the
  artifact's *content identity* (e.g. chip bytes, not object identity);
- the cache is LRU-bounded, so pathological workloads (a different
  message per call) degrade to miss-and-evict instead of leaking;
- every lookup reports a ``cache.<kind>.hits`` / ``cache.<kind>.misses``
  counter to the installed :mod:`repro.obs` registry, so cache
  effectiveness shows up in ``--metrics-out`` snapshots;
- :func:`shared_cache` exposes one cache per process.  Worker processes
  of a :class:`~repro.experiments.pool.WorkerPool` each start with an
  empty module global and rebuild their own cache, so no state
  (and no cross-process invalidation problem) is ever shared.

Cached values are treated as immutable by every caller: NumPy arrays
placed in the cache are marked read-only, and callers that need a
mutable copy must copy explicitly.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Hashable, Optional, Tuple

from repro.errors import ConfigurationError
from repro.obs import current as _metrics
from repro.obs import names as _names

__all__ = ["ArtifactCache", "shared_cache", "clear_shared_cache"]

_MISSING = object()


class ArtifactCache:
    """A bounded LRU mapping of ``(kind, key)`` to built artifacts.

    Parameters
    ----------
    max_entries:
        Capacity; the least recently used entry is evicted beyond it.
    """

    def __init__(self, max_entries: int = 256) -> None:
        if max_entries <= 0:
            raise ConfigurationError(
                f"max_entries must be positive, got {max_entries}"
            )
        self._max_entries = int(max_entries)
        self._entries: "OrderedDict[Tuple[str, Hashable], Any]" = (
            OrderedDict()
        )
        self._hits = 0
        self._misses = 0

    @property
    def max_entries(self) -> int:
        """The cache capacity."""
        return self._max_entries

    @property
    def hits(self) -> int:
        """Lifetime hit count (survives :meth:`clear`)."""
        return self._hits

    @property
    def misses(self) -> int:
        """Lifetime miss count (survives :meth:`clear`)."""
        return self._misses

    def get_or_build(
        self, kind: str, key: Hashable, builder: Callable[[], Any]
    ) -> Any:
        """The cached artifact for ``(kind, key)``, building on miss.

        ``builder`` is invoked only on a miss; its result is stored and
        returned.  Hits refresh the entry's LRU position.  Both outcomes
        increment the corresponding ``cache.<kind>`` counter on the
        installed metrics registry.
        """
        full_key = (kind, key)
        value = self._entries.get(full_key, _MISSING)
        registry = _metrics()
        if value is not _MISSING:
            self._entries.move_to_end(full_key)
            self._hits += 1
            if registry.enabled:
                registry.inc(_names.cache_hits(kind))
            return value
        self._misses += 1
        if registry.enabled:
            registry.inc(_names.cache_misses(kind))
        value = builder()
        self._entries[full_key] = value
        if len(self._entries) > self._max_entries:
            self._entries.popitem(last=False)
        return value

    def clear(self) -> None:
        """Drop every entry (hit/miss totals are preserved)."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, full_key: Tuple[str, Hashable]) -> bool:
        return full_key in self._entries

    def __repr__(self) -> str:
        return (
            f"ArtifactCache(entries={len(self._entries)}, "
            f"max_entries={self._max_entries}, hits={self._hits}, "
            f"misses={self._misses})"
        )


_shared: Optional[ArtifactCache] = None


def shared_cache() -> ArtifactCache:
    """The process-wide cache, created lazily on first use.

    Each OS process has its own instance (the module global is never
    inherited as shared memory), which is what makes the cache safe
    under a :class:`~repro.experiments.pool.WorkerPool`: workers simply
    warm their own copies.
    """
    global _shared
    if _shared is None:
        _shared = ArtifactCache()
    return _shared


def clear_shared_cache() -> None:
    """Empty the process-wide cache (tests, memory pressure)."""
    if _shared is not None:
        _shared.clear()

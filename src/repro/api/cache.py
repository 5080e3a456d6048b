"""The version-keyed result cache behind :class:`~repro.api.service.AnalysisService`.

Entries are keyed by ``(canonical query key, session version)``: a
mutation bumps the version, so stale results are never *returned*.
Every caller reads at the session's current version, so the first
``put`` at a newer version drops all older entries at once; the LRU
bound only ever limits the entries of one version.  Repeated queries at
an unchanged version are O(1) dictionary hits, which is the contract the
``api_serve`` benchmark tier and the perf-smoke gate measure.

Counters live on the owning :class:`~repro.obs.Instrumentation` handle's
registry (``repro_result_cache_*``); :meth:`ResultCache.stats` is the
behavior-compatible thin view over them.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from typing import Any, Hashable, Optional

from repro.obs import Instrumentation

__all__ = ["CacheStats", "ResultCache"]

#: Sentinel distinguishing "miss" from a cached ``None``.
_MISS = object()


@dataclasses.dataclass(frozen=True)
class CacheStats:
    """Counters for one cache instance."""

    hits: int
    misses: int
    entries: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class ResultCache:
    """A bounded LRU of query results keyed by (key, version)."""

    def __init__(
        self,
        max_entries: int = 4096,
        instrumentation: Optional[Instrumentation] = None,
    ) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self._max_entries = max_entries
        self._newest_version = -1
        self._entries: "OrderedDict[Tuple[Hashable, int], Any]" = OrderedDict()
        obs = instrumentation if instrumentation is not None else Instrumentation()
        self._hits = obs.counter(
            "repro_result_cache_hits_total",
            "Result-cache lookups served from a live (key, version) entry.",
        )
        self._misses = obs.counter(
            "repro_result_cache_misses_total",
            "Result-cache lookups that fell through to the engines.",
        )
        self._evictions = obs.counter(
            "repro_result_cache_evictions_total",
            "Entries dropped past the LRU bound.",
        )
        self._entries_gauge = obs.gauge(
            "repro_result_cache_entries",
            "Live result-cache entries (any version).",
        )

    def get(self, key: Hashable, version: int) -> Any:
        """The cached value, or the module-private miss sentinel."""
        entry = self._entries.get((key, version), _MISS)
        if entry is _MISS:
            self._misses.inc()
        else:
            self._hits.inc()
            self._entries.move_to_end((key, version))
        return entry

    def peek(self, key: Hashable, version: int) -> bool:
        """Whether an entry exists, without touching stats or recency."""
        return (key, version) in self._entries

    def put(self, key: Hashable, version: int, value: Any) -> None:
        """Store one result, dropping every older version's entries when
        ``version`` is new and evicting the least recently used beyond
        the bound."""
        if version > self._newest_version:
            # No entry is at ``version`` or newer yet, so this drops
            # exactly the older versions; it is not LRU pressure, so it
            # is not counted as eviction.
            self._entries.clear()
            self._newest_version = version
        self._entries[(key, version)] = value
        self._entries.move_to_end((key, version))
        while len(self._entries) > self._max_entries:
            self._entries.popitem(last=False)
            self._evictions.inc()
        self._entries_gauge.set(len(self._entries))

    def clear(self) -> None:
        self._entries.clear()
        self._entries_gauge.set(0)

    def entries_at(self, version: int):
        """``(key, value)`` pairs live at one version, in recency order
        (the still-addressable entries a snapshot can carry as warm
        results)."""
        return [
            (key, value)
            for (key, entry_version), value in self._entries.items()
            if entry_version == version
        ]

    @property
    def miss(self) -> object:
        """The sentinel :meth:`get` returns on a miss."""
        return _MISS

    def stats(self) -> CacheStats:
        """The legacy stats view, now read off the metrics registry."""
        return CacheStats(
            hits=int(self._hits.value),
            misses=int(self._misses.value),
            entries=len(self._entries),
        )

"""The one thread-safe LRU behind every cache in the repository.

Seven caches are instances of :class:`LRUCache`: the service's result
cache (:class:`~repro.service.ServingCore`), the HTTP layer's query
memo (:class:`~repro.service.http.app.TopologyHttpApp`), the topology
plan cache and the selection cache of pruned-check outcomes
(:class:`~repro.core.engine.TopologySearchSystem`), the two levels of
the SQL engine's statement cache (:class:`~repro.relational.sql.Engine`)
and the keep-flag memo (:mod:`repro.relational.keepmemo`).
The cache never inspects values; what makes an entry current is the
owner's business, expressed through an optional *stamp*.

A ``put`` records the stamp the value was made under; a ``get`` names
the stamp that is current now.  An entry made under another stamp is
evicted the moment a lookup finds it — a dead entry must not keep
occupying capacity where it could push out live ones — and counted as
one miss and one invalidation.  An owner without a validity notion
passes no stamp at all.

Every operation — including the ``get`` that reads the entry *and*
refreshes its recency *and* bumps a counter — holds one internal lock,
so concurrent readers never corrupt the recency list or lose counter
updates.

Misses are reported through a caller-supplied ``default`` (use the
module's :data:`MISSING` sentinel), never by value inspection: a cached
falsy value — an empty result list, ``0``, even a cached ``None`` — is
a hit like any other.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable, Optional, Tuple


class _MissingType:
    """Sentinel type for :data:`MISSING` (one instance, falsy, opaque)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<MISSING>"

    def __bool__(self) -> bool:
        return False


#: Sentinel distinguishing "not cached" from any cached value (including
#: ``None``): pass it as ``default`` to :meth:`LRUCache.get` and compare
#: with ``is``.
MISSING = _MissingType()


@dataclass(frozen=True)
class CacheStats:
    """Counters snapshot: hits/misses/invalidations accumulate across
    clears (they describe the cache's lifetime), size/capacity describe
    now.  ``invalidations`` counts stale entries found by a lookup plus
    clears of a non-empty cache."""

    hits: int
    misses: int
    size: int
    capacity: int
    invalidations: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of requests served from cache (0.0 when idle)."""
        total = self.requests
        return self.hits / total if total else 0.0


class LRUCache:
    """Least-recently-used mapping with bounded capacity and optional
    validity stamps (see the module docstring).

    Thread-safe: every method takes the internal lock, so the cache can
    sit in front of a shared engine with many reader threads."""

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, Tuple[Any, Any]]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def get(self, key: Hashable, default: Any = None, stamp: Any = None) -> Optional[Any]:
        """The value cached under ``key`` at ``stamp`` (refreshing its
        recency), or ``default``.

        Pass :data:`MISSING` as ``default`` and compare with ``is`` to
        tell a miss apart from a cached falsy/``None`` value — the
        presence of the *key* decides hit vs. miss, never the value.  An
        entry made under another stamp is evicted and counted as an
        invalidation before the miss is reported."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry[0] != stamp:
                del self._entries[key]
                self.invalidations += 1
                entry = None
            if entry is None:
                self.misses += 1
                return default
            self._entries.move_to_end(key)
            self.hits += 1
            return entry[1]

    def put(self, key: Hashable, value: Any, stamp: Any = None) -> None:
        """Cache ``value`` under ``key``, made under ``stamp``."""
        with self._lock:
            self._entries[key] = (stamp, value)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry (counters survive; only clearing a non-empty
        cache counts as an invalidation)."""
        with self._lock:
            if self._entries:
                self._entries.clear()
                self.invalidations += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self.hits,
                misses=self.misses,
                size=len(self._entries),
                capacity=self.capacity,
                invalidations=self.invalidations,
            )

"""A small thread-safe LRU result cache with hit/miss accounting.

Online topology queries are highly repetitive (the same few entity-pair
/ constraint combinations dominate real traffic), so a bounded
most-recently-used cache in front of the engine removes most dispatch
work.  The cache is deliberately dumb: it never inspects values, and
consistency is the owner's job (:class:`~repro.service.ServingCore`
drops the whole cache whenever a new generation is swapped in).

Every operation — including the ``get`` that both reads the entry *and*
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
from typing import Any, Hashable, Optional


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
    """Counters snapshot: hits/misses accumulate across clears (they
    describe the service lifetime), size/capacity describe now."""

    hits: int
    misses: int
    size: int
    capacity: int

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of requests served from cache (0.0 when idle)."""
        total = self.requests
        return self.hits / total if total else 0.0


class LRUCache:
    """Least-recently-used mapping with bounded capacity.

    Thread-safe: every method takes the internal lock, so the cache can
    sit in front of a shared engine with many reader threads."""

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key: Hashable, default: Any = None) -> Optional[Any]:
        """The cached value (refreshing its recency), or ``default``.

        Pass :data:`MISSING` as ``default`` and compare with ``is`` to
        tell a miss apart from a cached falsy/``None`` value — the
        presence of the *key* decides hit vs. miss, never the value."""
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                self.misses += 1
                return default
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        with self._lock:
            self._entries.clear()

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
            )

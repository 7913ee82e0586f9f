"""``repro.cache.LRUCache``: the one LRU under the result cache, the plan
cache and both statement-cache levels.

The stamp tests cover every stamped owner at once: the plan cache
(stamped ``(build_generation, calibrator.version)``) and the SQL
engine's two statement levels (stamped ``Database.change_token()``),
which the last test drives end to end.
"""

from __future__ import annotations

import pytest

from repro.cache import MISSING, CacheStats, LRUCache
from repro.relational import Column, Database, DataType, Engine, TableSchema
from repro.relational.runtime import columnar_mode


class TestCacheSentinel:
    """A cached falsy/None value is a hit, not a miss (the old ``get``
    returned ``None`` for both, so empty results were re-executed and
    counted as misses forever)."""

    def test_cached_none_is_a_hit(self):
        cache = LRUCache(capacity=4)
        cache.put("k", None)
        assert cache.get("k", MISSING) is None
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 0)

    def test_cached_empty_values_are_hits(self):
        cache = LRUCache(capacity=4)
        for i, value in enumerate(([], 0, "", ())):
            cache.put(i, value)
        for i, value in enumerate(([], 0, "", ())):
            assert cache.get(i, MISSING) == value
        assert cache.stats().hits == 4
        assert cache.stats().misses == 0

    def test_miss_returns_the_default(self):
        cache = LRUCache(capacity=4)
        assert cache.get("absent", MISSING) is MISSING
        assert cache.get("absent") is None  # relint: disable=R3 (asserting the documented None default itself)
        assert cache.stats().misses == 2

    def test_sentinel_is_falsy_and_unique(self):
        assert not MISSING
        assert MISSING is not None


class TestLRUCache:
    def test_put_get_and_counters(self):
        cache = LRUCache(capacity=2)
        assert cache.get("a", MISSING) is MISSING
        cache.put("a", 1)
        assert cache.get("a", MISSING) == 1
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.size, stats.invalidations) == (1, 1, 1, 0)
        assert stats.hit_rate == 0.5

    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a", MISSING)  # refresh "a": "b" is now LRU
        cache.put("c", 3)
        assert "a" in cache and "c" in cache
        assert "b" not in cache
        cache.put("a", 4)  # a re-put refreshes too: "c" is now LRU
        cache.put("d", 5)
        assert "c" not in cache
        assert cache.get("a", MISSING) == 4

    def test_clear_preserves_counters(self):
        cache = LRUCache(capacity=4)
        cache.put("a", 1)
        cache.get("a", MISSING)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats().hits == 1

    def test_clear_counts_an_invalidation_only_when_non_empty(self):
        cache = LRUCache(capacity=4)
        cache.clear()
        assert cache.stats().invalidations == 0
        cache.put("a", 1)
        cache.clear()
        cache.clear()
        assert cache.stats().invalidations == 1

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            LRUCache(capacity=0)
        assert LRUCache(capacity=1).capacity == 1

    def test_idle_hit_rate(self):
        assert CacheStats(hits=0, misses=0, size=0, capacity=1).hit_rate == 0.0


class TestStamps:
    """A lookup under a stamp other than the entry's evicts the entry on
    discovery and counts one miss and one invalidation — a dead entry
    must not keep occupying LRU capacity where it can push out live
    ones."""

    def test_matching_stamp_hits(self):
        cache = LRUCache(capacity=4)
        cache.put("k", "v", (1, 0))
        assert cache.get("k", MISSING, (1, 0)) == "v"
        assert cache.stats().invalidations == 0

    def test_stale_stamp_entry_is_evicted(self):
        cache = LRUCache(capacity=4)
        cache.put("k", "v", 0)
        assert cache.get("k", MISSING, 1) is MISSING  # the stamp moved on
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.invalidations) == (0, 1, 1)
        assert stats.size == 0  # the dead entry is gone, not resident
        assert cache.get("k", MISSING, 1) is MISSING  # a plain miss now
        assert cache.stats().invalidations == 1

    def test_dead_entry_no_longer_evicts_live_ones(self):
        cache = LRUCache(capacity=2)
        cache.put("stale", "s", 0)
        cache.put("live", "l", 1)
        assert cache.get("stale", MISSING, 1) is MISSING  # discovery evicts it
        cache.put("new", "n", 1)
        # Had the dead entry stayed resident, this put would evict "live".
        assert cache.get("live", MISSING, 1) == "l"
        assert cache.stats().size == 2

    def test_statement_levels_evict_stale_entries(self):
        """Both statement-cache levels are stamped with the database's
        change token: after a data change the text and the plan are
        each found stale, evicted, counted, and replaced."""
        db = Database("stamps")
        table = db.create_table(
            TableSchema("t", [Column("ID", DataType.INT, True), Column("X", DataType.TEXT)], "ID")
        )
        table.bulk_load([(i, "x") for i in range(1, 11)])
        engine = Engine(db)
        sql = "SELECT ID FROM t WHERE ID = :id"
        with columnar_mode():
            assert engine.execute(sql, {"id": 3}).rows == [(3,)]
            assert engine.execute(sql, {"id": 4}).rows == [(4,)]
            table.insert((11, "y"))
            assert engine.execute(sql, {"id": 11}).rows == [(11,)]
        for level in (engine._statements, engine._plans):
            stats = level.stats()
            assert (stats.invalidations, stats.size) == (1, 1)
        stats = engine.statement_cache_stats()
        assert (stats.hits, stats.misses, stats.texts, stats.classes) == (1, 2, 1, 1)

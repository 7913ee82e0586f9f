"""Online query serving: cached, batched, instrumented — and concurrent.

One :class:`ServingCore` (:mod:`repro.service.core`) owns the request
path — read lease, generation stamp, LRU result cache, single-flight
deduplication of identical concurrent queries, exact counters, latency
table, slow-query log — and two front ends supply the execution:

:class:`TopologyServer`
    The core over one shared local engine: generation hot-swap rebuilds
    (traffic keeps flowing while the next generation builds on a
    clone) and ``query_many`` batches, run serially on the caller's
    thread or fanned out over warm replica processes.

:class:`ShardCoordinator`
    The core over a *sharded* store (:mod:`repro.shard`): one warm
    worker process per shard, total scatter-gather per query with a
    paper-identical top-k merge, and all-or-nothing generation commits
    for rebuilds.

>>> from repro.service import TopologyServer
>>> server = TopologyServer.from_snapshot("biozon.topo")
>>> result = server.query(query)             # engine execution
>>> result = server.query(query)             # LRU cache hit
>>> server.rebuild()                         # hot swap: no downtime
>>> server.stats().generation
2
"""

from repro.cache import MISSING, CacheStats, LRUCache
from repro.service.coordinator import ShardCoordinator
from repro.service.core import (
    DEFAULT_METHOD,
    LatencyStats,
    ReadWriteLock,
    ServingCore,
    ServingStats,
)
from repro.service.server import TopologyServer

__all__ = [
    "CacheStats",
    "DEFAULT_METHOD",
    "LRUCache",
    "LatencyStats",
    "MISSING",
    "ReadWriteLock",
    "ServingCore",
    "ServingStats",
    "ShardCoordinator",
    "TopologyServer",
]

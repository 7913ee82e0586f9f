"""Concurrent serving layer: many queries, one shared engine.

:class:`TopologyServer` turns the paper's online phase (Figure 10) into
something that can serve heavy interactive traffic against one shared,
materialized :class:`~repro.core.engine.TopologySearchSystem`.  It is a
:class:`~repro.service.core.ServingCore` — read lease, generation
stamp, result cache, single-flight, exact counters, latency table and
slow-query log all live there, once — plus the three things that are
specific to a local engine:

* **The execution** — ``system.search`` on the serving generation's
  engine, under the request's read lease.

* **Generation hot-swap** — :meth:`rebuild` does *not* rebuild the
  serving system in place.  It clones the base relations
  (:meth:`~repro.core.engine.TopologySearchSystem.clone_base`), runs the
  offline phase on the clone — concurrently with live traffic — and
  only then takes the write lock for a pointer swap measured in
  microseconds.  In-flight readers finish on the old generation, the
  next request sees the new one, and no request ever observes a
  half-built store.  :meth:`restore` hot-swaps a snapshot the same way.

* **Batches** — :meth:`query_many` runs a workload query by query on
  the caller's thread, so a batch is one engine call at a time and a
  repeated-shape batch plans once per class through the engine's plan
  cache.  For CPU-bound workloads on multi-core machines,
  ``mode="process"`` deals it round-robin over warm replica processes
  instead (:mod:`repro.service.replica`) — the only way past the GIL on
  a stock interpreter.  Either way every query of the batch goes
  through the core's one request path.
"""

from __future__ import annotations

import os
import threading
from functools import partial
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.cache import CacheStats
from repro.core.engine import BuildReport, TopologySearchSystem
from repro.core.methods import MethodResult
from repro.core.plan import QueryPlan
from repro.core.query import TopologyQuery
from repro.errors import TopologyError
from repro.obs import span as obs_span
from repro.service.core import DEFAULT_METHOD, ServingCore
from repro.service.replica import ReplicaPool

__all__ = ["TopologyServer"]


class TopologyServer(ServingCore):
    """Thread-safe query serving over one shared topology system.

    The core owns the result cache, latency accounting and request
    coordination; the engine underneath owns the plan cache and the
    cost calibrator, so those swap atomically with the generation.

    ``system`` must already be built (or snapshot-restored): a server
    exists to serve, and every lifecycle transition afterwards goes
    through :meth:`rebuild`/:meth:`restore`.  Use it as a context
    manager or call :meth:`close` to release the replica pool."""

    def __init__(
        self,
        system: TopologySearchSystem,
        cache_size: int = 4096,
        default_method: str = DEFAULT_METHOD,
        slow_query_seconds: Optional[float] = None,
    ) -> None:
        if system.store is None:
            raise TopologyError(
                "TopologyServer serves a built system: call build() first "
                "or restore from a snapshot"
            )
        super().__init__(cache_size, default_method, slow_query_seconds, source="server")
        self._system = system
        # One rebuild/restore at a time; the heavy build work happens
        # under this mutex but *outside* the write lock, so traffic
        # keeps flowing while the next generation is prepared.
        self._writer_mutex = threading.Lock()
        self._pool_lock = threading.Lock()
        self._replica_pool: Optional[ReplicaPool] = None  # created lazily
        # One process-mode fan-out at a time: a second caller with a
        # different worker count would otherwise close the pool the
        # first is consuming mid-run (and concurrent replica batches
        # would just fight over the same cores anyway).
        self._replica_mutex = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------
    # Construction conveniences / lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def from_snapshot(
        cls,
        path: str,
        cache_size: int = 4096,
        default_method: str = DEFAULT_METHOD,
        slow_query_seconds: Optional[float] = None,
    ) -> "TopologyServer":
        """Cold-start a server from a :mod:`repro.persist` snapshot."""
        return cls(
            TopologySearchSystem.from_snapshot(path),
            cache_size=cache_size,
            default_method=default_method,
            slow_query_seconds=slow_query_seconds,
        )

    def close(self) -> None:
        """Shut down the replica pool (idempotent).  Queries and batches
        submitted after close still work — on the caller's thread.  An
        in-flight ``query_many(mode="process")`` batch is allowed to
        finish first (terminating the pool under its consumer would
        strand it waiting on results that never arrive)."""
        with self._pool_lock:
            replicas, self._replica_pool = self._replica_pool, None
            self._closed = True
        if replicas is not None:
            with self._replica_mutex:  # drain the in-flight batch
                replicas.close()

    def __enter__(self) -> "TopologyServer":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    @property
    def system(self) -> TopologySearchSystem:
        """The currently serving system.  Treat as read-only: mutating
        it in place bypasses the generation contract."""
        return self._system

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------
    def query(
        self, query: TopologyQuery, method: Optional[str] = None
    ) -> MethodResult:
        """Evaluate one query; safe to call from any number of threads.

        Repeats are served from the LRU result cache; concurrent
        identical requests are deduplicated single-flight (one engine
        execution, shared by every waiter).  The whole call holds a read
        lease, so the answer is always consistent with exactly one
        generation — stamped on ``result.generation``."""
        name = (method or self.default_method).lower()
        with obs_span("server.query", ingress=True, method=name):
            return self._serve(name, (query,), self._search)[0]

    def _search(
        self, generation: int, name: str, queries: Sequence[TopologyQuery]
    ) -> List[MethodResult]:
        """The core's ``execute`` for the local engine; runs under the
        request's read lease, so ``_system`` is ``generation``'s."""
        system = self._system
        return [system.search(query, method=name) for query in queries]

    def _calibrator_version(self) -> Optional[int]:
        return self._system.calibrator.version

    def explain(
        self, query: TopologyQuery, method: Optional[str] = None
    ) -> QueryPlan:
        """The plan :meth:`query` would execute, with every
        alternative's estimated and calibrated cost (never cached in
        the result cache, never executed)."""
        name = (method or self.default_method).lower()
        with self._rw.read_locked():
            return self._system.explain(query, name)

    # ------------------------------------------------------------------
    # Batched execution
    # ------------------------------------------------------------------
    def query_many(
        self,
        queries: Iterable[TopologyQuery],
        method: Optional[str] = None,
        parallel: Optional[int] = None,
        mode: str = "thread",
    ) -> List[MethodResult]:
        """Evaluate a batch, returning results in submission order.

        By default the batch runs query by query on the caller's thread,
        each through :meth:`query`: duplicates are deduplicated through
        the result cache and single-flight, and a repeated-shape batch
        plans once per class through the engine's plan cache.  On a GIL
        interpreter threads would only interleave the pure-Python engine
        work, so ``mode="thread"`` (the default) is this serial path
        whatever ``parallel`` says.

        ``mode="process"`` with ``parallel`` >= 2 deals the batch
        round-robin over warm *replica processes*, each serving its own
        copy of the current generation (:mod:`repro.service.replica`):
        per-query work is then truly parallel, at the price of
        replica-local plan caches, on at most ``max(2, os.cpu_count())``
        replicas and one process batch at a time.  The batch still goes
        through the core's request path as one list: cached queries are
        hits, the distinct uncached ones execute once each on the
        replicas, and the results settle into this server's result
        cache, latency table and counters."""
        batch = list(queries)
        name = (method or self.default_method).lower()
        if mode not in ("thread", "process"):
            raise TopologyError(f"unknown query_many mode {mode!r}")
        workers = int(parallel or 0)
        if mode == "process" and workers >= 2 and len(batch) >= 2:
            # Every replica is a process holding the whole store, so the
            # machine — not the caller — bounds the pool's width (two at
            # least: process mode stays a fan-out on a 1-core box).
            workers = min(workers, max(2, os.cpu_count() or 1))
            return self._query_many_replicas(batch, name, workers)
        return [self.query(q, method=name) for q in batch]

    def _query_many_replicas(
        self, batch: List[TopologyQuery], name: str, workers: int
    ) -> List[MethodResult]:
        with self._replica_mutex:
            pool = self._current_replica_pool(workers)
            admission = None
            if pool is not None:
                with self._rw.read_locked():
                    if self._generation == pool.generation:
                        admission = self._admit(name, batch)
            if admission is None:  # closed, or a swap raced the pool: serial
                return [self.query(q, method=name) for q in batch]
            # The fan-out itself runs WITHOUT the read lease: a pending
            # hot swap must only ever wait microseconds, never a batch.
            # The replicas serve their own copy of the admitted
            # generation, so a swap mid-run cannot tear these results —
            # they are stamped with that generation and settle into the
            # cache only if nothing has dropped it since.
            self._settle(admission, partial(self._fan_out, pool))
        return self._collect(admission)

    def _fan_out(
        self,
        pool: ReplicaPool,
        generation: int,
        name: str,
        queries: List[TopologyQuery],
    ) -> List[MethodResult]:
        """The core's ``execute`` over replica processes: the admitted
        queries are dealt round-robin, one chunk per replica."""
        items = list(enumerate(queries))
        width = min(pool.workers, len(items))
        chunks = [(name, items[at::width]) for at in range(width)]
        results: List[Optional[MethodResult]] = [None] * len(queries)
        for pairs in pool.run(chunks):
            for index, result in pairs:
                results[index] = result
        return results  # type: ignore[return-value]  # every chunk replied in full or run() raised

    def _current_replica_pool(self, workers: int) -> Optional[ReplicaPool]:
        """The warm replica pool for (current generation, ``workers``),
        building one if needed, or ``None`` once closed.  Caller holds
        ``_replica_mutex``, so no consumer is mid-run on the pool being
        replaced.

        Construction — a snapshot write plus worker start-up, seconds
        at real scale — happens *outside* the read lease and outside
        ``_pool_lock``: a lease held that long would stall a pending hot
        swap and, behind it, every new query.  ``(system, generation)``
        captured under a brief lease is enough: a swapped-out system is
        never mutated in place, so snapshotting it leaselessly still
        yields a consistent image of its generation.  A pool that a swap
        overtook mid-construction is stale, so the loop re-checks the
        serving generation and rebuilds — bounded, so a rebuild storm
        hands back the latest complete pool instead of looping (the
        caller compares ``pool.generation`` under its own lease)."""
        fresh: Optional[ReplicaPool] = None
        for _ in range(3):  # bounded retry: swaps are rare, loops aren't
            with self._rw.read_locked():
                system = self._system
                current = self._generation
            if fresh is not None and fresh.generation == current:
                break
            with self._pool_lock:
                if self._closed:
                    if fresh is not None:
                        fresh.close()
                    return None
                pool = self._replica_pool
                if (
                    pool is not None
                    and pool.workers == workers
                    and pool.generation == current
                ):
                    if fresh is not None:
                        fresh.close()
                    return pool
                # Stale (old generation or different width): replace.
                self._replica_pool = None
                stale = pool
            if stale is not None:
                stale.close()
            if fresh is not None:
                fresh.close()
            fresh = ReplicaPool(system, workers, generation=current)
        # relint: disable=R2 (bounded retry loop: each pass re-reads everything under one acquisition and builds the pool unlocked; no value spans two acquisitions)
        with self._pool_lock:
            if self._closed:  # closed while we were building
                fresh.close()
                return None
            self._replica_pool = fresh
        return fresh

    # ------------------------------------------------------------------
    # Lifecycle: hot rebuild + snapshot restore
    # ------------------------------------------------------------------
    def rebuild(
        self,
        entity_pairs: Optional[Sequence[Tuple[str, str]]] = None,
        **build_kwargs: Any,
    ) -> BuildReport:
        """Re-run the offline phase *without* interrupting traffic.

        The previous build's configuration is reused unless overridden
        (:meth:`~repro.core.engine.TopologySearchSystem.rebuilt`).  The build runs
        on a clone of the base relations while queries keep executing
        against the current generation; learned calibration factors are
        carried over; then an exclusive pointer swap — microseconds, not
        build-seconds — publishes the new generation and drops the
        result cache.  In-flight queries finish on the generation they
        started on."""
        with self._writer_mutex:
            successor, report = self._system.rebuilt(entity_pairs, **build_kwargs)
            with self._swap():
                self._system = successor
            return report

    def restore(self, path: str) -> None:
        """Hot-swap the serving system for one restored from a
        :mod:`repro.persist` snapshot (the "load yesterday's build"
        path).  Loading happens off the write lock; traffic continues
        until the pointer swap."""
        with self._writer_mutex:
            successor = TopologySearchSystem.from_snapshot(path)
            with self._swap(restore=True):
                self._system = successor

    def save(self, path: str) -> None:
        """Snapshot the serving generation.

        The system reference is captured under a brief lease; the write
        itself — seconds at real scale — runs leaselessly so a pending
        hot swap (and, behind it, all new queries) never waits on disk.
        That is consistent: a swapped-out system is never mutated in
        place, so the captured generation stays a stable image even if
        a swap lands mid-write."""
        with self._rw.read_locked():
            system = self._system
        system.save(path)

    # ------------------------------------------------------------------
    # Instrumentation
    # ------------------------------------------------------------------
    def _backend_stats(self) -> Dict[str, Any]:
        system = self._system
        return {
            "plan_cache": system.plan_cache_stats(),
            "statement_cache": system.engine.statement_cache_stats(),
        }

    def cache_stats(self) -> CacheStats:
        return self._cache.stats()

    def plan_cache_stats(self) -> CacheStats:
        return self._system.plan_cache_stats()

    def calibration_stats(self) -> Dict[str, Any]:
        return self._system.calibrator.snapshot()

    def reset_latency_stats(self) -> None:
        with self._latency_lock:
            self._latency.clear()

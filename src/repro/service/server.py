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

* **Parallel batches** — :meth:`query_many` fans a workload out over a
  thread pool, *grouped by plan class* first: one leader per class runs
  ahead and populates the engine's plan cache, then the rest of the
  class fans out as plan-cache hits.  For CPU-bound workloads on
  multi-core machines, ``mode="process"`` fans out over warm replica
  processes instead (:mod:`repro.service.replica`) — the only way past
  the GIL on a stock interpreter.  Either way every query of the batch
  goes through the core's one request path.
"""

from __future__ import annotations

import contextvars
import os
import threading
from concurrent.futures import ThreadPoolExecutor
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
from repro.service.core import DEFAULT_METHOD, ServingCore, resolve_rebuild_config
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
    manager or call :meth:`close` to release the worker pools."""

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
        self._pool: Optional[ThreadPoolExecutor] = None  # created lazily
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
        """Shut down worker pools (idempotent).  Queries submitted after
        close still work — they just run on the caller's thread.  An
        in-flight ``query_many(mode="process")`` batch is allowed to
        finish first (terminating the pool under its consumer would
        strand it waiting on results that never arrive)."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
            replicas, self._replica_pool = self._replica_pool, None
            self._closed = True
        if pool is not None:
            pool.shutdown(wait=True)
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

        ``parallel`` >= 2 fans the batch out over that many workers.
        The workload is grouped by *plan class* first
        (:class:`~repro.core.plan.PlanClass`): one leader per class runs
        ahead of the fan-out, so by the time the bulk of a
        repeated-shape batch hits the pool its plans are cache hits and
        the optimizer runs once per class, not once per query.
        Duplicates are deduplicated through the result cache and
        single-flight exactly like :meth:`query`.

        ``mode="thread"`` (default) shares this server's engine and
        caches across workers — ideal when the batch is repetitive or
        the interpreter can run threads in parallel.  ``mode="process"``
        fans out over warm *replica processes*, each serving its own
        copy of the current generation (:mod:`repro.service.replica`):
        per-query work is then truly parallel on a GIL interpreter, at
        the price of replica-local plan caches, on at most
        ``max(2, os.cpu_count())`` replicas.  The batch still goes
        through the core's request path as one list: cached queries are
        hits, the distinct uncached ones execute once each on the
        replicas, and the results settle into this server's result
        cache, latency table and counters."""
        batch = list(queries)
        name = (method or self.default_method).lower()
        if mode not in ("thread", "process"):
            raise TopologyError(f"unknown query_many mode {mode!r}")
        workers = int(parallel or 0)
        # After close() there are no pools, but batches still work —
        # they degrade to the serial loop on the caller's thread.
        if workers <= 1 or len(batch) <= 1 or self._closed:
            return [self.query(q, method=name) for q in batch]
        if mode == "process":
            # Every replica is a process holding the whole store, so the
            # machine — not the caller — bounds the pool's width (two at
            # least: process mode stays a fan-out on a 1-core box).
            workers = min(workers, max(2, os.cpu_count() or 1))
            return self._query_many_replicas(batch, name, workers)
        return self._query_many_threads(batch, name, workers)

    def _plan_class_groups(
        self, batch: Sequence[TopologyQuery], name: str
    ) -> List[List[int]]:
        """Batch indices grouped by the queries' plan class, group order
        by first appearance.  A query whose class cannot be computed
        (e.g. an entity pair the build does not cover) gets a singleton
        group; the error surfaces at execution time."""
        with self._rw.read_locked():
            system = self._system
            method_obj = system.method(name)
            groups: Dict[Any, List[int]] = {}
            for index, query in enumerate(batch):
                try:
                    cls_key: Any = system.planner.classify(query, method_obj)
                except Exception:
                    cls_key = ("unclassified", index)
                groups.setdefault(cls_key, []).append(index)
        return list(groups.values())

    def _query_many_threads(
        self, batch: List[TopologyQuery], name: str, workers: int
    ) -> List[MethodResult]:
        pool = self._thread_pool()
        if pool is None:  # closed while we were getting ready
            return [self.query(q, method=name) for q in batch]
        groups = self._plan_class_groups(batch, name)
        leaders = [group[0] for group in groups]
        followers = [index for group in groups for index in group[1:]]
        results: List[Optional[MethodResult]] = [None] * len(batch)

        def run(share: List[int]) -> None:
            for index in share:
                results[index] = self.query(batch[index], method=name)

        # Two waves: leaders warm the plan cache (and the result cache
        # for exact duplicates), then the rest fan out as cache hits.
        # A wave is dealt round-robin into at most ``workers`` shares,
        # one pool task each — that, not the pool's width, is the
        # batch's parallelism.  Each task carries its own copy of the
        # caller's context: a Context can only be entered by one thread
        # at a time, so the copy happens here, per task, not once for
        # the whole wave.
        for wave in (leaders, followers):
            width = min(workers, len(wave))
            futures = []
            try:
                for at in range(width):
                    context = contextvars.copy_context()
                    futures.append(pool.submit(context.run, run, wave[at::width]))
            except RuntimeError:  # pool shut down mid-batch (close())
                pass
            for future in futures:
                future.result()
            for index in wave:  # anything unsubmitted: caller's thread
                if results[index] is None:
                    results[index] = self.query(batch[index], method=name)
        return results  # type: ignore[return-value]  # every index was assigned

    def _thread_pool(self) -> Optional[ThreadPoolExecutor]:
        """The server's one batch pool (stdlib-default width, created
        on first use), or ``None`` once closed (the caller then degrades
        to the serial loop)."""
        with self._pool_lock:
            if self._closed:
                return None
            if self._pool is None:
                self._pool = ThreadPoolExecutor(thread_name_prefix="topology-server")
            return self._pool

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
        """The core's ``execute`` over replica processes.  Whole
        plan-class groups land on one replica so each replica plans
        each of its classes once; groups are dealt biggest-first onto
        the emptiest bucket to balance load."""
        buckets: List[List[int]] = [[] for _ in range(pool.workers)]
        for group in sorted(self._plan_class_groups(queries, name), key=len, reverse=True):
            min(buckets, key=len).extend(group)
        chunks = [
            (name, [(i, queries[i]) for i in bucket]) for bucket in buckets if bucket
        ]
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
        (:func:`~repro.service.core.resolve_rebuild_config`).  The build runs
        on a clone of the base relations while queries keep executing
        against the current generation; learned calibration factors are
        carried over; then an exclusive pointer swap — microseconds, not
        build-seconds — publishes the new generation and drops the
        result cache.  In-flight queries finish on the generation they
        started on."""
        with self._writer_mutex:
            current = self._system
            pairs, kwargs = resolve_rebuild_config(
                current, entity_pairs, build_kwargs
            )
            successor = current.clone_base()
            report = successor.build(pairs, **kwargs)
            successor.restore_calibration(current.calibrator.export_state())
            # Runtime knobs survive the swap too: an operator who pinned
            # plan choices must not have calibration silently re-enabled
            # by a rebuild.
            successor.calibration_enabled = current.calibration_enabled
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

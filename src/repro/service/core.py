"""The serving core: one request path behind every front end.

The paper's online phase (Figure 10) is one box — take a 2-query,
answer it from the materialized store.  :class:`ServingCore` is that
box minus the part that differs between deployments: it owns everything
a front end needs *around* an execution, and takes the execution itself
as a function.

* **Reader–writer coordination** — every request holds a shared *read*
  lease (:class:`ReadWriteLock`); publishing a successor generation
  (:meth:`ServingCore._swap`) and :meth:`ServingCore.invalidate` take
  the exclusive *write* lease.  Requests proceed in parallel with each
  other, and a writer never changes state a reader is traversing.  The
  one exception is :meth:`ServingCore.cached`, a non-blocking hit probe
  that needs only the flight lock (its docstring says why).

* **Generation stamp** — every swap bumps :attr:`ServingCore.generation`
  and drops the result cache; every result is stamped with the
  generation that produced it (``MethodResult.generation``).  Every
  cache drop — swap or :meth:`ServingCore.invalidate` — also starts a
  new cache *epoch*; a result is only cached, and a flight only joined,
  within the epoch it was admitted in.

* **Result cache + single-flight** — one request path for a *list* of
  queries: each query is a cache hit, joins another request's in-flight
  execution, or owns a new flight (:meth:`ServingCore._admit`); the
  owned queries then run through ``execute(generation, method, owned)``
  with no core lock held, and are settled — stamped, latency-recorded,
  slow-logged, cached, flights resolved (:meth:`ServingCore._settle`).
  A raising ``execute`` *or settle step* fails every owned flight, so a
  waiter is always woken and no flight outlives its request.  Joined
  flights are waited on last, lease released
  (:meth:`ServingCore._collect`): a waiter must not hold up a swap.  N
  concurrent identical requests cost one execution, whether they arrive
  as single queries, inside one batch, or both.

* **Counters** — exact under concurrency, with two invariants the
  stress tests pin down: ``hits + misses == requests`` and
  ``misses == executions + coalesced``.

:class:`~repro.service.server.TopologyServer` is this core plus a
local-engine ``execute`` (and thread / replica fan-out for batches);
:class:`~repro.service.coordinator.ShardCoordinator` is this core plus
a scatter ``execute`` and a merge.

Locking order, for maintainers: the RW lease is always outermost, then
the flight lock, then a cache/latency/calibrator internal lock.
Nothing ever acquires them in another order, ``execute`` is never
called while the flight lock is held, and flights are waited on with
neither the flight lock nor the lease held.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.cache import MISSING, CacheStats, LRUCache
from repro.core.methods import MethodResult
from repro.core.methods.base import TRACED_WORK
from repro.core.query import TopologyQuery
from repro.errors import TopologyError
from repro.relational.sql import StatementCacheStats
from repro.obs import (
    LATENCY_BUCKETS,
    SlowQueryLog,
    bucket_index,
    current_trace,
    query_summary,
)
from repro.obs import span as obs_span
from repro.obs import tracer as obs_tracer

__all__ = [
    "DEFAULT_METHOD",
    "LatencyStats",
    "ReadWriteLock",
    "ServingCore",
    "ServingStats",
]

DEFAULT_METHOD = "fast-top-k-opt"
LATENCY_SAMPLE_WINDOW = 512

#: ``execute(generation, method, owned queries) -> one result per query``.
Execute = Callable[[int, str, List[TopologyQuery]], Sequence[MethodResult]]


@dataclass
class LatencyStats:
    """Running wall-clock statistics for one method's executions.

    Keeps exact count/total/min/max, exact per-bucket counts over the
    shared :data:`~repro.obs.LATENCY_BUCKETS` bounds (every sample ever
    recorded lands in exactly one bucket, so the bucket counts always
    sum to ``count`` — unlike the percentile window, they never forget),
    plus a bounded window of the most recent samples for percentile
    estimates.  :meth:`record` and the window reads hold an internal
    lock: many threads record into one instance, and
    ``count``/``total_seconds`` are read-modify-write updates that would
    lose increments unguarded."""

    method: str
    count: int = 0
    total_seconds: float = 0.0
    min_seconds: float = math.inf
    max_seconds: float = 0.0
    _window: List[float] = field(default_factory=list, repr=False)
    _cursor: int = field(default=0, repr=False)
    _buckets: List[int] = field(
        default_factory=lambda: [0] * (len(LATENCY_BUCKETS) + 1), repr=False
    )
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def record(self, seconds: float) -> None:
        with self._lock:
            self.count += 1
            self.total_seconds += seconds
            self.min_seconds = min(self.min_seconds, seconds)
            self.max_seconds = max(self.max_seconds, seconds)
            self._buckets[bucket_index(LATENCY_BUCKETS, seconds)] += 1
            if len(self._window) < LATENCY_SAMPLE_WINDOW:
                self._window.append(seconds)
            else:  # ring buffer over the most recent samples
                self._window[self._cursor] = seconds
                self._cursor = (self._cursor + 1) % LATENCY_SAMPLE_WINDOW

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.count if self.count else 0.0

    @staticmethod
    def _nearest_rank(ordered: List[float], q: float) -> float:
        """Nearest-rank percentile of pre-sorted samples: the smallest
        sample with at least q% of them at or below it, i.e. rank
        ``ceil(q/100 * n)`` (1-indexed, clamped to [1, n]) — an explicit
        rank, because ``round()`` rounds half to even and picks the
        wrong one for p50 of an even-sized window."""
        if not ordered:
            return 0.0
        rank = math.ceil(q / 100.0 * len(ordered))
        return ordered[min(len(ordered), max(1, rank)) - 1]

    def percentile(self, q: float) -> float:
        """Windowed nearest-rank percentile (q in [0, 100]) over recent
        samples."""
        with self._lock:
            window = list(self._window)
        return self._nearest_rank(sorted(window), q)

    def snapshot(self) -> Dict[str, Any]:
        """All statistics from ONE lock acquisition: counters,
        percentiles, and buckets describe the same instant (the HTTP
        ``/stats`` endpoint serves this dict verbatim, so a tear between
        them would be wire-visible).

        ``buckets`` holds exact per-bucket counts over the shared
        ``LATENCY_BUCKETS`` bounds (``le`` lists the upper edges; the
        final count is the implicit +Inf bucket).  The counts sum to
        ``count`` — they cover every sample ever recorded, not just the
        percentile window — so `/metrics` can export this snapshot as a
        Prometheus histogram without inventing samples."""
        with self._lock:
            count = self.count
            total = self.total_seconds
            minimum = self.min_seconds
            maximum = self.max_seconds
            ordered = sorted(self._window)
            buckets = list(self._buckets)
        return {
            "count": count,
            "total_seconds": total,
            "mean_seconds": total / count if count else 0.0,
            "min_seconds": 0.0 if count == 0 else minimum,
            "max_seconds": maximum,
            "p50_seconds": self._nearest_rank(ordered, 50),
            "p95_seconds": self._nearest_rank(ordered, 95),
            "p99_seconds": self._nearest_rank(ordered, 99),
            "buckets": {"le": list(LATENCY_BUCKETS), "counts": buckets},
        }


class ReadWriteLock:
    """A reader–writer lock with writer preference.

    Any number of readers share the lock; a writer excludes everyone.
    A *waiting* writer blocks new readers (otherwise a steady read load
    would starve rebuilds forever), but the readers already inside
    finish first — which is exactly the generation contract: in-flight
    queries complete on the old generation, the swap happens, and the
    queued readers see the new one.

    A writer announces itself before it takes the condition's mutex.
    Readers that loop on the lock hand that mutex among themselves, and
    the lock is not fair: on one core a writer that first had to win it
    could wait for minutes.  Announced, it only waits while the readers
    inside leave and the arriving ones park in ``wait()``.

    Not reentrant: a thread holding a read lease must not request the
    write lock (that's a deadlock by construction)."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._writer = threading.Lock()  # one writer at a time
        self._readers = 0
        # Set by the writer holding ``_writer``, outside ``_cond``: an
        # attribute store is atomic under the GIL, and readers read it
        # under ``_cond``.
        self._writing = False

    @contextmanager
    def read_locked(self) -> Iterator[None]:
        with self._cond:
            while self._writing:
                self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                if self._readers == 0:
                    self._cond.notify_all()

    @contextmanager
    def write_locked(self) -> Iterator[None]:
        with self._writer:
            self._writing = True
            try:
                with self._cond:
                    while self._readers:
                        self._cond.wait()
                yield
            finally:
                with self._cond:
                    self._writing = False
                    self._cond.notify_all()


class _Flight:
    """One in-flight execution other requests can latch onto."""

    __slots__ = ("event", "result", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.result: Optional[MethodResult] = None
        self.error: Optional[BaseException] = None

    def resolve(self, result: MethodResult) -> None:
        self.result = result
        self.event.set()

    def fail(self, error: BaseException) -> None:
        self.error = error
        self.event.set()

    def wait(self) -> MethodResult:
        self.event.wait()
        if self.error is not None:
            raise self.error
        assert self.result is not None
        return self.result


class _Admission(NamedTuple):
    """What :meth:`ServingCore._admit` decided for one list of queries:
    ``results`` holds the cache hits, ``waits`` the (position, flight)
    of every other query, and ``owned`` the flights this request must
    execute (insertion-ordered, one per distinct uncached query nobody
    else was already running)."""

    generation: int
    epoch: int
    name: str
    results: List[Optional[MethodResult]]
    owned: Dict[TopologyQuery, _Flight]
    waits: List[Tuple[int, _Flight]]


_NO_PLAN_CACHE = CacheStats(hits=0, misses=0, size=0, capacity=0)
_NO_STATEMENT_CACHE = StatementCacheStats(hits=0, misses=0, texts=0, classes=0, size=0)


@dataclass(frozen=True)
class ServingStats:
    """Counter snapshot for one serving front end.

    ``requests`` counts every query asked for, single or in a batch;
    ``executions`` the ones dispatched to ``execute`` (including failed
    ones — ``failures`` of them raised); ``coalesced`` the ones that
    waited on another request's in-flight execution (or on an earlier
    duplicate in their own batch) instead of running their own.  Exact
    invariants: ``result_cache.hits + result_cache.misses == requests``
    and ``result_cache.misses == executions + coalesced``.

    ``plan_cache`` (the topology plan layer's) and ``statement_cache``
    (the SQL engine's) are zeroed behind a
    :class:`~repro.service.coordinator.ShardCoordinator` (shards plan,
    the coordinator does not).  The last three fields are set only by a
    coordinator: ``shards`` carries the per-shard sections (routing
    load, health counters), ``uptime_seconds`` how long it has been
    serving, and ``started_generation`` the generation it started on
    (``generation - started_generation`` = rebuild commits this process
    has lived through)."""

    generation: int
    requests: int
    executions: int
    coalesced: int
    failures: int
    rebuilds: int
    restores: int
    in_flight: int
    result_cache: CacheStats
    plan_cache: CacheStats = _NO_PLAN_CACHE
    statement_cache: StatementCacheStats = _NO_STATEMENT_CACHE
    shards: Optional[List[Dict[str, Any]]] = None
    uptime_seconds: Optional[float] = None
    started_generation: Optional[int] = None


class ServingCore:
    """Lease, generation, result cache, single-flight, counters, latency
    table and slow-query log for one serving front end (see the module
    docstring for the protocol).  Front ends subclass it, call
    :meth:`_serve` — or its three steps :meth:`_admit`, :meth:`_settle`,
    :meth:`_collect` — with their ``execute``, and install successors
    inside :meth:`_swap`."""

    def __init__(
        self,
        cache_size: int,
        default_method: str,
        slow_query_seconds: Optional[float],
        source: str,
    ) -> None:
        self.default_method = default_method.lower()
        self._rw = ReadWriteLock()
        self._generation = 1
        # Bumped with every cache drop (swap or invalidate): what was
        # admitted in an earlier epoch is neither cached nor joined.
        self._epoch = 1
        self._cache = LRUCache(cache_size)
        # Single-flight table, keyed by (epoch, method, query).  The
        # flight lock also makes the request/hit/miss/coalesced/execution
        # accounting atomic per request, which is what lets the stress
        # tests assert exact counter invariants under heavy contention.
        self._flights: Dict[Tuple[int, str, TopologyQuery], _Flight] = {}
        self._flight_lock = threading.Lock()
        self._latency: Dict[str, LatencyStats] = {}
        self._latency_lock = threading.Lock()
        # Over-threshold queries emit one structured record each (see
        # repro.obs.slowlog); threshold from REPRO_SLOW_QUERY_SECONDS
        # unless given explicitly.
        self.slow_query_log = SlowQueryLog(slow_query_seconds, source=source)
        self._requests = 0
        self._executions = 0
        self._coalesced = 0
        self._failures = 0
        self._rebuilds = 0
        self._restores = 0

    @property
    def generation(self) -> int:
        """The serving generation (1-based; bumped by every swap)."""
        return self._generation

    # ------------------------------------------------------------------
    # The request path
    # ------------------------------------------------------------------
    #: The front end's span for one query; a :meth:`cached` hit records
    #: it too, tagged ``cache="hit"``.
    _span_name = "server.query"

    def cached(
        self, query: TopologyQuery, method: Optional[str] = None
    ) -> Optional[MethodResult]:
        """The cached answer to ``query``, or ``None`` on a miss — without
        blocking, so an event loop can answer a hit itself and hand only
        misses to a worker thread.  A hit counts ``requests`` and
        ``hits`` once each, as :meth:`_serve` would; a miss counts
        nothing, so the request path that follows counts it once.

        No read lease is taken, and none is needed.  Every cache ``put``
        (:meth:`_settle`, and only within the current epoch), every
        ``clear`` (:meth:`_swap`, :meth:`invalidate`) and every
        generation or epoch bump happen under the flight lock, so under
        that lock the cache holds only results of the serving
        generation: a probe holding it alone is generation-consistent,
        and never waits behind a pending swap the way a lease on this
        writer-preferring lock would.  Membership is tested before the
        ``get``, in the same section, so a miss moves no counter and a
        hit cannot be evicted in between."""
        name = (method or self.default_method).lower()
        key = (name, query)
        with self._flight_lock:
            if key not in self._cache:
                return None
            with obs_span(self._span_name, ingress=True, method=name, cache="hit"):
                self._requests += 1
                return self._cache.get(key)

    def _serve(
        self, name: str, queries: Sequence[TopologyQuery], execute: Execute
    ) -> List[MethodResult]:
        """Answer ``queries`` (one method) in order.  Whatever this
        request executes runs under one read lease, and every answer is
        consistent with exactly one generation, stamped on
        ``result.generation``."""
        with self._rw.read_locked():
            admission = self._admit(name, queries)
            self._settle(admission, execute)
        return self._collect(admission)

    def _admit(self, name: str, queries: Sequence[TopologyQuery]) -> _Admission:
        """Count the requests and sort them into hits, joined flights
        and owned flights, atomically.  Caller holds a read lease."""
        generation, epoch = self._generation, self._epoch
        results: List[Optional[MethodResult]] = [None] * len(queries)
        owned: Dict[TopologyQuery, _Flight] = {}
        waits: List[Tuple[int, _Flight]] = []
        with self._flight_lock:
            self._requests += len(queries)
            for index, query in enumerate(queries):
                cached = self._cache.get((name, query), MISSING)
                if cached is not MISSING:
                    results[index] = cached
                    continue
                key = (epoch, name, query)
                flight = self._flights.get(key)
                if flight is None:
                    flight = self._flights[key] = owned[query] = _Flight()
                    self._executions += 1
                else:  # someone else's, or an earlier duplicate in this list
                    self._coalesced += 1
                waits.append((index, flight))
        return _Admission(generation, epoch, name, results, owned, waits)

    def _settle(self, admission: _Admission, execute: Execute) -> None:
        """Execute and settle what ``admission`` owns (nothing, for a
        request that only hit or joined).  May run without the read
        lease (a replica fan-out must not make a pending swap wait for a
        whole batch): results are stamped with the admitted generation
        either way, but cached only if no swap or invalidate has
        dropped the cache since they were admitted."""
        generation, epoch, name, _, owned, _ = admission
        if not owned:
            return
        queries = list(owned)
        try:
            executed = execute(generation, name, queries)
            if len(executed) != len(queries):
                raise TopologyError(
                    f"execute returned {len(executed)} results "
                    f"for {len(queries)} queries"
                )
            for query, result in zip(queries, executed):
                result.generation = generation
                self._record_latency(name, result.elapsed_seconds)
                if result.elapsed_seconds >= self.slow_query_log.threshold_seconds:
                    self._slow_query(generation, name, query, result)
            with self._flight_lock:
                current = epoch == self._epoch
                for query, result in zip(queries, executed):
                    if current:
                        self._cache.put((name, query), result)
                    del self._flights[(epoch, name, query)]
        except BaseException as error:
            with self._flight_lock:
                self._failures += len(queries)
                for query in queries:
                    self._flights.pop((epoch, name, query), None)
            for flight in owned.values():
                flight.fail(error)
            raise
        for flight, result in zip(owned.values(), executed):
            flight.resolve(result)

    def _collect(self, admission: _Admission) -> List[MethodResult]:
        """The answers, in request order, once every joined flight has
        landed.  Call with no lease held: a flight's owner may be a
        leaseless fan-out, and a swap waiting on this reader for a whole
        batch would stall every new reader queued behind it.  Two
        requests that each wait on a flight the other owns cannot
        deadlock, because each settles its own before it waits."""
        results = admission.results
        for index, flight in admission.waits:
            results[index] = flight.wait()
        return results  # type: ignore[return-value]  # every position is a hit or waited on

    def _slow_query(
        self, generation: int, name: str, query: TopologyQuery, result: MethodResult
    ) -> None:
        """Emit one structured slow-query record (threshold already met).
        The per-span breakdown covers the spans finished so far in the
        caller's trace — the execution's children of the still-open
        request span."""
        ctx = current_trace()
        spans = obs_tracer().trace_spans(ctx.trace_id) if ctx is not None else []
        self.slow_query_log.maybe_record(
            elapsed_seconds=result.elapsed_seconds,
            method=name,
            query=query_summary(query),
            generation=generation,
            trace_id=ctx.trace_id if ctx is not None else None,
            plan={"choice": result.plan_choice},
            calibrator_version=self._calibrator_version(),
            spans=spans,
            work={name: result.work.get(name, 0) for name in TRACED_WORK},
        )

    def _record_latency(self, name: str, seconds: float) -> None:
        with self._latency_lock:
            stats = self._latency.get(name)
            if stats is None:
                stats = self._latency.setdefault(name, LatencyStats(name))
        stats.record(seconds)

    # ------------------------------------------------------------------
    # Generations
    # ------------------------------------------------------------------
    @contextmanager
    def _swap(self, restore: bool = False) -> Iterator[None]:
        """The exclusive section that publishes the next generation: the
        caller installs its successor state in the body (pointer
        assignments — microseconds), then the generation bumps and the
        result cache drops.  No reader is inside, so every flight still
        outstanding belongs to a leaseless :meth:`_settle`; it is keyed
        by its own epoch and will not be cached."""
        with self._rw.write_locked():
            yield
            with self._flight_lock:
                self._generation += 1
                self._epoch += 1
                self._cache.clear()
                if restore:
                    self._restores += 1
                else:
                    self._rebuilds += 1

    def invalidate(self) -> None:
        """Drop every cached result (counters survive).

        Takes the exclusive write path, so every leased execution has
        settled before the clear; a leaseless one still running (a
        replica fan-out) is left in the old epoch — its results go to
        its own waiters only, never back into the cleared cache.  Do
        not call from a thread that holds a read lease (i.e. from
        inside a query on this front end); the lock is not reentrant."""
        with self._rw.write_locked(), self._flight_lock:
            self._epoch += 1
            self._cache.clear()

    # ------------------------------------------------------------------
    # Instrumentation
    # ------------------------------------------------------------------
    def _backend_stats(self) -> Dict[str, Any]:
        """The :class:`ServingStats` fields only the front end knows."""
        return {}

    def _calibrator_version(self) -> Optional[int]:
        """For slow-query records; ``None`` where calibration lives
        elsewhere (shard-side)."""
        return None

    def stats(self) -> ServingStats:
        """Every counter from one flight-lock acquisition."""
        with self._flight_lock:
            return ServingStats(
                generation=self._generation,
                requests=self._requests,
                executions=self._executions,
                coalesced=self._coalesced,
                failures=self._failures,
                rebuilds=self._rebuilds,
                restores=self._restores,
                in_flight=len(self._flights),
                result_cache=self._cache.stats(),
                **self._backend_stats(),
            )

    def latency_stats(self) -> Dict[str, Dict[str, float]]:
        """Per-method execution latency snapshots (cache hits and
        coalesced waits do not contribute — they would measure the
        coordination layer, not the execution)."""
        with self._latency_lock:
            items = sorted(self._latency.items())
        return {name: stats.snapshot() for name, stats in items}

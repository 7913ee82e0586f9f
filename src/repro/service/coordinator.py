"""Scatter-gather serving over a sharded topology store.

:class:`ShardCoordinator` serves the same surface as
:class:`~repro.service.TopologyServer` — ``query`` / ``query_many`` /
``explain`` / ``rebuild`` / ``stats`` / ``latency_stats`` /
``generation`` — so :class:`~repro.service.http.TopologyHttpApp` fronts
either without knowing which it got.  It is the same
:class:`~repro.service.core.ServingCore` (lease, generation stamp,
result cache, single-flight, counters, latency, slow-query log) with a
different ``execute``: instead of one shared engine, it opens a shard
set (:mod:`repro.shard`) and keeps one warm worker *process* per shard
(:class:`~repro.service.replica.ShardBackend`), so a query's per-shard
executions run truly in parallel on a GIL interpreter and each shard
process only ever pages its own slice of AllTops/LeftTops.

**Every query fans out to every shard.**  Routing is by data (the E1
endpoint of each stored row), not by query — a query's answer can draw
rows from any bucket — so the scatter is total and correctness comes
from the merge:

* exhaustive methods (no scores): per-shard tid sets are disjointly
  routed subsets of the global answer; the merge is set union, sorted
  ascending exactly as the engine orders exhaustive results;
* top-k methods: every shard ranks its candidates with **global**
  scores (TopInfo is replicated), so each shard's local top-k is the
  restriction of the global top-k order to its rows; the merge unions
  the score maps, re-ranks with the engine's own ordering
  (:func:`~repro.core.methods.base.rank_scored`: score desc, tid desc)
  and cuts at k — identical to the unsharded answer, as the equality
  tests assert method by method.

**Failure modes are loud.**  A dead or wedged shard worker surfaces as
:class:`~repro.errors.ShardUnavailableError` after its reply deadline
(the HTTP layer maps it to ``503 shard_unavailable`` + ``Retry-After``);
a partial answer is never returned.  Every worker reply is stamped with
(shard index, generation) and checked at the gather.

**Rebuild is all-or-nothing.**  ``rebuild()`` builds a successor system
from a clone of the (replicated) base relations, splits it into a fresh
shard set in a new generation directory, starts and pings a full set of
new backends, and only then — under the exclusive write lease — swaps
backends, manifest, and generation in one step and drops the result
cache.  Any failure before the swap closes the new backends and leaves
the serving generation untouched; readers never observe a mixed set.
"""

from __future__ import annotations

import json
import logging
import os
import shutil
import tempfile
import threading
import time
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.methods import METHOD_CLASSES, MethodResult
from repro.core.methods.base import rank_scored
from repro.core.plan import QueryPlan
from repro.core.query import TopologyQuery
from repro.errors import ShardError, ShardUnavailableError, TopologyError
from repro.obs import span as obs_span
from repro.parallel.partition import histogram_skew
from repro.service.core import DEFAULT_METHOD, ServingCore
from repro.service.replica import ShardBackend
from repro.shard.build import SKEW_WARNING_THRESHOLD
from repro.shard.manifest import ShardManifest, read_manifest

if TYPE_CHECKING:  # imported lazily at runtime inside rebuild()
    from repro.core.engine import BuildReport

__all__ = ["ShardCoordinator"]

_LOG = logging.getLogger("repro.shard")


class ShardCoordinator(ServingCore):
    """Scatter-gather query serving over one shard set.

    Open with a manifest path (or parsed
    :class:`~repro.shard.ShardManifest`); construction starts one
    backend process per shard and pings each, so a coordinator that
    constructed successfully is serving.  Use as a context manager or
    call :meth:`close`.
    """

    _span_name = "coordinator.scatter"

    def __init__(
        self,
        manifest: Union[str, ShardManifest],
        cache_size: int = 4096,
        default_method: str = DEFAULT_METHOD,
        shard_timeout: float = 30.0,
        retry_after: int = 1,
        start_method: Optional[str] = None,
        slow_query_seconds: Optional[float] = None,
    ) -> None:
        if not isinstance(manifest, ShardManifest):
            manifest = read_manifest(manifest)
        super().__init__(
            cache_size, default_method, slow_query_seconds, source="coordinator"
        )
        self.shard_timeout = shard_timeout
        self.retry_after = retry_after
        self._start_method = start_method
        self._manifest = manifest
        self._writer_mutex = threading.Lock()
        self._shard_counters: List[Dict[str, int]] = [
            {"calls": 0, "failures": 0, "timeouts": 0}
            for _ in range(manifest.count)
        ]
        self._counter_lock = threading.Lock()
        self._shard_rows: List[int] = self._count_routed_rows(manifest)
        self._owned_dir: Optional[str] = None  # generation dir we created
        self._closed = False
        self._started_monotonic = time.monotonic()
        self._started_generation = self._generation
        # Routing-skew warnings are emitted at most once per generation
        # (a /stats poller past 2x skew must not flood the logs).
        self._skew_warned_generation: Optional[int] = None
        self._backends = self._start_backends(manifest, self._generation)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @staticmethod
    def _count_routed_rows(manifest: ShardManifest) -> List[int]:
        from repro.persist import snapshot_info

        rows = []
        for path in manifest.shard_paths:
            info = snapshot_info(path)
            rows.append(info.alltops_rows + info.lefttops_rows)
        return rows

    def _start_backends(
        self, manifest: ShardManifest, generation: int
    ) -> List[ShardBackend]:
        """Start and verify one backend per shard — all or none.

        Backends are started first (process spawn overlaps across
        shards) and pinged second; the ping both warms the worker and
        checks its (shard index, generation) stamp."""
        backends: List[ShardBackend] = []
        try:
            for index, path in enumerate(manifest.shard_paths):
                backends.append(
                    ShardBackend(
                        index,
                        path,
                        generation,
                        timeout=self.shard_timeout,
                        retry_after=self.retry_after,
                        start_method=self._start_method,
                    )
                )
            calls = [backend.submit("ping") for backend in backends]
            for call in calls:
                call.result()
        except BaseException:
            for backend in backends:
                backend.close()
            raise
        return backends

    def close(self) -> None:
        """Stop every shard backend (idempotent)."""
        with self._writer_mutex:
            self._closed = True
            backends, self._backends = self._backends, []
        for backend in backends:
            backend.close()

    def __enter__(self) -> "ShardCoordinator":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    @property
    def num_shards(self) -> int:
        return self._manifest.count

    @property
    def manifest(self) -> ShardManifest:
        """The manifest of the currently serving generation."""
        return self._manifest

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------
    def query(
        self, query: TopologyQuery, method: Optional[str] = None
    ) -> MethodResult:
        """Evaluate one query across every shard and merge.

        Caching, single-flight deduplication and generation stamping
        are the core's, exactly as for :meth:`TopologyServer.query`; the
        engine execution is replaced by a scatter to all shard backends
        and a paper-identical merge of their partial answers."""
        return self._scatter_serve((query,), method)[0]

    def query_many(
        self,
        queries: Iterable[TopologyQuery],
        method: Optional[str] = None,
        parallel: Optional[int] = None,
        mode: str = "thread",
    ) -> List[MethodResult]:
        """Evaluate a batch, returning results in submission order.

        The whole uncached remainder of the batch ships to every shard
        as **one** op per shard — the scatter is inherently
        process-parallel (one worker per shard), so ``parallel`` and
        ``mode`` are accepted for surface compatibility and ignored.
        Duplicates inside the batch scatter once and share the merged
        result; everything folds into the result cache."""
        if mode not in ("thread", "process"):
            raise TopologyError(f"unknown query_many mode {mode!r}")
        return self._scatter_serve(list(queries), method)

    def _scatter_serve(
        self, queries: Sequence[TopologyQuery], method: Optional[str]
    ) -> List[MethodResult]:
        """The core's request path with the scatter as ``execute``.  The
        ``coordinator.scatter`` span opens only when something executes
        (a hit here opens none; a :meth:`cached` hit records one tagged
        ``cache="hit"``) and stays open across the settle, so a
        slow-query record finds the gathered ``shard.query`` spans."""
        name = (method or self.default_method).lower()
        with self._rw.read_locked():
            admission = self._admit(name, queries)
            if admission.owned:
                with obs_span(
                    "coordinator.scatter",
                    ingress=True,
                    method=name,
                    shards=len(self._backends),
                    items=len(admission.owned),
                ):
                    self._settle(admission, self._scatter_merge)
        return self._collect(admission)

    def _scatter_merge(
        self, generation: int, name: str, queries: Sequence[TopologyQuery]
    ) -> List[MethodResult]:
        """Fan ``queries`` out to every backend, gather, merge per query.

        Dispatch completes for *all* shards before the first gather
        blocks, so shard executions overlap for their whole duration.
        Any shard failing (dead worker, reply deadline) aborts the
        whole call — never a partial merge.  Runs under the request's
        read lease, so ``_backends`` is ``generation``'s set."""
        if name not in METHOD_CLASSES:  # before any shard sees the call
            raise TopologyError(f"unknown method {name!r}")
        backends = self._backends
        if not backends:
            raise TopologyError("coordinator is closed")
        items = list(enumerate(queries))
        calls = []
        for backend in backends:
            self._bump_shard(backend.shard_index, "calls")
            try:
                calls.append(backend.submit("query_batch", (name, items)))
            except ShardUnavailableError:
                self._bump_shard(backend.shard_index, "failures")
                raise
        partials: List[List[MethodResult]] = [[] for _ in queries]
        for backend, call in zip(backends, calls):
            try:
                reply = call.result()
            except ShardUnavailableError:
                self._bump_shard(backend.shard_index, "timeouts")
                self._bump_shard(backend.shard_index, "failures")
                raise
            except Exception:
                self._bump_shard(backend.shard_index, "failures")
                raise
            for index, partial in reply:
                partials[index].append(partial)
        merged: List[MethodResult] = []
        for index, parts in enumerate(partials):
            if len(parts) != len(backends):  # pragma: no cover - defensive
                raise ShardError(
                    f"query {index} got {len(parts)} partial answers "
                    f"from {len(backends)} shards"
                )
            merged.append(self._merge(queries[index], parts))
        return merged

    @staticmethod
    def _merge(
        query: TopologyQuery, parts: Sequence[MethodResult]
    ) -> MethodResult:
        """Merge per-shard partial answers into the global answer.

        Scored parts merge ranked: the union of the shards' global-score
        maps, ordered and cut at ``query.k`` by the engine's own rule
        (:func:`~repro.core.methods.base.rank_scored`).  Which merge
        applies follows the *result* shape, not the method class: the
        exhaustive methods score too when the query carries a ``k``.
        Unscored parts union the routed tid subsets and sort ascending,
        the exhaustive methods' output order.  Shards that disagree on
        the shape are a broken set, never a merge."""
        scored_parts = sum(part.scores is not None for part in parts)
        if scored_parts not in (0, len(parts)):
            raise ShardError(
                f"{scored_parts} of {len(parts)} shards returned scores "
                f"for one {parts[0].method} query"
            )
        scores: Optional[List[float]]
        if scored_parts:
            scored: Dict[int, float] = {}
            for part in parts:
                scored.update(zip(part.tids, part.scores or ()))
            tids, scores = rank_scored(scored, query.k)
        else:
            tids = sorted({tid for part in parts for tid in part.tids})
            scores = None
        work: Dict[str, int] = {"shards": len(parts)}
        for part in parts:
            for counter, amount in part.work.items():
                work[counter] = work.get(counter, 0) + amount
        return MethodResult(
            method=parts[0].method,
            query=query,
            tids=tids,
            scores=scores,
            # The scatter overlaps shards, so the engine-time cost of
            # the merged answer is the slowest shard, not the sum.
            elapsed_seconds=max(p.elapsed_seconds for p in parts),
            work=work,
            plan=parts[0].plan,
            planning_seconds=max(p.planning_seconds for p in parts),
        )

    def explain(
        self, query: TopologyQuery, method: Optional[str] = None
    ) -> QueryPlan:
        """The plan shard 0 would execute for this query.

        Plans are per-shard (each shard's optimizer prices its own
        slice), but every shard sees the same query class and strategy
        menu, so shard 0's plan is the representative one."""
        name = (method or self.default_method).lower()
        with self._rw.read_locked():
            if not self._backends:
                raise TopologyError("coordinator is closed")
            return self._backends[0].call("explain", (query, name))

    # ------------------------------------------------------------------
    # Rebuild: all-or-nothing generation commit
    # ------------------------------------------------------------------
    def rebuild(
        self,
        entity_pairs: Optional[Sequence[Tuple[str, str]]] = None,
        **build_kwargs: Any,
    ) -> "BuildReport":
        """Rebuild the whole store and commit a new shard generation,
        without interrupting traffic.

        The offline phase runs on a clone of the (replicated) base
        relations from shard 0 — outside all locks, so queries keep
        flowing.  The successor is split into a fresh shard set under a
        new generation directory (verified lossless), a complete set of
        new backends is started and pinged, and only then does the
        exclusive swap publish backends + manifest + generation in one
        step.  On any failure the new backends are closed, the serving
        set is untouched, and the error propagates: there is no state
        in which a reader can see shards from two generations."""
        from repro.persist import load_system
        from repro.shard.build import split_system

        with self._writer_mutex:
            if self._closed:
                raise TopologyError("coordinator is closed")
            manifest = self._manifest
            # Only rebuild bumps the generation and the writer mutex
            # serializes rebuilds, so this read cannot go stale.
            next_generation = self._generation + 1
            reference = load_system(manifest.shard_path(0))
            successor, report = reference.rebuilt(entity_pairs, **build_kwargs)
            generation_dir = tempfile.mkdtemp(
                prefix=f"gen-{next_generation}-",
                dir=os.path.dirname(manifest.path),
            )
            try:
                split = split_system(
                    successor, manifest.count, generation_dir, verify=True
                )
                new_manifest = read_manifest(split.manifest_path)
                new_backends = self._start_backends(
                    new_manifest, next_generation
                )
            except BaseException:
                shutil.rmtree(generation_dir, ignore_errors=True)
                raise
            with self._swap():
                old_backends = self._backends
                self._backends = new_backends
                self._manifest = new_manifest
                self._shard_rows = list(split.row_histogram)
            for backend in old_backends:
                backend.close()
            # Reclaim the generation directory this coordinator created
            # for the now-retired set (never the operator's original).
            retired_dir, self._owned_dir = self._owned_dir, generation_dir
            if retired_dir is not None:
                shutil.rmtree(retired_dir, ignore_errors=True)
            return report

    # ------------------------------------------------------------------
    # Instrumentation
    # ------------------------------------------------------------------
    def _bump_shard(self, index: int, counter: str) -> None:
        with self._counter_lock:
            self._shard_counters[index][counter] += 1

    def shard_sections(self) -> List[Dict[str, Any]]:
        """Per-shard stats sections: identity, routed-row load, health
        counters — plus the set-level skew on each entry's parent list
        (see :meth:`stats`)."""
        manifest = self._manifest
        rows = list(self._shard_rows)
        with self._counter_lock:
            counters = [dict(c) for c in self._shard_counters]
        return [
            {
                "index": index,
                "path": manifest.shard_paths[index],
                "set_id": manifest.set_id,
                "scheme": manifest.scheme,
                "routed_rows": rows[index] if index < len(rows) else 0,
                **counters[index],
            }
            for index in range(manifest.count)
        ]

    def partition_histogram(self) -> Tuple[int, ...]:
        """Routed rows (AllTops + LeftTops) per shard."""
        return tuple(self._shard_rows)

    def partition_skew(self) -> float:
        """Max/mean of :meth:`partition_histogram` (1.0 = balanced)."""
        return histogram_skew(self._shard_rows)

    def _backend_stats(self) -> Dict[str, Any]:
        return {
            "shards": self.shard_sections(),
            "uptime_seconds": time.monotonic() - self._started_monotonic,
            "started_generation": self._started_generation,
        }

    def shard_digests(self) -> List[str]:
        """Each live backend's order-sensitive store digest, gathered in
        parallel — compare them with the digests of the files the
        manifest names to prove the workers serve the verified set
        (:mod:`repro.shard.verify` certified those files at split
        time)."""
        with self._rw.read_locked():
            backends = self._backends
            calls = [backend.submit("digest") for backend in backends]
            return [call.result() for call in calls]

    def skew_report(self) -> Dict[str, Any]:
        """The /stats skew block: histogram, max/mean ratio, and the
        structured warning flag when the serving set is imbalanced.
        The structured log warning itself fires at most once per
        generation — a /stats poller watching a skewed set must not
        flood the logs on every read."""
        skew = self.partition_skew()
        warning = skew > SKEW_WARNING_THRESHOLD
        if warning:
            self._warn_skew_once(skew)
        return {
            "row_histogram": list(self._shard_rows),
            "skew": skew,
            "skew_warning": warning,
            "threshold": SKEW_WARNING_THRESHOLD,
        }

    def _warn_skew_once(self, skew: float) -> None:
        generation = self._generation
        with self._counter_lock:
            if self._skew_warned_generation == generation:
                return
            self._skew_warned_generation = generation
        _LOG.warning(
            "shard routing skew %.2fx exceeds %.1fx: %s",
            skew,
            SKEW_WARNING_THRESHOLD,
            json.dumps(
                {
                    "event": "shard_routing_skew",
                    "generation": generation,
                    "set_id": self._manifest.set_id,
                    "num_shards": self._manifest.count,
                    "skew": skew,
                    "row_histogram": list(self._shard_rows),
                },
                sort_keys=True,
            ),
        )

    def shard_obs_sections(self) -> List[Dict[str, Any]]:
        """Best-effort per-shard observability sections for `/metrics`:
        generation, plan-cache counters, calibrator state and event
        counters scraped from each live worker (the shape is
        ``replica._shard_obs_stats``'s, plus ``index`` and ``up``).  A
        dead or slow shard reports ``{"up": False}`` instead of failing
        the scrape — metrics must stay readable exactly when shards are
        in trouble."""
        with self._rw.read_locked():
            backends = list(self._backends)
        calls: List[Tuple[int, Any]] = []
        for backend in backends:
            try:
                calls.append((backend.shard_index, backend.submit("obs_stats")))
            except ShardUnavailableError:
                calls.append((backend.shard_index, None))
        sections: List[Dict[str, Any]] = []
        for shard_index, call in calls:
            section: Dict[str, Any] = {"index": shard_index, "up": False}
            if call is not None:
                try:
                    section.update(call.result())
                    section["up"] = True
                except Exception as exc:
                    # Degrade, but never silently: a stamp mismatch or a
                    # worker crash must be visible in the scrape itself.
                    section["error"] = f"{type(exc).__name__}: {exc}"
            sections.append(section)
        return sections

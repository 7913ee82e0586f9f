"""Warm engine worker processes: one protocol, two pools.

On a stock (GIL) interpreter, threads interleave pure-Python engine
executions instead of running them in parallel — a thread pool gives
concurrency (overlap, fairness, single-flight) but not *speedup*.  The
speedup path is worker processes, each holding a warm engine restored
once from a snapshot file, and there is exactly one worker protocol:

* a worker is a single-process pool whose initializer loads one
  snapshot and is stamped by its parent with ``(index, generation)``;
* a request is ``(op, args, trace context)`` — ``query_batch``,
  ``explain``, ``digest``, ``ping``, ``obs_stats``, ``sleep``;
* a reply is ``(stamp, payload, spans)``: the stamp is checked against
  what the parent believes the worker serves (a cross-wired or stale
  worker is detected, never merged), and the spans recorded under the
  request's trace are ingested into the parent's trace buffer — the
  trace crosses the process boundary through the reply, not through
  shared memory.

:class:`ShardBackend` is one such worker over one *shard* snapshot (the
coordinator keeps one per shard).  :class:`ReplicaPool` is N of them
over one snapshot of the *whole* serving generation, written at pool
start — the fan-out behind ``TopologyServer.query_many(mode="process")``.
The economics mirror :mod:`repro.parallel` (the offline-phase pool):
pay a one-time per-worker cost — process start plus snapshot restore —
then dispatch cheap work items.  Replies carry full
:class:`~repro.core.methods.MethodResult` objects (queries, results and
plans all pickle cleanly: they are frozen/plain dataclasses over
builtins).

Replicas are *read-only copies*: they never see the parent's caches or
calibrator, and a generation hot-swap on the parent makes the pool
stale — ``TopologyServer`` replaces it after a swap.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import tempfile
import time
from typing import Any, List, Optional, Sequence, Tuple

from repro.core.methods import MethodResult
from repro.core.query import TopologyQuery
from repro.errors import ReproError, ShardUnavailableError, TopologyError
from repro.obs import current_wire as obs_current_wire
from repro.obs import registry as obs_registry
from repro.obs import span as obs_span
from repro.obs import tracer as obs_tracer

# Per-process engine installed by the pool initializer.  Module-level
# globals: multiprocessing gives every worker its own module instance.
_REPLICA = None
# Stamp installed with it: (worker index, generation) as attested by the
# *parent* at pool construction.  Every reply leads with it, so a
# cross-wired worker, or one that somehow outlived its pool's
# generation, is detected at the consumer, never merged.
_SHARD_STAMP: Optional[Tuple[int, int]] = None


def _spawn_safe_main() -> bool:
    """Whether ``spawn`` children can bootstrap here.

    Spawned children re-import ``__main__`` when it came from a file;
    if that "file" does not exist on disk (a stdin script, a frozen
    shell), every worker crashes on import and ``multiprocessing.Pool``
    respawns them forever — the pool hangs instead of failing.  A
    file-less ``__main__`` (``python -c``, an interactive REPL,
    embedded interpreters) is fine: the bootstrap skips the re-import."""
    main = sys.modules.get("__main__")
    path = getattr(main, "__file__", None)
    return path is None or os.path.exists(path)


def _pick_start_method(requested: Optional[str]) -> str:
    """``spawn`` where it can bootstrap, else ``fork``; requests win.

    The pool is started from inside a deliberately multi-threaded
    server: forking while query threads hold arbitrary locks (the
    import lock included — the engine lazily imports on its hot path)
    can hand a child a lock no thread will ever release, deadlocking
    its initializer.  ``spawn`` starts clean children that restore the
    replica from the snapshot file — a one-time cost per worker on a
    *warm* pool — so it is the default whenever the interpreter's
    ``__main__`` is spawn-bootstrappable (see :func:`_spawn_safe_main`);
    otherwise ``fork`` is the only working option and the caller should
    keep the server quiet while the pool starts."""
    available = multiprocessing.get_all_start_methods()
    if requested is not None:
        if requested not in available:
            raise TopologyError(
                f"start method {requested!r} not available; choose from {available}"
            )
        return requested
    if "spawn" in available and _spawn_safe_main():
        return "spawn"
    if "fork" in available:
        return "fork"
    raise TopologyError(
        "process mode needs a spawn-bootstrappable __main__ "
        "(run from an importable script) on this platform"
    )


def _init_shard(snapshot_path: str, shard_index: int, generation: int) -> None:
    """Pool initializer: load this worker's snapshot."""
    global _REPLICA, _SHARD_STAMP
    from repro.persist import load_system

    _REPLICA = load_system(snapshot_path)
    _SHARD_STAMP = (shard_index, generation)
    # Forked workers inherit the parent's span buffer and event
    # counters; drop both so a worker only ever ships what it recorded
    # itself.
    obs_tracer().reset()
    obs_registry().reset()


def _shard_obs_stats() -> dict:
    """This worker's section of the coordinator's `/metrics` payload.
    ``generation`` / ``plan_cache`` / ``statement_cache`` /
    ``calibrator`` sit where the serving payload of a plain server has
    them, so one metrics table renders both; ``counters`` is this process's event-counter registry,
    ``{dotted name: [(labels, value), ...]}``."""
    system = _REPLICA
    plan_cache = system.plan_cache_stats()
    statements = system.engine.statement_cache_stats()
    return {
        "pid": os.getpid(),
        "generation": _SHARD_STAMP[1] if _SHARD_STAMP else None,
        "plan_cache": {
            "hits": plan_cache.hits,
            "misses": plan_cache.misses,
            "invalidations": plan_cache.invalidations,
            "size": plan_cache.size,
        },
        "statement_cache": {
            "hits": statements.hits,
            "misses": statements.misses,
            "texts": statements.texts,
            "classes": statements.classes,
        },
        "calibrator": system.calibrator.snapshot(),
        "counters": {
            name: [(labels, value) for _, labels, value in samples]
            for name, _, _, samples in obs_registry().gather()
        },
    }


def _run_shard_op(op: str, args: Any) -> Any:
    if op == "query_batch":
        method, items = args
        return [
            (index, _REPLICA.search(query, method=method))
            for index, query in items
        ]
    if op == "explain":
        query, method = args
        return _REPLICA.explain(query, method)
    if op == "digest":
        return _REPLICA.store.state_digest()
    if op == "ping":
        return "pong"
    if op == "obs_stats":
        return _shard_obs_stats()
    if op == "sleep":
        # Latency probe: lets operators (and the timeout tests) exercise
        # the coordinator's per-shard reply-deadline path on demand.
        time.sleep(float(args))
        return float(args)
    raise TopologyError(f"unknown shard op {op!r}")


def _shard_op(
    request: Tuple[str, Any, Optional[dict]]
) -> Tuple[Optional[Tuple[int, int]], Any, List[dict]]:
    """Execute one op against this worker's engine.

    ``request`` carries the parent's trace context (or ``None``); the
    reply trails with the spans this worker recorded under it, so the
    parent can stitch per-worker ``shard.query`` spans — and their
    engine children — into the request's trace."""
    op, args, trace = request
    if _REPLICA is None:  # pragma: no cover - initializer always ran
        raise TopologyError("shard worker used before initialization")
    shard_index = _SHARD_STAMP[0] if _SHARD_STAMP else None
    tracer = obs_tracer()
    with tracer.adopt(trace) as ctx:
        if op == "query_batch":
            with obs_span(
                "shard.query",
                shard=shard_index,
                pid=os.getpid(),
                method=args[0],
                items=len(args[1]),
            ):
                payload = _run_shard_op(op, args)
        else:
            payload = _run_shard_op(op, args)
    spans = tracer.take(ctx.trace_id) if ctx is not None else []
    return _SHARD_STAMP, payload, spans


class ShardCall:
    """One dispatched shard op; :meth:`result` gathers the reply.

    Split from the dispatch so a coordinator can scatter to every shard
    first and only then start gathering — the shards overlap for the
    whole execution, not just the tail."""

    __slots__ = ("_backend", "_async_result", "_timeout")

    def __init__(
        self, backend: "ShardBackend", async_result: Any, timeout: Optional[float]
    ) -> None:
        self._backend = backend
        self._async_result = async_result
        self._timeout = timeout

    def result(self) -> Any:
        """The reply payload, stamp-checked.

        Raises :class:`ShardUnavailableError` when no reply arrives
        within the timeout — the one signal a *dead* worker process can
        be relied on to produce (its pool never completes the task) —
        or when the worker crashed in a way the pool surfaces directly.
        Engine-level errors (unsupported query etc.) propagate as
        themselves: the shard is healthy, the request was not."""
        backend = self._backend
        try:
            stamp, payload, spans = self._async_result.get(self._timeout)
        except multiprocessing.TimeoutError:
            raise ShardUnavailableError(
                backend.shard_index,
                f"no reply within {self._timeout:g}s",
                retry_after=backend.retry_after,
            ) from None
        except ReproError:
            raise  # the shard answered; the request itself was bad
        except Exception as exc:  # worker crashed / reply unpicklable
            raise ShardUnavailableError(
                backend.shard_index,
                f"worker failed: {type(exc).__name__}: {exc}",
                retry_after=backend.retry_after,
            ) from exc
        obs_tracer().ingest(spans)
        expected = (backend.shard_index, backend.generation)
        if stamp != expected:
            raise TopologyError(
                f"shard reply stamped {stamp}, expected {expected}: "
                f"worker serves a different shard or generation"
            )
        return payload


class ShardBackend:
    """One warm worker process serving one shard snapshot.

    A dedicated single-process pool per shard (rather than one shared
    pool) keeps failure domains per-shard: a dead or wedged shard
    worker times out *its* calls with
    :class:`~repro.errors.ShardUnavailableError` while its siblings
    keep answering.  The pool respawns a crashed worker and re-runs the
    initializer, so a transiently killed shard heals on the next call.

    ``timeout`` is the reply deadline of one op — sized for one query's
    scatter leg.  ``None`` means no deadline (:class:`ReplicaPool`: its
    ops are whole batch shares, whose running time scales with the
    batch, not with a query)."""

    def __init__(
        self,
        shard_index: int,
        snapshot_path: str,
        generation: int,
        timeout: Optional[float] = 30.0,
        retry_after: int = 1,
        start_method: Optional[str] = None,
    ) -> None:
        self.shard_index = shard_index
        self.snapshot_path = os.fspath(snapshot_path)
        self.generation = generation
        self.timeout = timeout
        self.retry_after = retry_after
        self.start_method = _pick_start_method(start_method)
        context = multiprocessing.get_context(self.start_method)
        self._pool = context.Pool(
            processes=1,
            initializer=_init_shard,
            initargs=(self.snapshot_path, shard_index, generation),
        )

    def submit(
        self, op: str, args: Any = None, timeout: Optional[float] = None
    ) -> ShardCall:
        """Dispatch one op without waiting for the reply."""
        if self._pool is None:
            raise ShardUnavailableError(
                self.shard_index, "backend is closed", retry_after=self.retry_after
            )
        budget = self.timeout if timeout is None else timeout
        request = (op, args, obs_current_wire())
        return ShardCall(
            self, self._pool.apply_async(_shard_op, (request,)), budget
        )

    def call(self, op: str, args: Any = None, timeout: Optional[float] = None) -> Any:
        """Dispatch one op and wait for its reply."""
        return self.submit(op, args, timeout).result()

    def close(self) -> None:
        """Stop the worker process (idempotent).  The snapshot file is
        owned by the shard set, not the backend, and stays on disk."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.terminate()
            pool.join()


class ReplicaPool:
    """A warm pool of replica processes serving one generation.

    Construction snapshots ``system`` to a temporary file and starts
    ``workers`` :class:`ShardBackend` processes over it, each restoring
    the snapshot into a private replica stamped ``(worker index,
    generation)``.  :meth:`run` then dispatches pre-chunked work.
    :meth:`close` tears the pool down and removes the snapshot file."""

    def __init__(
        self,
        system: Any,
        workers: int,
        generation: int,
        start_method: Optional[str] = None,
    ) -> None:
        if workers < 1:
            raise TopologyError(f"replica workers must be >= 1, got {workers}")
        self.workers = workers
        self.generation = generation
        fd, self._snapshot_path = tempfile.mkstemp(
            prefix="topology-replica-", suffix=".topo"
        )
        os.close(fd)
        self._backends: List[ShardBackend] = []
        try:
            system.save(self._snapshot_path)
            for index in range(workers):
                self._backends.append(
                    ShardBackend(
                        index,
                        self._snapshot_path,
                        generation,
                        timeout=None,  # a chunk is a batch share, not one query
                        start_method=start_method,
                    )
                )
        except BaseException:
            self.close()
            raise

    def run(
        self, chunks: Sequence[Tuple[str, Sequence[Tuple[int, TopologyQuery]]]]
    ) -> List[List[Tuple[int, MethodResult]]]:
        """Execute every ``(method, [(batch index, query), ...])`` chunk,
        one ``query_batch`` op each, dealt round-robin over the workers;
        all chunks are dispatched before the first reply is awaited.
        Each reply keeps its items' batch indices.

        Every reply's stamp must match ``(worker, generation)`` as this
        pool was built — a mismatch means a worker is serving a
        different snapshot than the parent believes and raises rather
        than letting wrong-generation answers merge silently.  There is
        no reply deadline: a chunk takes as long as its share of the
        batch (plus, for the first, the worker's snapshot load)."""
        if not self._backends:
            raise TopologyError("replica pool is closed")
        calls = [
            self._backends[at % self.workers].submit("query_batch", (method, list(items)))
            for at, (method, items) in enumerate(chunks)
        ]
        return [call.result() for call in calls]

    def close(self) -> None:
        """Stop the workers and delete the snapshot file (idempotent)."""
        backends, self._backends = self._backends, []
        for backend in backends:
            backend.close()
        if self._snapshot_path and os.path.exists(self._snapshot_path):
            try:
                os.remove(self._snapshot_path)
            except OSError:  # pragma: no cover - best effort cleanup
                pass
        self._snapshot_path = ""

    def __enter__(self) -> "ReplicaPool":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

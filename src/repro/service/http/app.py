"""The ASGI application fronting :class:`~repro.service.TopologyServer`.

``TopologyHttpApp`` is a framework-free ASGI 3 callable — stdlib plus
the ASGI message protocol, nothing else — so the no-extra-deps CI
matrix serves HTTP exactly like a production deployment would.  Run it
under any ASGI server (uvicorn works out of the box when installed),
under the in-repo stdlib socket server (:mod:`repro.service.http.netserver`),
or poke it in-process with the test client
(:mod:`repro.service.http.testclient`).

The endpoint surface::

    GET  /healthz        liveness + serving generation
    GET  /stats          one consistent counter snapshot (+ latency, + http)
    GET  /metrics        Prometheus text exposition (see .metricsview)
    GET  /trace/{id}     one trace's span tree with timings
    GET  /traces/recent  newest-first summaries of buffered traces
    POST /query          one topology query -> result JSON (chunk-streamed
                         when the tid list is large)
    POST /query_many     a batch -> NDJSON stream, one result line per
                         query in submission order + a summary line
    POST /explain        the plan a query would run, costs + rendered tree
    POST /rebuild        hot-swap rebuild; returns the new generation

Every request opens an ``http.request`` ingress span: the trace id it
mints (returned in the ``x-trace-id`` response header and the ``/query``
body) keys the whole request's span tree — engine spans on this process,
and, behind a :class:`~repro.service.coordinator.ShardCoordinator`,
the ``shard.query`` spans shipped back from the worker processes.
``GET /trace/{id}`` renders that tree.

Request handling is layered the same way for every endpoint: read the
body (bounded), parse + validate (:mod:`.schemas`), pass the admission
gate (:mod:`.admission`), run the blocking engine call on the worker
pool under the per-request timeout, serialize.  One shortcut: a
``POST /query`` the result cache can answer is answered on the event
loop right after validation (``server.cached``), before the gate and
with no thread hand-off — the gate sheds *work*, not answers already in
memory, so ``admission.admitted`` counts engine calls, not requests.
And a ``POST /query`` whose exact bytes were seen before is answered
from bytes: a request-bytes memo keeps the validated query and the
encoded answer last served for it, so a repeat skips parsing and
validation, and — while the result cache still hands back that very
answer object — encoding too; only the trace id is spliced in.
Every failure mode maps to a structured error body
``{"error": {"code", "message", "details"}}`` with the taxonomy::

    400 invalid_json / invalid_request   body is not a JSON object
    404 not_found                        unknown path
    405 method_not_allowed               known path, wrong verb (+Allow)
    413 body_too_large                   body exceeds max_body_bytes
    422 validation_error                 schema-invalid fields (details[])
    422 unsupported_query                valid shape the serving store
                                         cannot answer (unbuilt pair,
                                         wrong l, ...)
    503 overloaded / timeout /           admission shed, per-request
        rebuild_in_progress              timeout, concurrent rebuild
                                         (all with Retry-After)
    500 internal                         anything else (sanitized)

The engine work runs on a private thread pool because the engine is
synchronous by design; the event loop only ever parses, validates,
probes the result cache, and shuttles bytes.  Admission bounds how many
engine calls are in flight, so the pool can never be oversubscribed by
traffic.
"""

from __future__ import annotations

import asyncio
import contextvars
import json
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Awaitable, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.cache import LRUCache
from repro.core.query import TopologyQuery
from repro.errors import ShardUnavailableError, TopologyError
from repro.obs import registry as obs_registry
from repro.obs import span as obs_span
from repro.obs import tracer as obs_tracer
from repro.service.http.admission import AdmissionGate, AdmissionRejected
from repro.service.http.metricsview import metrics_families
from repro.service.http.reqlog import RequestLog, RequestLogger
from repro.service.http.schemas import (
    RequestValidationError,
    error_to_wire,
    parse_query_many_request,
    parse_query_request,
    parse_rebuild_request,
    plan_to_wire,
    result_to_wire,
    server_stats_to_wire,
)

__all__ = ["TopologyHttpApp", "create_app"]

# ASGI-protocol shapes (the framework-free equivalents of asgiref's
# Scope/Receive/Send).
Scope = Dict[str, Any]
Receive = Callable[[], Awaitable[Dict[str, Any]]]
Send = Callable[[Dict[str, Any]], Awaitable[None]]

_JSON_CONTENT = [(b"content-type", b"application/json")]
_NDJSON_CONTENT = [(b"content-type", b"application/x-ndjson")]
_PROMETHEUS_CONTENT = [
    (b"content-type", b"text/plain; version=0.0.4; charset=utf-8")
]

#: Entries in the ``POST /query`` request-bytes memo: the default
#: result-cache size, so every answer a default cache holds can keep its
#: bytes beside it.
_QUERY_MEMO_SIZE = 4096
#: Longer ``POST /query`` bodies are parsed and encoded every time and
#: never memoized, so one entry's key stays small whatever
#: ``max_body_bytes`` allows.
_QUERY_MEMO_MAX_KEY = 4096


class _QueryMemo(NamedTuple):
    """One memo entry, keyed by a ``POST /query`` body's raw bytes: the
    validated request, and the answer last served for it with that
    answer's encoding (:meth:`TopologyHttpApp._encode_answer`)."""

    query: TopologyQuery
    method: Optional[str]
    result: Any
    frames: Tuple[bytes, ...]


class _HttpError(Exception):
    """Internal: carries a ready-to-send error response."""

    def __init__(
        self,
        status: int,
        code: str,
        message: str,
        details: Optional[List[Dict[str, str]]] = None,
        retry_after: Optional[int] = None,
        allow: Optional[str] = None,
    ) -> None:
        self.status = status
        self.code = code
        self.message = message
        self.details = details or []
        self.retry_after = retry_after
        self.allow = allow
        super().__init__(f"{status} {code}: {message}")


def _dumps(payload: Any) -> bytes:
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def _error_body(error: _HttpError) -> bytes:
    return _dumps(error_to_wire(error.code, error.message, error.details))


class TopologyHttpApp:
    """ASGI 3 application over one :class:`TopologyServer`.

    ``server`` only needs the TopologyServer surface actually used
    (``cached``/``query``/``query_many``/``explain``/``rebuild``/``stats``/
    ``latency_stats``/``generation``), so tests can substitute a stub
    with controllable latency.

    ``max_concurrency``/``max_queue``/``queue_timeout`` parameterize the
    admission gate; ``request_timeout`` bounds each engine call (for
    ``/query_many``: each streamed slice); ``rebuild_timeout`` bounds a
    rebuild.  ``stream_chunk_rows`` is both the tid-array chunk size for
    large ``/query`` responses and the slice size for ``/query_many``
    streaming."""

    def __init__(
        self,
        server: Any,
        max_concurrency: int = 8,
        max_queue: int = 32,
        queue_timeout: float = 5.0,
        request_timeout: float = 30.0,
        rebuild_timeout: float = 600.0,
        max_body_bytes: int = 1 << 20,
        stream_chunk_rows: int = 256,
        logger: Optional[RequestLogger] = None,
    ) -> None:
        self.server = server
        self.gate = AdmissionGate(max_concurrency, max_queue, queue_timeout)
        self.request_timeout = request_timeout
        self.rebuild_timeout = rebuild_timeout
        self.max_body_bytes = max_body_bytes
        self.stream_chunk_rows = max(1, stream_chunk_rows)
        self.log = logger or RequestLogger()
        self._executor = ThreadPoolExecutor(
            max_workers=max_concurrency + 2, thread_name_prefix="topology-http"
        )
        self._query_memo = LRUCache(_QUERY_MEMO_SIZE)
        self._rebuild_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._requests_total = 0
        self._responses_by_class: Dict[str, int] = {}
        self._routes: Dict[str, Dict[str, Callable]] = {
            "/healthz": {"GET": self._handle_healthz},
            "/stats": {"GET": self._handle_stats},
            "/metrics": {"GET": self._handle_metrics},
            "/traces/recent": {"GET": self._handle_traces_recent},
            "/query": {"POST": self._handle_query},
            "/query_many": {"POST": self._handle_query_many},
            "/explain": {"POST": self._handle_explain},
            "/rebuild": {"POST": self._handle_rebuild},
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        self._executor.shutdown(wait=True)

    def __enter__(self) -> "TopologyHttpApp":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # ASGI entry point
    # ------------------------------------------------------------------
    async def __call__(self, scope: Scope, receive: Receive, send: Send) -> None:
        if scope["type"] == "lifespan":
            await self._handle_lifespan(receive, send)
            return
        if scope["type"] != "http":  # pragma: no cover - ws etc.
            raise RuntimeError(f"unsupported ASGI scope type {scope['type']!r}")
        verb = scope["method"].upper()
        path = scope["path"]
        # The ingress span starts the trace; its id keys the request log
        # line, the x-trace-id header, and every child span (including
        # the ones shard workers ship back across the process boundary).
        with obs_span("http.request", ingress=True, verb=verb, path=path) as http_span:
            log = self.log.start(verb, path, trace_id=http_span.trace_id)
            with self._stats_lock:
                self._requests_total += 1
            try:
                try:
                    handler = self._resolve(verb, path)
                    await handler(scope, receive, send, log)
                except _HttpError as error:
                    await self._send_error(send, error, log)
                except AdmissionRejected as rejected:
                    await self._send_error(
                        send,
                        _HttpError(
                            503,
                            "overloaded",
                            f"server at capacity ({rejected.reason}); retry later",
                            retry_after=rejected.retry_after,
                        ),
                        log,
                    )
                except Exception as error:  # noqa: BLE001 - the 500 boundary
                    await self._send_error(
                        send,
                        _HttpError(500, "internal", f"internal error: {type(error).__name__}"),
                        log,
                    )
            finally:
                http_span.tag(status=log.status)
                status_class = f"{(log.status or 500) // 100}xx"
                with self._stats_lock:
                    self._responses_by_class[status_class] = (
                        self._responses_by_class.get(status_class, 0) + 1
                    )
                self.log.finish(log)

    async def _handle_lifespan(self, receive: Receive, send: Send) -> None:
        while True:
            message = await receive()
            if message["type"] == "lifespan.startup":
                await send({"type": "lifespan.startup.complete"})
            elif message["type"] == "lifespan.shutdown":
                await send({"type": "lifespan.shutdown.complete"})
                return

    def _resolve(self, verb: str, path: str) -> Callable[..., Awaitable[None]]:
        route = self._routes.get(path)
        if route is None and path.startswith("/trace/") and len(path) > len("/trace/"):
            # The one parameterized route: /trace/{id}.  The id is
            # re-extracted from scope["path"] by the handler.
            route = {"GET": self._handle_trace}
        if route is None:
            raise _HttpError(404, "not_found", f"no such endpoint: {path}")
        handler = route.get(verb)
        if handler is None:
            raise _HttpError(
                405,
                "method_not_allowed",
                f"{verb} is not supported on {path}",
                allow=", ".join(sorted(route)),
            )
        return handler

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    async def _read_body(self, receive: Receive) -> bytes:
        chunks: List[bytes] = []
        size = 0
        while True:
            message = await receive()
            if message["type"] == "http.disconnect":
                raise _HttpError(400, "invalid_request", "client disconnected mid-request")
            body = message.get("body", b"")
            size += len(body)
            if size > self.max_body_bytes:
                raise _HttpError(
                    413,
                    "body_too_large",
                    f"request body exceeds {self.max_body_bytes} bytes",
                )
            chunks.append(body)
            if not message.get("more_body"):
                return b"".join(chunks)

    def _parse_json(self, body: bytes, required: bool = True) -> Any:
        if not body:
            if required:
                raise _HttpError(400, "invalid_json", "request body is empty")
            return None
        try:
            return json.loads(body)
        except ValueError as error:
            raise _HttpError(400, "invalid_json", f"body is not valid JSON: {error}") from None

    async def _run_blocking(
        self,
        fn: Callable[[], Any],
        timeout: float,
        slot: Optional["_Admission"] = None,
    ) -> Any:
        """Run ``fn`` on the worker pool, bounded by ``timeout``.

        On timeout the engine call keeps running on its pool thread —
        a synchronous engine call cannot be interrupted — so the
        caller's admission ``slot`` is handed to the call and released
        only when it finishes: a pile-up of timed-out work still sheds
        load at the gate instead of oversubscribing the pool.

        The call runs under a copy of the caller's ``contextvars``
        context: an executor does not propagate context on its own, and
        without it the engine's spans would detach from the
        ``http.request`` trace."""
        ctx = contextvars.copy_context()
        call = self._executor.submit(ctx.run, fn)
        try:
            return await asyncio.wait_for(asyncio.wrap_future(call), timeout=timeout)
        except asyncio.TimeoutError:
            if slot is not None:
                slot.hand_off(call)
            raise _HttpError(
                503,
                "timeout",
                f"request exceeded the {timeout:g}s execution budget",
                retry_after=self.gate.retry_after,
            ) from None

    @staticmethod
    def _trace_headers(log: RequestLog) -> List[Tuple[bytes, bytes]]:
        if log.trace_id is None:
            return []
        return [(b"x-trace-id", log.trace_id.encode("ascii"))]

    async def _send_json(self, send: Send, payload: Any, log: RequestLog) -> None:
        await self._send_body(send, _dumps(payload), log)

    async def _send_body(
        self,
        send: Send,
        body: bytes,
        log: RequestLog,
        content: List[Tuple[bytes, bytes]] = _JSON_CONTENT,
    ) -> None:
        log.status = 200
        await send(
            {
                "type": "http.response.start",
                "status": 200,
                "headers": content
                + [(b"content-length", str(len(body)).encode())]
                + self._trace_headers(log),
            }
        )
        await send({"type": "http.response.body", "body": body})

    async def _send_error(self, send: Send, error: _HttpError, log: RequestLog) -> None:
        if log.status is not None:
            # The response already started (mid-stream failure): the
            # stream protocol has its own in-band error line; nothing
            # more can be sent on this exchange.
            return
        body = _error_body(error)
        headers = (
            _JSON_CONTENT
            + [(b"content-length", str(len(body)).encode())]
            + self._trace_headers(log)
        )
        if error.retry_after is not None:
            headers.append((b"retry-after", str(error.retry_after).encode()))
        if error.allow is not None:
            headers.append((b"allow", error.allow.encode()))
        log.status = error.status
        log.error_code = error.code
        await send({"type": "http.response.start", "status": error.status, "headers": headers})
        await send({"type": "http.response.body", "body": body})

    @staticmethod
    def _validation_error(error: RequestValidationError) -> _HttpError:
        return _HttpError(
            422,
            "validation_error",
            "request failed schema validation",
            details=[issue.to_wire() for issue in error.issues],
        )

    @staticmethod
    def _query_error(error: TopologyError) -> _HttpError:
        if isinstance(error, ShardUnavailableError):
            # A shard backend died or missed its reply deadline: the
            # request was fine, the serving set is degraded.  Client
            # contract: 503 + Retry-After, with the shard named so
            # operators can see *which* worker to look at.
            return _HttpError(
                503,
                "shard_unavailable",
                str(error),
                details=[
                    {"field": "shard", "message": str(error.shard_index)}
                ],
                retry_after=error.retry_after,
            )
        return _HttpError(422, "unsupported_query", str(error))

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    async def _handle_healthz(
        self, scope: Scope, receive: Receive, send: Send, log: RequestLog
    ) -> None:
        generation = self.server.generation
        log.generation = generation
        await self._send_json(send, {"status": "ok", "generation": generation}, log)

    def _stats_payload(self) -> Dict[str, Any]:
        """The ``GET /stats`` body, and the part of the ``/metrics``
        payload that is cheap enough for the event loop.

        ONE ServingStats snapshot feeds every server counter in it; a
        second read of the live server mid-traffic could break the
        hits+misses==requests invariant the stress suite asserts.  A
        sharded backend (ShardCoordinator) adds its per-shard sections
        (already in the snapshot) and the routing-skew block; a plain
        TopologyServer has neither."""
        stats = self.server.stats()
        payload = server_stats_to_wire(stats, self.server.latency_stats())
        if stats.shards is not None:
            payload["sharding"] = self.server.skew_report()
        with self._stats_lock:
            payload["http"] = {
                "requests_total": self._requests_total,
                "responses_by_class": dict(self._responses_by_class),
            }
        payload["http"]["admission"] = self.gate.stats()
        return payload

    def _scrape_payload(self) -> Dict[str, Any]:
        """What ``/metrics`` renders (see :mod:`.metricsview`): the
        ``/stats`` payload plus the sections only a scrape pays for —
        the calibrator (behind a coordinator it lives shard-side), the
        tracer, and the shard workers' own sections, which cost a
        cross-process round trip per shard."""
        payload = self._stats_payload()
        if "shards" in payload:
            payload["shard_obs"] = self.server.shard_obs_sections()
        else:
            payload["calibrator"] = self.server.calibration_stats()
        payload["tracer"] = obs_tracer().stats()
        return payload

    async def _handle_stats(
        self, scope: Scope, receive: Receive, send: Send, log: RequestLog
    ) -> None:
        payload = self._stats_payload()
        log.generation = payload["generation"]
        await self._send_json(send, payload, log)

    async def _handle_metrics(
        self, scope: Scope, receive: Receive, send: Send, log: RequestLog
    ) -> None:
        # Off the event loop — the worker scrape blocks on IPC — and
        # with no admission slot: the scrape must answer exactly when
        # the gate is saturated.
        text = await self._run_blocking(
            lambda: obs_registry().render(metrics_families(self._scrape_payload())),
            self.request_timeout,
        )
        await self._send_body(send, text.encode("utf-8"), log, _PROMETHEUS_CONTENT)

    async def _handle_trace(
        self, scope: Scope, receive: Receive, send: Send, log: RequestLog
    ) -> None:
        trace_id = scope["path"][len("/trace/") :]
        tree = obs_tracer().trace_tree(trace_id)
        if tree is None:
            raise _HttpError(404, "not_found", f"no such trace: {trace_id}")
        await self._send_json(send, tree, log)

    async def _handle_traces_recent(
        self, scope: Scope, receive: Receive, send: Send, log: RequestLog
    ) -> None:
        tracer = obs_tracer()
        await self._send_json(
            send,
            {"traces": tracer.recent(), "tracer": tracer.stats()},
            log,
        )

    async def _handle_query(
        self, scope: Scope, receive: Receive, send: Send, log: RequestLog
    ) -> None:
        body = await self._read_body(receive)
        memoize = len(body) <= _QUERY_MEMO_MAX_KEY
        memo = self._query_memo.get(body) if memoize else None
        if memo is None:
            try:
                query, method = parse_query_request(self._parse_json(body))
            except RequestValidationError as error:
                raise self._validation_error(error) from None
        else:
            query, method = memo.query, memo.method
        # A hit is answered here, on the loop: the gate sheds work, not
        # answers already in memory.
        result = self.server.cached(query, method)
        if result is None:
            async with self._admitted(log) as slot:
                try:
                    result = await self._run_blocking(
                        lambda: self.server.query(query, method=method),
                        self.request_timeout,
                        slot,
                    )
                except TopologyError as error:
                    raise self._query_error(error) from None
        # Identity, not generation: a result is immutable once served,
        # so its bytes are reusable exactly while the cache hands back
        # the same object.  A miss, a new generation, or an evicted and
        # re-executed answer is a new object and is encoded afresh.
        if memo is None or memo.result is not result:
            memo = _QueryMemo(query, method, result, self._encode_answer(result))
            if memoize:
                self._query_memo.put(body, memo)
        log.generation = result.generation
        # "trace_id" sorts after every result_to_wire key, so splicing it
        # in last yields exactly json.dumps(..., sort_keys=True).
        tail = b', "trace_id": ' + json.dumps(log.trace_id).encode() + b"}"
        if len(memo.frames) == 1:
            await self._send_body(send, memo.frames[0] + tail, log)
        else:
            await self._stream_query_response(send, memo.frames, tail, log)

    def _encode_answer(self, result: Any) -> Tuple[bytes, ...]:
        """``result``'s ``/query`` body up to, not including, the
        trace-id member and the closing brace — as one frame, or, for a
        scoreless tid list longer than ``stream_chunk_rows``, as the
        frames it is streamed in: the scalar fields opening the
        ``tids`` array, then one frame per chunk of tids, the last one
        closing the array.  Either way the frames concatenate to
        ``_dumps(result_to_wire(result))`` minus its closing brace."""
        wire = result_to_wire(result)
        tids = wire["tids"]
        rows = self.stream_chunk_rows
        if wire["scores"] is not None or len(tids) <= rows:
            return (_dumps(wire)[:-1],)
        del wire["tids"]  # "tids" sorts last: the scalars open the document
        frames = [_dumps(wire)[:-1] + b', "tids": [']
        for start in range(0, len(tids), rows):
            chunk = _dumps(tids[start : start + rows])[1:-1]
            frames.append(b", " + chunk if start else chunk)
        frames[-1] += b"]"
        return tuple(frames)

    async def _stream_query_response(
        self, send: Send, frames: Tuple[bytes, ...], tail: bytes, log: RequestLog
    ) -> None:
        """Large tid lists go out in chunks: the frames from
        :meth:`_encode_answer` (the scalar fields opening the ``tids``
        array, then one frame per chunk of tids), then ``tail``, the
        trace-id member and the closing brace.  The concatenation is
        byte-for-byte the unstreamed document."""
        log.status = 200
        await send(
            {
                "type": "http.response.start",
                "status": 200,
                # no content-length: chunked
                "headers": _JSON_CONTENT + self._trace_headers(log),
            }
        )
        for frame in frames:
            await send({"type": "http.response.body", "body": frame, "more_body": True})
            log.streamed_chunks += 1
        await send({"type": "http.response.body", "body": tail})

    async def _handle_query_many(
        self, scope: Scope, receive: Receive, send: Send, log: RequestLog
    ) -> None:
        body = await self._read_body(receive)
        try:
            queries, method, parallel, mode = parse_query_many_request(
                self._parse_json(body)
            )
        except RequestValidationError as error:
            raise self._validation_error(error) from None
        slice_rows = self.stream_chunk_rows
        async with self._admitted(log) as slot:
            # The first slice runs BEFORE the response starts: a store
            # that cannot answer these queries (unbuilt pair, wrong l)
            # must surface as a real 422, not a broken stream.
            first = queries[:slice_rows]
            try:
                first_results = await self._run_blocking(
                    lambda: self.server.query_many(
                        first, method=method, parallel=parallel, mode=mode
                    ),
                    self.request_timeout,
                    slot,
                )
            except TopologyError as error:
                raise self._query_error(error) from None
            log.status = 200
            await send(
                {
                    "type": "http.response.start",
                    "status": 200,
                    "headers": _NDJSON_CONTENT + self._trace_headers(log),
                }
            )
            count = 0
            generations = set()
            failed: Optional[Dict[str, Any]] = None
            results = first_results
            start = 0
            while True:
                lines = []
                for offset, result in enumerate(results):
                    line = result_to_wire(result)
                    line["index"] = start + offset
                    generations.add(result.generation)
                    lines.append(_dumps(line))
                    count += 1
                if lines:
                    await send(
                        {
                            "type": "http.response.body",
                            "body": b"\n".join(lines) + b"\n",
                            "more_body": True,
                        }
                    )
                    log.streamed_chunks += 1
                start += len(results)
                if start >= len(queries):
                    break
                chunk = queries[start : start + slice_rows]
                try:
                    results = await self._run_blocking(
                        lambda c=chunk: self.server.query_many(
                            c, method=method, parallel=parallel, mode=mode
                        ),
                        self.request_timeout,
                        slot,
                    )
                except (_HttpError, TopologyError) as error:
                    # Mid-stream failure: the status line is gone, so
                    # the error travels in-band as the summary line.
                    if isinstance(error, _HttpError):
                        code, message = error.code, error.message
                    else:
                        mapped = self._query_error(error)
                        code, message = mapped.code, mapped.message
                    failed = {"code": code, "message": message}
                    log.error_code = code
                    break
            summary: Dict[str, Any] = {
                "done": failed is None,
                "count": count,
                "generations": sorted(g for g in generations if g is not None),
            }
            if failed is not None:
                summary["error"] = failed
            log.generation = max(
                (g for g in generations if g is not None), default=None
            )
            await send(
                {
                    "type": "http.response.body",
                    "body": _dumps(summary) + b"\n",
                }
            )

    async def _handle_explain(
        self, scope: Scope, receive: Receive, send: Send, log: RequestLog
    ) -> None:
        body = await self._read_body(receive)
        try:
            query, method = parse_query_request(self._parse_json(body))
        except RequestValidationError as error:
            raise self._validation_error(error) from None
        async with self._admitted(log) as slot:
            try:
                plan = await self._run_blocking(
                    lambda: self.server.explain(query, method=method),
                    self.request_timeout,
                    slot,
                )
            except TopologyError as error:
                raise self._query_error(error) from None
        generation = self.server.generation
        log.generation = generation
        wire = plan_to_wire(plan, query)
        wire["generation"] = generation
        await self._send_json(send, wire, log)

    async def _handle_rebuild(
        self, scope: Scope, receive: Receive, send: Send, log: RequestLog
    ) -> None:
        body = await self._read_body(receive)
        try:
            kwargs = parse_rebuild_request(self._parse_json(body, required=False))
        except RequestValidationError as error:
            raise self._validation_error(error) from None
        if not self._rebuild_lock.acquire(blocking=False):
            raise _HttpError(
                503,
                "rebuild_in_progress",
                "another rebuild is already running",
                retry_after=max(1, round(self.rebuild_timeout / 10)),
            )
        try:
            previous = self.server.generation
            try:
                report = await self._run_blocking(
                    lambda: self.server.rebuild(**kwargs), self.rebuild_timeout
                )
            except TopologyError as error:
                raise self._query_error(error) from None
        finally:
            self._rebuild_lock.release()
        generation = self.server.generation
        log.generation = generation
        await self._send_json(
            send,
            {
                "generation": generation,
                "previous_generation": previous,
                "elapsed_seconds": report.elapsed_seconds,
            },
            log,
        )

    # ------------------------------------------------------------------
    def _admitted(self, log: RequestLog) -> "_Admission":
        """Admission context that records queue wait into the log."""
        return _Admission(self.gate, log)


class _Admission:
    """One admission slot, taken on ``__aenter__`` and released on exit
    — or, once handed to a call that outlived its request, when that
    call finishes; the queue wait lands in the request log."""

    __slots__ = ("_gate", "_log", "_handed_off")

    def __init__(self, gate: AdmissionGate, log: RequestLog) -> None:
        self._gate = gate
        self._log = log
        self._handed_off = False

    def hand_off(self, call: "Future[Any]") -> None:
        """``call`` keeps the slot until it is done (or is cancelled
        before it ever started); ``release`` is thread-safe."""
        self._handed_off = True
        call.add_done_callback(lambda _: self._gate.release())

    async def __aenter__(self) -> "_Admission":
        start = time.perf_counter()
        await self._gate.acquire()
        self._log.queue_seconds = time.perf_counter() - start
        return self

    async def __aexit__(self, *exc: Any) -> None:
        if not self._handed_off:
            self._gate.release()


def create_app(server: Any, **kwargs: Any) -> TopologyHttpApp:
    """Build the ASGI app over a built/restored ``TopologyServer``."""
    return TopologyHttpApp(server, **kwargs)

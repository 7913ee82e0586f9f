"""Trace context and spans.

One :class:`Tracer` per process holds the current :class:`TraceContext`
in a ``contextvars.ContextVar`` (so it follows the request across
``await`` points and, when explicitly copied, into worker threads) and a
bounded ring buffer of finished spans keyed by trace id.

The design mirrors distributed tracers: a trace is *started* at an
ingress span (``ingress=True``); interior spans attach to whatever
context is active and are no-ops otherwise, so library code can
instrument unconditionally without forcing tracing on callers.  Crossing
a process boundary is explicit: the parent serializes the active context
with :func:`current_wire`, the worker installs it with
:meth:`Tracer.adopt`, records spans locally, then drains them with
:meth:`Tracer.take` and ships them back in the reply for the parent's
:meth:`Tracer.ingest`.

Everything is stdlib; disabled tracing costs one attribute read and one
``ContextVar.get`` per ``span()`` entry.
"""

from __future__ import annotations

import os
import random
import threading
import time
from collections import OrderedDict, deque
from contextvars import ContextVar, Token
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple, Union

__all__ = [
    "NOOP_SPAN",
    "SpanRecord",
    "TraceContext",
    "Tracer",
    "current_trace",
    "current_wire",
    "span",
    "tracer",
]

_TRACE_ID_BYTES = 8
_SPAN_ID_BYTES = 4

TRACING_ENV = "REPRO_TRACING"


# IDs come from an in-process PRNG, not os.urandom: urandom is a
# syscall that releases the GIL, and a GIL hand-off in the middle of
# every request costs far more than the span itself under thread
# concurrency.  random.Random.getrandbits is a single C call (atomic
# under the GIL, so the shared instance is thread-safe).  Forked
# children re-seed — the copied PRNG state would otherwise mint
# duplicate span ids and corrupt trace trees.
_rng = random.Random(os.urandom(16))

if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=lambda: _rng.seed(os.urandom(16)))


def _new_span_id() -> str:
    return "%08x" % _rng.getrandbits(8 * _SPAN_ID_BYTES)


def _new_ingress_ids() -> Tuple[str, str]:
    """(trace_id, span_id) from a single PRNG draw — the ingress span
    is on every request's critical path."""
    raw = _rng.getrandbits(8 * (_TRACE_ID_BYTES + _SPAN_ID_BYTES))
    return "%016x" % (raw >> 32), "%08x" % (raw & 0xFFFFFFFF)


class TraceContext(NamedTuple):
    """The (trace, active span) pair propagated through a request.

    A ``NamedTuple`` rather than a dataclass: one is built per span on
    the hot path, and tuple construction is several times cheaper."""

    trace_id: str
    span_id: str

    def to_wire(self) -> Dict[str, str]:
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @classmethod
    def from_wire(cls, wire: Any) -> Optional["TraceContext"]:
        if not isinstance(wire, dict):
            return None
        trace_id = wire.get("trace_id")
        span_id = wire.get("span_id")
        if not isinstance(trace_id, str) or not isinstance(span_id, str):
            return None
        return cls(trace_id=trace_id, span_id=span_id)


class SpanRecord(NamedTuple):
    """A finished span. ``parent_id`` of ``None`` marks a trace root.

    Also a ``NamedTuple`` for cheap construction (one per recorded
    span).  The ``tags`` default is a shared dict — never mutate a
    record's tags in place; span tags are attached via
    :meth:`_ActiveSpan.tag` before the record exists."""

    trace_id: str
    span_id: str
    parent_id: Optional[str]
    name: str
    start_unix: float
    elapsed_seconds: float
    tags: Dict[str, Any] = {}
    error: Optional[str] = None

    def to_wire(self) -> Dict[str, Any]:
        wire: Dict[str, Any] = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_unix": self.start_unix,
            "elapsed_seconds": self.elapsed_seconds,
            "tags": dict(self.tags),
        }
        if self.error is not None:
            wire["error"] = self.error
        return wire

    @classmethod
    def from_wire(cls, wire: Dict[str, Any]) -> "SpanRecord":
        return cls(
            trace_id=wire["trace_id"],
            span_id=wire["span_id"],
            parent_id=wire.get("parent_id"),
            name=wire["name"],
            start_unix=float(wire["start_unix"]),
            elapsed_seconds=float(wire["elapsed_seconds"]),
            tags=dict(wire.get("tags") or {}),
            error=wire.get("error"),
        )


class _NoopSpan:
    """Returned when tracing is off or no trace is active."""

    __slots__ = ()

    trace_id: Optional[str] = None
    span_id: Optional[str] = None
    recording = False

    def tag(self, **tags: Any) -> None:
        pass


NOOP_SPAN = _NoopSpan()


class _SpanCM:
    """Class-based context manager that doubles as the open-span handle
    (``__enter__`` returns ``self`` when recording): cheaper than a
    generator, no separate handle allocation, and the no-op path
    allocates nothing beyond this small object."""

    __slots__ = (
        "_tracer", "_name", "_ingress", "_tags",
        "_ctx", "_parent_id", "_token", "_t0", "_start",
        "trace_id", "span_id",
    )

    recording = True

    def __init__(self, tracer: "Tracer", name: str, ingress: bool, tags: Dict[str, Any]) -> None:
        self._tracer = tracer
        self._name = name
        self._ingress = ingress
        self._tags = tags
        self._ctx: Optional[TraceContext] = None
        self._token: Optional[Token[Optional[TraceContext]]] = None

    def tag(self, **tags: Any) -> None:
        self._tags.update(tags)

    def __enter__(
        self,
        _time: Callable[[], float] = time.time,
        _perf: Callable[[], float] = time.perf_counter,
    ) -> Union["_SpanCM", _NoopSpan]:
        tracer = self._tracer
        if not tracer.enabled:
            return NOOP_SPAN
        parent = tracer._var.get()
        if parent is None:
            if not self._ingress:
                return NOOP_SPAN
            self._parent_id = None
            ctx = TraceContext(*_new_ingress_ids())
        else:
            self._parent_id = parent.span_id
            ctx = TraceContext(parent.trace_id, _new_span_id())
        self._ctx = ctx
        self.trace_id = ctx.trace_id
        self.span_id = ctx.span_id
        self._token = tracer._var.set(ctx)
        self._start = _time()
        self._t0 = _perf()
        return self

    def __exit__(
        self,
        exc_type: Optional[type],
        exc: Optional[BaseException],
        tb: object,
        _perf: Callable[[], float] = time.perf_counter,
    ) -> None:
        ctx = self._ctx
        if ctx is None:
            return
        tracer = self._tracer
        elapsed = _perf() - self._t0
        tracer._var.reset(self._token)
        tracer._pending.append(
            SpanRecord(
                ctx.trace_id,
                ctx.span_id,
                self._parent_id,
                self._name,
                self._start,
                elapsed,
                self._tags,
                None if exc is None else f"{type(exc).__name__}: {exc}",
            )
        )


class _AdoptCM:
    """Install a foreign (cross-process) context for a ``with`` block."""

    __slots__ = ("_tracer", "_ctx", "_token")

    def __init__(self, tracer: "Tracer", ctx: Optional[TraceContext]) -> None:
        self._tracer = tracer
        self._ctx = ctx
        self._token: Optional[Token[Optional[TraceContext]]] = None

    def __enter__(self) -> Optional[TraceContext]:
        if self._ctx is not None:
            self._token = self._tracer._var.set(self._ctx)
        return self._ctx

    def __exit__(
        self,
        exc_type: Optional[type],
        exc: Optional[BaseException],
        tb: object,
    ) -> None:
        if self._token is not None:
            self._tracer._var.reset(self._token)


class Tracer:
    """Span collector with a bounded ring buffer of recent traces."""

    def __init__(
        self,
        enabled: Optional[bool] = None,
        max_traces: int = 256,
        max_spans_per_trace: int = 512,
    ) -> None:
        if enabled is None:
            enabled = os.environ.get(TRACING_ENV, "1") not in ("0", "false", "off")
        self.enabled = bool(enabled)
        self.max_traces = int(max_traces)
        self.max_spans_per_trace = int(max_spans_per_trace)
        self._var: ContextVar[Optional[TraceContext]] = ContextVar(
            "repro_trace", default=None
        )
        self._lock = threading.Lock()
        self._traces: "OrderedDict[str, List[SpanRecord]]" = OrderedDict()
        self._dropped_spans = 0
        self._recorded_spans = 0
        # Finished spans land here first: ``deque.append`` is atomic
        # under the GIL, so the record path never touches ``_lock`` —
        # a contended lock on the request path costs a futex round-trip
        # per span, which dwarfs the span itself.  Readers drain the
        # deque into ``_traces`` (see :meth:`_drain`).  ``maxlen``
        # bounds memory when nothing ever reads; overflow rotates out
        # the oldest spans, which is the ring's eviction policy anyway.
        self._pending: "deque[SpanRecord]" = deque(
            maxlen=max(1024, self.max_traces * 16)
        )

    # -- context -----------------------------------------------------

    def current(self) -> Optional[TraceContext]:
        return self._var.get()

    def current_wire(self) -> Optional[Dict[str, str]]:
        ctx = self._var.get()
        return ctx.to_wire() if (self.enabled and ctx is not None) else None

    def span(self, name: str, ingress: bool = False, **tags: Any) -> _SpanCM:
        return _SpanCM(self, name, ingress, tags)

    def adopt(self, wire: Any) -> _AdoptCM:
        """Context manager installing a context received over the wire.

        ``wire`` of ``None`` (or malformed) yields no context — interior
        spans then no-op, which is exactly the untraced-caller case.
        """
        ctx = TraceContext.from_wire(wire) if self.enabled else None
        return _AdoptCM(self, ctx)

    # -- recording ---------------------------------------------------

    def _record(self, record: SpanRecord) -> None:
        self._pending.append(record)

    def _drain(self) -> None:
        """Move the spans pending at the call into the trace ring.
        Caller holds ``_lock``.  Spans recorded meanwhile wait for the
        next drain: threads that record without pause would otherwise
        keep the loop, and its caller, running for as long as they do."""
        pending = self._pending
        traces = self._traces
        for _ in range(len(pending)):
            try:
                record = pending.popleft()
            except IndexError:
                return
            spans = traces.get(record.trace_id)
            if spans is None:
                while len(traces) >= self.max_traces:
                    traces.popitem(last=False)
                spans = []
                traces[record.trace_id] = spans
            if len(spans) >= self.max_spans_per_trace:
                self._dropped_spans += 1
                continue
            spans.append(record)
            self._recorded_spans += 1

    def ingest(self, spans_wire: Any) -> int:
        """Merge spans shipped back from another process. Returns count."""
        if not self.enabled or not spans_wire:
            return 0
        count = 0
        for wire in spans_wire:
            try:
                record = SpanRecord.from_wire(wire)
            except (KeyError, TypeError, ValueError):
                continue
            self._record(record)
            count += 1
        return count

    def take(self, trace_id: Optional[str]) -> List[Dict[str, Any]]:
        """Drain a trace's spans as wire dicts (worker → parent shipping)."""
        if trace_id is None:
            return []
        with self._lock:
            self._drain()
            spans = self._traces.pop(trace_id, None)
        return [s.to_wire() for s in spans] if spans else []

    # -- reading -----------------------------------------------------

    def trace_spans(self, trace_id: str) -> List[SpanRecord]:
        with self._lock:
            self._drain()
            spans = self._traces.get(trace_id)
            return list(spans) if spans else []

    def trace_tree(self, trace_id: str) -> Optional[Dict[str, Any]]:
        """Span tree for one trace: roots with nested ``children``."""
        spans = self.trace_spans(trace_id)
        if not spans:
            return None
        nodes: Dict[str, Dict[str, Any]] = {}
        for record in spans:
            node = record.to_wire()
            node["children"] = []
            nodes[record.span_id] = node
        roots: List[Dict[str, Any]] = []
        for record in sorted(spans, key=lambda s: s.start_unix):
            node = nodes[record.span_id]
            parent = nodes.get(record.parent_id) if record.parent_id else None
            if parent is not None and parent is not node:
                parent["children"].append(node)
            else:
                roots.append(node)
        start = min(s.start_unix for s in spans)
        end = max(s.start_unix + s.elapsed_seconds for s in spans)
        return {
            "trace_id": trace_id,
            "span_count": len(spans),
            "elapsed_seconds": end - start,
            "spans": roots,
        }

    def recent(self, limit: int = 50) -> List[Dict[str, Any]]:
        """Newest-first summaries of buffered traces."""
        with self._lock:
            self._drain()
            items: List[Tuple[str, List[SpanRecord]]] = [
                (tid, list(spans)) for tid, spans in self._traces.items()
            ]
        summaries = []
        for trace_id, spans in reversed(items[-limit:] if limit else items):
            if not spans:
                continue
            root = next((s for s in spans if s.parent_id is None), spans[0])
            start = min(s.start_unix for s in spans)
            end = max(s.start_unix + s.elapsed_seconds for s in spans)
            summaries.append(
                {
                    "trace_id": trace_id,
                    "root": root.name,
                    "span_count": len(spans),
                    "start_unix": start,
                    "elapsed_seconds": end - start,
                }
            )
        return summaries

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            self._drain()
            return {
                "enabled": self.enabled,
                "traces": len(self._traces),
                "spans_recorded": self._recorded_spans,
                "spans_dropped": self._dropped_spans,
            }

    def reset(self) -> None:
        with self._lock:
            self._pending.clear()
            self._traces.clear()
            self._dropped_spans = 0
            self._recorded_spans = 0


_TRACER = Tracer()


def tracer() -> Tracer:
    """The process-wide tracer."""
    return _TRACER


def span(name: str, ingress: bool = False, **tags: Any) -> _SpanCM:
    """Open a span on the process tracer (see :meth:`Tracer.span`)."""
    return _SpanCM(_TRACER, name, ingress, tags)


def current_trace() -> Optional[TraceContext]:
    return _TRACER.current()


def current_wire() -> Optional[Dict[str, str]]:
    return _TRACER.current_wire()

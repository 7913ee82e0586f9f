"""Slow-query log: one structured record per over-threshold query.

Each record joins against traces (trace_id), request logs (same id), and
the plan layer (chosen plan + calibrator version), so a mispicked plan
is diagnosable from logs alone.  Records are JSON on the
``repro.slowquery`` logger and kept in a small ring for tests and
debugging endpoints.
"""

from __future__ import annotations

import json
import logging
import os
import threading
from collections import deque
from typing import Any, Deque, Dict, Iterable, List, Optional

__all__ = [
    "SLOW_QUERY_LOGGER",
    "SlowQueryLog",
    "default_slow_query_seconds",
    "query_summary",
]


def query_summary(query: Any) -> Dict[str, Any]:
    """Structured summary of a ``TopologyQuery`` for slow-query records
    (duck-typed so this package stays import-free of the core)."""
    return {
        "entity1": getattr(query, "entity1", None),
        "entity2": getattr(query, "entity2", None),
        "max_length": getattr(query, "max_length", None),
        "k": getattr(query, "k", None),
        "ranking": getattr(query, "ranking", None),
    }

SLOW_QUERY_LOGGER = "repro.slowquery"

THRESHOLD_ENV = "REPRO_SLOW_QUERY_SECONDS"

_DEFAULT_THRESHOLD_SECONDS = 1.0


def default_slow_query_seconds() -> float:
    """Threshold from ``REPRO_SLOW_QUERY_SECONDS`` (seconds), default 1.0."""
    raw = os.environ.get(THRESHOLD_ENV)
    if raw is None:
        return _DEFAULT_THRESHOLD_SECONDS
    try:
        value = float(raw)
    except ValueError:
        return _DEFAULT_THRESHOLD_SECONDS
    return value if value >= 0 else _DEFAULT_THRESHOLD_SECONDS


class SlowQueryLog:
    """Emit one structured record per query slower than the threshold."""

    def __init__(
        self,
        threshold_seconds: Optional[float] = None,
        source: str = "server",
        keep: int = 64,
        logger: Optional[logging.Logger] = None,
    ) -> None:
        if threshold_seconds is None:
            threshold_seconds = default_slow_query_seconds()
        self.threshold_seconds = float(threshold_seconds)
        self.source = source
        self._logger = logger or logging.getLogger(SLOW_QUERY_LOGGER)
        self._lock = threading.Lock()
        self._recent: Deque[Dict[str, Any]] = deque(maxlen=keep)
        self._emitted = 0

    def maybe_record(
        self,
        *,
        elapsed_seconds: float,
        method: str,
        query: Dict[str, Any],
        generation: Any,
        trace_id: Optional[str] = None,
        plan: Optional[Dict[str, Any]] = None,
        calibrator_version: Optional[int] = None,
        spans: Optional[Iterable[Any]] = None,
        work: Optional[Dict[str, int]] = None,
    ) -> Optional[Dict[str, Any]]:
        """Record if over threshold; returns the record or ``None``."""
        if elapsed_seconds < self.threshold_seconds:
            return None
        breakdown: List[Dict[str, Any]] = []
        if spans:
            for span in spans:
                wire = span.to_wire() if hasattr(span, "to_wire") else dict(span)
                breakdown.append(
                    {
                        "name": wire.get("name"),
                        "span_id": wire.get("span_id"),
                        "parent_id": wire.get("parent_id"),
                        "elapsed_seconds": wire.get("elapsed_seconds"),
                    }
                )
        record: Dict[str, Any] = {
            "event": "slow_query",
            "source": self.source,
            "trace_id": trace_id,
            "method": method,
            "query": dict(query),
            "elapsed_seconds": elapsed_seconds,
            "threshold_seconds": self.threshold_seconds,
            "plan": dict(plan) if plan else None,
            "work": dict(work) if work else None,
            "calibrator_version": calibrator_version,
            "generation": generation,
            "spans": breakdown,
        }
        with self._lock:
            self._recent.append(record)
            self._emitted += 1
        self._logger.warning(json.dumps(record, sort_keys=True, default=str))
        return record

    def recent(self) -> List[Dict[str, Any]]:
        with self._lock:
            return list(self._recent)

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "threshold_seconds": self.threshold_seconds,
                "emitted": self._emitted,
            }

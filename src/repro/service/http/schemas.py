"""Wire schemas for the HTTP serving layer: validation + serialization.

The request side turns untrusted JSON into the engine's typed objects
(:class:`~repro.core.query.TopologyQuery` and friends) or into a
:class:`RequestValidationError` carrying *every* problem found, each
tagged with the JSON-path of the offending field — the structured 422
body the contract tests pin.  Validation is strict: unknown fields are
rejected (a typo like ``"raking"`` must fail loudly, not silently fall
back to a default), every bound is checked here so the engine below
only ever sees well-formed queries, and nesting depth is capped so a
hostile payload cannot recurse the parser to death.

The response side is the inverse: plain-dict projections of
:class:`~repro.core.methods.base.MethodResult`,
:class:`~repro.core.plan.QueryPlan` and the server counter snapshots,
containing only JSON-native types.  Everything the contract tests pin
lives here, in one place, so the wire format cannot drift per-endpoint.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.cache import CacheStats
from repro.core.methods import METHOD_CLASSES
from repro.core.plan import QueryPlan
from repro.core.query import (
    AttributeConstraint,
    ConjunctionConstraint,
    Constraint,
    KeywordConstraint,
    NoConstraint,
    TopologyQuery,
)
from repro.core.ranking import RANKING_SCHEMES
from repro.relational.sql import StatementCacheStats

__all__ = [
    "MAX_BATCH",
    "MAX_K",
    "MAX_LENGTH_BOUND",
    "MAX_PARALLEL",
    "RequestValidationError",
    "ValidationIssue",
    "constraint_to_wire",
    "error_to_wire",
    "parse_query_many_request",
    "parse_query_request",
    "parse_rebuild_request",
    "plan_to_wire",
    "result_to_wire",
    "server_stats_to_wire",
]

# Hard bounds on request parameters.  They are generous for real use
# and exist so out-of-range values die at the door with a field-tagged
# 422 instead of as an arbitrary engine failure (or a giant top-k sort).
MAX_K = 10_000
MAX_LENGTH_BOUND = 8
MAX_BATCH = 1_024
MAX_PARALLEL = 64
MAX_CONSTRAINT_DEPTH = 8
_COMPARISON_OPS = ("=", "!=", "<", "<=", ">", ">=")


class ValidationIssue:
    """One problem with one field: ``field`` is a JSON-path-ish locator
    (``"constraint1.parts[2].column"``), ``message`` says what is wrong."""

    __slots__ = ("field", "message")

    def __init__(self, field: str, message: str) -> None:
        self.field = field
        self.message = message

    def to_wire(self) -> Dict[str, str]:
        return {"field": self.field, "message": self.message}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ValidationIssue({self.field!r}, {self.message!r})"


class RequestValidationError(Exception):
    """The request body failed schema validation (HTTP 422).

    Carries every issue found, not just the first — a client fixing a
    request should not have to replay it once per mistake."""

    def __init__(self, issues: List[ValidationIssue]) -> None:
        self.issues = issues
        super().__init__("; ".join(f"{i.field}: {i.message}" for i in issues))


class _Issues:
    """Accumulator so one pass reports every problem."""

    def __init__(self) -> None:
        self.items: List[ValidationIssue] = []

    def add(self, field: str, message: str) -> None:
        self.items.append(ValidationIssue(field, message))

    def raise_if_any(self) -> None:
        if self.items:
            raise RequestValidationError(self.items)


def _require_object(payload: Any, field: str, issues: _Issues) -> Optional[dict]:
    if isinstance(payload, dict):
        return payload
    issues.add(field, f"expected a JSON object, got {_type_name(payload)}")
    return None


def _type_name(value: Any) -> str:
    if value is None:
        return "null"
    return {
        bool: "boolean",
        int: "integer",
        float: "number",
        str: "string",
        list: "array",
        dict: "object",
    }.get(type(value), type(value).__name__)


def _check_unknown(payload: dict, allowed: Tuple[str, ...], prefix: str, issues: _Issues) -> None:
    for key in payload:
        if key not in allowed:
            issues.add(
                f"{prefix}{key}" if prefix else str(key),
                f"unknown field (allowed: {', '.join(sorted(allowed))})",
            )


def _parse_str(payload: dict, key: str, prefix: str, issues: _Issues) -> Optional[str]:
    value = payload.get(key)
    if isinstance(value, str) and value.strip():
        return value
    if key not in payload:
        issues.add(f"{prefix}{key}", "required field is missing")
    else:
        issues.add(f"{prefix}{key}", "expected a non-empty string")
    return None


def _parse_bounded_int(
    value: Any, field: str, issues: _Issues, low: int, high: int
) -> Optional[int]:
    # bool is an int subclass; JSON true/false must not pass as 1/0.
    if not isinstance(value, int) or isinstance(value, bool):
        issues.add(field, f"expected an integer, got {_type_name(value)}")
        return None
    if not (low <= value <= high):
        issues.add(field, f"must be between {low} and {high}, got {value}")
        return None
    return value


# ----------------------------------------------------------------------
# Constraints
# ----------------------------------------------------------------------
def parse_constraint(
    payload: Any, field: str, issues: _Issues, depth: int = 0
) -> Constraint:
    """One wire constraint -> engine :class:`Constraint`.

    Wire forms (discriminated on ``kind``)::

        {"kind": "none"}
        {"kind": "keyword", "column": "DESC", "keyword": "kinase"}
        {"kind": "attribute", "column": "TYPE", "value": "mRNA", "op": "="}
        {"kind": "and", "parts": [<constraint>, ...]}

    A missing constraint (handled by the callers) means ``none``."""
    fallback = NoConstraint()
    if depth > MAX_CONSTRAINT_DEPTH:
        issues.add(field, f"constraints nest deeper than {MAX_CONSTRAINT_DEPTH}")
        return fallback
    obj = _require_object(payload, field, issues)
    if obj is None:
        return fallback
    kind = obj.get("kind")
    if not isinstance(kind, str):
        issues.add(f"{field}.kind", "required field is missing or not a string")
        return fallback
    prefix = f"{field}."
    if kind == "none":
        _check_unknown(obj, ("kind",), prefix, issues)
        return fallback
    if kind == "keyword":
        _check_unknown(obj, ("kind", "column", "keyword"), prefix, issues)
        column = _parse_str(obj, "column", prefix, issues)
        keyword = _parse_str(obj, "keyword", prefix, issues)
        if column is None or keyword is None:
            return fallback
        return KeywordConstraint(column, keyword)
    if kind == "attribute":
        _check_unknown(obj, ("kind", "column", "value", "op"), prefix, issues)
        column = _parse_str(obj, "column", prefix, issues)
        op = obj.get("op", "=")
        if op not in _COMPARISON_OPS:
            issues.add(f"{prefix}op", f"must be one of {', '.join(_COMPARISON_OPS)}")
            op = "="
        value = obj.get("value")
        if "value" not in obj:
            issues.add(f"{prefix}value", "required field is missing")
            return fallback
        if not isinstance(value, (str, int, float)) or isinstance(value, bool):
            issues.add(
                f"{prefix}value",
                f"expected a string or number, got {_type_name(value)}",
            )
            return fallback
        if column is None:
            return fallback
        return AttributeConstraint(column, value, op)
    if kind == "and":
        _check_unknown(obj, ("kind", "parts"), prefix, issues)
        parts = obj.get("parts")
        if not isinstance(parts, list) or not parts:
            issues.add(f"{prefix}parts", "expected a non-empty array of constraints")
            return fallback
        parsed = tuple(
            parse_constraint(part, f"{prefix}parts[{i}]", issues, depth + 1)
            for i, part in enumerate(parts)
        )
        return ConjunctionConstraint(parsed)
    issues.add(
        f"{field}.kind",
        f"unknown constraint kind {kind!r} (known: and, attribute, keyword, none)",
    )
    return fallback


def constraint_to_wire(constraint: Constraint) -> Dict[str, Any]:
    """Inverse of :func:`parse_constraint` (used by EXPLAIN echoes and
    round-trip tests)."""
    if isinstance(constraint, KeywordConstraint):
        return {"kind": "keyword", "column": constraint.column, "keyword": constraint.keyword}
    if isinstance(constraint, AttributeConstraint):
        return {
            "kind": "attribute",
            "column": constraint.column,
            "value": constraint.value,
            "op": constraint.op,
        }
    if isinstance(constraint, ConjunctionConstraint):
        return {"kind": "and", "parts": [constraint_to_wire(p) for p in constraint.parts]}
    return {"kind": "none"}


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------
_QUERY_FIELDS = (
    "entity1",
    "entity2",
    "constraint1",
    "constraint2",
    "max_length",
    "k",
    "ranking",
)


def _parse_query_object(
    payload: Any, prefix: str, issues: _Issues, extra_allowed: Tuple[str, ...] = ()
) -> Optional[TopologyQuery]:
    obj = _require_object(payload, prefix.rstrip(".") or "$", issues)
    if obj is None:
        return None
    _check_unknown(obj, _QUERY_FIELDS + extra_allowed, prefix, issues)
    entity1 = _parse_str(obj, "entity1", prefix, issues)
    entity2 = _parse_str(obj, "entity2", prefix, issues)
    constraint1 = (
        parse_constraint(obj["constraint1"], f"{prefix}constraint1", issues)
        if "constraint1" in obj
        else NoConstraint()
    )
    constraint2 = (
        parse_constraint(obj["constraint2"], f"{prefix}constraint2", issues)
        if "constraint2" in obj
        else NoConstraint()
    )
    max_length = 3
    if "max_length" in obj:
        parsed = _parse_bounded_int(
            obj["max_length"], f"{prefix}max_length", issues, 1, MAX_LENGTH_BOUND
        )
        if parsed is not None:
            max_length = parsed
    k: Optional[int] = None
    if "k" in obj and obj["k"] is not None:
        k = _parse_bounded_int(obj["k"], f"{prefix}k", issues, 1, MAX_K)
    ranking = "freq"
    if "ranking" in obj:
        value = obj["ranking"]
        if value not in RANKING_SCHEMES:
            issues.add(
                f"{prefix}ranking",
                f"unknown ranking scheme (known: {', '.join(RANKING_SCHEMES)})",
            )
        else:
            ranking = value
    if issues.items:
        return None
    assert entity1 is not None and entity2 is not None
    return TopologyQuery(
        entity1,
        entity2,
        constraint1,
        constraint2,
        max_length=max_length,
        k=k,
        ranking=ranking,
    )


def _parse_method(obj: dict, prefix: str, issues: _Issues) -> Optional[str]:
    method = obj.get("method")
    if method is None:
        return None
    if not isinstance(method, str) or method.lower() not in METHOD_CLASSES:
        issues.add(
            f"{prefix}method",
            f"unknown method (known: {', '.join(sorted(METHOD_CLASSES))})",
        )
        return None
    return method.lower()


def parse_query_request(payload: Any) -> Tuple[TopologyQuery, Optional[str]]:
    """Body of ``POST /query`` / ``POST /explain`` ->
    ``(query, method or None)``.  Raises :class:`RequestValidationError`
    listing every invalid field."""
    issues = _Issues()
    obj = _require_object(payload, "$", issues)
    issues.raise_if_any()
    assert obj is not None
    method = _parse_method(obj, "", issues)
    query = _parse_query_object(obj, "", issues, extra_allowed=("method",))
    issues.raise_if_any()
    assert query is not None
    return query, method


def parse_query_many_request(
    payload: Any,
) -> Tuple[List[TopologyQuery], Optional[str], int, str]:
    """Body of ``POST /query_many`` ->
    ``(queries, method, parallel, mode)``."""
    issues = _Issues()
    obj = _require_object(payload, "$", issues)
    issues.raise_if_any()
    assert obj is not None
    _check_unknown(obj, ("queries", "method", "parallel", "mode"), "", issues)
    method = _parse_method(obj, "", issues)
    parallel = 1
    if "parallel" in obj:
        parsed = _parse_bounded_int(obj["parallel"], "parallel", issues, 1, MAX_PARALLEL)
        if parsed is not None:
            parallel = parsed
    mode = obj.get("mode", "thread")
    if mode not in ("thread", "process"):
        issues.add("mode", "must be 'thread' or 'process'")
        mode = "thread"
    raw = obj.get("queries")
    queries: List[TopologyQuery] = []
    if not isinstance(raw, list) or not raw:
        issues.add("queries", "expected a non-empty array of query objects")
    elif len(raw) > MAX_BATCH:
        issues.add("queries", f"batch of {len(raw)} exceeds the limit of {MAX_BATCH}")
    else:
        for i, item in enumerate(raw):
            sub = _Issues()
            query = _parse_query_object(item, f"queries[{i}].", sub)
            issues.items.extend(sub.items)
            if query is not None:
                queries.append(query)
    issues.raise_if_any()
    return queries, method, parallel, mode


_REBUILD_FIELDS = ("max_length", "parallel", "per_pair_path_limit")


def parse_rebuild_request(payload: Any) -> Dict[str, Any]:
    """Body of ``POST /rebuild`` -> build kwargs overrides.

    An empty body (or ``{}``) means "rebuild exactly like before" —
    :meth:`~repro.core.engine.TopologySearchSystem.rebuilt` reuses the
    previous build's recorded configuration.  The overridable subset is
    deliberately small: the refresh knobs an operator of an evolving
    database actually turns.  ``parallel`` is validated, then ignored:
    the build is serial, and clients that send a worker count keep
    their contract."""
    issues = _Issues()
    if payload is None:
        return {}
    obj = _require_object(payload, "$", issues)
    issues.raise_if_any()
    assert obj is not None
    _check_unknown(obj, _REBUILD_FIELDS, "", issues)
    kwargs: Dict[str, Any] = {}
    if "max_length" in obj:
        parsed = _parse_bounded_int(obj["max_length"], "max_length", issues, 1, MAX_LENGTH_BOUND)
        if parsed is not None:
            kwargs["max_length"] = parsed
    if "parallel" in obj:
        _parse_bounded_int(obj["parallel"], "parallel", issues, 1, MAX_PARALLEL)
    if "per_pair_path_limit" in obj:
        value = obj["per_pair_path_limit"]
        if value is None:
            kwargs["per_pair_path_limit"] = None
        else:
            parsed = _parse_bounded_int(value, "per_pair_path_limit", issues, 1, 1_000_000)
            if parsed is not None:
                kwargs["per_pair_path_limit"] = parsed
    issues.raise_if_any()
    return kwargs


# ----------------------------------------------------------------------
# Responses
# ----------------------------------------------------------------------
def error_to_wire(
    code: str, message: str, details: Optional[List[Dict[str, str]]] = None
) -> Dict[str, Any]:
    """The one error body shape, for the app's error responses and the
    socket server's ``400`` on a request it cannot frame."""
    return {"error": {"code": code, "message": message, "details": details or []}}


def result_to_wire(result: Any, include_work: bool = False) -> Dict[str, Any]:
    """:class:`MethodResult` -> JSON-native dict (the ``/query`` body)."""
    wire: Dict[str, Any] = {
        "method": result.method,
        "generation": result.generation,
        "count": len(result.tids),
        "tids": list(result.tids),
        "scores": list(result.scores) if result.scores is not None else None,
        "elapsed_seconds": result.elapsed_seconds,
        "planning_seconds": result.planning_seconds,
        "plan_choice": result.plan_choice,
    }
    if include_work:
        wire["work"] = dict(result.work)
    return wire


def plan_to_wire(plan: QueryPlan, query: Optional[TopologyQuery] = None) -> Dict[str, Any]:
    """:class:`QueryPlan` -> JSON-native dict (the ``/explain`` body)."""
    return {
        "method": plan.method,
        "strategy": plan.strategy,
        "plan_class": plan.plan_class.describe(),
        "pairs_table": plan.pairs_table,
        "alternatives": [
            {
                "strategy": alt.strategy,
                "estimated_cost": alt.estimated_cost,
                "calibration_factor": alt.calibration_factor,
                "calibrated_cost": alt.calibrated_cost,
                "chosen": alt.strategy == plan.strategy,
            }
            for alt in plan.alternatives
        ],
        "display": plan.display(query),
    }


def _cache_stats_to_wire(stats: CacheStats) -> Dict[str, Any]:
    return {
        "hits": stats.hits,
        "misses": stats.misses,
        "requests": stats.requests,
        "hit_rate": stats.hit_rate,
        "size": stats.size,
        "capacity": stats.capacity,
    }


def _plan_cache_stats_to_wire(stats: CacheStats) -> Dict[str, Any]:
    return {**_cache_stats_to_wire(stats), "invalidations": stats.invalidations}


def _statement_cache_stats_to_wire(stats: StatementCacheStats) -> Dict[str, Any]:
    return {
        "hits": stats.hits,
        "misses": stats.misses,
        "texts": stats.texts,
        "classes": stats.classes,
        "size": stats.size,
    }


def server_stats_to_wire(stats: Any, latency: Dict[str, Dict[str, float]]) -> Dict[str, Any]:
    """One :class:`~repro.service.core.ServingStats` snapshot (plus the
    latency snapshots) -> the ``GET /stats`` body.

    Every counter in the payload is derived from the *single*
    ``ServingStats`` value the caller captured, never from a second read
    of the live server — that is what keeps ``hits + misses ==
    requests`` exact in the face of concurrent traffic (the stress suite
    polls this endpoint mid-hammer and asserts the invariants on every
    payload it sees).  A coordinator's snapshot also carries its
    per-shard sections and process age; a plain server's has neither,
    and the keys are then absent (not null)."""
    wire = {
        "generation": stats.generation,
        "requests": stats.requests,
        "executions": stats.executions,
        "coalesced": stats.coalesced,
        "failures": stats.failures,
        "rebuilds": stats.rebuilds,
        "restores": stats.restores,
        "in_flight": stats.in_flight,
        "result_cache": _cache_stats_to_wire(stats.result_cache),
        "plan_cache": _plan_cache_stats_to_wire(stats.plan_cache),
        "statement_cache": _statement_cache_stats_to_wire(stats.statement_cache),
        "latency": latency,
    }
    if stats.shards is not None:
        wire["shards"] = stats.shards
        wire["uptime_seconds"] = stats.uptime_seconds
        wire["started_generation"] = stats.started_generation
    return wire

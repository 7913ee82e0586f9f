"""The rule catalog.  Every rule encodes a shipped-and-fixed bug or a
standing contract of this codebase; ``docs/STATIC_ANALYSIS.md`` tells
each rule's story.  Rules work on the stdlib ``ast`` only.

Conventions shared by the rules:

* a "lock-ish" expression is ``self._lock`` / ``self._flight_lock`` /
  any attribute whose name ends in ``lock`` (plus ``_cond`` /
  ``_mutex`` for the torn-snapshot rule), or a ``read_locked()`` /
  ``write_locked()`` lease call;
* findings are anchored to the line of the offending node, which is
  where a suppression comment must sit.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence

__all__ = ["ALL_RULES", "Rule"]


class _Finding(NamedTuple):
    """Structural twin of :class:`tools.relint.engine.Violation` — the
    engine imports this module, so rules type against this shape and
    :func:`_make` builds the real Violation lazily."""

    path: str
    line: int
    col: int
    rule_id: str
    rule_name: str
    message: str


def _make(rule: "Rule", node: ast.AST, message: str) -> "_Finding":
    from tools.relint.engine import Violation

    return Violation(
        "", getattr(node, "lineno", 0), getattr(node, "col_offset", 0),
        rule.rule_id, rule.name, message,
    )


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _call_name(call: ast.Call) -> Optional[str]:
    return _dotted(call.func)


def _final_segment(name: Optional[str]) -> str:
    return name.rsplit(".", 1)[-1] if name else ""


def _functions(tree: ast.AST) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _direct_body(func: ast.AST) -> Iterator[ast.AST]:
    """Walk a function's body without descending into nested defs."""
    stack: List[ast.AST] = list(getattr(func, "body", []))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


class Rule:
    """Base class: subclasses set ``rule_id``/``name``/``summary`` and
    implement :meth:`check`."""

    rule_id = ""
    name = ""
    summary = ""

    def check(
        self, tree: ast.AST, path: str, source: str
    ) -> Iterator["_Finding"]:  # pragma: no cover - abstract
        raise NotImplementedError
        yield


# ----------------------------------------------------------------------
# R1: SQL built by interpolation must quote its values
# ----------------------------------------------------------------------
_SQL_KEYWORD_RE = re.compile(
    r"\b(SELECT|INSERT|UPDATE|DELETE|WHERE|FROM|JOIN|VALUES|CONTAINS|"
    r"GROUP BY|ORDER BY)\b",
    re.IGNORECASE,
)


def _joined_literal_text(node: ast.JoinedStr) -> str:
    return "".join(
        part.value
        for part in node.values
        if isinstance(part, ast.Constant) and isinstance(part.value, str)
    )


class SqlInterpolationRule(Rule):
    rule_id = "R1"
    name = "sql-interpolation"
    summary = (
        "raw value interpolation into SQL text: route values through "
        "sql_quote() (PR 3's _entity_pair_filter injection)"
    )

    def check(self, tree: ast.AST, path: str, source: str) -> Iterator["_Finding"]:
        for node in ast.walk(tree):
            if isinstance(node, ast.JoinedStr):
                yield from self._check_fstring(node)
            elif isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.Add, ast.Mod)
            ):
                yield from self._check_concat(node)
            elif isinstance(node, ast.Call):
                yield from self._check_format(node)

    def _check_fstring(self, node: ast.JoinedStr) -> Iterator["_Finding"]:
        literal = _joined_literal_text(node)
        if not _SQL_KEYWORD_RE.search(literal):
            return
        previous_text = ""
        for part in node.values:
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                previous_text = part.value
                continue
            if not isinstance(part, ast.FormattedValue):
                continue
            # `... = '{value}'` — a value quoted by hand instead of by
            # sql_quote(); apostrophes in the value break out of the
            # literal.
            if previous_text.rstrip().endswith("'"):
                yield _make(
                    self, part.value,
                    "hand-quoted SQL value interpolation ('...{x}...'): "
                    "use sql_quote(x) and drop the quotes",
                )
            previous_text = ""

    def _check_concat(self, node: ast.BinOp) -> Iterator["_Finding"]:
        for side in (node.left, node.right):
            if (
                isinstance(side, ast.Constant)
                and isinstance(side.value, str)
                and _SQL_KEYWORD_RE.search(side.value)
            ):
                op = "%" if isinstance(node.op, ast.Mod) else "+"
                yield _make(
                    self, node,
                    f"SQL text built with '{op}': build it as an f-string "
                    "with sql_quote()d arguments instead",
                )
                return

    def _check_format(self, node: ast.Call) -> Iterator["_Finding"]:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "format"
            and isinstance(func.value, ast.Constant)
            and isinstance(func.value.value, str)
            and _SQL_KEYWORD_RE.search(func.value.value)
        ):
            yield _make(
                self, node,
                "SQL text built with str.format(): use an f-string with "
                "sql_quote()d values instead",
            )


# ----------------------------------------------------------------------
# R2: one returned value must come from one lock acquisition
# ----------------------------------------------------------------------
_LOCKISH_ATTR_RE = re.compile(r"(lock|mutex|cond)$")
_LEASE_CALLS = {"read_locked", "write_locked"}


def _lock_key(ctx: ast.AST) -> Optional[str]:
    """A stable key naming the lock an expression acquires, if any."""
    if isinstance(ctx, ast.Call):
        name = _call_name(ctx)
        if name and _final_segment(name) in _LEASE_CALLS:
            return name
        return None
    name = _dotted(ctx)
    if name and _LOCKISH_ATTR_RE.search(_final_segment(name)):
        return name
    return None


class TornSnapshotRule(Rule):
    rule_id = "R2"
    name = "torn-snapshot"
    summary = (
        "a method acquiring the same lock more than once to produce one "
        "returned value can return a torn composite (PR 6's /stats bug)"
    )

    def check(self, tree: ast.AST, path: str, source: str) -> Iterator["_Finding"]:
        for func in _functions(tree):
            acquisitions: Dict[str, List[ast.AST]] = {}
            returns_value = False
            for node in _direct_body(func):
                if isinstance(node, (ast.With, ast.AsyncWith)):
                    for item in node.items:
                        key = _lock_key(item.context_expr)
                        if key is not None:
                            acquisitions.setdefault(key, []).append(node)
                elif isinstance(node, ast.Return) and node.value is not None:
                    returns_value = True
            if not returns_value:
                continue
            for key, sites in acquisitions.items():
                if len(sites) > 1:
                    sites.sort(key=lambda node: node.lineno)
                    yield _make(
                        self, sites[1],
                        f"'{key}' acquired {len(sites)} times in "
                        f"{getattr(func, 'name', '?')}() which returns a value: "
                        "a snapshot assembled across acquisitions can tear — "
                        "read everything under one acquisition",
                    )


# ----------------------------------------------------------------------
# R3: cache.get() results must not be truth-tested
# ----------------------------------------------------------------------
def _is_cache_get(node: ast.AST) -> Optional[str]:
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if not (isinstance(func, ast.Attribute) and func.attr == "get"):
        return None
    receiver = _dotted(func.value)
    if receiver and "cache" in _final_segment(receiver).lower():
        return receiver
    return None


class CacheFalsyHitRule(Rule):
    rule_id = "R3"
    name = "cache-falsy-hit"
    summary = (
        "truthiness test on a cache .get() treats cached falsy values "
        "as misses: compare against the MISSING sentinel (PR 4's LRU bug)"
    )

    def check(self, tree: ast.AST, path: str, source: str) -> Iterator["_Finding"]:
        for node in ast.walk(tree):
            receiver = None
            if isinstance(node, ast.BoolOp) and node.values:
                receiver = _is_cache_get(node.values[0])
                shape = "cache.get(k) or default"
            elif isinstance(node, (ast.If, ast.While)):
                test = node.test
                if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
                    test = test.operand
                receiver = _is_cache_get(test)
                shape = "if cache.get(k)"
            elif isinstance(node, ast.Compare) and len(node.ops) == 1:
                if isinstance(node.ops[0], (ast.Is, ast.IsNot)):
                    left = node.left
                    comparator = node.comparators[0]
                    if (
                        isinstance(comparator, ast.Constant)
                        and comparator.value is None
                        and _is_cache_get(left)
                        and isinstance(left, ast.Call)
                        and not left.args[1:]
                    ):
                        receiver = _is_cache_get(left)
                        shape = "cache.get(k) is None"
            if receiver:
                yield _make(
                    self, node,
                    f"{shape} on '{receiver}': a cached falsy/None value "
                    "would read as a miss — call .get(key, MISSING) and "
                    "compare with 'is MISSING'",
                )


# ----------------------------------------------------------------------
# R4: executor submissions in traced packages must copy context
# ----------------------------------------------------------------------
_EXECUTOR_METHODS = {"submit", "map"}
_EXECUTOR_RECEIVER_RE = re.compile(r"(pool|executor)", re.IGNORECASE)


def _imports_obs(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module and node.module.startswith("repro.obs"):
                return True
        elif isinstance(node, ast.Import):
            if any(alias.name.startswith("repro.obs") for alias in node.names):
                return True
    return False


class ExecutorContextRule(Rule):
    rule_id = "R4"
    name = "executor-no-context"
    summary = (
        "thread-pool submit/map in a tracing module without "
        "contextvars.copy_context(): spans detach from the request trace"
    )

    def check(self, tree: ast.AST, path: str, source: str) -> Iterator["_Finding"]:
        if not _imports_obs(tree):
            return
        for func in _functions(tree):
            copies_context = any(
                isinstance(node, ast.Attribute) and node.attr == "copy_context"
                or isinstance(node, ast.Name) and node.id == "copy_context"
                for node in ast.walk(func)
            )
            if copies_context:
                continue
            for node in _direct_body(func):
                if not isinstance(node, ast.Call):
                    continue
                callee = node.func
                name = _dotted(callee)
                final = _final_segment(name)
                if final == "run_in_executor":
                    yield _make(
                        self, node,
                        "run_in_executor without contextvars.copy_context(): "
                        "the engine call's spans detach from the request trace",
                    )
                    continue
                if final not in _EXECUTOR_METHODS:
                    continue
                if not isinstance(callee, ast.Attribute):
                    continue
                receiver = _dotted(callee.value)
                if receiver and _EXECUTOR_RECEIVER_RE.search(
                    _final_segment(receiver)
                ):
                    yield _make(
                        self, node,
                        f"'{receiver}.{final}(...)' in a tracing module "
                        "without contextvars.copy_context(): work runs with "
                        "an empty context and its spans no longer attach "
                        "to the caller's trace",
                    )


# ----------------------------------------------------------------------
# R5: durations come from perf_counter()/monotonic(), never time.time()
# ----------------------------------------------------------------------
_DURATION_NAME_RE = re.compile(r"^_?(t0|t1|start|started|begin|began|start_time)$")


def _is_time_time_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and _call_name(node) in ("time.time", "time")
        and not node.args
        and not node.keywords
    )


class WallclockDurationRule(Rule):
    rule_id = "R5"
    name = "wallclock-duration"
    summary = (
        "time.time() used to compute a duration: wall clocks step under "
        "NTP — use time.perf_counter() or time.monotonic()"
    )

    def check(self, tree: ast.AST, path: str, source: str) -> Iterator["_Finding"]:
        for node in ast.walk(tree):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub):
                if _is_time_time_call(node.left) or _is_time_time_call(node.right):
                    yield _make(
                        self, node,
                        "duration computed from time.time(): use "
                        "time.perf_counter() (wall clocks step and slew)",
                    )
            elif isinstance(node, ast.Assign) and _is_time_time_call(node.value):
                for target in node.targets:
                    name = _final_segment(_dotted(target))
                    if name and _DURATION_NAME_RE.match(name):
                        yield _make(
                            self, node,
                            f"'{name} = time.time()' looks like a duration "
                            "start mark: use time.perf_counter() "
                            "(time.time() is for wall-clock timestamps only)",
                        )


# ----------------------------------------------------------------------
# R6: no blocking calls while holding a write lease or a _lock
# ----------------------------------------------------------------------
_BLOCKING_PREFIXES = (
    "subprocess.", "shutil.", "tempfile.", "socket.", "requests.", "urllib.",
)
_BLOCKING_EXACT = {
    "time.sleep", "sleep", "open",
    "os.remove", "os.rename", "os.replace", "os.unlink", "os.fsync",
    "os.makedirs",
}
_STRICT_LOCK_RE = re.compile(r"(^lock$|_lock$)")


def _strict_lock_key(ctx: ast.AST) -> Optional[str]:
    """Locks R6 refuses to block under: write leases and ``*_lock``
    attributes (deliberately **not** ``*_mutex`` — the writer mutexes
    exist precisely to serialize heavy work away from the hot locks)."""
    if isinstance(ctx, ast.Call):
        name = _call_name(ctx)
        if name and _final_segment(name) == "write_locked":
            return name
        return None
    name = _dotted(ctx)
    if name and _STRICT_LOCK_RE.search(_final_segment(name)):
        return name
    return None


class BlockingUnderLockRule(Rule):
    rule_id = "R6"
    name = "blocking-under-lock"
    summary = (
        "blocking call (sleep, file/socket I/O, subprocess) while holding "
        "a write lease or a _lock stalls every reader behind it"
    )

    def check(self, tree: ast.AST, path: str, source: str) -> Iterator["_Finding"]:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.With, ast.AsyncWith)):
                continue
            held = [
                _strict_lock_key(item.context_expr)
                for item in node.items
            ]
            held = [key for key in held if key is not None]
            if not held:
                continue
            for inner in ast.walk(node):
                if inner is node or not isinstance(inner, ast.Call):
                    continue
                name = _dotted(inner.func)
                if name is None:
                    continue
                blocking = name in _BLOCKING_EXACT or any(
                    name.startswith(prefix) for prefix in _BLOCKING_PREFIXES
                )
                if blocking:
                    yield _make(
                        self, inner,
                        f"blocking call '{name}(...)' while holding "
                        f"'{held[0]}': every thread queueing on that lock "
                        "stalls for the call's full duration",
                    )


# ----------------------------------------------------------------------
# R7: offline build/merge paths must be deterministic
# ----------------------------------------------------------------------
_R7_PATH_RE = re.compile(r"repro[/\\](parallel|shard)[/\\]")
_UNSEEDED_RANDOM = {
    "random.random", "random.randint", "random.choice", "random.shuffle",
    "random.sample", "random.randrange", "random.getrandbits", "random.uniform",
}
_FS_ORDER = {"os.listdir", "os.scandir", "glob.glob", "glob.iglob"}


class OfflineDeterminismRule(Rule):
    rule_id = "R7"
    name = "offline-determinism"
    summary = (
        "nondeterminism in repro.parallel/repro.shard build or merge "
        "paths: unseeded random, set-order iteration, unsorted directory "
        "listings break state_digest() bit-identity"
    )

    def check(self, tree: ast.AST, path: str, source: str) -> Iterator["_Finding"]:
        if not _R7_PATH_RE.search(path):
            return
        sorted_wrapped = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _final_segment(_dotted(node.func)) == "sorted":
                for arg in ast.walk(node):
                    sorted_wrapped.add(id(arg))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = _dotted(node.func)
            if name in _UNSEEDED_RANDOM:
                yield _make(
                    self, node,
                    f"'{name}()' in an offline build/merge path: seed an "
                    "explicit random.Random(seed) so rebuilds stay "
                    "bit-identical (state_digest contract)",
                )
            elif name in _FS_ORDER and id(node) not in sorted_wrapped:
                yield _make(
                    self, node,
                    f"'{name}()' returns filesystem order, which is not "
                    "deterministic across hosts: wrap it in sorted(...)",
                )
        for node in ast.walk(tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                it = node.iter
                if isinstance(it, ast.Set) or (
                    isinstance(it, ast.Call)
                    and _final_segment(_dotted(it.func)) == "set"
                    and id(it) not in sorted_wrapped
                ):
                    yield _make(
                        self, it,
                        "iterating a set in an offline build/merge path: "
                        "set order is salt-dependent across processes — "
                        "iterate sorted(...) instead",
                    )


# ----------------------------------------------------------------------
# R8: metric and span names are stable dotted-lowercase literals
# ----------------------------------------------------------------------
_METRIC_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)*$")
_METRIC_CALLS = {"counter", "gauge", "histogram"}
_SPAN_CALLS = {"span", "obs_span"}


class MetricNameRule(Rule):
    rule_id = "R8"
    name = "metric-name-literal"
    summary = (
        "metric/span names must be stable dotted-lowercase string "
        "literals: dynamic names explode cardinality and break dashboards"
    )

    def check(self, tree: ast.AST, path: str, source: str) -> Iterator["_Finding"]:
        for node in ast.walk(tree):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                yield from self._check_table(node)
            if not isinstance(node, ast.Call) or not node.args:
                continue
            final = _final_segment(_dotted(node.func))
            is_metric = final in _METRIC_CALLS and isinstance(
                node.func, ast.Attribute
            )
            is_span = final in _SPAN_CALLS
            if not (is_metric or is_span):
                continue
            yield from self._check_name(node.args[0], "metric" if is_metric else "span")

    def _check_table(self, node: ast.AST) -> Iterator["_Finding"]:
        """Rows of a ``*METRIC_TABLE``: literal tuples, each leading
        with its name as a string literal — nothing computed, so the
        exported names can be read (and grepped) off the source."""
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        if not any(
            isinstance(t, ast.Name) and t.id.endswith("METRIC_TABLE") for t in targets
        ) or not isinstance(node.value, (ast.Tuple, ast.List)):
            return
        for row in node.value.elts:
            name = row.elts[0] if isinstance(row, ast.Tuple) and row.elts else None
            if isinstance(name, ast.Constant) and isinstance(name.value, str):
                yield from self._check_name(name, "metric")
            else:
                yield _make(
                    self, name or row,
                    "metric table row does not lead with a string literal: "
                    "names must be stable — put variation in labels, not the name",
                )

    def _check_name(self, name_arg: ast.AST, kind: str) -> Iterator["_Finding"]:
        if isinstance(name_arg, (ast.JoinedStr, ast.BinOp)) or (
            isinstance(name_arg, ast.Call)
            and isinstance(name_arg.func, ast.Attribute)
            and name_arg.func.attr == "format"
        ):
            yield _make(
                self, name_arg,
                f"dynamic {kind} name: names must be stable string "
                "literals — put variation in labels/tags, not the name",
            )
        elif isinstance(name_arg, ast.Constant) and isinstance(name_arg.value, str):
            if not _METRIC_NAME_RE.match(name_arg.value):
                yield _make(
                    self, name_arg,
                    f"{kind} name {name_arg.value!r} is not "
                    "dotted-lowercase ([a-z0-9_.])",
                )


# ----------------------------------------------------------------------
# R9: no silently swallowed broad exceptions
# ----------------------------------------------------------------------
_BROAD_TYPES = {"Exception", "BaseException"}


def _is_broad(handler_type: Optional[ast.AST]) -> bool:
    if handler_type is None:
        return True
    if isinstance(handler_type, ast.Name):
        return handler_type.id in _BROAD_TYPES
    if isinstance(handler_type, ast.Tuple):
        return any(_is_broad(element) for element in handler_type.elts)
    return False


class SilentBroadExceptRule(Rule):
    rule_id = "R9"
    name = "silent-broad-except"
    summary = (
        "bare except, or a broad except whose body only passes: narrow "
        "it, or log-and-degrade so wedged workers stay diagnosable"
    )

    def check(self, tree: ast.AST, path: str, source: str) -> Iterator["_Finding"]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield _make(
                    self, node,
                    "bare 'except:' catches SystemExit/KeyboardInterrupt "
                    "too — name the exceptions (Exception at the broadest)",
                )
                continue
            if not _is_broad(node.type):
                continue
            body = node.body
            swallows = all(
                isinstance(stmt, ast.Pass)
                or (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))
                for stmt in body
            )
            if swallows:
                yield _make(
                    self, node,
                    "broad except swallows the error silently: narrow the "
                    "exception types, or log what was caught before degrading",
                )


ALL_RULES: Sequence[Rule] = (
    SqlInterpolationRule(),
    TornSnapshotRule(),
    CacheFalsyHitRule(),
    ExecutorContextRule(),
    WallclockDurationRule(),
    BlockingUnderLockRule(),
    OfflineDeterminismRule(),
    MetricNameRule(),
    SilentBroadExceptRule(),
)

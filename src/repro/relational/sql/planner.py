"""SQL planner: bind names, decorrelate EXISTS, optimize, assemble.

The pipeline for one statement:

1. expand ``*`` items and qualify every unqualified column reference
   (binder role),
2. split WHERE into conjuncts; pull out ``[NOT] EXISTS`` conjuncts;
   record per relation the columns the statement reads (select list,
   conjuncts, EXISTS correlations) — all its access path will emit,
3. optimize the select-project-join block with the System-R enumerator
   (exploiting an ORDER BY column as a desired interesting order),
4. decorrelate each EXISTS into a hash semi/anti join on top (the
   paper's SQL1/SQL5 ``NOT EXISTS`` over ExcpTops takes this path),
5. add projection, DISTINCT, UNION, ORDER BY (skipped when the chosen
   plan already delivers the order), and FETCH FIRST.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import SqlBindError, SqlError
from repro.relational.database import Database
from repro.relational.expressions import (
    And,
    Arith,
    ColumnRef,
    Comparison,
    Contains,
    Expression,
    InList,
    IsNull,
    Like,
    Literal,
    Neg,
    Not,
    Or,
    Row,
    RowLayout,
    as_equijoin,
    conjoin,
    referenced_aliases,
    split_conjuncts,
)
from repro.relational.operators import (
    Distinct,
    Filter,
    HashSemiJoin,
    Limit,
    Operator,
    Project,
    RowsSource,
    Sort,
    TopN,
    UnionAll,
)
from repro.relational.optimizer.logical import SPJBlock, build_block
from repro.relational.optimizer.system_r import OrderSpec, PhysicalCandidate, SystemROptimizer
from repro.relational.runtime import columnar_enabled
from repro.relational.sql.ast import ExistsExpr, OrderItem, Query, SelectCore, SelectItem
from repro.relational.sql.parser import parse
from repro.relational.statistics import StatsCatalog


@dataclass
class QueryResult:
    """Executed statement output: column names plus row tuples."""

    columns: List[str]
    rows: List[Row]

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def scalar(self) -> Any:
        """First column of the first row (None when empty)."""
        return self.rows[0][0] if self.rows else None

    def column(self, name: str) -> List[Any]:
        idx = [c.lower() for c in self.columns].index(name.lower())
        return [row[idx] for row in self.rows]


@dataclass
class PreparedPlan:
    """A parsed, bound, and optimized statement, ready to execute.

    ``build()`` assembles a *fresh* operator tree each call, so one
    prepared plan may be executed concurrently from many threads: every
    execution gets its own operator state, and the builders resolve
    ``Database.stats`` at build time, crediting work to the executing
    thread's counters.  Everything expensive (parsing, binding, the
    System-R enumeration) happened at prepare time; ``build()`` only
    replays the cheap physical-operator construction.  Uncorrelated
    EXISTS subqueries are deliberately (re)evaluated inside ``build()``
    so repeated executions behave exactly like repeated plannings.
    """

    columns: List[str]
    build: Callable[[], Operator]

    def run(self) -> List[Row]:
        return self.build().run()


@dataclass
class _PreparedCore:
    """One SELECT core's replayable pieces (pre-projection)."""

    build: Callable[[], Operator]
    entries: List[Tuple[str, str]]
    exprs: List[Expression]
    delivered: Optional[OrderSpec]


def _rewrite(expr: Expression, fn) -> Expression:
    """Rebuild an expression tree bottom-up, applying ``fn`` to each
    node after its children were rebuilt."""
    if isinstance(expr, And):
        node: Expression = And([_rewrite(i, fn) for i in expr.items])
    elif isinstance(expr, Or):
        node = Or([_rewrite(i, fn) for i in expr.items])
    elif isinstance(expr, Not):
        node = Not(_rewrite(expr.item, fn))
    elif isinstance(expr, Comparison):
        node = Comparison(expr.op, _rewrite(expr.left, fn), _rewrite(expr.right, fn))
    elif isinstance(expr, Contains):
        node = Contains(_rewrite(expr.haystack, fn), _rewrite(expr.needle, fn))
    elif isinstance(expr, Like):
        node = Like(_rewrite(expr.value, fn), expr.pattern, expr.negated)
    elif isinstance(expr, InList):
        node = InList(_rewrite(expr.value, fn), sorted(expr.options, key=repr), expr.negated)
    elif isinstance(expr, IsNull):
        node = IsNull(_rewrite(expr.value, fn), expr.negated)
    elif isinstance(expr, Arith):
        node = Arith(expr.op, _rewrite(expr.left, fn), _rewrite(expr.right, fn))
    elif isinstance(expr, Neg):
        node = Neg(_rewrite(expr.value, fn))
    else:
        node = expr
    return fn(node)


class Planner:
    """Builds executable operator trees for parsed queries."""

    def __init__(
        self,
        database: Database,
        stats: Optional[StatsCatalog] = None,
    ) -> None:
        self.database = database
        self.stats = stats if stats is not None else StatsCatalog(database)
        self.optimizer = SystemROptimizer(database, self.stats)

    # ------------------------------------------------------------------
    # Binding helpers
    # ------------------------------------------------------------------
    def _alias_schemas(self, core: SelectCore) -> Dict[str, Any]:
        seen: Dict[str, Any] = {}
        for ref in core.tables:
            if not self.database.has_table(ref.table):
                raise SqlBindError(f"unknown table {ref.table!r}")
            alias = ref.alias.lower()
            if alias in seen:
                raise SqlBindError(f"duplicate alias {alias!r}")
            seen[alias] = self.database.table(ref.table).schema
        return seen

    def _qualify(
        self,
        expr: Expression,
        alias_schemas: Dict[str, Any],
        outer_schemas: Optional[Dict[str, Any]] = None,
    ) -> Expression:
        """Resolve unqualified column references; verify qualified ones.
        References not resolvable locally but resolvable in
        ``outer_schemas`` are left qualified for correlation handling."""

        def fix(node: Expression) -> Expression:
            if isinstance(node, ExistsExpr):
                return node  # handled by the planner separately
            if not isinstance(node, ColumnRef):
                return node
            if node.qualifier is not None:
                if node.qualifier in alias_schemas:
                    if not alias_schemas[node.qualifier].has_column(node.name):
                        raise SqlBindError(f"unknown column {node.qualifier}.{node.name}")
                    return node
                if outer_schemas is not None and node.qualifier in outer_schemas:
                    if not outer_schemas[node.qualifier].has_column(node.name):
                        raise SqlBindError(f"unknown column {node.qualifier}.{node.name}")
                    return node
                raise SqlBindError(f"unknown alias {node.qualifier!r}")
            owners = [a for a, s in alias_schemas.items() if s.has_column(node.name)]
            if len(owners) == 1:
                return ColumnRef(owners[0], node.name)
            if len(owners) > 1:
                raise SqlBindError(f"ambiguous column {node.name!r}")
            if outer_schemas is not None:
                outer_owners = [
                    a for a, s in outer_schemas.items() if s.has_column(node.name)
                ]
                if len(outer_owners) == 1:
                    return ColumnRef(outer_owners[0], node.name)
                if len(outer_owners) > 1:
                    raise SqlBindError(f"ambiguous column {node.name!r}")
            raise SqlBindError(f"unknown column {node.name!r}")

        return _rewrite(expr, fix)

    # ------------------------------------------------------------------
    # Core planning
    # ------------------------------------------------------------------
    def _prepare_core(
        self,
        core: SelectCore,
        desired_order: Optional[OrderSpec] = None,
    ) -> _PreparedCore:
        """Bind and optimize one SELECT core, returning a replayable
        builder for the operator tree *before projection* plus the
        projected (alias, name) entries, projected expressions, and the
        block order the chosen plan delivers."""
        alias_schemas = self._alias_schemas(core)
        conjuncts: List[Expression] = []
        exists_nodes: List[ExistsExpr] = []
        for conjunct in split_conjuncts(core.where):
            if isinstance(conjunct, ExistsExpr):
                exists_nodes.append(conjunct)
                continue
            if _contains_exists(conjunct):
                raise SqlError("EXISTS is only supported as a top-level conjunct")
            conjuncts.append(self._qualify(conjunct, alias_schemas))
        items = [
            None if item.star else self._qualify(item.expr, alias_schemas)
            for item in core.items
        ]
        prepared_exists = [
            self._prepare_exists(exists, alias_schemas) for exists in exists_nodes
        ]
        appliers = [applier for applier, _ in prepared_exists]

        # Everything evaluated over the block's output: with the
        # conjuncts, every column the statement reads.  ORDER BY keys
        # bind to the select list's output, so beyond it they name at
        # most the column of an index order the plan may deliver.
        read_above: Optional[set] = None
        if None not in items:  # ``*`` reads every column
            read_above = {ref for _, outer in prepared_exists for ref in outer}
            for expr in items:
                read_above |= expr.column_refs()
            if desired_order is not None:
                read_above.add(desired_order[:2])
        block = build_block(
            [(t.table, t.alias) for t in core.tables], conjuncts, read_above
        )
        candidate = self.optimizer.optimize(block, desired_order=desired_order)
        # Probe build purely for the layout (operator construction has
        # no side effects); EXISTS appliers never change the layout.
        layout = candidate.build().layout
        entries, exprs = self._projection(core, items, layout)

        def build_core() -> Operator:
            op = candidate.build()
            for applier in appliers:
                op = applier(op)
            return op

        return _PreparedCore(build_core, entries, exprs, candidate.order)

    def _projection(
        self,
        core: SelectCore,
        items: List[Optional[Expression]],
        layout: RowLayout,
    ) -> Tuple[List[Tuple[str, str]], List[Expression]]:
        """Output (alias, name) entries and expressions of the select
        list; ``items`` holds its qualified expressions, None for ``*``."""
        entries: List[Tuple[str, str]] = []
        exprs: List[Expression] = []
        for i, (item, expr) in enumerate(zip(core.items, items)):
            if expr is None:
                for alias, name in layout.entries:
                    entries.append((alias, name))
                    exprs.append(ColumnRef(alias, name))
                continue
            if item.alias is not None:
                name = item.alias.lower()
            elif isinstance(expr, ColumnRef):
                name = expr.name
            else:
                name = f"col{i + 1}"
            alias = expr.qualifier if isinstance(expr, ColumnRef) else ""
            entries.append((alias or "", name))
            exprs.append(expr)
        if not entries:
            raise SqlError("empty select list")
        return entries, exprs

    def _prepare_exists(
        self,
        exists: ExistsExpr,
        outer_schemas: Dict[str, Any],
    ) -> Tuple[Callable[[Operator], Operator], List[Tuple[str, str]]]:
        """Bind and optimize one ``[NOT] EXISTS`` conjunct, returning an
        applier that wraps the per-execution decorrelation around a
        freshly built outer operator tree, and the outer (alias, column)
        references its correlation reads.  The subquery's own select
        list is never evaluated, so its block reads only what its
        conjuncts and the correlation name."""
        sub = exists.subquery
        sub_schemas = self._alias_schemas(sub)
        overlap = set(sub_schemas) & set(outer_schemas)
        if overlap:
            raise SqlError(f"subquery reuses outer aliases: {sorted(overlap)}")

        local: List[Expression] = []
        corr: List[Tuple[ColumnRef, ColumnRef]] = []  # (outer ref, inner ref)
        for conjunct in split_conjuncts(sub.where):
            if isinstance(conjunct, ExistsExpr) or _contains_exists(conjunct):
                raise SqlError("nested EXISTS inside EXISTS is not supported")
            qualified = self._qualify(conjunct, sub_schemas, outer_schemas)
            refs = referenced_aliases(qualified)
            outer_refs = refs & set(outer_schemas)
            if not outer_refs:
                local.append(qualified)
                continue
            pair = as_equijoin(qualified)
            if pair is None:
                raise SqlError(
                    "correlated subquery predicates must be equality comparisons"
                )
            left, right = pair
            if left.qualifier in outer_schemas and right.qualifier in sub_schemas:
                corr.append((left, right))
            elif right.qualifier in outer_schemas and left.qualifier in sub_schemas:
                corr.append((right, left))
            else:
                raise SqlError("correlation must relate an outer and an inner column")

        sub_block = build_block(
            [(t.table, t.alias) for t in sub.tables],
            local,
            [(inner.qualifier, inner.name) for _, inner in corr],
        )
        sub_candidate = self.optimizer.optimize(sub_block)
        negated = exists.negated
        outer_refs = [(outer.qualifier, outer.name) for outer, _ in corr]

        if not corr:
            # Uncorrelated: evaluated per execution (the result is a
            # constant for that execution, so the whole outer tree is
            # either kept or replaced by an empty source).
            def apply_uncorrelated(op: Operator) -> Operator:
                sub_op = Limit(sub_candidate.build(), 1)
                self.database.stats.subqueries_run += 1
                non_empty = bool(sub_op.run())
                if non_empty != negated:
                    return op
                return RowsSource([], op.layout, self.database.stats)

            return apply_uncorrelated, outer_refs

        def apply_correlated(op: Operator) -> Operator:
            sub_op = sub_candidate.build()
            left_positions = [
                op.layout.position(o.qualifier, o.name) for o, _ in corr
            ]
            right_positions = [
                sub_op.layout.position(i.qualifier, i.name) for _, i in corr
            ]
            self.database.stats.subqueries_run += 1
            return HashSemiJoin(op, sub_op, left_positions, right_positions, negated)

        return apply_correlated, outer_refs

    # ------------------------------------------------------------------
    # Statement planning
    # ------------------------------------------------------------------
    def plan(self, query: Query) -> Tuple[Operator, List[str]]:
        """Build the executable operator tree; returns (plan, column
        names)."""
        prepared = self.prepare(query)
        return prepared.build(), prepared.columns

    def prepare(self, query: Query) -> PreparedPlan:
        """Bind and optimize a statement once; the returned
        :class:`PreparedPlan` builds fresh executable trees on demand."""
        single = len(query.cores) == 1
        desired = self._desired_order(query) if single else None

        prepared_cores = [
            self._prepare_core(
                core, desired_order=desired if core is query.cores[0] else None
            )
            for core in query.cores
        ]
        first_entries = prepared_cores[0].entries
        columns = [name for _, name in first_entries]

        if single:
            pc = prepared_cores[0]
            core = query.cores[0]

            def build_single() -> Operator:
                return self._assemble_single(
                    query, core, pc.build(), pc.entries, pc.exprs, pc.delivered
                )

            return PreparedPlan(columns, build_single)

        # UNION: project every core to the first core's arity.
        arity = len(first_entries)
        for pc in prepared_cores:
            if len(pc.exprs) != arity:
                raise SqlError("UNION inputs must have the same number of columns")
        names = [n for _, n in first_entries]

        def build_union() -> Operator:
            projected = [
                Project(pc.build(), pc.exprs, names, alias="")
                for pc in prepared_cores
            ]
            combined: Operator = UnionAll(projected)
            if not query.union_all:
                combined = Distinct(combined)
            if query.order_by:
                keys = self._order_keys(query.order_by, combined.layout)
                if query.fetch_first is not None:
                    return TopN(combined, keys, query.fetch_first)
                return Sort(combined, keys)
            if query.fetch_first is not None:
                return Limit(combined, query.fetch_first)
            return combined

        return PreparedPlan(columns, build_union)

    def _assemble_single(
        self,
        query: Query,
        core: SelectCore,
        op: Operator,
        entries: List[Tuple[str, str]],
        exprs: List[Expression],
        delivered: Optional[OrderSpec],
    ) -> Operator:
        names = [n for _, n in entries]
        # Keep the originating table alias on pass-through columns so
        # ORDER BY can reference them post-projection.
        projected = Project(op, exprs, names, entries=entries)
        result: Operator = projected
        if core.distinct:
            result = Distinct(result)

        if query.order_by:
            order_satisfied = self._order_satisfied(
                query.order_by, exprs, entries, delivered
            ) and not core.distinct
            if order_satisfied:
                if query.fetch_first is not None:
                    return Limit(result, query.fetch_first)
                return result
            keys = self._order_keys(query.order_by, result.layout)
            if query.fetch_first is not None:
                return TopN(result, keys, query.fetch_first)
            return Sort(result, keys)
        if query.fetch_first is not None:
            return Limit(result, query.fetch_first)
        return result

    # ------------------------------------------------------------------
    # Ordering helpers
    # ------------------------------------------------------------------
    def _desired_order(self, query: Query) -> Optional[OrderSpec]:
        if len(query.order_by) != 1 or len(query.cores) != 1:
            return None
        key = query.order_by[0]
        target = self._order_target(key.expr, query.cores[0])
        if target is None:
            return None
        alias, name = target
        return (alias, name, key.descending)

    def _order_target(
        self, expr: Expression, core: SelectCore
    ) -> Optional[Tuple[str, str]]:
        """Map an ORDER BY expression to a block column, through output
        aliases when needed."""
        if isinstance(expr, ColumnRef):
            if expr.qualifier is not None:
                return (expr.qualifier, expr.name)
            # An output alias naming a plain column?
            for item in core.items:
                if item.star or item.alias is None:
                    continue
                if item.alias.lower() == expr.name and isinstance(item.expr, ColumnRef):
                    inner = item.expr
                    if inner.qualifier is not None:
                        return (inner.qualifier, inner.name)
            # A bare column name owned by exactly one table?
            try:
                alias_schemas = self._alias_schemas(core)
            except SqlBindError:
                return None
            owners = [a for a, s in alias_schemas.items() if s.has_column(expr.name)]
            if len(owners) == 1:
                return (owners[0], expr.name)
        return None

    def _order_satisfied(
        self,
        order_by: List[OrderItem],
        exprs: List[Expression],
        entries: List[Tuple[str, str]],
        delivered: Optional[OrderSpec],
    ) -> bool:
        if delivered is None or len(order_by) != 1:
            return False
        key = order_by[0]
        if key.descending != delivered[2]:
            return False
        if isinstance(key.expr, ColumnRef):
            candidates = {(key.expr.qualifier, key.expr.name)}
            if key.expr.qualifier is None:
                # Output alias or bare name: map through projection.
                for (alias, name), expr in zip(entries, exprs):
                    if name == key.expr.name and isinstance(expr, ColumnRef):
                        candidates.add((expr.qualifier, expr.name))
            return (delivered[0], delivered[1]) in candidates
        return False

    def _order_keys(self, order_by: List[OrderItem], layout: RowLayout):
        keys = []
        for item in order_by:
            expr = item.expr
            if isinstance(expr, ColumnRef) and expr.qualifier is None:
                # Resolve against output names (unqualified post-projection).
                keys.append((ColumnRef(None, expr.name), item.descending))
            else:
                keys.append((expr, item.descending))
        # Validate now for a clear error message.
        for expr, _ in keys:
            expr.bind(layout)
        return keys


def _contains_exists(expr: Expression) -> bool:
    if isinstance(expr, ExistsExpr):
        return True
    for attr in ("items",):
        items = getattr(expr, attr, None)
        if items is not None:
            return any(_contains_exists(i) for i in items)
    for attr in ("item", "left", "right", "haystack", "needle", "value"):
        child = getattr(expr, attr, None)
        if isinstance(child, Expression) and _contains_exists(child):
            return True
    return False


#: Bound on the number of prepared statements an Engine retains.
PLAN_CACHE_SIZE = 256


class Engine:
    """Top-level query interface over a :class:`Database`.

    >>> engine = Engine(db)
    >>> result = engine.execute("SELECT id FROM protein WHERE id = 32")
    >>> result.rows
    [(32,)]

    Repeated statements hit a prepared-statement cache keyed by the SQL
    text and parameter bindings.  Every entry is validated against
    :meth:`Database.change_token` before reuse, so any table create/drop
    or data change invalidates it — a cached plan can never bind to a
    stale catalog or skip re-running an uncorrelated EXISTS against
    changed data.  The cache only serves the batched columnar execution
    mode; in row mode (:func:`repro.relational.runtime.row_mode`) every
    statement is re-planned from scratch, preserving the reference
    engine's exact pre-cache behavior for differential testing.
    """

    def __init__(self, database: Database, stats: Optional[StatsCatalog] = None) -> None:
        self.database = database
        self.stats = stats if stats is not None else StatsCatalog(database)
        self.planner = Planner(database, self.stats)
        self._plan_cache: "OrderedDict[Tuple, Tuple[Tuple, PreparedPlan]]" = OrderedDict()
        self._plan_cache_lock = threading.Lock()
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0

    def clear_plan_cache(self) -> None:
        with self._plan_cache_lock:
            self._plan_cache.clear()

    @staticmethod
    def _cache_key(sql: str, params: Optional[Dict[str, Any]]) -> Optional[Tuple]:
        if not params:
            return (sql, None)
        try:
            return (sql, tuple(sorted(params.items())))
        except TypeError:
            return None  # unhashable/unorderable bindings: skip the cache

    def _prepared(self, sql: str, params: Optional[Dict[str, Any]]) -> PreparedPlan:
        key = self._cache_key(sql, params)
        # Token captured *before* planning: if data changes while we
        # plan, the entry is cached under the old token and fails
        # revalidation next time — stale in the safe direction.
        token = self.database.change_token()
        if key is not None:
            with self._plan_cache_lock:
                entry = self._plan_cache.get(key)
                if entry is not None and entry[0] == token:
                    self._plan_cache.move_to_end(key)
                    self.plan_cache_hits += 1
                    return entry[1]
        prepared = self.planner.prepare(parse(sql, params))
        if key is not None:
            # relint: disable=R2 (get-or-compute: each return reads under a single acquisition, the pair never assembles one value)
            with self._plan_cache_lock:
                self.plan_cache_misses += 1
                self._plan_cache[key] = (token, prepared)
                self._plan_cache.move_to_end(key)
                while len(self._plan_cache) > PLAN_CACHE_SIZE:
                    self._plan_cache.popitem(last=False)
        return prepared

    def execute(self, sql: str, params: Optional[Dict[str, Any]] = None) -> QueryResult:
        if columnar_enabled():
            prepared = self._prepared(sql, params)
        else:
            prepared = self.planner.prepare(parse(sql, params))
        plan = prepared.build()
        rows = plan.run()
        self.database.stats.rows_emitted += len(rows)
        return QueryResult(list(prepared.columns), rows)

    def explain(self, sql: str, params: Optional[Dict[str, Any]] = None) -> str:
        query = parse(sql, params)
        plan, _ = self.planner.plan(query)
        return plan.explain()

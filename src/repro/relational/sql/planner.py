"""SQL planner: bind names, decorrelate EXISTS, optimize, assemble.

The pipeline for one statement has two halves.  :meth:`Planner.bind`
does what no parameter value can change:

1. expand ``*`` items and qualify every unqualified column reference
   (binder role),
2. split WHERE into conjuncts; pull out ``[NOT] EXISTS`` conjuncts and
   sort each one's predicates into local ones and correlations.

:meth:`Planner.optimize` plans the bound statement for one binding of
its parameters:

3. record per relation the columns the statement reads (select list,
   conjuncts, EXISTS correlations) — all its access path will emit,
4. optimize the select-project-join block with the System-R enumerator
   (exploiting an ORDER BY column as a desired interesting order),
   estimating selectivities under the binding,
5. decorrelate each EXISTS into a hash semi/anti join on top (the
   paper's SQL1/SQL5 ``NOT EXISTS`` over ExcpTops takes this path),
6. add projection, DISTINCT, UNION, ORDER BY (skipped when the chosen
   plan already delivers the order), and FETCH FIRST.

Parameters survive both halves as
:class:`~repro.relational.expressions.Param` nodes; the
:class:`PreparedPlan` binds values when it builds an operator tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cache import MISSING, LRUCache
from repro.errors import SqlBindError, SqlError, SqlSyntaxError
from repro.relational.database import Database
from repro.relational.expressions import (
    ColumnRef,
    Expression,
    Param,
    Row,
    RowLayout,
    as_equijoin,
    bind_params,
    has_params,
    referenced_aliases,
    rewrite,
    split_conjuncts,
)
from repro.relational.operators import (
    Distinct,
    HashSemiJoin,
    Limit,
    Operator,
    Project,
    RowsSource,
    Sort,
    TopN,
    UnionAll,
)
from repro.relational.optimizer import cost as C
from repro.relational.optimizer.logical import build_block
from repro.relational.optimizer.system_r import (
    OrderSpec,
    Params,
    PhysicalCandidate,
    SystemROptimizer,
)
from repro.relational.runtime import columnar_enabled
from repro.relational.sql.ast import ExistsExpr, OrderItem, Query, SelectCore
from repro.relational.sql.parser import is_count, parse, parse_prepared
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

    ``build(params)`` assembles a *fresh* operator tree each call, with
    the parameter binding ``params`` substituted into it — the key of a
    hash-index probe, every predicate, select-list parameters and the
    ``FETCH FIRST`` count.  One prepared plan may therefore be executed
    concurrently from many threads and under many bindings: every
    execution gets its own operator state and its own values, passed
    explicitly rather than through any shared slot, and the builders
    resolve ``Database.stats`` at build time, crediting work to the
    executing thread's counters.  Everything expensive (parsing,
    binding, the System-R enumeration) happened at prepare time;
    ``build()`` only replays the cheap physical-operator construction.
    Uncorrelated EXISTS subqueries are deliberately (re)evaluated inside
    ``build()`` so repeated executions behave exactly like repeated
    plannings.
    """

    columns: List[str]
    build: Callable[..., Operator]
    #: System-R's estimated cost of the statement's join blocks, plus
    #: :func:`~repro.relational.optimizer.cost.sort_cost` of their rows
    #: when the statement sorts its output (``Sort`` / ``TopN``).
    cost: float

    def run(self, params: Params = None) -> List[Row]:
        return self.build(params).run()


@dataclass
class _PreparedCore:
    """One SELECT core's replayable pieces (pre-projection)."""

    build: Callable[[Params], Operator]
    entries: List[Tuple[str, str]]
    exprs: List[Expression]
    candidate: PhysicalCandidate


@dataclass
class _BoundExists:
    """One ``[NOT] EXISTS`` conjunct, bound: its FROM list as (table,
    alias), its local conjuncts, and its (outer, inner) correlation
    references."""

    tables: List[Tuple[str, str]]
    local: List[Expression]
    corr: List[Tuple[ColumnRef, ColumnRef]]
    negated: bool


@dataclass
class _BoundCore:
    """One SELECT core, bound: its FROM list as (table, alias), its
    qualified conjuncts, its qualified select items (None for ``*``) and
    its EXISTS conjuncts."""

    core: SelectCore
    tables: List[Tuple[str, str]]
    conjuncts: List[Expression]
    items: List[Optional[Expression]]
    exists: List[_BoundExists]


def half_decade(selectivity: float) -> Optional[int]:
    """``floor(2 · log10(selectivity))``: the half-decade a selectivity
    falls in (None for 0).

    Finer than the plan cache's decade (``selectivity_bucket`` in
    :mod:`repro.core.plan`) on purpose: join orders planned per decade
    cost ``direct_exhaustive`` (seed 7) 11.1 % more ``rows_joined`` and
    12.4 % more ``index_probes``."""
    return math.floor(2 * math.log10(selectivity)) if selectivity > 0 else None


@dataclass
class BoundStatement:
    """A parsed statement with every name resolved against the catalog:
    everything about it that no parameter value can change.

    ``slots`` are its conjuncts that hold a parameter, each with the
    alias → table map it is estimated under — the only predicates whose
    estimated selectivity a binding can move."""

    query: Query
    cores: List[_BoundCore]
    desired: Optional[OrderSpec]
    slots: List[Tuple[Expression, Dict[str, str]]]

    def selectivity_class(self, stats: StatsCatalog, params: Params) -> Tuple:
        """The class of a binding: per slot, the :func:`half_decade` of
        its selectivity under ``params``.  The optimizer sees nothing
        else of the values, so bindings of one class are planned alike
        up to where in their half-decades the estimates fall."""
        return tuple(
            half_decade(stats.predicate_selectivity(bind_params(expr, params), tables))
            for expr, tables in self.slots
        )


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

        return rewrite(expr, fix)

    # ------------------------------------------------------------------
    # Binding
    # ------------------------------------------------------------------
    def bind(self, query: Query) -> BoundStatement:
        """Resolve every name of a parsed statement — the half of
        planning that is the same for every parameter binding."""
        cores = [self._bind_core(core) for core in query.cores]
        slots: List[Tuple[Expression, Dict[str, str]]] = []
        for bound in cores:
            scopes = [(bound.tables, bound.conjuncts)]
            scopes += [(exists.tables, exists.local) for exists in bound.exists]
            for tables, conjuncts in scopes:
                alias_tables = {alias: table for table, alias in tables}
                slots += [(c, alias_tables) for c in conjuncts if has_params(c)]
        desired = self._desired_order(query) if len(query.cores) == 1 else None
        return BoundStatement(query, cores, desired, slots)

    def _bind_core(self, core: SelectCore) -> _BoundCore:
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
        exists = [self._bind_exists(node, alias_schemas) for node in exists_nodes]
        tables = [(t.table, t.alias) for t in core.tables]
        return _BoundCore(core, tables, conjuncts, items, exists)

    def _bind_exists(
        self, exists: ExistsExpr, outer_schemas: Dict[str, Any]
    ) -> _BoundExists:
        """Bind one ``[NOT] EXISTS`` conjunct: split its predicates into
        local ones and equality correlations with the outer block."""
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
        tables = [(t.table, t.alias) for t in sub.tables]
        return _BoundExists(tables, local, corr, exists.negated)

    # ------------------------------------------------------------------
    # Core planning
    # ------------------------------------------------------------------
    def _optimize_core(
        self,
        bound: _BoundCore,
        desired_order: Optional[OrderSpec],
        params: Params,
    ) -> _PreparedCore:
        """Optimize one bound SELECT core, returning a replayable
        builder for the operator tree *before projection* plus the
        projected (alias, name) entries, projected expressions, and the
        chosen block plan (its order, cost and rows)."""
        appliers = [self._optimize_exists(exists, params) for exists in bound.exists]

        # Everything evaluated over the block's output: with the
        # conjuncts, every column the statement reads.  ORDER BY keys
        # bind to the select list's output, so beyond it they name at
        # most the column of an index order the plan may deliver.
        read_above: Optional[set] = None
        if None not in bound.items:  # ``*`` reads every column
            read_above = {
                (outer.qualifier, outer.name)
                for exists in bound.exists
                for outer, _ in exists.corr
            }
            for expr in bound.items:
                read_above |= expr.column_refs()
            if desired_order is not None:
                read_above.add(desired_order[:2])
        block = build_block(bound.tables, bound.conjuncts, read_above)
        candidate = self.optimizer.optimize(block, desired_order, params)
        # Probe build purely for the layout (operator construction has
        # no side effects); EXISTS appliers never change the layout.
        layout = candidate.build(params).layout
        entries, exprs = self._projection(bound.core, bound.items, layout)

        def build_core(params: Params) -> Operator:
            op = candidate.build(params)
            for applier in appliers:
                op = applier(op, params)
            return op

        return _PreparedCore(build_core, entries, exprs, candidate)

    def _projection(
        self,
        core: SelectCore,
        items: List[Optional[Expression]],
        layout: RowLayout,
    ) -> Tuple[List[Tuple[str, str]], List[Expression]]:
        """Output (alias, name) entries and expressions of the select
        list; ``items`` holds its qualified expressions, None for ``*``.
        ``*`` lists the tables in FROM order whatever order the plan
        joins them in, so the columns never depend on the plan."""
        entries: List[Tuple[str, str]] = []
        exprs: List[Expression] = []
        for i, (item, expr) in enumerate(zip(core.items, items)):
            if expr is None:
                for ref in core.tables:
                    for alias, name in layout.entries:
                        if alias == ref.alias:
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

    def _optimize_exists(
        self, exists: _BoundExists, params: Params
    ) -> Callable[[Operator, Params], Operator]:
        """Optimize one bound ``[NOT] EXISTS`` conjunct, returning an
        applier that wraps the per-execution decorrelation around a
        freshly built outer operator tree.  The subquery's own select
        list is never evaluated, so its block reads only what its
        conjuncts and the correlation name."""
        corr = exists.corr
        sub_block = build_block(
            exists.tables,
            exists.local,
            [(inner.qualifier, inner.name) for _, inner in corr],
        )
        sub_candidate = self.optimizer.optimize(sub_block, params=params)
        negated = exists.negated

        if not corr:
            # Uncorrelated: evaluated per execution (the result is a
            # constant for that execution, so the whole outer tree is
            # either kept or replaced by an empty source).
            def apply_uncorrelated(op: Operator, params: Params) -> Operator:
                sub_op = Limit(sub_candidate.build(params), 1)
                self.database.stats.subqueries_run += 1
                non_empty = bool(sub_op.run())
                if non_empty != negated:
                    return op
                return RowsSource([], op.layout, self.database.stats)

            return apply_uncorrelated

        def apply_correlated(op: Operator, params: Params) -> Operator:
            sub_op = sub_candidate.build(params)
            left_positions = [
                op.layout.position(o.qualifier, o.name) for o, _ in corr
            ]
            right_positions = [
                sub_op.layout.position(i.qualifier, i.name) for _, i in corr
            ]
            self.database.stats.subqueries_run += 1
            return HashSemiJoin(op, sub_op, left_positions, right_positions, negated)

        return apply_correlated

    # ------------------------------------------------------------------
    # Statement planning
    # ------------------------------------------------------------------
    def plan(self, query: Query) -> Tuple[Operator, List[str]]:
        """Build the executable operator tree; returns (plan, column
        names)."""
        prepared = self.prepare(query)
        return prepared.build(), prepared.columns

    def prepare(self, query: Query, params: Params = None) -> PreparedPlan:
        """Bind and optimize a statement once; the returned
        :class:`PreparedPlan` builds fresh executable trees on demand."""
        return self.optimize(self.bind(query), params)

    def optimize(self, statement: BoundStatement, params: Params = None) -> PreparedPlan:
        """Optimize a bound statement with its selectivities estimated
        under the binding ``params``."""
        query = statement.query
        prepared_cores = [
            self._optimize_core(bound, statement.desired if i == 0 else None, params)
            for i, bound in enumerate(statement.cores)
        ]
        columns = [name for _, name in prepared_cores[0].entries]

        if len(prepared_cores) == 1:
            pc = prepared_cores[0]
            core = query.cores[0]
            sorts = bool(query.order_by) and (
                core.distinct
                or not self._order_satisfied(
                    query.order_by, pc.exprs, pc.entries, pc.candidate.order
                )
            )

            def build(params: Params = None) -> Operator:
                # Keep the originating table alias on pass-through columns
                # so ORDER BY can reference them post-projection.
                op: Operator = Project(
                    pc.build(params), _bound_all(pc.exprs, params), columns,
                    entries=pc.entries,
                )
                if core.distinct:
                    op = Distinct(op)
                return self._order_and_fetch(op, query, sorts, params)

        else:
            # UNION: project every core to the first core's arity.
            for pc in prepared_cores:
                if len(pc.exprs) != len(columns):
                    raise SqlError("UNION inputs must have the same number of columns")
            sorts = bool(query.order_by)

            def build(params: Params = None) -> Operator:
                projected = [
                    Project(pc.build(params), _bound_all(pc.exprs, params), columns, alias="")
                    for pc in prepared_cores
                ]
                combined: Operator = UnionAll(projected)
                if not query.union_all:
                    combined = Distinct(combined)
                return self._order_and_fetch(combined, query, sorts, params)

        cost = sum(pc.candidate.cost for pc in prepared_cores)
        if sorts:
            cost += C.sort_cost(sum(pc.candidate.est_rows for pc in prepared_cores))
        return PreparedPlan(columns, build, cost)

    def _order_and_fetch(
        self, op: Operator, query: Query, sorts: bool, params: Params
    ) -> Operator:
        """``op`` sorted by the statement's ORDER BY when ``sorts``, and
        cut at its ``FETCH FIRST`` count."""
        fetch = _fetch_count(query, params)
        if sorts:
            keys = self._order_keys(query.order_by, op.layout, params)
            return Sort(op, keys) if fetch is None else TopN(op, keys, fetch)
        return op if fetch is None else Limit(op, fetch)

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

    def _order_keys(self, order_by: List[OrderItem], layout: RowLayout, params: Params):
        keys = []
        for item in order_by:
            expr = item.expr
            if isinstance(expr, ColumnRef) and expr.qualifier is None:
                # Resolve against output names (unqualified post-projection).
                keys.append((ColumnRef(None, expr.name), item.descending))
            else:
                keys.append((bind_params(expr, params), item.descending))
        # Validate now for a clear error message.
        for expr, _ in keys:
            expr.bind(layout)
        return keys


def _bound_all(exprs: List[Expression], params: Params) -> List[Expression]:
    return [bind_params(expr, params) for expr in exprs]


def _fetch_count(query: Query, params: Params) -> Optional[int]:
    """The statement's ``FETCH FIRST`` count under ``params``."""
    fetch = query.fetch_first
    if isinstance(fetch, Param):
        fetch = fetch.value(params)
        if not is_count(fetch):
            raise SqlSyntaxError(f"FETCH FIRST expects an integer, got {fetch!r}")
    return fetch


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


#: Bound on the entries each level of an Engine's statement cache retains.
PLAN_CACHE_SIZE = 256


@dataclass(frozen=True)
class StatementCacheStats:
    """Counter snapshot of an :class:`Engine`'s statement cache.

    ``hits`` and ``misses`` count plan lookups — every :meth:`Engine.prepare`
    in columnar mode makes one (each execution, each explain, and each
    costed estimate of a statement), and a miss runs the optimizer;
    ``texts`` is the number of bound statements held, ``classes`` the
    number of plans held (one per statement text and selectivity
    class), and ``size`` the bound on each of the two."""

    hits: int
    misses: int
    texts: int
    classes: int
    size: int


class Engine:
    """Top-level query interface over a :class:`Database`.

    >>> engine = Engine(db)
    >>> result = engine.execute("SELECT id FROM protein WHERE id = 32")
    >>> result.rows
    [(32,)]
    >>> engine.execute("SELECT id FROM protein WHERE id = :id", {"id": 32}).rows
    [(32,)]

    In the batched columnar execution mode statements resolve through a
    two-level statement cache, and ``:name`` parameters are bound late:
    values are never part of a cache key or a plan.

    * The SQL text keys a :class:`BoundStatement` — parsed with its
      parameters kept as :class:`~repro.relational.expressions.Param`
      nodes and name-bound — so a repeated text is never tokenized
      again.
    * ``(text, selectivity class)`` keys a :class:`PreparedPlan`.  The
      class (:meth:`BoundStatement.selectivity_class`) is the
      half-decade of the estimated selectivity of each conjunct that
      holds a parameter, under the binding: one plan serves every
      binding that the cost model puts in the same class, and each
      execution builds its operator tree with its own values.

    Each level is a :class:`repro.cache.LRUCache` of at most
    :data:`PLAN_CACHE_SIZE` entries stamped with
    :meth:`Database.change_token`: a lookup evicts an entry made under
    another token, so any table create/drop or data change invalidates
    it — a cached plan can never bind to a stale catalog or skip
    re-running an uncorrelated EXISTS against changed data.  :meth:`explain` resolves
    through the same cache, so it renders the plan that
    :meth:`execute` would run for the binding.

    In row mode (:func:`repro.relational.runtime.row_mode`) every
    statement is parsed with its values substituted as literals and
    re-planned from scratch, preserving the reference engine's exact
    pre-cache behavior for differential testing.
    """

    def __init__(self, database: Database, stats: Optional[StatsCatalog] = None) -> None:
        self.database = database
        self.stats = stats if stats is not None else StatsCatalog(database)
        self.planner = Planner(database, self.stats)
        self._statements = LRUCache(PLAN_CACHE_SIZE)
        self._plans = LRUCache(PLAN_CACHE_SIZE)

    def statement_cache_stats(self) -> StatementCacheStats:
        """The statement cache's counters, one snapshot per level.  Two
        acquisitions cannot tear the value: no invariant links ``texts``
        to ``classes`` — each level evicts on its own — and the lookup
        counters all come from the plan level's one snapshot."""
        plans = self._plans.stats()
        return StatementCacheStats(
            hits=plans.hits,
            misses=plans.misses,
            texts=len(self._statements),
            classes=plans.size,
            size=PLAN_CACHE_SIZE,
        )

    def clear_plan_cache(self) -> None:
        self._statements.clear()
        self._plans.clear()

    def prepare(self, sql: str, params: Params = None) -> PreparedPlan:
        """The plan :meth:`execute` runs for ``sql`` under ``params``,
        with its estimated :attr:`~PreparedPlan.cost`."""
        if not columnar_enabled():
            return self.planner.prepare(parse(sql, params))
        # Token captured *before* planning: if data changes while we
        # plan, the entry is cached under the old token and fails
        # revalidation next time — stale in the safe direction.
        token = self.database.change_token()
        statement = self._statements.get(sql, MISSING, token)
        if statement is MISSING:
            statement = self.planner.bind(parse_prepared(sql))
            self._statements.put(sql, statement, token)
        key = (sql, statement.selectivity_class(self.stats, params))
        prepared = self._plans.get(key, MISSING, token)
        if prepared is MISSING:
            prepared = self.planner.optimize(statement, params)
            self._plans.put(key, prepared, token)
        return prepared

    def execute(self, sql: str, params: Params = None) -> QueryResult:
        prepared = self.prepare(sql, params)
        rows = prepared.run(params)
        self.database.stats.rows_emitted += len(rows)
        return QueryResult(list(prepared.columns), rows)

    def explain(self, sql: str, params: Params = None) -> str:
        """The operator tree :meth:`execute` runs for ``sql`` under
        ``params``, rendered."""
        return self.prepare(sql, params).build(params).explain()

"""System-R style bottom-up join enumeration (Section 5.4.1).

Dynamic programming over alias subsets, keeping the least-cost plan per
*interesting order* — exactly the framework of Selinger et al. ([24] in
the paper) that Section 5.4 extends.  Physical alternatives considered:

* access paths: heap scan, hash-index probe (equality with a literal
  or a statement parameter), and ordered-index scan (which *creates*
  an interesting order) — each, like
  the inner side of index nested-loops, emitting only the columns the
  block's relation records as read (``BaseRelation.columns``), which
  changes no cost input;
* joins: hash join, index nested-loops, sort-merge (which creates the
  join-key order), and block nested-loops for predicate-less or theta
  splits.

The DGJ-specific extension (the early-termination property and its cost
model) lives in :mod:`repro.relational.optimizer.dgj_cost` and in the
planner's choice between a regular plan and a DGJ stack; this module is
deliberately a faithful *regular* System-R optimizer, because the paper
compares against exactly that baseline (Figure 14).

Parameters (:class:`~repro.relational.expressions.Param`) stay in the
plan: estimation reads the binding the plan is optimized for, and every
``build(params)`` binds its own — the key of a hash-index probe, the
predicates of filters and joins — so one candidate serves every binding
it is built with.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.errors import OptimizerError
from repro.relational.database import Database
from repro.relational.expressions import (
    ColumnRef,
    Comparison,
    Expression,
    Literal,
    Param,
    as_equijoin,
    bind_params,
    conjoin,
    referenced_aliases,
)
from repro.relational.operators import (
    Filter,
    HashIndexScan,
    HashJoin,
    IndexNestedLoopJoin,
    NestedLoopJoin,
    Operator,
    OrderedIndexScan,
    SeqScan,
    SortMergeJoin,
)
from repro.relational.optimizer import cost as C
from repro.relational.optimizer.logical import BaseRelation, EquiJoinEdge, SPJBlock, equi_edges
from repro.relational.statistics import StatsCatalog

# An interesting order: (alias, column, descending).
OrderSpec = Tuple[str, str, bool]
# A statement's parameter binding (None: the statement has none).
Params = Optional[Dict[str, Any]]


@dataclass
class PhysicalCandidate:
    """A costed physical plan for some alias subset.  ``build(params)``
    assembles a fresh operator tree with ``params`` bound into it."""

    cost: float
    est_rows: float
    order: Optional[OrderSpec]
    build: Callable[..., Operator]


class SystemROptimizer:
    """Cost-based optimizer for one SPJ block."""

    def __init__(self, database: Database, stats: StatsCatalog) -> None:
        self.database = database
        self.stats = stats

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def optimize(
        self,
        block: SPJBlock,
        desired_order: Optional[OrderSpec] = None,
        params: Params = None,
    ) -> PhysicalCandidate:
        """Return the least-cost candidate for the whole block, with
        selectivities estimated under the binding ``params``.

        When ``desired_order`` is given, a candidate already producing
        that order is preferred if its cost beats the best unordered
        candidate plus the sort it would need (the planner adds the
        explicit sort in that case).
        """
        table = self._enumerate(block, params)
        full = frozenset(block.aliases)
        candidates = table[full]
        if not candidates:
            raise OptimizerError("no plan found for block")
        best_any = min(candidates.values(), key=lambda c: c.cost)
        if desired_order is None:
            return best_any
        ordered = candidates.get(desired_order)
        if ordered is None:
            return best_any
        sort_penalty = C.sort_cost(best_any.est_rows)
        if ordered.cost <= best_any.cost + sort_penalty:
            return ordered
        return best_any

    # ------------------------------------------------------------------
    # Estimation helpers
    # ------------------------------------------------------------------
    def _local_selectivity(self, rel: BaseRelation, params: Params) -> float:
        if not rel.local_predicates:
            return 1.0
        pred = bind_params(conjoin(rel.local_predicates), params)
        return self.stats.predicate_selectivity(pred, {rel.alias: rel.table})

    def _conjunct_selectivity(
        self, conjunct: Expression, block: SPJBlock, params: Params
    ) -> float:
        alias_tables = block.alias_tables()
        pair = as_equijoin(conjunct)
        if pair is not None:
            left, right = pair
            return self.stats.join_selectivity(
                alias_tables[left.qualifier],
                left.name,
                alias_tables[right.qualifier],
                right.name,
            )
        return self.stats.predicate_selectivity(bind_params(conjunct, params), alias_tables)

    def _subset_rows(
        self,
        subset: FrozenSet[str],
        block: SPJBlock,
        base_rows: Dict[str, float],
        params: Params,
    ) -> float:
        rows = 1.0
        for alias in subset:
            rows *= base_rows[alias]
        for conjunct in block.join_conjuncts:
            refs = referenced_aliases(conjunct)
            if refs and refs <= subset and len(refs) >= 2:
                rows *= self._conjunct_selectivity(conjunct, block, params)
        return max(rows, 0.0)

    # ------------------------------------------------------------------
    # Access paths
    # ------------------------------------------------------------------
    def _access_paths(self, rel: BaseRelation, params: Params) -> List[PhysicalCandidate]:
        table = self.database.table(rel.table)
        alias = rel.alias
        stats = self.stats
        n = float(stats.row_count(rel.table))
        sel = self._local_selectivity(rel, params)
        est = n * sel
        preds = list(rel.local_predicates)
        pred = conjoin(preds)
        db = self.database
        out: List[PhysicalCandidate] = []

        def with_filter(
            op: Operator, predicate: Optional[Expression], params: Params
        ) -> Operator:
            predicate = _bound(predicate, params)
            return Filter(op, predicate, rel.carried) if predicate is not None else op

        # 1. Sequential scan.
        scan_cost = n * C.ROW_COST + n * len(preds) * C.PRED_COST

        def build_seq(params: Params = None, table=table, alias=alias, pred=pred) -> Operator:
            return with_filter(SeqScan(table, alias, db.stats, rel.columns), pred, params)

        out.append(PhysicalCandidate(scan_cost, est, None, build_seq))

        # 2. Hash-index probe for a col = literal / parameter conjunct.
        for conjunct in preds:
            key_col, key_expr = _constant_equality(conjunct, alias)
            if key_col is None:
                continue
            index = table.hash_index_on([key_col])
            if index is None:
                continue
            col_stats = stats.table_stats(rel.table).column(key_col)
            match_rows = n * (col_stats.eq_selectivity() if col_stats else 0.01)
            remaining = [c for c in preds if c is not conjunct]
            probe_cost = (
                C.INDEX_PROBE_COST
                + match_rows * C.ROW_COST
                + match_rows * len(remaining) * C.PRED_COST
            )

            def build_probe(
                params: Params = None,
                table=table,
                alias=alias,
                index=index,
                key_expr=key_expr,
                remaining=tuple(remaining),
            ) -> Operator:
                key = bind_params(key_expr, params).value
                return with_filter(
                    HashIndexScan(table, alias, index, key, db.stats, rel.columns),
                    conjoin(remaining),
                    params,
                )

            out.append(PhysicalCandidate(probe_cost, est, None, build_probe))

        # 3. Ordered-index scans (provide interesting orders).
        for index_name, sorted_index in table.sorted_indexes.items():
            column = table.schema.columns[sorted_index.column_position].name.lower()
            ordered_cost = (
                n * C.ROW_COST * C.ORDERED_SCAN_FACTOR + n * len(preds) * C.PRED_COST
            )
            for descending in (False, True):

                def build_ordered(
                    params: Params = None,
                    table=table,
                    alias=alias,
                    sorted_index=sorted_index,
                    descending=descending,
                    pred=pred,
                ) -> Operator:
                    return with_filter(
                        OrderedIndexScan(
                            table,
                            alias,
                            sorted_index,
                            descending,
                            stats=db.stats,
                            columns=rel.columns,
                        ),
                        pred,
                        params,
                    )

                out.append(
                    PhysicalCandidate(
                        ordered_cost,
                        est,
                        (alias, column, descending),
                        build_ordered,
                    )
                )
        return out

    # ------------------------------------------------------------------
    # DP enumeration
    # ------------------------------------------------------------------
    def _enumerate(
        self, block: SPJBlock, params: Params
    ) -> Dict[FrozenSet[str], Dict[Optional[OrderSpec], PhysicalCandidate]]:
        aliases = block.aliases
        base_rows = {
            rel.alias: max(
                1.0, self.stats.row_count(rel.table) * self._local_selectivity(rel, params)
            )
            for rel in block.relations
        }
        # Precompute per-conjunct metadata once: referenced aliases and
        # the equi-join decomposition (the DP touches these thousands of
        # times for wide chain queries).
        conjunct_refs: List[Tuple[Expression, FrozenSet[str], object]] = [
            (c, frozenset(referenced_aliases(c)), as_equijoin(c))
            for c in block.join_conjuncts
        ]
        adjacency: Dict[str, set] = {a: set() for a in aliases}
        for _, refs, _pair in conjunct_refs:
            for a in refs:
                if a in adjacency:
                    adjacency[a] |= refs - {a}
        overall_connected = self._is_connected(frozenset(aliases), adjacency)

        table: Dict[FrozenSet[str], Dict[Optional[OrderSpec], PhysicalCandidate]] = {}
        for rel in block.relations:
            per_order: Dict[Optional[OrderSpec], PhysicalCandidate] = {}
            for cand in self._access_paths(rel, params):
                existing = per_order.get(cand.order)
                if existing is None or cand.cost < existing.cost:
                    per_order[cand.order] = cand
            table[frozenset([rel.alias])] = per_order

        for size in range(2, len(aliases) + 1):
            for combo in itertools.combinations(sorted(aliases), size):
                subset = frozenset(combo)
                # Connected subsets only (avoids cartesian intermediate
                # products); when the whole join graph is disconnected a
                # cross product is unavoidable and everything is kept.
                if overall_connected and not self._is_connected(subset, adjacency):
                    continue
                est_rows = self._subset_rows(subset, block, base_rows, params)
                per_order: Dict[Optional[OrderSpec], PhysicalCandidate] = {}
                splits = list(_splits(subset))
                connected = [
                    (l, r)
                    for l, r in splits
                    if self._spanning(conjunct_refs, l, r)
                ]
                usable = connected if connected else splits
                for left_set, right_set in usable:
                    if left_set not in table or right_set not in table:
                        continue
                    for cand in self._join_candidates(
                        block, table, left_set, right_set, est_rows, conjunct_refs
                    ):
                        existing = per_order.get(cand.order)
                        if existing is None or cand.cost < existing.cost:
                            per_order[cand.order] = cand
                if not per_order:
                    raise OptimizerError(f"no join plan for subset {sorted(subset)}")
                table[subset] = _prune(per_order)
        if frozenset(aliases) not in table:
            raise OptimizerError("no plan found for the full relation set")
        return table

    @staticmethod
    def _is_connected(subset: FrozenSet[str], adjacency: Dict[str, set]) -> bool:
        if len(subset) <= 1:
            return True
        seen = set()
        stack = [next(iter(subset))]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend((adjacency.get(node, set()) & subset) - seen)
        return seen == subset

    @staticmethod
    def _spanning(
        conjunct_refs: List[Tuple[Expression, FrozenSet[str], object]],
        left: FrozenSet[str],
        right: FrozenSet[str],
    ) -> bool:
        union = left | right
        for _, refs, _pair in conjunct_refs:
            if refs & left and refs & right and refs <= union:
                return True
        return False

    def _join_candidates(
        self,
        block: SPJBlock,
        table: Dict[FrozenSet[str], Dict[Optional[OrderSpec], PhysicalCandidate]],
        left_set: FrozenSet[str],
        right_set: FrozenSet[str],
        est_rows: float,
        conjunct_refs: List[Tuple[Expression, FrozenSet[str], object]],
    ) -> List[PhysicalCandidate]:
        subset = left_set | right_set
        spanning = [
            (c, pair)
            for c, refs, pair in conjunct_refs
            if refs & left_set and refs & right_set and refs <= subset
        ]
        edges: List[EquiJoinEdge] = []
        residual: List[Expression] = []
        for conjunct, pair in spanning:
            if pair is None:
                residual.append(conjunct)
                continue
            left_ref, right_ref = pair
            if left_ref.qualifier in left_set and right_ref.qualifier in right_set:
                edges.append(
                    EquiJoinEdge(
                        left_ref.qualifier, left_ref.name,
                        right_ref.qualifier, right_ref.name, conjunct,
                    )
                )
            elif right_ref.qualifier in left_set and left_ref.qualifier in right_set:
                edges.append(
                    EquiJoinEdge(
                        right_ref.qualifier, right_ref.name,
                        left_ref.qualifier, left_ref.name, conjunct,
                    )
                )
            else:
                residual.append(conjunct)

        left_cands = table[left_set]
        right_cands = table[right_set]
        best_left = min(left_cands.values(), key=lambda c: c.cost)
        best_right = min(right_cands.values(), key=lambda c: c.cost)
        residual_pred = conjoin(residual)
        out: List[PhysicalCandidate] = []

        if edges:
            left_keys = [(e.left_alias, e.left_column) for e in edges]
            right_keys = [(e.right_alias, e.right_column) for e in edges]

            # Hash join: build on the (cheapest) right, stream every
            # retained left candidate to preserve its order.
            for left_cand in left_cands.values():
                hj_cost = (
                    left_cand.cost
                    + best_right.cost
                    + best_right.est_rows * C.HASH_BUILD_COST
                    + left_cand.est_rows * C.HASH_PROBE_COST
                    + est_rows * C.OUTPUT_ROW_COST
                )

                def build_hash(
                    params: Params = None,
                    left_cand=left_cand,
                    right_cand=best_right,
                    left_keys=tuple(left_keys),
                    right_keys=tuple(right_keys),
                    residual_pred=residual_pred,
                ) -> Operator:
                    left_op = left_cand.build(params)
                    right_op = right_cand.build(params)
                    lpos = [left_op.layout.position(a, c) for a, c in left_keys]
                    rpos = [right_op.layout.position(a, c) for a, c in right_keys]
                    return HashJoin(
                        left_op, right_op, lpos, rpos, _bound(residual_pred, params)
                    )

                out.append(
                    PhysicalCandidate(hj_cost, est_rows, left_cand.order, build_hash)
                )

            # Index nested loops: right side must be a single relation
            # with a hash index on its join column(s).
            if len(right_set) == 1:
                inlj = self._inlj_candidate(
                    block, left_cands, right_set, edges, residual_pred, est_rows
                )
                out.extend(inlj)

            # Sort-merge join: produces left-key ascending order.
            first = edges[0]
            smj_cost = (
                best_left.cost
                + best_right.cost
                + C.sort_cost(best_left.est_rows)
                + C.sort_cost(best_right.est_rows)
                + (best_left.est_rows + best_right.est_rows) * C.ROW_COST
                + est_rows * C.OUTPUT_ROW_COST
            )

            def build_smj(
                params: Params = None,
                left_cand=best_left,
                right_cand=best_right,
                left_keys=tuple(left_keys),
                right_keys=tuple(right_keys),
                residual_pred=residual_pred,
            ) -> Operator:
                left_op = left_cand.build(params)
                right_op = right_cand.build(params)
                lpos = [left_op.layout.position(a, c) for a, c in left_keys]
                rpos = [right_op.layout.position(a, c) for a, c in right_keys]
                return SortMergeJoin(
                    left_op, right_op, lpos, rpos, _bound(residual_pred, params)
                )

            out.append(
                PhysicalCandidate(
                    smj_cost,
                    est_rows,
                    (first.left_alias, first.left_column, False),
                    build_smj,
                )
            )
        else:
            # No equi edge: block nested loops with the residual (theta
            # or cross) predicate.
            nlj_cost = (
                best_left.cost
                + best_right.cost
                + best_left.est_rows * best_right.est_rows * C.NLJ_PAIR_COST
                + est_rows * C.OUTPUT_ROW_COST
            )

            def build_nlj(
                params: Params = None,
                left_cand=best_left,
                right_cand=best_right,
                residual_pred=residual_pred,
            ) -> Operator:
                return NestedLoopJoin(
                    left_cand.build(params),
                    right_cand.build(params),
                    _bound(residual_pred, params),
                )

            out.append(
                PhysicalCandidate(nlj_cost, est_rows, best_left.order, build_nlj)
            )
        return out

    def _inlj_candidate(
        self,
        block: SPJBlock,
        left_cands: Dict[Optional[OrderSpec], PhysicalCandidate],
        right_set: FrozenSet[str],
        edges: List[EquiJoinEdge],
        residual_pred: Optional[Expression],
        est_rows: float,
    ) -> List[PhysicalCandidate]:
        alias = next(iter(right_set))
        rel = block.relation(alias)
        tab = self.database.table(rel.table)
        out: List[PhysicalCandidate] = []
        for probe_edge in edges:
            index = tab.hash_index_on([probe_edge.right_column])
            if index is None:
                continue
            other_edges = [e for e in edges if e is not probe_edge]
            extra = [e.conjunct for e in other_edges]
            all_residual = ([residual_pred] if residual_pred is not None else []) + extra
            all_residual.extend(rel.local_predicates)
            combined_residual = conjoin(all_residual)
            n_right = float(self.stats.row_count(rel.table))
            fanout = n_right * self.stats.join_selectivity(
                block.alias_tables()[probe_edge.left_alias],
                probe_edge.left_column,
                rel.table,
                probe_edge.right_column,
            )
            for left_cand in left_cands.values():
                inlj_cost = (
                    left_cand.cost
                    + left_cand.est_rows * C.INDEX_PROBE_COST
                    + left_cand.est_rows * fanout * C.ROW_COST
                    + est_rows * C.OUTPUT_ROW_COST
                )

                def build_inlj(
                    params: Params = None,
                    left_cand=left_cand,
                    tab=tab,
                    alias=alias,
                    index=index,
                    probe_edge=probe_edge,
                    combined_residual=combined_residual,
                ) -> Operator:
                    left_op = left_cand.build(params)
                    lpos = [
                        left_op.layout.position(
                            probe_edge.left_alias, probe_edge.left_column
                        )
                    ]
                    return IndexNestedLoopJoin(
                        left_op,
                        tab,
                        alias,
                        index,
                        lpos,
                        _bound(combined_residual, params),
                        rel.columns,
                    )

                out.append(
                    PhysicalCandidate(inlj_cost, est_rows, left_cand.order, build_inlj)
                )
            break  # one probe edge is enough; others become residuals
        return out


def _bound(predicate: Optional[Expression], params: Params) -> Optional[Expression]:
    return None if predicate is None else bind_params(predicate, params)


def _constant_equality(
    conjunct: Expression, alias: str
) -> Tuple[Optional[str], Optional[Expression]]:
    """If ``conjunct`` is ``alias.col = literal`` or ``alias.col =
    :param`` (either side), return (column, the literal or parameter);
    else (None, None)."""
    if not isinstance(conjunct, Comparison) or conjunct.op != "=":
        return None, None
    left, right = conjunct.left, conjunct.right
    if isinstance(left, ColumnRef) and isinstance(right, (Literal, Param)):
        ref, key = left, right
    elif isinstance(right, ColumnRef) and isinstance(left, (Literal, Param)):
        ref, key = right, left
    else:
        return None, None
    if ref.qualifier not in (None, alias):
        return None, None
    return ref.name, key


def _splits(subset: FrozenSet[str]):
    """Left-deep (outer composite, inner single-relation) partitions —
    the System R search space ([24]).  For two-relation subsets this
    yields both orientations."""
    for item in sorted(subset):
        right = frozenset([item])
        yield subset - right, right


def _prune(
    per_order: Dict[Optional[OrderSpec], PhysicalCandidate]
) -> Dict[Optional[OrderSpec], PhysicalCandidate]:
    """Drop ordered candidates that cost more than the best unordered
    candidate would cost *including a sort* — they can never win."""
    if None not in per_order:
        return per_order
    base = per_order[None]
    kept: Dict[Optional[OrderSpec], PhysicalCandidate] = {None: base}
    for order, cand in per_order.items():
        if order is None:
            continue
        if cand.cost <= base.cost + C.sort_cost(base.est_rows):
            kept[order] = cand
    return kept

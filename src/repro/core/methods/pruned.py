"""One query's endpoint sets and its online checks of pruned topologies.

A 2-query constrains two entity sets.  :class:`Endpoints` reads each
constraint's keep flags over its entity table; everything downstream is
a membership test against the result — the batch DGJ probe reads the
per-row keep flags, the pruned-check walk reads the ids.

:class:`PrunedChecks` is the one place a pruned topology is checked
online: it gives the answer of the paper's SQL5 (and of each lower
branch of SQL1) without executing a statement.  The check is one walk
over the topology's chains.  Its first phase, a forward semi-join
reduction (:func:`~repro.core.pathsql.chains_reach`), walks the chains
from the first endpoint set; when they cannot reach the second, the
answer is "no witness".  Otherwise an exact witness search
(:func:`~repro.core.pathsql.chains_witness`) looks for one pair the
statement would return — simple paths, every class connecting the same
pair, the topology's ExcpTops pairs left out — and stops at the first.
:func:`merge_ranked` merges the checks into a top-k method's best-first
stream, the SQL3/SQL4 rows or the DGJ stack's groups.

A selection is read from the relational keep-flag memo
(:mod:`repro.relational.keepmemo`), one entry per table version and
conjunct, which the regular statements' filters read too.  A check's
*outcome* — proved empty, witness, or no witness — is a function of the
constraints alone, so it is kept across queries in the system's
selection cache
(:attr:`~repro.core.engine.TopologySearchSystem.selection_cache`) under
``(tid, end1 side, end2 side)``, the sides being the ``(entity table,
constraint)`` pairs in build orientation, so a reversed query reads the
same entry.  The reduction's chain reach — the far-end ids one class's
chain reaches from the first endpoint set — depends on the class and
the first side alone, and many pruned topologies share a class, so the
same cache holds it under ``("reach", oriented signature, end1 side)``
(a read-only id array or frozenset).

Every entry is stamped with ``(build_generation,
database.change_token())``, read once per query before anything is
computed: a rebuild (which reassigns tids), a restore or any table
write retires every entry made before it.  A cached value is exactly
what the code computes on a miss, and a hit charges the same
``pruned_checks`` / ``pruned_checks_proved_empty`` counters, so answers,
``work`` and the plans fed by it do not depend on the cache.
"""

from __future__ import annotations

from functools import reduce
from typing import Any, Iterator, List, Optional, Tuple

from repro.cache import MISSING
from repro.core.model import ClassSignature, Topology
from repro.core.pathsql import chain_reach, chains_reach, chains_witness
from repro.core.query import Constraint, TopologyQuery
from repro.errors import TopologyError
from repro.relational.column import ColumnValues, compact_column, is_ndarray
from repro.relational.expressions import conjoin, split_conjuncts
from repro.relational.keepmemo import and_keep, every_row, memo_flags, split_memoised
from repro.relational.operators import table_batch, table_layout
from repro.relational.table import Table

# The outcomes of a pruned check, as the selection cache holds them.
PROVED_EMPTY = "proved empty"
WITNESS = "witness"
NO_WITNESS = "no witness"


def _read_only(values: Any, freeze: type) -> Any:
    """``values`` made immutable in place (a numpy array) or as
    ``freeze(values)`` (a list or set): a selection is shared by every
    reader of one query, a chain reach by every check that reads it."""
    if is_ndarray(values):
        values.flags.writeable = False
        return values
    return freeze(values)


def _select(table: Table, constraint: Constraint) -> Tuple[ColumnValues, Any]:
    """The keep flags of ``constraint`` over every row of ``table``
    (unknown is not kept, as in a WHERE clause) and the ids of the kept
    rows: a bool array or tuple, and an id array where the ID column has
    one, a frozenset otherwise.  The conjuncts the keep-flag memo holds
    are read from it; only the rest are evaluated here."""
    keyed, rest = split_memoised(table, split_conjuncts(constraint.to_expression("q")))
    flags = [memo_flags(table, "q", keyed)] if keyed else []
    residual = conjoin(rest)
    if residual is not None:
        result = residual.bind_batch(table_layout(table, "q"))(table_batch(table))
        if result.kind != "const" or result.data is not True:
            flags.append(result.as_keep())
    keep = reduce(and_keep, flags) if flags else every_row(table.row_count)
    position = table.schema.column_position("ID")
    values = table.store.array(position)
    if values is None:
        values = table.store.column_values(position)
    ids = compact_column(values, keep)
    return _read_only(keep, tuple), _read_only(ids, frozenset)


class Endpoints:
    """The two endpoint constraints of one query, each selected once.
    Side 0 is ``(entity1, constraint1)``, side 1 the other."""

    def __init__(self, system, query: TopologyQuery) -> None:
        self._database = system.database
        # Read before anything is computed: an outcome made while the
        # data changes is put under the older stamp and retired on its
        # next lookup — stale in the safe direction.
        self.stamp = (system.build_generation, system.database.change_token())
        self.sides = (
            (query.entity1, query.constraint1),
            (query.entity2, query.constraint2),
        )
        self._selections: List[Optional[Tuple[ColumnValues, Any]]] = [None, None]

    def keep(self, side: int) -> ColumnValues:
        """Per-row keep flags over the side's entity table (read-only)."""
        return self._selection(side)[0]

    def ids(self, side: int) -> Any:
        """The ids of the side's kept entities (read-only)."""
        return self._selection(side)[1]

    def _selection(self, side: int) -> Tuple[ColumnValues, Any]:
        selection = self._selections[side]
        if selection is None:
            entity, constraint = self.sides[side]
            selection = _select(self._database.table(entity), constraint)
            self._selections[side] = selection
        return selection


def pruned_topologies(system, query: TopologyQuery) -> List[Topology]:
    """The pruned topologies of the query's entity pair, by tid."""
    store = system.require_store()
    pair = system.store_entity_pair(query)
    topologies = (store.topology(tid) for tid in sorted(store.pruned_tids))
    return [t for t in topologies if t.entity_pair == pair]


class PrunedChecks:
    """The online checks of one query's pruned topologies."""

    def __init__(self, system, query: TopologyQuery, endpoints: Endpoints) -> None:
        self._system = system
        self._endpoints = endpoints
        self._entity_pair = system.store_entity_pair(query)
        # Chains are stored in build orientation: they start at the side
        # whose entity set is the store's first.
        self._first = 0 if system.orientation(query) else 1
        self.topologies = pruned_topologies(system, query)

    def witnessed(self) -> List[int]:
        """The tids of the topologies whose check holds, each checked."""
        return [t.tid for t in self.topologies if self.has_witness(t)]

    def has_witness(self, topology: Topology) -> bool:
        """The answer of SQL5: does some satisfying pair match the
        topology's path condition and survive its exception pairs?"""
        stats = self._system.database.stats
        stats.pruned_checks += 1
        cache, stamp = self._system.selection_cache, self._endpoints.stamp
        key = self.outcome_key(topology)
        outcome = cache.get(key, MISSING, stamp)
        if outcome is MISSING:
            outcome = self._check(topology)
            cache.put(key, outcome, stamp)
        if outcome == PROVED_EMPTY:
            stats.pruned_checks_proved_empty += 1
        return outcome == WITNESS

    def outcome_key(self, topology: Topology) -> Tuple[int, Any, Any]:
        """The selection-cache key of the topology's check: its tid and
        the two sides in build orientation."""
        sides = self._endpoints.sides
        return (topology.tid, sides[self._first], sides[1 - self._first])

    def reach_key(self, oriented: ClassSignature) -> Tuple[str, ClassSignature, Any]:
        """The selection-cache key of an oriented signature's chain
        reach: the signature and the first endpoint's side."""
        return ("reach", oriented, self._endpoints.sides[self._first])

    def _check(self, topology: Topology) -> str:
        database = self._system.database
        es1, es2 = self._entity_pair
        signatures = topology.class_signatures
        end1_ids = self._endpoints.ids(self._first)
        ends = chains_reach(
            signatures, es1, es2, self._endpoints.ids(1 - self._first), self._reach
        )
        if len(ends) == 0:
            return PROVED_EMPTY
        found = chains_witness(
            database, signatures, es1, es2, end1_ids, ends, self._exceptions(topology)
        )
        return WITNESS if found else NO_WITNESS

    def _reach(self, oriented: ClassSignature) -> Any:
        """The far-end ids ``oriented``'s chain reaches from the first
        endpoint set, shared through the selection cache."""
        cache, stamp = self._system.selection_cache, self._endpoints.stamp
        key = self.reach_key(oriented)
        ids = cache.get(key, MISSING, stamp)
        if ids is MISSING:
            ids = chain_reach(
                self._system.database, oriented, self._endpoints.ids(self._first)
            )
            ids = _read_only(ids, frozenset)
            cache.put(key, ids, stamp)
        return ids

    def _exceptions(self, topology: Topology) -> Tuple[ColumnValues, ColumnValues]:
        """The (E1, E2) columns of the topology's ExcpTops rows."""
        table = self._system.database.table("ExcpTops")
        index = table.hash_index_on(["TID"])
        if index is None:
            raise TopologyError("ExcpTops.TID has no hash index")
        rows = index.lookup(topology.tid)
        e1, e2 = table.store.take_columns(
            rows, [table.schema.column_position(c) for c in ("E1", "E2")]
        )
        return e1, e2


def merge_ranked(
    stream: Iterator[Tuple[int, float]],
    checks: Optional[PrunedChecks],
    query: TopologyQuery,
) -> Tuple[List[int], List[float]]:
    """The best ``query.k`` answers of a best-first ``(tid, score)``
    stream with the checked pruned topologies merged in by score
    (Section 5.3); ``checks`` is None over AllTops.

    The stream is read one answer ahead.  A pruned topology is checked,
    best score first, only while fewer than k answers are in and its
    (score, tid) beats the stream's next answer — the checks that could
    still change the top k.
    """
    ranking = query.ranking
    pruned = iter(
        sorted(
            checks.topologies if checks is not None else (),
            key=lambda t: (-t.scores[ranking], -t.tid),
        )
    )
    topology = next(pruned, None)
    pending = next(stream, None)
    tids: List[int] = []
    scores: List[float] = []
    while len(tids) < query.k:
        if topology is not None and checks is not None:
            score = topology.scores[ranking]
            if pending is None or (score, topology.tid) > (pending[1], pending[0]):
                if checks.has_witness(topology):
                    tids.append(topology.tid)
                    scores.append(score)
                topology = next(pruned, None)
                continue
        if pending is None:
            break
        tids.append(pending[0])
        scores.append(pending[1])
        pending = next(stream, None)
    return tids, scores

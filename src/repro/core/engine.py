"""The Topology Query Engine facade (Figure 10's architecture).

``TopologySearchSystem`` owns the base data (relational database + data
graph), runs the offline phase (Topology Computation -> Topology
Pruning -> materialized tables), and dispatches queries to any of the
nine methods the paper evaluates (Section 6.1):

====================  =====================================================
method name           description
====================  =====================================================
``sql``               one existence query per candidate topology (§3.1)
``full-top``          single join against the full AllTops table (§3.2)
``fast-top``          LeftTops join + online checks for pruned (§4.3, SQL1)
``full-top-k``        AllTops + ORDER BY score FETCH FIRST k (SQL3/4)
``fast-top-k``        staged LeftTops top-k + pruned checks (SQL4/SQL5)
``full-top-k-et``     DGJ stack over AllTops (§5.3)
``fast-top-k-et``     DGJ stack over LeftTops + pruned merging (§5.3)
``full-top-k-opt``    cost-based choice between full-top-k and its ET plan
``fast-top-k-opt``    cost-based choice between fast-top-k and its ET plan
====================  =====================================================
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.biozon.schema import database_to_graph
from repro.cache import MISSING, CacheStats, LRUCache
from repro.core.alltops import AllTopsReport, compute_alltops
from repro.core.etindexes import EtIndexes
from repro.core.model import Topology
from repro.core.plan import CostCalibrator, Planner, QueryPlan, work_units
from repro.core.pruning import PruneReport, apply_pruning
from repro.core.query import TopologyQuery
from repro.core.store import TopologyStore
from repro.core.topologies import DEFAULT_COMBINATION_CAP
from repro.core.weak import WeakPathRules
from repro.errors import TopologyError
from repro.graph.labeled_graph import LabeledGraph
from repro.obs import span as obs_span
from repro.obs import tracer as obs_tracer
from repro.relational.database import Database
from repro.relational.sql.planner import Engine
from repro.relational.statistics import StatsCatalog

# Capacity of TopologySearchSystem.selection_cache, which holds two
# kinds of entry (repro.core.methods.pruned).  A pruned-check outcome is
# one short string under a key of a tid and two (entity, constraint)
# sides, a few hundred bytes.  A chain reach holds the far-end ids one
# class's chain reaches, at most one per row of the far-end entity
# table (1,100 rows at most on the benchmark's store): an int64 array
# on the numpy leg, 512 x 1,100 x 8 B = 4.5 MB at worst; a frozenset of
# the table's own id objects without numpy or over non-integer ids,
# about 30 B per id, 512 x 1,100 x 30 B = 17 MB at worst.  Endpoint
# selections are not held here: they are read from the relational
# keep-flag memo (repro.relational.database.KEEP_MEMO_SIZE states its
# own worst case).
SELECTION_CACHE_SIZE = 512

# The build() parameters a rebuild takes over from the last build's
# recorded build_config.  Snapshots written by older versions record
# more keys ("parallel", "partitions"); a rebuild ignores them.
REBUILD_CARRIED = (
    "max_length", "prune", "prune_threshold", "combination_cap", "per_pair_path_limit"
)


@dataclass
class BuildReport:
    """Combined offline-phase summary.  ``spans`` holds the build-phase
    trace (wire-format span records: compute, prune, materialize) when
    tracing is enabled."""

    alltops: AllTopsReport
    pruning: Optional[PruneReport]
    elapsed_seconds: float
    spans: List[Dict[str, object]] = field(default_factory=list)


class TopologySearchSystem:
    """Offline computation plus online query dispatch.

    Concurrency contract: :meth:`search`, :meth:`explain` and the plan
    layer only *read* the built store and base tables, and every shared
    mutable hot-path structure they touch — the plan cache, the
    selection cache, the cost calibrator, the per-thread executor
    counters, the lazily refreshed statistics — is thread-safe, so any
    number of threads may query one system concurrently.  :meth:`build` and :meth:`adopt_store` are
    exclusive writers: they replace the materialized tables in place and
    must not overlap with queries (that fencing is the job of
    :class:`~repro.service.server.TopologyServer`, which hot-swaps a
    freshly built clone instead of mutating the serving generation)."""

    def __init__(
        self,
        database: Database,
        graph: Optional[LabeledGraph] = None,
        weak_rules: Optional[WeakPathRules] = None,
    ) -> None:
        self.database = database
        self.graph = graph if graph is not None else database_to_graph(database)
        self.weak_rules = weak_rules or WeakPathRules()
        self.store: Optional[TopologyStore] = None
        self.max_length: Optional[int] = None
        self.built_pairs: List[Tuple[str, str]] = []
        self.stats = StatsCatalog(database)
        self.engine = Engine(database, self.stats)
        self.build_report: Optional[BuildReport] = None
        # The parameters of the last build() — persisted into snapshots
        # (repro.persist) and reused by rebuilt().
        self.build_config: Optional[Dict[str, object]] = None
        # Bumped on every (re)build or snapshot restore; caches layered on
        # top of the system (e.g. repro.service) key their validity on it.
        self.build_generation: int = 0
        self._methods: Dict[str, object] = {}
        # The plan layer (repro.core.plan): per-strategy cost calibration
        # learned from execution feedback, the planner that applies it,
        # and a plan cache keyed by query class so repeated-shape traffic
        # skips the optimizer.  Its entries are stamped with
        # (build_generation, calibrator.version): a rebuild or a material
        # factor drift retires every plan made before it.
        self.calibrator = CostCalibrator()
        self.planner = Planner(self)
        self.plan_cache = LRUCache(512)
        self.calibration_enabled = True
        # Pruned-check outcomes and chain reach, which depend on a
        # query's constraints alone, kept across queries and stamped with
        # (build_generation, change_token()); see
        # repro.core.methods.pruned.
        self.selection_cache = LRUCache(SELECTION_CACHE_SIZE)
        # The ET plans' group orders and group join indexes, one per
        # version of the tables they read (repro.core.etindexes).
        self.et_indexes = EtIndexes(database)

    # ------------------------------------------------------------------
    # Offline phase
    # ------------------------------------------------------------------
    def build(
        self,
        entity_pairs: Sequence[Tuple[str, str]],
        max_length: int = 3,
        prune_threshold: Optional[int] = None,
        prune: bool = True,
        combination_cap: int = DEFAULT_COMBINATION_CAP,
        per_pair_path_limit: Optional[int] = None,
    ) -> BuildReport:
        """Run Topology Computation and Topology Pruning, then
        materialize the derived tables and refresh statistics."""
        start = time.perf_counter()
        with obs_span(
            "engine.build", ingress=True, pairs=len(entity_pairs), max_length=max_length
        ) as build_span:
            with obs_span("build.compute_alltops") as alltops_span:
                store, alltops_report = compute_alltops(
                    self.graph,
                    entity_pairs,
                    max_length,
                    store=TopologyStore(self.weak_rules),
                    combination_cap=combination_cap,
                    per_pair_path_limit=per_pair_path_limit,
                )
                alltops_span.tag(
                    combinations=alltops_report.combinations,
                    canonical_searches=alltops_report.canonical_searches,
                )
            prune_report: Optional[PruneReport] = None
            with obs_span("build.prune", enabled=prune):
                if prune:
                    prune_report = apply_pruning(store, prune_threshold)
                else:
                    store.lefttops_rows = list(store.alltops_rows)
                    store.excptops_rows = []
            with obs_span("build.materialize"):
                store.materialize(self.database)
                self.stats.refresh()
        build_spans: List[Dict[str, object]] = []
        if build_span.trace_id is not None:
            build_spans = [
                s.to_wire() for s in obs_tracer().trace_spans(build_span.trace_id)
            ]
        self.store = store
        self.max_length = max_length
        self.built_pairs = [tuple(p) for p in entity_pairs]
        self._methods.clear()
        self.et_indexes.clear()
        self.build_generation += 1
        self.build_config = {
            "max_length": max_length,
            "prune": prune,
            "prune_threshold": prune_threshold,
            "combination_cap": combination_cap,
            "per_pair_path_limit": per_pair_path_limit,
        }
        self.build_report = BuildReport(
            alltops=alltops_report,
            pruning=prune_report,
            elapsed_seconds=time.perf_counter() - start,
            spans=build_spans,
        )
        return self.build_report

    def require_store(self) -> TopologyStore:
        if self.store is None:
            raise TopologyError("offline phase not run: call build() first")
        return self.store

    # ------------------------------------------------------------------
    # Persistence (see repro.persist for the snapshot format)
    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Write a snapshot of the built system to ``path`` (SQLite)."""
        from repro.persist import save_system

        save_system(self, path)

    @classmethod
    def from_snapshot(cls, path) -> "TopologySearchSystem":
        """Restore a system from a snapshot written by :meth:`save` —
        the millisecond-scale cold start that replaces rerunning
        :meth:`build`."""
        from repro.persist import load_system

        return load_system(path)

    def clone_base(self) -> "TopologySearchSystem":
        """A new system over a *copy* of the base relations.

        The derived tables (TopInfo, AllTops, LeftTops, ExcpTops) are
        excluded — the clone is meant to run its own offline phase — and
        the clone shares no mutable state with this system: its own
        database (tables, indexes, executor counters), its own data
        graph rebuilt from the copied relations, its own statistics,
        plan cache and calibrator.  That independence is what makes a
        hot rebuild possible: :class:`~repro.service.server.TopologyServer`
        builds the next generation on a clone while readers keep
        querying this one, then swaps.

        Row tuples are shared (they are immutable); only the containers
        are copied.  Safe to call while other threads run queries — it
        only reads the base tables, which queries never mutate."""
        from repro.persist.snapshot import DERIVED_TABLES

        database = Database(self.database.name)
        for dump in self.database.dump_tables(exclude=DERIVED_TABLES):
            database.restore_table(dump)
        return TopologySearchSystem(database, weak_rules=self.weak_rules)

    def rebuilt(
        self,
        entity_pairs: Optional[Sequence[Tuple[str, str]]] = None,
        **overrides: Any,
    ) -> Tuple["TopologySearchSystem", BuildReport]:
        """Rebuild like before: a :meth:`clone_base` successor, built,
        and its report; this system is left untouched.

        The built pairs and the recorded :data:`REBUILD_CARRIED`
        parameters are reused (``max_length`` is the store's own, so a
        system built at l=4 never shrinks to the ``build()`` default and
        rejects its traffic); explicit arguments win.  Calibration state
        and ``calibration_enabled`` carry over.  Both serving front ends
        rebuild through this one definition."""
        recorded = {**(self.build_config or {}), "max_length": self.max_length}
        kwargs: Dict[str, Any] = {
            key: recorded[key]
            for key in REBUILD_CARRIED
            if recorded.get(key) is not None
        }
        kwargs.update(overrides)
        pairs = list(entity_pairs if entity_pairs is not None else self.built_pairs)
        successor = self.clone_base()
        report = successor.build(pairs, **kwargs)
        successor.restore_calibration(self.calibrator.export_state())
        successor.calibration_enabled = self.calibration_enabled
        return successor, report

    def adopt_store(
        self,
        store: TopologyStore,
        max_length: int,
        built_pairs: Sequence[Tuple[str, str]],
        include_alltops: bool = True,
        validate: bool = False,
        build_config: Optional[Dict[str, object]] = None,
    ) -> None:
        """Install an externally restored store: materialize its derived
        tables and refresh the engine state, without recomputing AllTops.

        This is the restore-side counterpart of :meth:`build`; the
        persistence layer calls it after rebuilding the store and the
        base database from a snapshot.  ``build_config`` carries the
        original build's recorded parameters (snapshots persist them) so
        a later :meth:`rebuilt` can reproduce the build."""
        store.materialize(
            self.database, include_alltops=include_alltops, validate=validate
        )
        # Invalidate rather than refresh: statistics recollect lazily on
        # first use, keeping the snapshot-restore cold start minimal.
        self.stats.invalidate()
        self.store = store
        self.max_length = max_length
        self.built_pairs = [tuple(p) for p in built_pairs]
        self._methods.clear()
        self.et_indexes.clear()
        self.build_generation += 1
        self.build_report = None
        self.build_config = dict(build_config) if build_config else None

    # ------------------------------------------------------------------
    # Query orientation helpers
    # ------------------------------------------------------------------
    def orientation(self, query: TopologyQuery) -> bool:
        """True when the query's (entity1, entity2) matches the build
        orientation (entity1 -> E1); False when reversed."""
        pair = (query.entity1, query.entity2)
        if pair in self.built_pairs:
            return True
        if (pair[1], pair[0]) in self.built_pairs:
            return False
        raise TopologyError(
            f"entity pair {pair!r} was not covered by build(); "
            f"built pairs: {self.built_pairs}"
        )

    def store_entity_pair(self, query: TopologyQuery) -> Tuple[str, str]:
        """The entity pair as stored in TopInfo (build orientation)."""
        if self.orientation(query):
            return (query.entity1, query.entity2)
        return (query.entity2, query.entity1)

    def validate_query(self, query: TopologyQuery) -> None:
        if self.max_length is not None and query.max_length != self.max_length:
            raise TopologyError(
                f"store was built for l={self.max_length}, "
                f"query asks l={query.max_length}"
            )
        self.orientation(query)

    # ------------------------------------------------------------------
    # Method dispatch
    # ------------------------------------------------------------------
    def method(self, name: str):
        """Get (and cache) a method instance by its paper name.

        Safe under concurrent callers: method objects hold the system
        handle and nothing a query writes, so if two threads race the
        first lookup both build an equivalent instance and
        ``setdefault`` keeps exactly one."""
        from repro.core.methods import create_method

        key = name.lower()
        instance = self._methods.get(key)
        if instance is None:
            instance = self._methods.setdefault(key, create_method(key, self))
        return instance

    def search(self, query: TopologyQuery, method: str = "fast-top-k-opt"):
        """Run one query with the chosen method."""
        self.validate_query(query)
        return self.method(method).run(query)

    # ------------------------------------------------------------------
    # Plan layer: caching, EXPLAIN, calibration feedback
    # ------------------------------------------------------------------
    def plan_query(self, query: TopologyQuery, method) -> QueryPlan:
        """The plan ``method`` should execute for ``query``, served from
        the plan cache when its query class was planned before under the
        current build and calibration state."""
        plan_class = self.planner.classify(query, method)
        # One stamp read serves both the lookup and the store: if the
        # calibrator drifts while we plan, re-reading at put() would tag
        # a stale-factored plan as current and the stamp check could
        # never catch it.  Tagged with the pre-planning stamp, such a
        # plan is simply evicted and re-planned on the next lookup.
        stamp = (self.build_generation, self.calibrator.version)
        plan = self.plan_cache.get(plan_class, MISSING, stamp)
        if plan is MISSING:
            plan = self.planner.plan_for(method, query)
            self.plan_cache.put(plan_class, plan, stamp)
        return plan

    def explain(self, query: TopologyQuery, method: str = "fast-top-k-opt") -> QueryPlan:
        """The plan ``search(query, method)`` would execute, with every
        alternative's estimated and calibrated cost filled in and the
        operator tree its strategy builds for ``query`` — render it
        with :meth:`~repro.core.plan.QueryPlan.display`.

        A method that prices its plan on the hot path explains through
        the plan cache.  The others (``sql``, ``full-top``, ``fast-top``)
        run one fixed strategy, so a plan costed here, outside the
        cache, shows what :meth:`search` runs — and no cached plan is
        ever costed only because EXPLAIN asked."""
        self.validate_query(query)
        instance = self.method(method)
        if instance.estimates_costs:
            plan = self.plan_query(query, instance)
        else:
            plan = self.planner.plan_for(instance, query, with_costs=True)
        return replace(plan, operators=instance.operator_tree(plan.strategy, query))

    def record_plan_observation(self, plan: QueryPlan, work: Dict[str, int]) -> None:
        """Feed one execution's (estimated cost, observed work) pair to
        the calibrator.  Only plans from methods that price their
        strategy on the hot path carry an estimate: EXPLAIN's forced
        costings never reach the cache, so never an execution."""
        if not self.calibration_enabled:
            return
        chosen = plan.chosen
        if chosen is None or chosen.estimated_cost is None:
            return
        observed = work_units(work)
        if observed <= 0.0:
            return
        self.calibrator.record(plan.calibration_key, chosen.estimated_cost, observed)

    def invalidate_plans(self) -> None:
        """Drop every cached plan (counters survive)."""
        self.plan_cache.clear()

    def plan_cache_stats(self) -> CacheStats:
        return self.plan_cache.stats()

    def selection_cache_stats(self) -> CacheStats:
        """The selection cache's counters: pruned-check outcomes and
        chain reach (each miss is one check that walked the topology's
        chains, or one chain's reach walked from the first endpoint
        set)."""
        return self.selection_cache.stats()

    def restore_calibration(self, state: Optional[Dict[str, object]]) -> None:
        """Install persisted calibration state (snapshot restore path)
        and drop plans made under the previous factors.  The clear is
        needed: a restored calibrator can repeat the current version
        number with different factors, which the stamp cannot see."""
        self.calibrator = CostCalibrator.from_state(state)
        self.invalidate_plans()

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def topology(self, tid: int) -> Topology:
        return self.require_store().topology(tid)

    def describe_topologies(self, tids: Sequence[int]) -> List[str]:
        return [self.topology(t).display() for t in tids]

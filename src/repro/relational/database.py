"""The database catalog: named tables plus execution-wide counters."""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import CatalogError
from repro.relational.schema import TableSchema
from repro.relational.table import Row, Table


@dataclass
class ExecStats:
    """Abstract work counters accumulated by the executor.

    The cost model and the benchmarks both use these: wall-clock time in
    pure Python is noisy, while "rows scanned + index probes" tracks the
    same quantities the paper's cost model estimates.

    One instance is only ever written by one thread: the catalog hands
    each thread its own instance (see :attr:`Database.stats`), so the
    per-row ``+= 1`` hot path needs no lock and a before/after
    :meth:`snapshot` diff attributes work to exactly the query that ran
    on that thread.

    The last three say how far an early-termination plan went rather
    than what it cost, and carry no weight in the cost calibration:
    ``groups_probed`` (groups a DGJ stack joined into its pairs table)
    and, charged by the topology methods on the same per-thread
    instance so that one diff carries them, ``pruned_checks`` /
    ``pruned_checks_proved_empty`` (online checks of pruned topologies,
    and those among them answered without executing a statement).
    """

    rows_scanned: int = 0
    index_probes: int = 0
    rows_joined: int = 0
    rows_emitted: int = 0
    subqueries_run: int = 0
    groups_skipped: int = 0
    groups_probed: int = 0
    pruned_checks: int = 0
    pruned_checks_proved_empty: int = 0

    def reset(self) -> None:
        for name in vars(self):
            setattr(self, name, 0)

    def total_work(self) -> int:
        """Single scalar "work" figure for coarse comparisons."""
        return self.rows_scanned + self.index_probes + self.rows_joined

    def snapshot(self) -> Dict[str, int]:
        return dict(vars(self))


@dataclass
class TableDump:
    """One table's full state in plain-Python form: the schema, the
    declared secondary indexes, and an iterator over the rows.

    Produced by :meth:`Database.dump_tables` and consumed by
    :meth:`Database.restore_table`; the persistence layer
    (:mod:`repro.persist`) moves these through SQLite without knowing
    anything about table internals.
    """

    schema: TableSchema
    hash_indexes: List[tuple]    # (name, [column, ...])
    sorted_indexes: List[tuple]  # (name, [column])
    rows: Iterator[Row]
    row_count: int


class Database:
    """A named collection of :class:`Table` objects.

    Table lookup is case-insensitive, like the SQL layer's identifiers.
    """

    def __init__(self, name: str = "db") -> None:
        self.name = name
        self._tables: Dict[str, Table] = {}
        self._catalog_version = 0
        # Executor counters are kept per thread: a query plans and
        # executes entirely on one thread, so handing every thread its
        # own ExecStats keeps the per-row increments lock-free *and*
        # keeps per-query before/after diffs exact when many queries run
        # concurrently (a process-wide counter set would interleave
        # them).  ``stats_totals()`` aggregates across threads; buckets
        # of dead threads are folded into ``_stats_retired`` (on the
        # next registration) so thread-per-request callers don't grow
        # the bucket list without bound — and no completed work is ever
        # dropped from the totals.
        self._stats_local = threading.local()
        self._stats_lock = threading.Lock()
        self._stats_buckets: List[Tuple[threading.Thread, ExecStats]] = []
        self._stats_retired = ExecStats()

    @property
    def stats(self) -> ExecStats:
        """This thread's executor counters (created on first use)."""
        stats = getattr(self._stats_local, "stats", None)
        if stats is None:
            stats = ExecStats()
            self._stats_local.stats = stats
            with self._stats_lock:
                self._retire_dead_locked()
                self._stats_buckets.append((threading.current_thread(), stats))
        return stats

    def _retire_dead_locked(self) -> None:
        """Fold buckets of finished threads into the retired totals.
        A dead thread can no longer increment, so the fold is exact."""
        live: List[Tuple[threading.Thread, ExecStats]] = []
        for thread, bucket in self._stats_buckets:
            if thread.is_alive():
                live.append((thread, bucket))
            else:
                for key, value in bucket.snapshot().items():
                    setattr(
                        self._stats_retired,
                        key,
                        getattr(self._stats_retired, key) + value,
                    )
        self._stats_buckets = live

    def stats_totals(self) -> Dict[str, int]:
        """Executor counters summed over every thread that has ever run
        queries against this database (the server-wide view)."""
        with self._stats_lock:
            totals = self._stats_retired.snapshot()
            buckets = [bucket for _, bucket in self._stats_buckets]
        for bucket in buckets:
            for key, value in bucket.snapshot().items():
                totals[key] += value
        return totals

    def reset_all_stats(self) -> None:
        """Zero every thread's counters (and the retired totals).  Not
        safe against concurrent in-flight executions (a racing increment
        may survive); meant for benchmark/test checkpoints on a quiet
        database."""
        with self._stats_lock:
            self._stats_retired.reset()
            buckets = [bucket for _, bucket in self._stats_buckets]
        for bucket in buckets:
            bucket.reset()

    def create_table(self, schema: TableSchema) -> Table:
        key = schema.name.lower()
        if key in self._tables:
            raise CatalogError(f"table {schema.name!r} already exists")
        table = Table(schema)
        self._tables[key] = table
        self._catalog_version += 1
        return table

    def drop_table(self, name: str) -> None:
        key = name.lower()
        if key not in self._tables:
            raise CatalogError(f"unknown table {name!r}")
        del self._tables[key]
        self._catalog_version += 1

    def change_token(self) -> Tuple:
        """A cheap value that changes whenever the catalog or any
        table's data changes — the SQL engine's prepared-statement cache
        revalidates against it, so a cached plan can never serve results
        computed over stale data or a stale schema."""
        return (
            self._catalog_version,
            tuple(table.data_version for table in self._tables.values()),
        )

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def table(self, name: str) -> Table:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise CatalogError(f"unknown table {name!r}") from None

    def table_names(self) -> List[str]:
        return [t.schema.name for t in self._tables.values()]

    def tables(self) -> Iterator[Table]:
        return iter(self._tables.values())

    # ------------------------------------------------------------------
    # Dump / restore (snapshot support)
    # ------------------------------------------------------------------
    def dump_tables(
        self, exclude: Optional[Sequence[str]] = None
    ) -> Iterator[TableDump]:
        """Yield every table (optionally excluding some by name) as a
        :class:`TableDump`, in catalog order."""
        skip = {name.lower() for name in (exclude or ())}
        for table in self._tables.values():
            if table.schema.name.lower() in skip:
                continue
            defs = table.index_definitions()
            yield TableDump(
                schema=table.schema,
                hash_indexes=defs["hash"],
                sorted_indexes=defs["sorted"],
                rows=iter(table.rows),
                row_count=table.row_count,
            )

    def restore_table(self, dump: TableDump, validate: bool = False) -> Table:
        """Create a table from a :class:`TableDump`: schema, declared
        indexes, then the rows (unchecked by default — dumps come from
        rows this schema already validated)."""
        table = self.create_table(dump.schema)
        existing = table.index_definitions()
        have_hash = {name for name, _ in existing["hash"]}  # auto "pk"
        for name, columns in dump.hash_indexes:
            if name not in have_hash:
                table.create_hash_index(name, columns)
        for name, columns in dump.sorted_indexes:
            table.create_sorted_index(name, columns[0])
        if validate:
            table.bulk_load(dump.rows)
        else:
            table.load_rows_unchecked(dump.rows)
        return table

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Database({self.name}, tables={sorted(self._tables)})"

"""Schema-versioned SQLite snapshots of a built topology-search system.

The paper's architecture (Figure 10) splits an expensive offline phase
(AllTops computation, pruning, materialization) from cheap online query
dispatch, but assumes the offline output lives in a durable database.
This module supplies that durability: :func:`save_system` serializes a
built :class:`~repro.core.engine.TopologySearchSystem` into a single
SQLite file, and :func:`load_system` restores it without rerunning the
offline phase — a cold start measured in milliseconds instead of the
seconds-to-hours of ``build()``.

Snapshot layout (all in one SQLite database, written atomically via a
temp file + ``os.replace``):

``meta``
    Key/value JSON: format version, engine version, ``max_length``, the
    built entity pairs, the weak-path rules, the recorded build
    configuration, the cost-calibration state (learned per-strategy
    factors, so a restored service keeps them) and whether calibration
    is enabled, bookkeeping counters.
``base_tables`` + ``base_<n>_<name>``
    The catalog (schema, declared indexes) and rows of every *base*
    relation.  The four derived tables (TopInfo, AllTops, LeftTops,
    ExcpTops) are **not** dumped as relations — they are re-materialized
    on load from the store state below, which keeps the snapshot free of
    duplicated data and guarantees the restored derived tables agree
    with the restored store.
``store_topologies``
    The topology catalog: canonical key, entity pair, endpoint indices,
    class signatures, frequency, per-scheme scores, pruned flag.
``store_pair_rows``
    The AllTops / LeftTops / ExcpTops row lists, tagged by kind.
``store_pairs``
    Per-pair offline output: entity-set pair and path-class signatures.

Any structural problem — a non-SQLite file, missing tables, or a
format-version mismatch — raises
:class:`~repro.errors.TopologyError` with a message naming the snapshot.
"""

from __future__ import annotations

import contextlib
import json
import os
import sqlite3
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

import repro
from repro.errors import ReproError, TopologyError
from repro.persist.codec import (
    SQLITE_TYPES,
    cell_decoder,
    check_endpoint,
    encode_cell,
    require,
    sanitize_identifier,
    schema_from_json,
    schema_to_json,
    signatures_from_json,
    signatures_to_json,
)
from repro.relational.database import Database, TableDump

# Bump on any incompatible change to the snapshot layout.
SCHEMA_VERSION = 1

# Tables the offline phase derives; re-materialized on load, never dumped.
DERIVED_TABLES: Tuple[str, ...] = ("TopInfo", "AllTops", "LeftTops", "ExcpTops")

_DDL = """
CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
CREATE TABLE base_tables (
    position INTEGER PRIMARY KEY,
    name TEXT NOT NULL UNIQUE,
    data_table TEXT NOT NULL,
    schema_json TEXT NOT NULL,
    hash_indexes TEXT NOT NULL,
    sorted_indexes TEXT NOT NULL,
    row_count INTEGER NOT NULL
);
CREATE TABLE store_sigsets (
    id INTEGER PRIMARY KEY,
    signatures TEXT NOT NULL
);
CREATE TABLE store_topologies (
    tid INTEGER PRIMARY KEY,
    key TEXT NOT NULL,
    es1 TEXT NOT NULL,
    es2 TEXT NOT NULL,
    ep1 INTEGER NOT NULL,
    ep2 INTEGER NOT NULL,
    frequency INTEGER NOT NULL,
    pruned INTEGER NOT NULL,
    sigset INTEGER NOT NULL REFERENCES store_sigsets(id),
    scores TEXT NOT NULL
);
-- e1/e2 are untyped (NONE affinity): entity ids round-trip natively.
CREATE TABLE store_pair_rows (
    kind TEXT NOT NULL,
    e1,
    e2,
    tid INTEGER NOT NULL
);
CREATE TABLE store_pairs (
    e1,
    e2,
    es1 TEXT NOT NULL,
    es2 TEXT NOT NULL,
    sigset INTEGER NOT NULL REFERENCES store_sigsets(id)
);
"""


@dataclass(frozen=True)
class SnapshotInfo:
    """Cheap metadata about a snapshot file (no full restore)."""

    path: str
    schema_version: int
    engine_version: str
    database_name: str
    max_length: int
    built_pairs: List[Tuple[str, str]]
    topologies: int
    alltops_rows: int
    lefttops_rows: int
    excptops_rows: int
    base_tables: int
    file_bytes: int
    saved_at: float
    # Recorded build() parameters (None for pre-PR-2 snapshots or
    # stores installed via adopt_store without a config).
    build_config: Optional[Dict[str, Any]] = None
    # Cost-calibration state (repro.core.plan); None for snapshots
    # written before the plan layer existed.
    calibration: Optional[Dict[str, Any]] = None
    # Shard membership (repro.shard): index/count/scheme/set_id for a
    # snapshot that is one shard of a sharded store; None for whole
    # (unsharded) snapshots.
    shard: Optional[Dict[str, Any]] = None


# ----------------------------------------------------------------------
# Save
# ----------------------------------------------------------------------
def save_system(system, path, shard: Optional[Dict[str, Any]] = None) -> None:
    """Serialize a built system (base relations + topology store) to a
    single SQLite file at ``path``.  Overwrites atomically.

    ``shard`` optionally records shard membership (index, count,
    routing scheme, set id — see :mod:`repro.shard`) in the snapshot
    meta; a shard snapshot is otherwise a perfectly normal snapshot and
    loads with :func:`load_system` like any other."""
    write_snapshot(system, system.require_store().export_state(), path, shard)


def write_snapshot(
    system, state: Dict[str, Any], path, shard: Optional[Dict[str, Any]] = None
) -> None:
    """The writer behind :func:`save_system`: ``system``'s base
    relations and meta, with ``state`` (an exported store state) as the
    topology store.  :func:`repro.shard.split_system` calls it with each
    shard's routed state, so a shard file is written without building a
    store or a database for it."""
    target = os.fspath(path)
    parent = os.path.dirname(target)
    if parent:
        os.makedirs(parent, exist_ok=True)
    tmp = target + ".tmp"
    if os.path.exists(tmp):
        os.remove(tmp)
    conn = sqlite3.connect(tmp)
    try:
        conn.executescript(_DDL)
        _write_meta(conn, system, state, shard)
        _write_base_tables(conn, system.database)
        _write_store(conn, state)
        conn.commit()
    finally:
        conn.close()
    os.replace(tmp, target)


def _write_meta(
    conn: sqlite3.Connection,
    system,
    state: Dict[str, Any],
    shard: Optional[Dict[str, Any]] = None,
) -> None:
    # A shard restores its routed AllTops whatever the source system
    # materialised: a coordinator serves every method from it.
    alltops_table_empty = (
        shard is None
        and system.database.has_table("AllTops")
        and system.database.table("AllTops").row_count == 0
        and len(state["alltops_rows"]) > 0
    )
    rules = system.weak_rules
    meta = {
        "schema_version": SCHEMA_VERSION,
        "engine_version": repro.__version__,
        "database_name": system.database.name,
        "max_length": system.max_length,
        "built_pairs": [list(p) for p in system.built_pairs],
        "weak_rules": {
            "patterns": [list(p) for p in rules.patterns],
            "min_path_length": rules.min_path_length,
        },
        "truncated_pairs": state["truncated_pairs"],
        "include_alltops": not alltops_table_empty,
        # How the store was built (max_length, caps, prune settings) —
        # restored so rebuilds reproduce the configuration.
        "build_config": system.build_config,
        # Learned per-strategy cost factors (repro.core.plan) — restored
        # so a cold-started service plans with its calibrated costs.
        "calibration": system.calibrator.export_state(),
        # The operator's switch that pins plan choices.  An optional key,
        # like "shard": a file without it loads with calibration on.
        "calibration_enabled": system.calibration_enabled,
        "saved_at": time.time(),
    }
    if shard is not None:
        # Shard membership (repro.shard).  An optional key: pre-shard
        # engines simply never read it, so the format version holds.
        meta["shard"] = dict(shard)
    conn.executemany(
        "INSERT INTO meta (key, value) VALUES (?, ?)",
        [(k, json.dumps(v)) for k, v in meta.items()],
    )


def _write_base_tables(conn: sqlite3.Connection, db: Database) -> None:
    for position, dump in enumerate(db.dump_tables(exclude=DERIVED_TABLES)):
        data_table = f"base_{position}_{sanitize_identifier(dump.schema.name)}"
        conn.execute(
            "INSERT INTO base_tables (position, name, data_table, schema_json,"
            " hash_indexes, sorted_indexes, row_count) VALUES (?, ?, ?, ?, ?, ?, ?)",
            (
                position,
                dump.schema.name,
                data_table,
                schema_to_json(dump.schema),
                json.dumps([[n, list(c)] for n, c in dump.hash_indexes]),
                json.dumps([[n, list(c)] for n, c in dump.sorted_indexes]),
                dump.row_count,
            ),
        )
        dtypes = [c.dtype for c in dump.schema.columns]
        columns = ", ".join(
            f"c{i} {SQLITE_TYPES[dt]}" for i, dt in enumerate(dtypes)
        )
        conn.execute(f"CREATE TABLE {data_table} ({columns})")
        placeholders = ", ".join("?" for _ in dtypes)
        if any(cell_decoder(dt) for dt in dtypes):  # table has BOOL cells
            rows = (
                tuple(encode_cell(dt, v) for dt, v in zip(dtypes, row))
                for row in dump.rows
            )
        else:  # INT/FLOAT/TEXT round-trip natively
            rows = dump.rows
        conn.executemany(
            f"INSERT INTO {data_table} VALUES ({placeholders})", rows
        )


def _write_store(conn: sqlite3.Connection, state: Dict[str, Any]) -> None:
    pruned = set(state["pruned_tids"])
    # Distinct class-signature sets are few; intern them so each is
    # encoded (and later decoded) exactly once.
    sigset_ids: Dict[str, int] = {}

    def sigset(signatures) -> int:
        text = signatures_to_json(sorted(tuple(s) for s in signatures))
        sid = sigset_ids.get(text)
        if sid is None:
            sid = len(sigset_ids) + 1
            sigset_ids[text] = sid
        return sid

    topology_rows = [
        (
            t["tid"],
            t["key"],
            t["entity_pair"][0],
            t["entity_pair"][1],
            t["endpoint_indices"][0],
            t["endpoint_indices"][1],
            t["frequency"],
            int(t["tid"] in pruned),
            sigset(t["class_signatures"]),
            json.dumps(t["scores"]),
        )
        for t in state["topologies"]
    ]
    pair_rows = [
        (
            check_endpoint(p["e1"]),
            check_endpoint(p["e2"]),
            p["entity_pair"][0],
            p["entity_pair"][1],
            sigset(p["class_signatures"]),
        )
        for p in state["pairs"]
    ]
    conn.executemany(
        "INSERT INTO store_sigsets (id, signatures) VALUES (?, ?)",
        ((sid, text) for text, sid in sigset_ids.items()),
    )
    conn.executemany(
        "INSERT INTO store_topologies (tid, key, es1, es2, ep1, ep2, frequency,"
        " pruned, sigset, scores) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
        topology_rows,
    )
    conn.executemany(
        "INSERT INTO store_pairs (e1, e2, es1, es2, sigset)"
        " VALUES (?, ?, ?, ?, ?)",
        pair_rows,
    )
    for kind, rows_key in (
        ("all", "alltops_rows"),
        ("left", "lefttops_rows"),
        ("excp", "excptops_rows"),
    ):
        conn.executemany(
            "INSERT INTO store_pair_rows (kind, e1, e2, tid) VALUES (?, ?, ?, ?)",
            (
                (kind, check_endpoint(e1), check_endpoint(e2), tid)
                for e1, e2, tid in state[rows_key]
            ),
        )


# ----------------------------------------------------------------------
# Load
# ----------------------------------------------------------------------
@contextlib.contextmanager
def _snapshot_errors(target: str):
    """Translate everything a broken snapshot can throw into
    :class:`TopologyError`, leaving already-contextualized
    ``TopologyError``\\ s (e.g. the version mismatch) untouched."""
    try:
        yield
    except TopologyError:
        raise
    except sqlite3.Error as exc:
        raise TopologyError(
            f"snapshot {target!r} is corrupt or not a topology snapshot: {exc}"
        ) from exc
    except (ReproError, KeyError, ValueError, TypeError, IndexError) as exc:
        raise TopologyError(f"snapshot {target!r} is malformed: {exc!r}") from exc


def load_system(path):
    """Restore a :class:`TopologySearchSystem` from a snapshot file.

    Raises :class:`TopologyError` for a missing file, a file that is not
    a topology snapshot, or a snapshot written with an incompatible
    format version."""
    from repro.core.engine import TopologySearchSystem
    from repro.core.store import TopologyStore
    from repro.core.weak import WeakPathRules

    target = os.fspath(path)
    if not os.path.exists(target):
        raise TopologyError(f"snapshot {target!r} does not exist")
    conn = sqlite3.connect(f"file:{target}?mode=ro", uri=True)
    try:
        with _snapshot_errors(target):
            meta = _read_meta(conn, target)
            db = _read_database(conn, meta)
            state = _read_store_state(conn, meta)
    finally:
        conn.close()

    rules_data = meta["weak_rules"]
    weak_rules = WeakPathRules(
        patterns=tuple(tuple(p) for p in rules_data["patterns"]),
        min_path_length=rules_data["min_path_length"],
    )
    store = TopologyStore.from_state(state, weak_rules)
    system = TopologySearchSystem(db, weak_rules=weak_rules)
    system.adopt_store(
        store,
        max_length=meta["max_length"],
        built_pairs=[tuple(p) for p in meta["built_pairs"]],
        include_alltops=meta.get("include_alltops", True),
        build_config=meta.get("build_config"),
    )
    system.restore_calibration(meta.get("calibration"))
    system.calibration_enabled = bool(meta.get("calibration_enabled", True))
    return system


def _read_meta(conn: sqlite3.Connection, target: str) -> Dict[str, Any]:
    rows = conn.execute("SELECT key, value FROM meta").fetchall()
    meta = {key: json.loads(value) for key, value in rows}
    require(
        "schema_version" in meta,
        f"snapshot {target!r} has no schema_version entry",
    )
    version = meta["schema_version"]
    if version != SCHEMA_VERSION:
        raise TopologyError(
            f"snapshot {target!r} uses schema version {version}, but this "
            f"engine supports version {SCHEMA_VERSION}; regenerate the "
            f"snapshot with save_system()"
        )
    require(
        meta.get("max_length") is not None and "built_pairs" in meta,
        f"snapshot {target!r} is missing build metadata",
    )
    return meta


def _read_database(conn: sqlite3.Connection, meta: Dict[str, Any]) -> Database:
    db = Database(meta.get("database_name", "db"))
    registry = conn.execute(
        "SELECT data_table, schema_json, hash_indexes, sorted_indexes, row_count"
        " FROM base_tables ORDER BY position"
    ).fetchall()
    for data_table, schema_json, hash_json, sorted_json, row_count in registry:
        schema = schema_from_json(schema_json)
        decoders = [cell_decoder(c.dtype) for c in schema.columns]
        cursor = conn.execute(f"SELECT * FROM {data_table} ORDER BY rowid")
        if any(decoders):

            def decoded_rows(cursor=cursor, decoders=decoders) -> Iterator[tuple]:
                for row in cursor:
                    yield tuple(
                        dec(v) if dec else v for dec, v in zip(decoders, row)
                    )

            rows: Iterator[tuple] = decoded_rows()
        else:  # all columns round-trip natively; cursor yields tuples
            rows = iter(cursor)

        db.restore_table(
            TableDump(
                schema=schema,
                hash_indexes=[(n, list(c)) for n, c in json.loads(hash_json)],
                sorted_indexes=[(n, list(c)) for n, c in json.loads(sorted_json)],
                rows=rows,
                row_count=row_count,
            )
        )
    return db


def _read_store_state(
    conn: sqlite3.Connection, meta: Dict[str, Any]
) -> Dict[str, Any]:
    # Each distinct class-signature set decodes exactly once; the store
    # consumes tuples (topology catalog) and frozensets (pair classes),
    # so both shapes are interned here and shared across records, as
    # are the pair catalog's (es1, es2) values.
    sig_tuples: Dict[int, Tuple[Tuple[str, ...], ...]] = {}
    sig_sets: Dict[int, frozenset] = {}
    for sid, text in conn.execute("SELECT id, signatures FROM store_sigsets"):
        decoded = tuple(signatures_from_json(text))
        sig_tuples[sid] = decoded
        sig_sets[sid] = frozenset(decoded)
    topologies = []
    pruned: List[int] = []
    for (
        tid,
        key,
        es1,
        es2,
        ep1,
        ep2,
        frequency,
        pruned_flag,
        sigset,
        scores_json,
    ) in conn.execute(
        "SELECT tid, key, es1, es2, ep1, ep2, frequency, pruned,"
        " sigset, scores FROM store_topologies ORDER BY tid"
    ):
        topologies.append(
            {
                "tid": tid,
                "key": key,
                "entity_pair": (es1, es2),
                "endpoint_indices": (ep1, ep2),
                "class_signatures": sig_tuples[sigset],
                "frequency": frequency,
                "scores": json.loads(scores_json),
            }
        )
        if pruned_flag:
            pruned.append(tid)
    # fetchall() hands back ready-made tuples without a Python loop.
    rows_by_kind: Dict[str, List[Tuple[Any, Any, int]]] = {
        kind: conn.execute(
            "SELECT e1, e2, tid FROM store_pair_rows WHERE kind = ?"
            " ORDER BY rowid",
            (kind,),
        ).fetchall()
        for kind in ("all", "left", "excp")
    }
    entity_pairs: Dict[Tuple[str, str], Tuple[str, str]] = {}
    pairs = [
        {
            "e1": e1,
            "e2": e2,
            "entity_pair": entity_pairs.setdefault((es1, es2), (es1, es2)),
            "class_signatures": sig_sets[sigset],
        }
        for e1, e2, es1, es2, sigset in conn.execute(
            "SELECT e1, e2, es1, es2, sigset FROM store_pairs"
            " ORDER BY rowid"
        )
    ]
    return {
        "topologies": topologies,
        "alltops_rows": rows_by_kind["all"],
        "lefttops_rows": rows_by_kind["left"],
        "excptops_rows": rows_by_kind["excp"],
        "pruned_tids": pruned,
        "pairs": pairs,
        "truncated_pairs": meta.get("truncated_pairs", 0),
    }


def read_store_state(path) -> Dict[str, Any]:
    """The store state of a snapshot, as :meth:`TopologyStore.export_state`
    would produce it — without restoring the base database or
    materializing anything.

    The cheap path for tooling that only inspects the *derived* data:
    shard-split verification (:mod:`repro.shard.verify`) compares
    per-shard states against an unsharded reference without paying N
    full restores."""
    target = os.fspath(path)
    if not os.path.exists(target):
        raise TopologyError(f"snapshot {target!r} does not exist")
    conn = sqlite3.connect(f"file:{target}?mode=ro", uri=True)
    try:
        with _snapshot_errors(target):
            meta = _read_meta(conn, target)
            state = _read_store_state(conn, meta)
    finally:
        conn.close()
    return state


# ----------------------------------------------------------------------
# Inspection
# ----------------------------------------------------------------------
def snapshot_info(path) -> SnapshotInfo:
    """Read a snapshot's metadata and row counts without restoring it."""
    target = os.fspath(path)
    if not os.path.exists(target):
        raise TopologyError(f"snapshot {target!r} does not exist")
    conn = sqlite3.connect(f"file:{target}?mode=ro", uri=True)
    try:
        with _snapshot_errors(target):
            meta = _read_meta(conn, target)

            def count(kind: str) -> int:
                return conn.execute(
                    "SELECT COUNT(*) FROM store_pair_rows WHERE kind = ?",
                    (kind,),
                ).fetchone()[0]

            topologies = conn.execute(
                "SELECT COUNT(*) FROM store_topologies"
            ).fetchone()[0]
            base_tables = conn.execute(
                "SELECT COUNT(*) FROM base_tables"
            ).fetchone()[0]
            return SnapshotInfo(
                path=target,
                schema_version=meta["schema_version"],
                engine_version=meta.get("engine_version", "unknown"),
                database_name=meta.get("database_name", "db"),
                max_length=meta["max_length"],
                built_pairs=[tuple(p) for p in meta["built_pairs"]],
                topologies=topologies,
                alltops_rows=count("all"),
                lefttops_rows=count("left"),
                excptops_rows=count("excp"),
                base_tables=base_tables,
                file_bytes=os.path.getsize(target),
                saved_at=meta.get("saved_at", 0.0),
                build_config=meta.get("build_config"),
                calibration=meta.get("calibration"),
                shard=meta.get("shard"),
            )
    finally:
        conn.close()

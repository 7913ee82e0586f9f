"""Snapshot persistence: round-trip fidelity and failure modes."""

from __future__ import annotations

import json
import os
import sqlite3

import pytest

from repro.biozon import BiozonConfig, generate
from repro.core import (
    ALL_METHOD_NAMES,
    AttributeConstraint,
    KeywordConstraint,
    NoConstraint,
    TopologyQuery,
    TopologySearchSystem,
)
from repro.core.engine import REBUILD_CARRIED
from repro.core.topologies import DEFAULT_COMBINATION_CAP
from repro.errors import TopologyError
from repro.persist import SCHEMA_VERSION, load_system, save_system, snapshot_info
from repro.persist.codec import check_endpoint
from repro.service import ShardCoordinator, TopologyServer
from repro.shard import split_system

EXHAUSTIVE_METHODS = ("sql", "full-top", "fast-top")


def query_for(method: str, keyword: str = "kinase") -> TopologyQuery:
    """A method-appropriate Protein-DNA query (top-k methods need k)."""
    if method in EXHAUSTIVE_METHODS:
        return TopologyQuery(
            "Protein", "DNA", KeywordConstraint("DESC", keyword), NoConstraint()
        )
    return TopologyQuery(
        "Protein",
        "DNA",
        KeywordConstraint("DESC", keyword),
        AttributeConstraint("TYPE", "mRNA"),
        k=4,
        ranking="rare",
    )


@pytest.fixture(scope="module")
def snapshot_path(tmp_path_factory, tiny_system):
    path = tmp_path_factory.mktemp("persist") / "tiny.topo"
    save_system(tiny_system, path)
    return path


@pytest.fixture(scope="module")
def restored(snapshot_path):
    return load_system(snapshot_path)


class TestRoundTrip:
    @pytest.mark.parametrize("method", ALL_METHOD_NAMES)
    def test_all_nine_methods_answer_identically(
        self, tiny_system, restored, method
    ):
        query = query_for(method)
        before = tiny_system.search(query, method=method)
        after = restored.search(query, method=method)
        assert before.tids == after.tids
        assert before.scores == after.scores

    def test_store_state_is_preserved(self, tiny_system, restored):
        original = tiny_system.require_store()
        copy = restored.require_store()
        assert original.space_report() == copy.space_report()
        assert original.pruned_tids == copy.pruned_tids
        assert original.pair_classes == copy.pair_classes
        assert original.alltops_rows == copy.alltops_rows
        assert original.pair_entity_types == copy.pair_entity_types
        assert original.truncated_pairs == copy.truncated_pairs
        assert set(original.topologies) == set(copy.topologies)
        for tid, topology in original.topologies.items():
            other = copy.topologies[tid]
            assert topology.key == other.key
            assert topology.entity_pair == other.entity_pair
            assert topology.endpoint_indices == other.endpoint_indices
            assert topology.class_signatures == other.class_signatures
            assert topology.frequency == other.frequency
            assert topology.scores == other.scores

    def test_pair_entity_types_are_shared(self, tiny_system, restored):
        """The pair catalog holds one (es1, es2) value per entity-set
        pair, not one tuple per entity pair."""
        store = restored.require_store()
        assert len(store.pair_entity_types) == len(store.pair_classes)
        assert len(store.pair_entity_types) > len(tiny_system.built_pairs)
        shared = {id(v) for v in store.pair_entity_types.values()}
        assert len(shared) <= len(tiny_system.built_pairs)

    def test_export_state_round_trips_exactly(self, tiny_system, restored):
        assert (
            tiny_system.require_store().export_state()
            == restored.require_store().export_state()
        )

    def test_build_metadata_restored(self, tiny_system, restored):
        assert restored.max_length == tiny_system.max_length
        assert restored.built_pairs == tiny_system.built_pairs
        assert restored.weak_rules == tiny_system.weak_rules
        assert restored.database.name == tiny_system.database.name

    def test_base_tables_and_indexes_restored(self, tiny_system, restored):
        assert sorted(restored.database.table_names()) == sorted(
            tiny_system.database.table_names()
        )
        for table in tiny_system.database.tables():
            other = restored.database.table(table.schema.name)
            assert other.rows == table.rows
            assert other.index_definitions() == table.index_definitions()

    def test_reversed_orientation_still_works(self, restored):
        query = TopologyQuery(
            "DNA", "Protein", NoConstraint(), KeywordConstraint("DESC", "kinase")
        )
        assert restored.orientation(query) is False
        assert restored.search(query, method="fast-top").tids

    def test_restored_system_can_rebuild(self, snapshot_path):
        system = load_system(snapshot_path)
        generation = system.build_generation
        report = system.build([("Protein", "DNA")], max_length=3)
        assert report.alltops.distinct_topologies > 0
        assert system.build_generation == generation + 1


class TestCalibrationRoundTrip:
    """Learned cost factors must survive a save/load cycle."""

    @pytest.fixture()
    def calibrated_system(self):
        ds = generate(BiozonConfig.tiny(seed=21))
        system = TopologySearchSystem(ds.database, ds.graph())
        system.build([("Protein", "DNA")], max_length=3)
        query = query_for("fast-top-k-et")
        for _ in range(4):  # past MIN_OBSERVATIONS, factor locked in
            system.search(query, "fast-top-k-et")
        assert system.calibrator.factor("LeftTops:et-idgj") != 1.0
        return system

    def test_factors_survive_snapshot(self, calibrated_system, tmp_path):
        path = tmp_path / "calibrated.topo"
        save_system(calibrated_system, path)
        restored = load_system(path)
        for key in ("LeftTops:et-idgj", "LeftTops:regular", "LeftTops:et-hdgj"):
            assert restored.calibrator.factor(key) == pytest.approx(
                calibrated_system.calibrator.factor(key)
            )
        assert (
            restored.calibrator.observation_count()
            == calibrated_system.calibrator.observation_count()
        )
        # The restored planner applies the learned factors.
        query = query_for("fast-top-k-opt")
        before = calibrated_system.explain(query, "fast-top-k-opt")
        after = restored.explain(query, "fast-top-k-opt")
        assert after.strategy == before.strategy
        assert after.calibrated_cost == pytest.approx(before.calibrated_cost)

    def test_snapshot_info_reports_calibration(self, calibrated_system, tmp_path):
        path = tmp_path / "calibrated.topo"
        save_system(calibrated_system, path)
        info = snapshot_info(path)
        assert info.calibration is not None
        assert info.calibration["strategies"]["LeftTops:et-idgj"]["count"] >= 4

    def test_switch_survives_snapshot(self, calibrated_system, tmp_path):
        path = tmp_path / "pinned.topo"
        calibrated_system.calibration_enabled = False
        save_system(calibrated_system, path)
        assert load_system(path).calibration_enabled is False
        # A file written before the switch was persisted loads with it on.
        conn = sqlite3.connect(path)
        conn.execute("DELETE FROM meta WHERE key = 'calibration_enabled'")
        conn.commit()
        conn.close()
        assert load_system(path).calibration_enabled is True

    def test_pre_plan_layer_snapshot_loads_clean(self, calibrated_system, tmp_path):
        """A snapshot without a calibration entry (older writer) still
        restores — with a fresh calibrator."""
        path = tmp_path / "legacy.topo"
        save_system(calibrated_system, path)
        conn = sqlite3.connect(path)
        conn.execute("DELETE FROM meta WHERE key = 'calibration'")
        conn.commit()
        conn.close()
        restored = load_system(path)
        assert restored.calibrator.observation_count() == 0
        assert restored.calibrator.factor("LeftTops:et-idgj") == 1.0


class TestSnapshotFile:
    def test_snapshot_info(self, snapshot_path, tiny_system):
        info = snapshot_info(snapshot_path)
        store = tiny_system.require_store()
        assert info.schema_version == SCHEMA_VERSION
        assert info.max_length == 3
        assert info.built_pairs == tiny_system.built_pairs
        assert info.topologies == len(store.topologies)
        assert info.alltops_rows == len(store.alltops_rows)
        assert info.lefttops_rows == len(store.lefttops_rows)
        assert info.excptops_rows == len(store.excptops_rows)
        assert info.file_bytes == os.path.getsize(snapshot_path)

    def test_save_overwrites_atomically(self, tiny_system, tmp_path):
        path = tmp_path / "twice.topo"
        save_system(tiny_system, path)
        first = snapshot_info(path)
        save_system(tiny_system, path)
        assert snapshot_info(path).topologies == first.topologies
        assert not os.path.exists(str(path) + ".tmp")

    def test_save_creates_parent_directories(self, tiny_system, tmp_path):
        path = tmp_path / "deeply" / "nested" / "snap.topo"
        save_system(tiny_system, path)
        assert path.exists()


class TestFailureModes:
    def test_save_requires_built_system(self, tmp_path, tiny_dataset):
        system = TopologySearchSystem(tiny_dataset.database, tiny_dataset.graph())
        with pytest.raises(TopologyError, match="build"):
            save_system(system, tmp_path / "never.topo")

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(TopologyError, match="does not exist"):
            load_system(tmp_path / "missing.topo")

    def test_load_non_sqlite_garbage(self, tmp_path):
        path = tmp_path / "garbage.topo"
        path.write_bytes(b"this is not a sqlite database, not even close")
        with pytest.raises(TopologyError, match="corrupt|not a topology"):
            load_system(path)

    def test_load_sqlite_but_not_a_snapshot(self, tmp_path):
        path = tmp_path / "other.db"
        conn = sqlite3.connect(path)
        conn.execute("CREATE TABLE unrelated (x INTEGER)")
        conn.commit()
        conn.close()
        with pytest.raises(TopologyError):
            load_system(path)

    def test_version_mismatch_is_explicit(self, snapshot_path, tmp_path):
        path = tmp_path / "future.topo"
        path.write_bytes(snapshot_path.read_bytes())
        conn = sqlite3.connect(path)
        conn.execute(
            "UPDATE meta SET value = ? WHERE key = 'schema_version'",
            (str(SCHEMA_VERSION + 1),),
        )
        conn.commit()
        conn.close()
        with pytest.raises(TopologyError, match="schema version"):
            load_system(path)
        with pytest.raises(TopologyError, match="schema version"):
            snapshot_info(path)

    def test_tampered_index_metadata_wrapped(self, snapshot_path, tmp_path):
        """Engine-level errors during restore (here: an index referencing
        a nonexistent column) must surface as TopologyError, not leak as
        SchemaError — the benchmarks' self-heal path catches only the
        former."""
        path = tmp_path / "tampered.topo"
        path.write_bytes(snapshot_path.read_bytes())
        conn = sqlite3.connect(path)
        conn.execute(
            "UPDATE base_tables SET hash_indexes ="
            " '[[\"bad\", [\"NO_SUCH_COL\"]]]' WHERE position = 0"
        )
        conn.commit()
        conn.close()
        with pytest.raises(TopologyError, match="malformed"):
            load_system(path)

    def test_corrupt_meta_json_wrapped_everywhere(self, snapshot_path, tmp_path):
        path = tmp_path / "badmeta.topo"
        path.write_bytes(snapshot_path.read_bytes())
        conn = sqlite3.connect(path)
        conn.execute(
            "UPDATE meta SET value = '{not json' WHERE key = 'built_pairs'"
        )
        conn.commit()
        conn.close()
        with pytest.raises(TopologyError):
            load_system(path)
        with pytest.raises(TopologyError):
            snapshot_info(path)

    def test_truncated_snapshot(self, snapshot_path, tmp_path):
        data = snapshot_path.read_bytes()
        path = tmp_path / "truncated.topo"
        path.write_bytes(data[: len(data) // 3])
        with pytest.raises(TopologyError):
            load_system(path)

    def test_endpoint_type_guard(self):
        assert check_endpoint(17) == 17
        assert check_endpoint("ACC-1") == "ACC-1"
        assert check_endpoint(None) is None
        with pytest.raises(TopologyError, match="endpoint"):
            check_endpoint(True)
        with pytest.raises(TopologyError, match="endpoint"):
            check_endpoint((1, 2))


class TestIncludeAlltops:
    def test_empty_alltops_table_round_trips(self, tmp_path):
        ds = generate(BiozonConfig.tiny(seed=11))
        system = TopologySearchSystem(ds.database, ds.graph())
        system.build([("Protein", "DNA")], max_length=3)
        store = system.require_store()
        # The Fast-Top-only deployment drops the AllTops table to save
        # space (Table 1); the snapshot must preserve that choice.
        store.materialize(system.database, include_alltops=False)
        path = tmp_path / "no-alltops.topo"
        save_system(system, path)
        restored = load_system(path)
        assert restored.database.table("AllTops").row_count == 0
        assert len(restored.require_store().alltops_rows) == len(store.alltops_rows)
        query = query_for("fast-top")
        assert (
            restored.search(query, method="fast-top").tids
            == system.search(query, method="fast-top").tids
        )


class TestBuildConfig:
    """A snapshot records how its store was built, and a rebuild of a
    restored system reproduces that build — also for snapshots written
    while ``build()`` still took ``parallel``/``partitions``."""

    def test_fresh_build_records_the_carried_parameters(self, tiny_system):
        assert tiny_system.build_config == {
            "max_length": 3,
            "prune": True,
            "prune_threshold": None,
            "combination_cap": DEFAULT_COMBINATION_CAP,
            "per_pair_path_limit": None,
        }
        assert tuple(tiny_system.build_config) == REBUILD_CARRIED

    def test_snapshot_round_trips_build_config(self, snapshot_path, tiny_system):
        assert snapshot_info(snapshot_path).build_config == tiny_system.build_config
        assert load_system(snapshot_path).build_config == tiny_system.build_config

    def test_old_snapshot_rebuilds_through_the_server(self, tiny_system, tmp_path):
        path = tmp_path / "old.topo"
        save_system(tiny_system, path)
        _record_partitioned_build(path, tiny_system)
        serial_digest = tiny_system.require_store().state_digest()
        with TopologyServer.from_snapshot(str(path)) as server:
            assert server.system.build_config["parallel"] == 2  # loads as written
            server.rebuild()
            assert server.generation == 2
            assert server.system.require_store().state_digest() == serial_digest
            assert "parallel" not in server.system.build_config

    def test_old_shard_set_rebuilds_through_the_coordinator(
        self, tiny_system, tmp_path
    ):
        split = split_system(tiny_system, 2, tmp_path / "shards")
        _record_partitioned_build(split.shard_paths[0], tiny_system)
        with ShardCoordinator(split.manifest_path, start_method="fork") as coord:
            # Each worker's store digest is the serial build's routed state.
            serial_digests = coord.shard_digests()
            coord.rebuild()
            assert coord.generation == 2
            assert coord.shard_digests() == serial_digests


def _record_partitioned_build(path, system) -> None:
    """Rewrite a snapshot's ``build_config`` the way files written by a
    ``build(parallel=2, partitions=8)`` recorded it."""
    config = {**system.build_config, "parallel": 2, "partitions": 8}
    conn = sqlite3.connect(path)
    conn.execute(
        "UPDATE meta SET value = ? WHERE key = 'build_config'", (json.dumps(config),)
    )
    conn.commit()
    conn.close()

"""Shard splitting: losslessness, manifests, and failure detection."""

from __future__ import annotations

import json
import logging
import os
import random
import sqlite3

import pytest

from repro.core.store import digest_state
from repro.errors import ShardError
from repro.persist import (
    DERIVED_TABLES,
    load_system,
    read_store_state,
    save_system,
    snapshot_info,
)
from repro.persist.codec import schema_to_json
from repro.shard import (
    MANIFEST_FORMAT,
    SHARD_SCHEME,
    SKEW_WARNING_THRESHOLD,
    ShardSplitReport,
    read_manifest,
    shard_of,
    shard_set_id,
    split_state,
    split_system,
    verify_split,
    write_manifest,
)
from repro.shard import verify as shard_verify
from repro.shard.build import _warn_on_skew

NUM_SHARDS = 4  # matches the session split in conftest.py


# ----------------------------------------------------------------------
# split_state: the in-memory split
# ----------------------------------------------------------------------
class TestSplitState:
    def test_routed_rows_partition_exactly(self, reference_state):
        shards = split_state(reference_state, NUM_SHARDS)
        for kind in ("alltops_rows", "lefttops_rows"):
            assert sum(len(s[kind]) for s in shards) == len(
                reference_state[kind]
            )
            for index, shard in enumerate(shards):
                assert all(
                    shard_of(row[0], NUM_SHARDS) == index
                    for row in shard[kind]
                )
        assert sum(len(s["pairs"]) for s in shards) == len(
            reference_state["pairs"]
        )

    def test_replicated_components_are_full_copies(self, reference_state):
        for shard in split_state(reference_state, NUM_SHARDS):
            assert shard["topologies"] == list(reference_state["topologies"])
            assert shard["excptops_rows"] == list(
                reference_state["excptops_rows"]
            )
            assert shard["pruned_tids"] == list(reference_state["pruned_tids"])
            assert shard["truncated_pairs"] == reference_state["truncated_pairs"]

    def test_split_is_nonempty_per_shard(self, reference_state):
        """Regression guard on the fixture itself: the tiny system must
        route rows to *every* shard or the equality tests prove nothing
        about merging."""
        shards = split_state(reference_state, NUM_SHARDS)
        assert all(
            s["alltops_rows"] or s["lefttops_rows"] for s in shards
        )

    def test_bad_shard_count_rejected(self, reference_state):
        with pytest.raises(ShardError):
            split_state(reference_state, 0)

    def test_single_shard_split_is_identity(self, reference_state):
        (only,) = split_state(reference_state, 1)
        assert only["alltops_rows"] == list(reference_state["alltops_rows"])
        assert only["lefttops_rows"] == list(reference_state["lefttops_rows"])
        assert len(only["pairs"]) == len(reference_state["pairs"])


# ----------------------------------------------------------------------
# The union of a split: what verify_split's lemma promises
# ----------------------------------------------------------------------
def _union(shards):
    """Routed rows and pairs concatenated across shards; replicated
    components taken from the first shard."""
    union = dict(shards[0])
    for kind in ("alltops_rows", "lefttops_rows", "pairs"):
        union[kind] = [item for shard in shards for item in shard[kind]]
    return union


def _order_free_digest(state):
    """A state digest that ignores row and pair order."""
    canonical = dict(state)
    for key in (
        "topologies", "excptops_rows", "pruned_tids", "alltops_rows", "lefttops_rows"
    ):
        canonical[key] = shard_verify._canonical_component(state, key)
    canonical["pairs"] = sorted(shard_verify._canonical_pair(p) for p in state["pairs"])
    return digest_state(canonical)


class TestUnionDigest:
    def test_union_digest_equals_reference(self, reference_state):
        """The lemma, checked directly: a split that verify_split accepts
        unions to a permutation of the reference."""
        shards = split_state(reference_state, NUM_SHARDS)
        verify_split(reference_state, shards)
        assert _order_free_digest(_union(shards)) == _order_free_digest(
            reference_state
        )

    def test_union_rejects_diverged_replica(self, reference_state):
        shards = split_state(reference_state, NUM_SHARDS)
        shards[1]["pruned_tids"] = list(shards[1]["pruned_tids"]) + [999_999]
        with pytest.raises(ShardError, match="pruned_tids"):
            verify_split(reference_state, shards)


class TestVerifySplit:
    """Which check catches each tamper: a dropped, misrouted, reordered
    or duplicated routed row fails its shard's E1-bucket filter; a
    tampered replica fails the replicated-component comparison."""

    def test_accepts_good_split(self, reference_state):
        verify_split(
            reference_state, split_state(reference_state, NUM_SHARDS)
        )

    def test_rejects_empty_shard_list(self, reference_state):
        with pytest.raises(ShardError, match="empty"):
            verify_split(reference_state, [])

    def test_detects_dropped_row(self, reference_state):
        shards = split_state(reference_state, NUM_SHARDS)
        donor = next(s for s in shards if s["alltops_rows"])
        donor["alltops_rows"] = donor["alltops_rows"][1:]
        with pytest.raises(ShardError, match="does not match"):
            verify_split(reference_state, shards)

    def test_detects_misrouted_row(self, reference_state):
        shards = split_state(reference_state, NUM_SHARDS)
        donor = next(i for i, s in enumerate(shards) if s["alltops_rows"])
        row = shards[donor]["alltops_rows"].pop(0)
        shards[(donor + 1) % NUM_SHARDS]["alltops_rows"].append(row)
        with pytest.raises(ShardError, match="does not match"):
            verify_split(reference_state, shards)

    def test_detects_row_duplicated_across_shards(self, reference_state):
        """The donor keeps its row and a second shard gains a copy: the
        union would count it twice, and the second shard's filter fails."""
        shards = split_state(reference_state, NUM_SHARDS)
        donor = next(i for i, s in enumerate(shards) if s["alltops_rows"])
        row = shards[donor]["alltops_rows"][0]
        shards[(donor + 1) % NUM_SHARDS]["alltops_rows"].append(row)
        with pytest.raises(ShardError, match="does not match"):
            verify_split(reference_state, shards)

    def test_detects_tampered_replica(self, reference_state):
        shards = split_state(reference_state, NUM_SHARDS)
        if shards[0]["excptops_rows"]:
            shards[0]["excptops_rows"] = shards[0]["excptops_rows"][:-1]
        else:
            shards[0]["excptops_rows"] = [("ghost", "ghost", 0)]
        with pytest.raises(ShardError, match="excptops_rows|does not match"):
            verify_split(reference_state, shards)

    def test_detects_reordered_shard(self, reference_state):
        shards = split_state(reference_state, NUM_SHARDS)
        donor = next(s for s in shards if len(set(s["alltops_rows"])) > 1)
        donor["alltops_rows"] = donor["alltops_rows"][::-1]
        with pytest.raises(ShardError, match="does not match"):
            verify_split(reference_state, shards)

    def test_detects_duplicated_row(self, reference_state):
        shards = split_state(reference_state, NUM_SHARDS)
        donor = next(s for s in shards if s["lefttops_rows"])
        donor["lefttops_rows"] = donor["lefttops_rows"] + donor["lefttops_rows"][:1]
        with pytest.raises(ShardError, match="does not match"):
            verify_split(reference_state, shards)

    def test_canonicalises_each_state_at_most_once(self, reference_state, monkeypatch):
        """Sorting rows under a repr key is what verification costs, so
        the reference and every shard are canonicalised once, and only
        in their replicated components; routed rows are compared as they
        stand, and no union state is built.  Each reference routed row
        and pair is bucketed by exactly one ``shard_of`` call."""
        shards = split_state(reference_state, 2)
        passes = []
        bucketed = []
        canonical_component = shard_verify._canonical_component

        def counting(state, key):
            passes.append((id(state), key))
            return canonical_component(state, key)

        def counting_shard_of(node_id, num_shards):
            bucketed.append(node_id)
            return shard_of(node_id, num_shards)

        monkeypatch.setattr(shard_verify, "_canonical_component", counting)
        monkeypatch.setattr(shard_verify, "shard_of", counting_shard_of)
        verify_split(reference_state, shards)
        assert len(passes) == len(set(passes))  # no (state, component) twice
        by_state = {}
        for state_id, key in passes:
            by_state.setdefault(state_id, set()).add(key)
        assert set(by_state) == {id(reference_state), *map(id, shards)}
        assert all(
            keys == {"topologies", "excptops_rows", "pruned_tids"}
            for keys in by_state.values()
        )
        assert len(bucketed) == sum(
            len(reference_state[kind])
            for kind in ("alltops_rows", "lefttops_rows", "pairs")
        )


def _tamper(shards, edit, rng):
    """Apply one ``edit`` to a split, in place, at positions drawn from
    ``rng``.  Records shared with the reference are replaced, never
    mutated, and every edit changes what some shard holds."""

    def pick(kind):
        index = rng.choice([i for i, s in enumerate(shards) if s[kind]])
        return shards[index], rng.randrange(len(shards[index][kind]))

    kind = rng.choice(("alltops_rows", "lefttops_rows"))
    if edit == "drop":
        shard, at = pick(kind)
        del shard[kind][at]
    elif edit == "duplicate":
        shard, at = pick(kind)
        shard[kind].insert(rng.randrange(len(shard[kind]) + 1), shard[kind][at])
    elif edit == "move":
        shard, at = pick(kind)
        other = rng.choice([s for s in shards if s is not shard])
        other[kind].insert(rng.randrange(len(other[kind]) + 1), shard[kind].pop(at))
    elif edit == "swap":
        shard = rng.choice([s for s in shards if len(set(s[kind])) > 1])
        rows = shard[kind]
        i, j = rng.sample(range(len(rows)), 2)
        while rows[i] == rows[j]:
            i, j = rng.sample(range(len(rows)), 2)
        rows[i], rows[j] = rows[j], rows[i]
    elif edit == "tid":
        shard, at = pick(kind)
        e1, e2, tid = shard[kind][at]
        shard[kind][at] = (e1, e2, tid + rng.randint(1, 5))
    elif edit == "drop_pair":
        shard, at = pick("pairs")
        del shard["pairs"][at]
    elif edit == "pair_signatures":
        shard, at = pick("pairs")
        pair = shard["pairs"][at]
        signatures = [list(s) for s in pair["class_signatures"]]
        if len(signatures) > 1 and rng.random() < 0.5:
            del signatures[rng.randrange(len(signatures))]
        else:
            signatures.append(["Ghost", "ghost", "Ghost"])
        shard["pairs"][at] = {**pair, "class_signatures": signatures}
    elif edit == "score":
        shard, at = pick("topologies")
        record = shard["topologies"][at]
        scores = dict(record["scores"])
        scheme = rng.choice(sorted(scores))
        scores[scheme] += 1.0
        shard["topologies"][at] = {**record, "scores": scores}
    elif edit == "pruned_tids":
        shard = rng.choice(shards)
        pruned = list(shard["pruned_tids"])
        if pruned and rng.random() < 0.5:
            del pruned[rng.randrange(len(pruned))]
        else:
            pruned.append(max(t["tid"] for t in shard["topologies"]) + 1)
        shard["pruned_tids"] = pruned
    elif edit == "excptops_rows":
        shard, at = pick("excptops_rows")
        del shard["excptops_rows"][at]
    elif edit == "truncated_pairs":
        rng.choice(shards)["truncated_pairs"] += 1


TAMPER_EDITS = (
    "drop",
    "duplicate",
    "move",
    "swap",
    "tid",
    "drop_pair",
    "pair_signatures",
    "score",
    "pruned_tids",
    "excptops_rows",
    "truncated_pairs",
)


@pytest.mark.parametrize("edit", TAMPER_EDITS)
def test_tamper_sweep(reference_state, difftest_seeds, edit):
    """Seeded sweep (``--difftest-seeds``): per seed, a split into 2-4
    shards verifies as made and fails once one random ``edit`` lands."""
    for seed in difftest_seeds:
        rng = random.Random(f"{edit}:{seed}")
        num_shards = rng.randint(2, 4)
        verify_split(reference_state, split_state(reference_state, num_shards))
        shards = split_state(reference_state, num_shards)
        _tamper(shards, edit, rng)
        with pytest.raises(ShardError):
            verify_split(reference_state, shards)


# ----------------------------------------------------------------------
# split_system: files on disk
# ----------------------------------------------------------------------
class TestSplitSystem:
    def test_writes_all_files(self, split4):
        assert os.path.exists(split4.manifest_path)
        assert len(split4.shard_paths) == NUM_SHARDS
        for path, size in zip(split4.shard_paths, split4.file_bytes):
            assert os.path.exists(path)
            assert os.path.getsize(path) == size > 0

    def test_report_histograms_match_reference(self, split4, reference_state):
        assert sum(split4.alltops_histogram) == len(
            reference_state["alltops_rows"]
        )
        assert sum(split4.lefttops_histogram) == len(
            reference_state["lefttops_rows"]
        )
        assert sum(split4.pairs_histogram) == len(reference_state["pairs"])
        assert split4.replicated_topologies == len(
            reference_state["topologies"]
        )
        assert split4.skew >= 1.0
        assert split4.scheme == SHARD_SCHEME

    def test_report_round_trips_through_json(self, split4):
        wire = json.loads(json.dumps(split4.to_wire()))
        assert wire["num_shards"] == NUM_SHARDS
        assert wire["set_id"] == split4.set_id
        assert wire["row_histogram"] == list(split4.row_histogram)

    def test_saved_files_carry_membership_metadata(self, split4):
        for index, path in enumerate(split4.shard_paths):
            shard = snapshot_info(path).shard
            assert shard == {
                "index": index,
                "count": NUM_SHARDS,
                "scheme": SHARD_SCHEME,
                "set_id": split4.set_id,
            }

    def test_saved_shards_verify_against_reference(self, split4, reference_state):
        """The files as read back are the exact, in-order E1-bucket
        filters of the reference — which implies their union is it."""
        verify_split(
            reference_state, [read_store_state(p) for p in split4.shard_paths]
        )

    def test_failed_verification_leaves_no_manifest(
        self, tiny_system, tmp_path, monkeypatch
    ):
        """A manifest is what a coordinator opens, so one must exist
        only for a set that passed verification."""

        def reject(reference_state, shard_states):
            raise ShardError("rejected")

        monkeypatch.setattr(shard_verify, "verify_split", reject)
        with pytest.raises(ShardError, match="rejected"):
            split_system(tiny_system, 2, tmp_path)
        assert not os.path.exists(tmp_path / "shard.manifest.json")

    def test_set_id_is_deterministic(self, split4, tiny_system):
        digest = tiny_system.require_store().state_digest()
        assert split4.set_id == shard_set_id(digest, NUM_SHARDS)
        assert shard_set_id(digest, NUM_SHARDS) != shard_set_id(
            digest, NUM_SHARDS + 1
        )

    def test_unbuilt_system_rejected(self, tiny_dataset, tmp_path):
        from repro.core import TopologySearchSystem

        empty = TopologySearchSystem(
            tiny_dataset.database, tiny_dataset.graph()
        )
        with pytest.raises(ShardError, match="unbuilt"):
            split_system(empty, 2, tmp_path)


def _meta(path):
    conn = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
    try:
        meta = {k: json.loads(v) for k, v in conn.execute("SELECT key, value FROM meta")}
    finally:
        conn.close()
    del meta["saved_at"]
    return meta


def _base_tables(database):
    return [
        (schema_to_json(d.schema), d.hash_indexes, d.sorted_indexes, list(d.rows))
        for d in database.dump_tables(exclude=DERIVED_TABLES)
    ]


@pytest.mark.parametrize("num_shards", [2, 4])
def test_shard_files_are_whole_snapshots_plus_membership(
    tiny_system, tmp_path, num_shards
):
    """A shard file is written from the source system itself, not from a
    per-shard clone: its meta is the whole snapshot's plus ``shard``
    (calibration included, AllTops always restored), and its base tables
    are the source's."""
    from repro.core import NoConstraint, TopologyQuery

    source = tiny_system.clone_base()
    source.build(list(tiny_system.built_pairs), max_length=tiny_system.max_length)
    query = TopologyQuery(
        "Protein", "DNA", NoConstraint(), NoConstraint(), k=2, ranking="rare"
    )
    for _ in range(4):  # past MIN_OBSERVATIONS: a non-default calibrator
        source.search(query, "fast-top-k-et")
    assert source.calibrator.export_state()["strategies"]
    whole = tmp_path / "whole.topo"
    save_system(source, whole)
    split = split_system(source, num_shards, tmp_path / "shards")
    expected = _meta(whole)
    assert expected["include_alltops"] is True
    source_tables = _base_tables(source.database)
    for index, path in enumerate(split.shard_paths):
        shard = {
            "index": index,
            "count": num_shards,
            "scheme": SHARD_SCHEME,
            "set_id": split.set_id,
        }
        assert _meta(path) == {**expected, "shard": shard}
        assert _base_tables(load_system(path).database) == source_tables


class TestSkewWarning:
    def _report(self, histogram):
        return ShardSplitReport(
            num_shards=len(histogram),
            scheme=SHARD_SCHEME,
            set_id="deadbeefdeadbeef",
            manifest_path="x.manifest.json",
            shard_paths=[],
            alltops_histogram=tuple(histogram),
            lefttops_histogram=tuple(0 for _ in histogram),
            pairs_histogram=tuple(0 for _ in histogram),
            replicated_topologies=0,
            replicated_excptops=0,
        )

    def test_skewed_split_logs_structured_warning(self, caplog):
        report = self._report((30, 1, 1, 0))  # skew 3.75x
        with caplog.at_level(logging.WARNING, logger="repro.shard"):
            _warn_on_skew(report)
        (record,) = caplog.records
        payload = json.loads(record.message.split(": ", 1)[1])
        assert payload["event"] == "shard_skew"
        assert payload["row_histogram"] == [30, 1, 1, 0]
        assert payload["skew"] > SKEW_WARNING_THRESHOLD

    def test_balanced_split_stays_quiet(self, caplog):
        with caplog.at_level(logging.WARNING, logger="repro.shard"):
            _warn_on_skew(self._report((8, 8, 9, 8)))
        assert not caplog.records


# ----------------------------------------------------------------------
# Manifests
# ----------------------------------------------------------------------
class TestManifest:
    def test_read_back_resolves_absolute_paths(self, split4):
        manifest = read_manifest(split4.manifest_path)
        assert manifest.set_id == split4.set_id
        assert manifest.scheme == SHARD_SCHEME
        assert manifest.count == NUM_SHARDS
        assert all(os.path.isabs(p) for p in manifest.shard_paths)
        assert [os.path.basename(p) for p in manifest.shard_paths] == [
            os.path.basename(p) for p in split4.shard_paths
        ]
        with pytest.raises(ShardError):
            manifest.shard_path(NUM_SHARDS)

    def test_paths_are_relative_in_the_file(self, split4):
        with open(split4.manifest_path, encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["format"] == MANIFEST_FORMAT
        assert all(
            not os.path.isabs(entry["path"]) for entry in payload["shards"]
        )

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ShardError, match="does not exist"):
            read_manifest(tmp_path / "nope.manifest.json")

    def test_wrong_format_marker(self, tmp_path):
        path = tmp_path / "bad.manifest.json"
        path.write_text(json.dumps({"format": "something-else/9"}))
        with pytest.raises(ShardError, match="format"):
            read_manifest(path)

    def test_count_mismatch(self, split4, tmp_path):
        with open(split4.manifest_path, encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["count"] = NUM_SHARDS + 1
        path = tmp_path / "bad.manifest.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ShardError, match="declares"):
            read_manifest(path)

    def test_missing_shard_file(self, split4, tmp_path):
        manifest = write_manifest(
            tmp_path / "m.manifest.json",
            set_id=split4.set_id,
            scheme=SHARD_SCHEME,
            shard_paths=list(split4.shard_paths[:-1])
            + [str(tmp_path / "gone.topo")],
        )
        with pytest.raises(ShardError, match="does not exist"):
            read_manifest(manifest.path)

    def test_swapped_shard_files_rejected(self, split4, tmp_path):
        """A shard file listed under the wrong index is a routing error
        waiting to happen; membership metadata catches it at open."""
        swapped = list(split4.shard_paths)
        swapped[0], swapped[1] = swapped[1], swapped[0]
        manifest = write_manifest(
            tmp_path / "swapped.manifest.json",
            set_id=split4.set_id,
            scheme=SHARD_SCHEME,
            shard_paths=swapped,
        )
        with pytest.raises(ShardError, match="membership"):
            read_manifest(manifest.path)

    def test_whole_store_snapshot_rejected(self, split4, tiny_system, tmp_path):
        stray = tmp_path / "whole.topo"
        save_system(tiny_system, stray)
        manifest = write_manifest(
            tmp_path / "stray.manifest.json",
            set_id=split4.set_id,
            scheme=SHARD_SCHEME,
            shard_paths=[str(stray)] + list(split4.shard_paths[1:]),
        )
        with pytest.raises(ShardError, match="no shard metadata"):
            read_manifest(manifest.path)

    def test_check_can_be_deferred(self, split4, tmp_path):
        swapped = list(split4.shard_paths)
        swapped[0], swapped[1] = swapped[1], swapped[0]
        manifest = write_manifest(
            tmp_path / "deferred.manifest.json",
            set_id=split4.set_id,
            scheme=SHARD_SCHEME,
            shard_paths=swapped,
        )
        parsed = read_manifest(manifest.path, check_snapshots=False)
        assert parsed.count == NUM_SHARDS

"""Parallel-vs-serial equivalence of the partitioned offline build.

The central property: for every worker count and partition count, the
partitioned build (:mod:`repro.parallel`) must produce a store that is
**bit-identical** to the serial build's — same TID assignment, same
``TopInfo``/``AllTops``/``LeftTops``/``ExcpTops`` contents *and row
order* — and a system built from it must answer every one of the nine
query methods identically.
"""

from __future__ import annotations

import pytest

from repro.biozon import BiozonConfig, generate
from repro.core import (
    ALL_METHOD_NAMES,
    AttributeConstraint,
    KeywordConstraint,
    NoConstraint,
    TopologyQuery,
    TopologySearchSystem,
    TopologyStore,
    apply_pruning,
)
from repro.core.alltops import compute_alltops
from repro.errors import TopologyError
from repro.parallel import (
    compute_alltops_parallel,
    partition_histogram,
    partition_sources,
    stable_partition,
)

# Includes an unordered (same-type) pair to cover the a<b orientation
# dedup in the partitioned path.
STORE_PAIRS = [("Protein", "DNA"), ("Protein", "Interaction"), ("Protein", "Protein")]
SYSTEM_PAIRS = [("Protein", "DNA"), ("Protein", "Interaction")]
MAX_LENGTH = 3

EXHAUSTIVE_METHODS = ("sql", "full-top", "fast-top")


# ----------------------------------------------------------------------
# Partitioning
# ----------------------------------------------------------------------
class TestStablePartition:
    def test_deterministic_and_in_range(self):
        for node_id in (0, 1, 17, 10**12, "P1", "", (1, "x"), b"raw"):
            for n in (1, 2, 3, 7, 64):
                first = stable_partition(node_id, n)
                assert 0 <= first < n
                assert stable_partition(node_id, n) == first

    def test_type_discrimination(self):
        # 1, "1", True, b"1" are distinct ids; their encodings must
        # differ (buckets *may* collide, encodings may not).
        from repro.parallel.partition import _canonical_bytes

        encodings = {_canonical_bytes(v) for v in (1, "1", True, b"1")}
        assert len(encodings) == 4

    def test_buckets_partition_the_sources(self):
        sources = list(range(1000, 1100)) + [f"s{i}" for i in range(50)]
        buckets = partition_sources(sources, 7)
        flattened = [x for bucket in buckets.values() for x in bucket]
        assert len(flattened) == len(sources)
        assert set(flattened) == set(sources)
        # Order inside each bucket preserves the input order.
        for bucket in buckets.values():
            positions = [sources.index(x) for x in bucket]
            assert positions == sorted(positions)
        assert sum(partition_histogram(sources, 7)) == len(sources)

    def test_rejects_bad_partition_count(self):
        with pytest.raises(TopologyError):
            stable_partition(1, 0)


# ----------------------------------------------------------------------
# Store-level bit identity
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def graph(tiny_dataset):
    return tiny_dataset.graph()


@pytest.fixture(scope="module")
def serial_store(graph):
    store, _ = compute_alltops(graph, STORE_PAIRS, MAX_LENGTH)
    return store


class TestStoreEquivalence:
    @pytest.mark.parametrize(
        "workers,partitions",
        [(2, 1), (2, 2), (2, 5), (2, None), (4, 3), (4, 4), (4, 9)],
    )
    def test_bit_identical_store(self, graph, serial_store, workers, partitions):
        store, report, parallel_report = compute_alltops_parallel(
            graph,
            STORE_PAIRS,
            MAX_LENGTH,
            workers=workers,
            partitions=partitions,
        )
        assert store.state_digest() == serial_store.state_digest()
        # Row order — not just contents — must match the serial build.
        assert store.alltops_rows == serial_store.alltops_rows
        assert list(store.topologies) == list(serial_store.topologies)
        assert parallel_report.workers == workers
        expected_partitions = (
            partitions if partitions is not None else parallel_report.partitions
        )
        assert len(parallel_report.tasks) == expected_partitions * len(STORE_PAIRS)

    def test_full_state_equality(self, graph, serial_store):
        store, _, _ = compute_alltops_parallel(
            graph, STORE_PAIRS, MAX_LENGTH, workers=2, partitions=3
        )
        assert store.export_state() == serial_store.export_state()

    def test_report_matches_serial(self, graph, serial_store):
        _, serial_report = compute_alltops(graph, STORE_PAIRS, MAX_LENGTH)
        _, report, parallel_report = compute_alltops_parallel(
            graph, STORE_PAIRS, MAX_LENGTH, workers=2, partitions=4
        )
        assert report.pairs_related == serial_report.pairs_related
        assert report.alltops_rows == serial_report.alltops_rows
        assert report.distinct_topologies == serial_report.distinct_topologies
        assert report.truncated_pairs == serial_report.truncated_pairs
        assert parallel_report.merge_seconds > 0.0
        # Every source of every pair was scanned by exactly one task.
        by_pair = {}
        for task in parallel_report.tasks:
            by_pair[task.pair_index] = by_pair.get(task.pair_index, 0) + task.sources_scanned
        from repro.core.alltops import nodes_by_type

        by_type = nodes_by_type(graph)
        for pair_index, (es1, _) in enumerate(STORE_PAIRS):
            assert by_pair[pair_index] == len(by_type.get(es1, []))

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_canonicalisation_counters(self, graph, start_method):
        """``combinations`` is a property of the input; the number of
        canonical searches is not — each worker process fills a shape
        memo of its own, so they sum to between one and ``workers``
        times the serial count."""
        _, serial_report = compute_alltops(graph, STORE_PAIRS, MAX_LENGTH)
        _, report, _ = compute_alltops_parallel(
            graph, STORE_PAIRS, MAX_LENGTH, workers=2, partitions=4,
            start_method=start_method,
        )
        assert 0 < serial_report.canonical_searches < serial_report.combinations
        assert report.combinations == serial_report.combinations
        assert (
            serial_report.canonical_searches
            <= report.canonical_searches
            <= 2 * serial_report.canonical_searches
        )

    def test_truncation_caps_agree(self, graph):
        """Caps bite identically in serial and partitioned builds."""
        kwargs = dict(combination_cap=2, per_pair_path_limit=3)
        serial, _ = compute_alltops(graph, STORE_PAIRS, MAX_LENGTH, **kwargs)
        parallel, _, _ = compute_alltops_parallel(
            graph, STORE_PAIRS, MAX_LENGTH, workers=2, partitions=3, **kwargs
        )
        assert serial.truncated_pairs > 0  # the tightened caps actually bit
        assert parallel.state_digest() == serial.state_digest()

    def test_spawn_start_method_identical(self, graph, serial_store):
        """The pickled-payload path (spawn workers inherit nothing)
        produces the same bits as the fork copy-on-write path."""
        store, _, parallel_report = compute_alltops_parallel(
            graph,
            STORE_PAIRS,
            MAX_LENGTH,
            workers=2,
            partitions=2,
            start_method="spawn",
        )
        assert parallel_report.start_method == "spawn"
        assert store.state_digest() == serial_store.state_digest()

    def test_unknown_start_method_rejected(self, graph):
        with pytest.raises(TopologyError):
            compute_alltops_parallel(
                graph, STORE_PAIRS, MAX_LENGTH, workers=2,
                start_method="no-such-method",
            )

    def test_duplicate_pairs_rejected(self, graph):
        with pytest.raises(TopologyError):
            compute_alltops_parallel(
                graph,
                [("Protein", "DNA"), ("DNA", "Protein")],
                MAX_LENGTH,
                workers=2,
            )

    def test_bad_worker_count_rejected(self, graph):
        with pytest.raises(TopologyError):
            compute_alltops_parallel(graph, STORE_PAIRS, MAX_LENGTH, workers=0)


# ----------------------------------------------------------------------
# System-level: all nine query methods answer identically
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def serial_system():
    ds = generate(BiozonConfig.tiny(seed=3))
    system = TopologySearchSystem(ds.database, ds.graph())
    system.build(SYSTEM_PAIRS, max_length=MAX_LENGTH)
    return system


@pytest.fixture(scope="module")
def parallel_system():
    # Same seed, fresh dataset object: nothing shared with the serial
    # system except the (deterministic) generator inputs.  The store is
    # built the way the benchmark builds its partitioned twin: compute
    # in a pool, prune, adopt.
    ds = generate(BiozonConfig.tiny(seed=3))
    system = TopologySearchSystem(ds.database, ds.graph())
    store, _, _ = compute_alltops_parallel(
        system.graph, SYSTEM_PAIRS, MAX_LENGTH, workers=2, partitions=5,
        store=TopologyStore(system.weak_rules),
    )
    apply_pruning(store)
    system.adopt_store(store, MAX_LENGTH, SYSTEM_PAIRS)
    return system


def _queries_for(method: str):
    if method in EXHAUSTIVE_METHODS:
        return [
            TopologyQuery(
                "Protein", "DNA",
                KeywordConstraint("DESC", "kinase"),
                AttributeConstraint("TYPE", "mRNA"),
            ),
            # Reversed orientation relative to the build pair list.
            TopologyQuery(
                "DNA", "Protein",
                AttributeConstraint("TYPE", "EST"),
                NoConstraint(),
            ),
        ]
    return [
        TopologyQuery(
            "Protein", "DNA",
            KeywordConstraint("DESC", "human"),
            NoConstraint(),
            k=5, ranking="freq",
        ),
        TopologyQuery(
            "Interaction", "Protein",
            NoConstraint(),
            KeywordConstraint("DESC", "binding"),
            k=3, ranking="rare",
        ),
    ]


class TestNineMethodsEquivalence:
    def test_stores_identical(self, serial_system, parallel_system):
        assert (
            parallel_system.store.state_digest()
            == serial_system.store.state_digest()
        )
        assert (
            parallel_system.store.lefttops_rows
            == serial_system.store.lefttops_rows
        )
        assert (
            parallel_system.store.excptops_rows
            == serial_system.store.excptops_rows
        )

    @pytest.mark.parametrize("method", ALL_METHOD_NAMES)
    def test_method_answers_identical(self, serial_system, parallel_system, method):
        for query in _queries_for(method):
            serial = serial_system.search(query, method=method)
            parallel = parallel_system.search(query, method=method)
            assert serial.tids == parallel.tids, (method, query.describe())
            assert serial.scores == parallel.scores, (method, query.describe())

"""Seeded differential sweep: sharded vs unsharded answers.

Mirrors the row-vs-columnar differential suite
(``tests/relational/test_columnar_equivalence.py``): a seeded random
workload (``tests/difftest/gen.py``) runs through a 2-shard
scatter-gather coordinator and directly against the unsharded engine,
and every answer — tids *and* scores — must match exactly.  The seed
count scales with ``--difftest-seeds N`` (default 5); CI's deep step
raises it.
"""

from __future__ import annotations

import pytest

from difftest.gen import gen_topology_queries, make_rng
from repro.core import (
    ALL_METHOD_NAMES,
    AttributeConstraint,
    KeywordConstraint,
    TopologyQuery,
)
from repro.service import ShardCoordinator
from repro.shard import split_system

EXHAUSTIVE_METHODS = ("sql", "full-top", "fast-top")
PAIRS = (("Protein", "DNA"), ("Protein", "Interaction"))


@pytest.fixture(scope="module")
def coordinator2(tmp_path_factory, tiny_system):
    """A 2-shard coordinator over the tiny system (module-scoped: the
    sweep is read-only and the split + spawn cost is the expensive
    part)."""
    directory = tmp_path_factory.mktemp("shards2")
    split = split_system(tiny_system, 2, directory)
    with ShardCoordinator(split.manifest_path, start_method="fork") as coord:
        yield coord


def test_random_workload_matches_unsharded(
    coordinator2, tiny_system, difftest_seeds
):
    checked = 0
    for seed in difftest_seeds:
        rng = make_rng(seed)
        # 4 queries/seed keeps the default sweep (~5 seeds x 9 methods)
        # tractable on a 1-core box; CI's deep step raises the seeds.
        queries = gen_topology_queries(rng, PAIRS, count=4, max_length=3)
        for method in ALL_METHOD_NAMES:
            applicable = [
                q
                for q in queries
                if q.k is not None or method in EXHAUSTIVE_METHODS
            ]
            if not applicable:
                continue
            merged = coordinator2.query_many(applicable, method=method)
            for query, result in zip(applicable, merged):
                reference = tiny_system.search(query, method=method)
                context = f"seed={seed} method={method} query={query!r}"
                assert result.tids == reference.tids, context
                assert result.scores == reference.scores, context
                checked += 1
    # The sweep must have real coverage of both merge shapes.
    assert checked >= len(difftest_seeds) * len(ALL_METHOD_NAMES)


def test_empty_pruned_check_matches_unsharded(coordinator2, tiny_system):
    """The constraint pair whose pruned check the reducer proves empty
    (no EST sequence encodes a protein): each shard answers it without
    the statement, and the merge still equals the unsharded answer of
    every method."""
    first = KeywordConstraint("DESC", "human")
    second = AttributeConstraint("TYPE", "EST")
    plain = TopologyQuery("Protein", "DNA", first, second)
    topk = TopologyQuery("Protein", "DNA", first, second, k=5, ranking="freq")
    exhaustive = tiny_system.search(plain, method="full-top")
    for method in ALL_METHOD_NAMES:
        query = plain if method in EXHAUSTIVE_METHODS else topk
        reference = tiny_system.search(query, method=method)
        if method.startswith("fast-"):
            assert reference.work["pruned_checks_proved_empty"] > 0, method
        merged = coordinator2.query(query, method=method)
        assert merged.tids == reference.tids, method
        assert merged.scores == reference.scores, method
        assert set(merged.tids) <= set(exhaustive.tids), method


def test_sweep_covers_both_merge_shapes(difftest_seeds):
    """Guard on the generator itself: across the sweep's seeds the
    workload must include exhaustive (k=None) and ranked queries and
    both entity pairs, so the sweep above cannot silently degenerate
    into one merge shape."""
    queries = [
        q
        for seed in difftest_seeds
        for q in gen_topology_queries(make_rng(seed), PAIRS, count=12)
    ]
    assert any(q.k is None for q in queries)
    ranked = [q for q in queries if q.k is not None]
    assert ranked and all(1 <= q.k <= 8 for q in ranked)
    assert {(q.entity1, q.entity2) for q in queries} == set(PAIRS)
    assert all(q.max_length == 3 for q in queries)

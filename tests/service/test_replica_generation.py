"""Replica-pool generation attestation.

A warm replica pool serves exactly one generation.  Its workers speak
the shard-backend protocol: the parent stamps (worker index, generation)
into every worker at pool start; every reply carries the stamp back, and
:meth:`ReplicaPool.run` refuses to merge a reply stamped differently —
the failure mode is a worker serving a stale snapshot after a hot-swap,
which must be loud, never silently wrong.
"""

from __future__ import annotations

import pytest

from repro.core import KeywordConstraint, NoConstraint, TopologyQuery
from repro.errors import ShardUnavailableError, TopologyError
from repro.service.replica import ReplicaPool


@pytest.fixture(scope="module")
def pool(tiny_system):
    with ReplicaPool(
        tiny_system, workers=1, start_method="fork", generation=7
    ) as p:
        yield p


def _chunk(keyword: str):
    query = TopologyQuery(
        "Protein", "DNA", KeywordConstraint("DESC", keyword), NoConstraint()
    )
    return ("fast-top", [(0, query)])


class TestGenerationAttestation:
    def test_replies_attest_the_stamped_generation(self, pool, tiny_system):
        (items,) = pool.run([_chunk("kinase")])
        (index, result) = items[0]
        assert index == 0
        reference = tiny_system.search(
            _chunk("kinase")[1][0][1], method="fast-top"
        )
        assert result.tids == reference.tids

    def test_mismatched_attestation_refuses_to_merge(self, pool):
        """Simulate a pool mix-up: the consumer believes a different
        generation than the workers were initialized with."""
        (backend,) = pool._backends
        backend.generation += 1
        try:
            with pytest.raises(TopologyError, match="stamped"):
                pool.run([_chunk("human")])
        finally:
            backend.generation -= 1

    def test_chunks_have_no_reply_deadline(self, pool):
        """A chunk is one worker's share of a batch, not one query, so
        the per-op deadline of a shard backend (still enforced when
        asked for) does not apply to replica workers — and work queued
        behind a slow op is answered, not timed out."""
        (backend,) = pool._backends
        assert backend.timeout is None
        with pytest.raises(ShardUnavailableError, match="no reply within"):
            backend.call("sleep", 0.5, timeout=0.05)
        assert backend.call("sleep", 0.1) == 0.1  # ran after the abandoned 0.5 s
        (items,) = pool.run([_chunk("kinase")])
        assert [index for index, _ in items] == [0]

    def test_closed_pool_rejects_work(self, tiny_system):
        p = ReplicaPool(
            tiny_system, workers=1, start_method="fork", generation=1
        )
        p.close()
        p.close()  # idempotent
        with pytest.raises(TopologyError, match="closed"):
            p.run([_chunk("kinase")])

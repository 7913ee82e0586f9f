"""A settle step that raises must fail the flight, on every front end.

Regression pin: ``TopologyServer`` used to run the latency/slow-log step
*outside* the guard that cleans a flight up, so anything raising there
left the flight registered forever — ``in_flight == 1``, ``failures ==
0``, and the next identical query blocked for good — while
``ShardCoordinator``'s copy of the same code recovered.  Both now run
the core's one settle, inside its guard.
"""

from __future__ import annotations

import logging
import threading

import pytest

from repro.obs import SLOW_QUERY_LOGGER
from repro.service import ShardCoordinator, TopologyServer

from tests.shard.conftest import START_METHOD
from tests.shard.test_coordinator import query_for


class LogBoom(RuntimeError):
    pass


class RaisingFilter(logging.Filter):
    def filter(self, record: logging.LogRecord) -> bool:
        raise LogBoom("slow-query log sink is broken")


@pytest.fixture(params=["server", "coordinator"])
def eager(request, tiny_system, split4):
    """A front end whose every execution is "slow" (threshold 0)."""
    if request.param == "server":
        front_end = TopologyServer(tiny_system, slow_query_seconds=0.0)
    else:
        front_end = ShardCoordinator(
            split4.manifest_path, start_method=START_METHOD, slow_query_seconds=0.0
        )
    with front_end:
        yield front_end


def test_raising_slow_log_fails_the_flight_and_unblocks_retries(eager):
    query = query_for("fast-top-k-opt")
    logger = logging.getLogger(SLOW_QUERY_LOGGER)
    broken = RaisingFilter()
    logger.addFilter(broken)
    try:
        with pytest.raises(LogBoom):
            eager.query(query)
    finally:
        logger.removeFilter(broken)
    stats = eager.stats()
    assert stats.in_flight == 0
    assert stats.failures == 1
    # The same query, from another thread, executes and returns.
    results = []
    retry = threading.Thread(target=lambda: results.append(eager.query(query)), daemon=True)
    retry.start()
    retry.join(30.0)
    assert not retry.is_alive(), "the retry latched onto a dead flight"
    assert results[0].tids is not None
    assert eager.stats().in_flight == 0

"""The slow-query log: the golden record shape, thresholding, and the
JSON line it emits on the ``repro.slowquery`` logger."""

from __future__ import annotations

import json
import logging

from repro.obs import SLOW_QUERY_LOGGER, SlowQueryLog, default_slow_query_seconds
from repro.obs.slowlog import THRESHOLD_ENV
from repro.obs.trace import SpanRecord


def make_span(name: str, span_id: str, parent_id=None) -> SpanRecord:
    return SpanRecord(
        trace_id="trace1",
        span_id=span_id,
        parent_id=parent_id,
        name=name,
        start_unix=100.0,
        elapsed_seconds=1.5,
        tags={"ignored": "by the breakdown"},
    )


class TestThreshold:
    def test_under_threshold_is_silent(self):
        log = SlowQueryLog(threshold_seconds=1.0)
        assert log.maybe_record(
            elapsed_seconds=0.5, method="m", query={}, generation=1
        ) is None
        assert log.recent() == []
        assert log.stats()["emitted"] == 0

    def test_default_comes_from_the_environment(self, monkeypatch):
        monkeypatch.setenv(THRESHOLD_ENV, "2.5")
        assert default_slow_query_seconds() == 2.5
        monkeypatch.setenv(THRESHOLD_ENV, "garbage")
        assert default_slow_query_seconds() == 1.0
        monkeypatch.setenv(THRESHOLD_ENV, "-3")
        assert default_slow_query_seconds() == 1.0
        monkeypatch.delenv(THRESHOLD_ENV)
        assert default_slow_query_seconds() == 1.0


class TestGoldenRecord:
    def test_record_shape_is_pinned(self):
        """The full structured record, field by field — this is the
        contract operators' log pipelines parse."""
        log = SlowQueryLog(threshold_seconds=1.0, source="server")
        record = log.maybe_record(
            elapsed_seconds=2.0,
            method="fast-top-k-opt",
            query={
                "entity1": "Protein",
                "entity2": "DNA",
                "max_length": 3,
                "k": 4,
                "ranking": "rare",
            },
            generation=7,
            trace_id="trace1",
            plan={"choice": "et-idgj"},
            calibrator_version=3,
            spans=[make_span("server.query", "s1"), make_span("engine.plan", "s2", "s1")],
            work={"pruned_checks": 2, "pruned_checks_proved_empty": 1, "groups_probed": 9},
        )
        assert record == {
            "event": "slow_query",
            "source": "server",
            "trace_id": "trace1",
            "method": "fast-top-k-opt",
            "query": {
                "entity1": "Protein",
                "entity2": "DNA",
                "max_length": 3,
                "k": 4,
                "ranking": "rare",
            },
            "elapsed_seconds": 2.0,
            "threshold_seconds": 1.0,
            "plan": {"choice": "et-idgj"},
            "work": {"pruned_checks": 2, "pruned_checks_proved_empty": 1, "groups_probed": 9},
            "calibrator_version": 3,
            "generation": 7,
            "spans": [
                {
                    "name": "server.query",
                    "span_id": "s1",
                    "parent_id": None,
                    "elapsed_seconds": 1.5,
                },
                {
                    "name": "engine.plan",
                    "span_id": "s2",
                    "parent_id": "s1",
                    "elapsed_seconds": 1.5,
                },
            ],
        }
        assert log.recent() == [record]
        assert log.stats() == {"threshold_seconds": 1.0, "emitted": 1}

    def test_emits_one_parseable_json_warning_line(self, caplog):
        log = SlowQueryLog(threshold_seconds=0.0, source="coordinator")
        with caplog.at_level(logging.WARNING, logger=SLOW_QUERY_LOGGER):
            log.maybe_record(
                elapsed_seconds=0.1, method="m", query={"entity1": "A"}, generation=1
            )
        records = [r for r in caplog.records if r.name == SLOW_QUERY_LOGGER]
        assert len(records) == 1
        parsed = json.loads(records[0].getMessage())
        assert parsed["event"] == "slow_query"
        assert parsed["source"] == "coordinator"
        assert parsed["query"] == {"entity1": "A"}

    def test_ring_is_bounded(self):
        log = SlowQueryLog(threshold_seconds=0.0, keep=3)
        for n in range(5):
            log.maybe_record(
                elapsed_seconds=float(n), method="m", query={}, generation=n
            )
        recent = log.recent()
        assert len(recent) == 3
        assert [r["generation"] for r in recent] == [2, 3, 4]
        assert log.stats()["emitted"] == 5

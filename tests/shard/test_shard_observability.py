"""Observability across the process boundary: one HTTP request against
a sharded coordinator yields ONE trace whose ``shard.query`` spans were
recorded in the worker processes and shipped back, `/metrics` merges the
workers' own counters, and the coordinator-side satellites (uptime,
started generation, once-per-generation skew warning, slow-query log)
behave."""

from __future__ import annotations

import json
import logging

import pytest

from repro.service import ShardCoordinator
from repro.service.http import TestClient, create_app

from tests.obs.test_metrics import parse_exposition
from tests.shard.conftest import START_METHOD
from tests.shard.test_coordinator import query_for
from tests.shard.test_http import valid_query


@pytest.fixture()
def traced_client(split4):
    with ShardCoordinator(split4.manifest_path, start_method=START_METHOD) as coord:
        with create_app(coord) as app:
            with TestClient(app) as client:
                yield client, coord


def flatten(tree: dict) -> list:
    flat = []

    def walk(nodes):
        for node in nodes:
            flat.append(node)
            walk(node["children"])

    walk(tree["spans"])
    return flat


class TestCrossProcessTrace:
    def test_one_query_one_trace_spanning_worker_processes(self, traced_client):
        """The acceptance path: POST /query against a sharded
        coordinator, then GET /trace/{id} shows the scatter fanning out
        into shard.query spans recorded by DISTINCT worker processes,
        all under one trace id with well-formed parent links."""
        client, coordinator = traced_client
        response = client.post("/query", json=valid_query())
        assert response.status == 200
        trace_id = response.json()["trace_id"]
        assert response.headers["x-trace-id"] == trace_id

        tree = client.get(f"/trace/{trace_id}").json()
        spans = flatten(tree)
        assert {s["trace_id"] for s in spans} == {trace_id}

        by_name = {}
        for span in spans:
            by_name.setdefault(span["name"], []).append(span)
        (http_span,) = by_name["http.request"]
        (scatter,) = by_name["coordinator.scatter"]
        shard_spans = by_name["shard.query"]

        assert http_span["parent_id"] is None
        assert scatter["parent_id"] == http_span["span_id"]
        # Every shard in the scatter contributed a span, each recorded
        # in its own worker process.
        assert len(shard_spans) == coordinator.num_shards >= 2
        assert all(s["parent_id"] == scatter["span_id"] for s in shard_spans)
        worker_pids = {s["tags"]["pid"] for s in shard_spans}
        assert len(worker_pids) == coordinator.num_shards
        assert {s["tags"]["shard"] for s in shard_spans} == set(
            range(coordinator.num_shards)
        )
        # The engine phases ran inside the workers, under shard.query.
        shard_span_ids = {s["span_id"] for s in shard_spans}
        assert {
            s["parent_id"] for s in by_name["engine.plan"]
        } <= shard_span_ids
        assert len(by_name["engine.execute"]) == coordinator.num_shards

    def test_a_hit_keeps_the_scatter_span_tagged_hit(self, traced_client):
        """A repeat is answered from the coordinator's result cache
        before admission: its trace is ``http.request`` →
        ``coordinator.scatter`` tagged ``cache="hit"``, and no shard is
        asked."""
        client, coordinator = traced_client
        client.post("/query", json=valid_query())
        calls = [shard["calls"] for shard in coordinator.shard_sections()]
        trace_id = client.post("/query", json=valid_query()).json()["trace_id"]
        spans = flatten(client.get(f"/trace/{trace_id}").json())
        assert [s["name"] for s in spans] == ["http.request", "coordinator.scatter"]
        http_span, scatter = spans
        assert scatter["parent_id"] == http_span["span_id"]
        assert scatter["tags"]["cache"] == "hit"
        assert [shard["calls"] for shard in coordinator.shard_sections()] == calls

    def test_untraced_direct_query_ships_no_spans(self, traced_client):
        """A direct coordinator.query() call (no HTTP ingress) still
        opens its own coordinator.scatter ingress trace — the
        coordinator is an ingress for non-HTTP callers."""
        _, coordinator = traced_client
        from repro.obs import tracer

        coordinator.query(query_for("fast-top-k-opt"))
        recent = tracer().recent(limit=5)
        assert recent[0]["root"] == "coordinator.scatter"


class TestShardMetrics:
    def test_metrics_stay_readable_with_a_wedged_shard(self, traced_client):
        """The scrape must degrade, not fail: with one worker wedged
        (busy, missing the reply deadline) ``/metrics`` still answers
        200 and reports that shard down — while queries that need the
        wedged shard keep mapping to 503, not a hang."""
        client, coordinator = traced_client
        backend = coordinator._backends[1]
        backend.submit("sleep", 5.0)  # occupies the one worker
        backend.timeout = 0.2

        response = client.get("/metrics")
        assert response.status == 200
        _, samples = parse_exposition(response.text)
        up = {labels["shard"]: value for labels, value in samples["repro_shard_up"]}
        assert up["1"] == 0
        assert all(up[str(n)] == 1 for n in range(coordinator.num_shards) if n != 1)

        query_response = client.post("/query", json=valid_query())
        assert query_response.status == 503
        assert query_response.json()["error"]["code"] == "shard_unavailable"

    def test_metrics_merge_worker_sections(self, traced_client):
        client, coordinator = traced_client
        client.post("/query", json=valid_query())
        types, samples = parse_exposition(client.get("/metrics").text)
        up = {labels["shard"]: value for labels, value in samples["repro_shard_up"]}
        assert up == {str(n): 1 for n in range(coordinator.num_shards)}
        assert types["repro_shard_plan_cache_misses"] == "counter"
        misses = {
            labels["shard"]: value
            for labels, value in samples["repro_shard_plan_cache_misses"]
        }
        assert set(misses) == set(up)
        assert all(value >= 1 for value in misses.values())
        generations = {
            value for _, value in samples["repro_shard_generation"]
        }
        assert generations == {coordinator.generation}
        ((_, skew),) = samples["repro_shard_skew"]
        assert skew >= 1.0

    def test_worker_event_counters_carry_the_shard_label(self, traced_client):
        """``repro.engine.pruned_checks`` is bumped inside the engine,
        i.e. in the worker processes: the scrape must show each
        worker's count under its ``shard`` label, and they must add up
        to what the merged result says the query cost."""
        client, coordinator = traced_client
        result = coordinator.query(query_for("fast-top"), method="fast-top")
        assert result.work["pruned_checks"] >= 1
        _, samples = parse_exposition(client.get("/metrics").text)
        by_shard = {}
        for labels, value in samples["repro_engine_pruned_checks"]:
            if "shard" in labels:
                assert labels["outcome"] in ("executed", "proved_empty")
                by_shard[labels["shard"]] = by_shard.get(labels["shard"], 0) + value
        assert set(by_shard) == {str(n) for n in range(coordinator.num_shards)}
        assert sum(by_shard.values()) == result.work["pruned_checks"]

    def test_dead_shard_reports_up_zero_not_a_failed_scrape(self, traced_client):
        client, coordinator = traced_client
        coordinator.query(query_for("fast-top"), method="fast-top")
        coordinator._backends[1].close()
        response = client.get("/metrics")
        assert response.status == 200
        _, samples = parse_exposition(response.text)
        up = {labels["shard"]: value for labels, value in samples["repro_shard_up"]}
        assert up["1"] == 0
        assert up["0"] == 1
        # ...and nothing else of what a worker reports about itself.
        worker_side = [
            name
            for name in samples
            if name.startswith(("repro_shard_generation", "repro_shard_plan_cache"))
            or name in ("repro_shard_calibrator_version", "repro_engine_pruned_checks")
        ]
        assert len(worker_side) == 7
        for name in worker_side:
            shards = {labels.get("shard") for labels, _ in samples[name]}
            assert "0" in shards and "1" not in shards, name


class TestCoordinatorSatellites:
    def test_stats_carry_uptime_and_started_generation(self, traced_client):
        client, _ = traced_client
        payload = client.get("/stats").json()
        assert payload["uptime_seconds"] > 0
        assert payload["started_generation"] == 1
        client.post("/rebuild", json={})
        after = client.get("/stats").json()
        assert after["generation"] == 2
        assert after["started_generation"] == 1  # unchanged across rebuilds
        assert after["uptime_seconds"] >= payload["uptime_seconds"]

    def test_skew_warning_logs_once_per_generation(self, traced_client, caplog):
        _, coordinator = traced_client
        # Force a skewed row histogram (the tiny split is balanced).
        coordinator._shard_rows = [1000, 10, 10, 10]
        with caplog.at_level(logging.WARNING, logger="repro.shard"):
            first = coordinator.skew_report()
            second = coordinator.skew_report()
        assert first["skew_warning"] is second["skew_warning"] is True
        warnings = [
            r for r in caplog.records if "shard_routing_skew" in r.getMessage()
        ]
        assert len(warnings) == 1
        structured = json.loads(
            warnings[0].getMessage().partition(": ")[2]
        )
        assert structured["event"] == "shard_routing_skew"
        assert structured["generation"] == coordinator.generation
        # A new generation may warn again.
        caplog.clear()
        coordinator._generation += 1
        with caplog.at_level(logging.WARNING, logger="repro.shard"):
            coordinator.skew_report()
        assert any(
            "shard_routing_skew" in r.getMessage() for r in caplog.records
        )

    def test_coordinator_slow_query_log_records_the_scatter(self, split4):
        with ShardCoordinator(
            split4.manifest_path, start_method=START_METHOD, slow_query_seconds=0.0
        ) as coordinator:
            coordinator.query(query_for("fast-top-k-opt"))
            (record,) = coordinator.slow_query_log.recent()
        assert record["source"] == "coordinator"
        assert record["event"] == "slow_query"
        assert record["query"]["entity1"] == "Protein"
        # Calibration lives shard-side; the coordinator record says so.
        assert record["calibrator_version"] is None
        names = {s["name"] for s in record["spans"]}
        assert "shard.query" in names

"""The observability surface over a single-process server: the
``http.request`` ingress span and its engine children, the
``/trace/{id}`` + ``/traces/recent`` debug endpoints, the ``/metrics``
exposition, and the slow-query log fed from the request's own trace."""

from __future__ import annotations

import pytest

from repro.service import TopologyServer
from repro.service.http import TestClient, create_app

from tests.obs.test_metrics import parse_exposition
from tests.service.http.conftest import valid_query


def span_index(tree: dict) -> dict:
    """Flatten a /trace tree into {name: node}."""
    flat = {}

    def walk(nodes):
        for node in nodes:
            flat[node["name"]] = node
            walk(node["children"])

    walk(tree["spans"])
    return flat


class TestTracedRequest:
    def test_every_response_carries_x_trace_id(self, client):
        seen = set()
        for response in (
            client.get("/healthz"),
            client.get("/stats"),
            client.post("/query", json=valid_query()),
            client.post("/query", json={"bad": "body"}),
            client.get("/nope"),
        ):
            trace_id = response.headers["x-trace-id"]
            assert trace_id and trace_id not in seen
            seen.add(trace_id)

    def test_query_trace_tree_crosses_the_executor(self, client):
        """The engine runs on a worker thread; its spans must still
        attach under the http.request ingress span (run_in_executor does
        not propagate context on its own — the app copies it)."""
        response = client.post("/query", json=valid_query())
        trace_id = response.json()["trace_id"]
        tree = client.get(f"/trace/{trace_id}").json()
        assert tree["trace_id"] == trace_id
        spans = span_index(tree)
        assert set(spans) >= {
            "http.request",
            "server.query",
            "engine.plan",
            "engine.execute",
        }
        # Well-formed parent links, root to leaf.
        assert spans["http.request"]["parent_id"] is None
        assert spans["server.query"]["parent_id"] == spans["http.request"]["span_id"]
        assert spans["engine.plan"]["parent_id"] == spans["server.query"]["span_id"]
        assert spans["engine.execute"]["parent_id"] == spans["server.query"]["span_id"]
        assert spans["http.request"]["tags"]["path"] == "/query"
        assert spans["http.request"]["tags"]["status"] == 200

    def test_a_hit_keeps_the_server_span_tagged_hit(self, client):
        """A hit is answered on the event loop, before admission: its
        tree is still ``http.request`` → ``server.query``, tagged
        ``cache="hit"``, with no engine span under it; the miss before
        it records one ``server.query`` and no tag."""
        miss = client.post("/query", json=valid_query()).json()["trace_id"]
        hit = client.post("/query", json=valid_query()).json()["trace_id"]
        miss_tree = client.get(f"/trace/{miss}").json()
        spans = span_index(client.get(f"/trace/{hit}").json())
        assert set(spans) == {"http.request", "server.query"}
        assert spans["server.query"]["parent_id"] == spans["http.request"]["span_id"]
        assert spans["server.query"]["tags"] == {"method": "fast-top-k-opt", "cache": "hit"}
        assert spans["http.request"]["tags"]["status"] == 200
        (server_span,) = miss_tree["spans"][0]["children"]
        assert server_span["name"] == "server.query"
        assert "cache" not in server_span["tags"]

    def test_unknown_trace_is_404(self, client):
        response = client.get("/trace/deadbeef00000000")
        assert response.status == 404
        assert response.json()["error"]["code"] == "not_found"

    def test_recent_lists_the_latest_trace_first(self, client):
        trace_id = client.post("/query", json=valid_query()).json()["trace_id"]
        payload = client.get("/traces/recent").json()
        assert set(payload) == {"traces", "tracer"}
        assert payload["traces"][0]["trace_id"] == trace_id
        assert payload["traces"][0]["root"] == "http.request"
        assert payload["tracer"]["enabled"] is True


class TestMetricsEndpoint:
    def test_exposition_parses_and_covers_the_subsystems(self, client):
        client.post("/query", json=valid_query())
        response = client.get("/metrics")
        assert response.status == 200
        assert response.headers["content-type"].startswith("text/plain")
        types, samples = parse_exposition(response.text)
        # One family per subsystem the issue names, behind stable names.
        for family, kind in {
            "repro_server_requests": "counter",
            "repro_cache_hits": "counter",
            "repro_plan_cache_hits": "counter",
            "repro_calibrator_version": "gauge",
            "repro_query_latency_seconds": "histogram",
            "repro_http_requests": "counter",
            "repro_http_admission_admitted": "counter",
            "repro_trace_spans_recorded": "counter",
        }.items():
            assert types[family] == kind, family

    def test_counters_come_from_one_consistent_snapshot(self, client):
        for _ in range(3):
            client.post("/query", json=valid_query())
        _, samples = parse_exposition(client.get("/metrics").text)

        def single(name):
            ((_, value),) = samples[name]
            return value

        assert single("repro_cache_hits") + single("repro_cache_misses") == single(
            "repro_server_requests"
        )
        assert single("repro_server_requests") == 3

    def test_latency_histogram_counts_match_executions(self, client):
        client.post("/query", json=valid_query())
        _, samples = parse_exposition(client.get("/metrics").text)
        counts = {
            labels["method"]: value
            for labels, value in samples["repro_query_latency_seconds_count"]
        }
        assert counts == {"fast-top-k-opt": 1}
        buckets = [
            value
            for labels, value in samples["repro_query_latency_seconds_bucket"]
            if labels["method"] == "fast-top-k-opt"
        ]
        assert buckets == sorted(buckets)  # cumulative
        assert buckets[-1] == 1  # +Inf == _count


class TestSlowQueryLog:
    @pytest.fixture()
    def eager_server(self, tiny_system):
        # Threshold 0: every query is "slow", so the log is observable
        # without sleeping.
        with TopologyServer(tiny_system, slow_query_seconds=0.0) as srv:
            yield srv

    def test_http_query_feeds_the_slow_log_with_its_trace(self, eager_server):
        with create_app(eager_server) as app:
            with TestClient(app) as client:
                trace_id = client.post("/query", json=valid_query()).json()["trace_id"]
        (record,) = [
            r for r in eager_server.slow_query_log.recent() if r["trace_id"] == trace_id
        ]
        assert record["event"] == "slow_query"
        assert record["source"] == "server"
        assert record["method"] == "fast-top-k-opt"
        assert record["query"]["entity1"] == "Protein"
        assert record["plan"]["choice"]
        assert record["calibrator_version"] >= 0
        assert record["generation"] == 1
        # The per-span breakdown names the engine phases.
        names = {s["name"] for s in record["spans"]}
        assert {"engine.plan", "engine.execute"} <= names

    def test_default_threshold_keeps_fast_queries_out(self, server, client):
        client.post("/query", json=valid_query())
        assert server.slow_query_log.recent() == []

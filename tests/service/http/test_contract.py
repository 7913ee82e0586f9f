"""Contract tests: the wire protocol, pinned endpoint by endpoint.

Golden request/response pairs for every endpoint, every rejection path
with its exact structured error body, routing (404/405), body limits,
and the streaming behaviours (chunked ``/query`` bodies, NDJSON
``/query_many``).  These tests ARE the wire spec: a change that breaks
one of them is a breaking protocol change and must say so.
"""

from __future__ import annotations

import itertools
import json

import pytest

from repro.core import (
    AttributeConstraint,
    ConjunctionConstraint,
    KeywordConstraint,
    NoConstraint,
    TopologyQuery,
)
from repro.service import TopologyServer
from repro.service.http import (
    MAX_BATCH,
    MAX_K,
    MAX_LENGTH_BOUND,
    TestClient,
    create_app,
)
from repro.service.http.app import _QUERY_MEMO_MAX_KEY, _QUERY_MEMO_SIZE
from repro.service.http.schemas import result_to_wire

from tests.service.http.conftest import valid_query


def make_query(keyword: str = "kinase", k: int = 4) -> TopologyQuery:
    return TopologyQuery(
        "Protein",
        "DNA",
        KeywordConstraint("DESC", keyword),
        AttributeConstraint("TYPE", "mRNA"),
        k=k,
        ranking="rare",
    )


def assert_error_body(response, status: int, code: str):
    """Every error response obeys the pinned envelope."""
    assert response.status == status
    assert response.headers["content-type"] == "application/json"
    payload = response.json()
    assert set(payload) == {"error"}
    error = payload["error"]
    assert set(error) == {"code", "message", "details"}
    assert error["code"] == code
    assert isinstance(error["message"], str) and error["message"]
    assert isinstance(error["details"], list)
    return error


def error_fields(error: dict):
    return {issue["field"] for issue in error["details"]}


def without_trace_id(response) -> bytes:
    """The response body with its trace id masked, for byte comparisons."""
    trace_id = json.dumps(response.json()["trace_id"]).encode()
    return response.body.replace(trace_id, b'"<trace>"')


# ----------------------------------------------------------------------
# /healthz
# ----------------------------------------------------------------------
class TestHealthz:
    def test_golden_body(self, client):
        response = client.get("/healthz")
        assert response.status == 200
        assert response.json() == {"status": "ok", "generation": 1}
        assert response.headers["content-type"] == "application/json"

    def test_content_length_is_exact(self, client):
        response = client.get("/healthz")
        assert int(response.headers["content-length"]) == len(response.body)


# ----------------------------------------------------------------------
# /query
# ----------------------------------------------------------------------
class TestQuery:
    def test_golden_response_shape_and_answer(self, client, server):
        expected = server.query(make_query())
        response = client.post("/query", json=valid_query())
        assert response.status == 200
        payload = response.json()
        assert set(payload) == {
            "method",
            "generation",
            "count",
            "tids",
            "scores",
            "elapsed_seconds",
            "planning_seconds",
            "plan_choice",
            "trace_id",
        }
        assert payload["method"] == "fast-top-k-opt"
        assert payload["generation"] == 1
        assert payload["tids"] == list(expected.tids)
        assert payload["count"] == len(expected.tids)
        assert payload["scores"] == pytest.approx(expected.scores)
        # The body's trace id and the response header name the same
        # trace — the one GET /trace/{id} serves.
        assert payload["trace_id"] == response.headers["x-trace-id"]

    def test_minimal_body_uses_defaults(self, client, server):
        # Only the entity pair plus an exhaustive method: no
        # constraints, l=3, no top-k cut.  (The default method is a
        # top-k method and rejects k=None — pinned below.)
        expected = server.query(
            TopologyQuery("Protein", "DNA", NoConstraint(), NoConstraint()),
            method="fast-top",
        )
        response = client.post(
            "/query",
            json={"entity1": "Protein", "entity2": "DNA", "method": "fast-top"},
        )
        assert response.status == 200
        assert response.json()["tids"] == sorted(expected.tids)

    def test_default_method_without_k_is_422(self, client):
        # fast-top-k-opt is the default and needs a top-k budget; the
        # engine's refusal surfaces as a structured 422, not a 500.
        response = client.post(
            "/query", json={"entity1": "Protein", "entity2": "DNA"}
        )
        error = assert_error_body(response, 422, "unsupported_query")
        assert "top-k" in error["message"]

    def test_method_override(self, client):
        response = client.post("/query", json=valid_query(method="fast-top-k"))
        assert response.status == 200
        assert response.json()["method"] == "fast-top-k"

    def test_repeat_is_served_from_cache(self, client, server):
        first = client.post("/query", json=valid_query())
        second = client.post("/query", json=valid_query())
        assert first.status == second.status == 200
        # Identical result payload: the cached MethodResult is the same
        # object.  Only the trace id differs — every request is its own
        # trace, cache hit or not.
        first_payload, second_payload = first.json(), second.json()
        assert first_payload.pop("trace_id") != second_payload.pop("trace_id")
        assert first_payload == second_payload
        stats = server.stats()
        assert stats.result_cache.hits >= 1
        assert stats.executions == 1

    def test_conjunction_constraint(self, client, server):
        expected = server.query(
            TopologyQuery(
                "Protein",
                "DNA",
                ConjunctionConstraint(
                    (
                        KeywordConstraint("DESC", "kinase"),
                        AttributeConstraint("ID", 0, ">"),
                    )
                ),
                NoConstraint(),
                k=4,
                ranking="rare",
            )
        )
        response = client.post(
            "/query",
            json=valid_query(
                constraint1={
                    "kind": "and",
                    "parts": [
                        {"kind": "keyword", "column": "DESC", "keyword": "kinase"},
                        {"kind": "attribute", "column": "ID", "value": 0, "op": ">"},
                    ],
                },
                constraint2={"kind": "none"},
            ),
        )
        assert response.status == 200
        assert response.json()["tids"] == list(expected.tids)

    def test_unbuilt_entity_pair_is_422_unsupported_query(self, client):
        response = client.post(
            "/query", json=valid_query(entity1="Interaction", entity2="Unigene")
        )
        error = assert_error_body(response, 422, "unsupported_query")
        assert "Interaction" in error["message"]

    def test_wrong_l_for_the_store_is_422(self, client):
        response = client.post("/query", json=valid_query(max_length=2))
        error = assert_error_body(response, 422, "unsupported_query")
        assert "l=3" in error["message"]


# ----------------------------------------------------------------------
# Validation rejections (the 400/422 taxonomy, pinned)
# ----------------------------------------------------------------------
class TestValidation:
    def test_malformed_json_is_400(self, client):
        response = client.post("/query", body=b'{"entity1": ')
        error = assert_error_body(response, 400, "invalid_json")
        assert error["details"] == []

    def test_empty_body_is_400(self, client):
        response = client.post("/query", body=b"")
        assert_error_body(response, 400, "invalid_json")

    def test_non_object_body_is_422_tagged_at_root(self, client):
        response = client.post("/query", json=[1, 2, 3])
        error = assert_error_body(response, 422, "validation_error")
        assert error_fields(error) == {"$"}

    @pytest.mark.parametrize("k", [0, -3, MAX_K + 1, True, "four", 1.5])
    def test_out_of_range_or_mistyped_k(self, client, k):
        response = client.post("/query", json=valid_query(k=k))
        error = assert_error_body(response, 422, "validation_error")
        assert error_fields(error) == {"k"}

    @pytest.mark.parametrize("l", [0, -1, MAX_LENGTH_BOUND + 1, False, "three"])
    def test_out_of_range_or_mistyped_max_length(self, client, l):
        response = client.post("/query", json=valid_query(max_length=l))
        error = assert_error_body(response, 422, "validation_error")
        assert error_fields(error) == {"max_length"}

    def test_unknown_top_level_field(self, client):
        response = client.post("/query", json=valid_query(raking="freq"))
        error = assert_error_body(response, 422, "validation_error")
        assert error_fields(error) == {"raking"}

    def test_unknown_ranking(self, client):
        response = client.post("/query", json=valid_query(ranking="best"))
        error = assert_error_body(response, 422, "validation_error")
        assert error_fields(error) == {"ranking"}
        assert "freq" in error["details"][0]["message"]

    def test_unknown_method(self, client):
        response = client.post("/query", json=valid_query(method="turbo"))
        error = assert_error_body(response, 422, "validation_error")
        assert error_fields(error) == {"method"}

    def test_missing_entities_both_reported(self, client):
        response = client.post("/query", json={"k": 2})
        error = assert_error_body(response, 422, "validation_error")
        assert error_fields(error) == {"entity1", "entity2"}

    def test_unknown_constraint_kind_tagged_with_path(self, client):
        response = client.post(
            "/query", json=valid_query(constraint1={"kind": "regex", "pat": "x"})
        )
        error = assert_error_body(response, 422, "validation_error")
        assert "constraint1.kind" in error_fields(error)

    def test_keyword_constraint_missing_column(self, client):
        response = client.post(
            "/query", json=valid_query(constraint1={"kind": "keyword", "keyword": "x"})
        )
        error = assert_error_body(response, 422, "validation_error")
        assert error_fields(error) == {"constraint1.column"}

    def test_attribute_constraint_bad_op(self, client):
        response = client.post(
            "/query",
            json=valid_query(
                constraint2={"kind": "attribute", "column": "TYPE", "value": "x", "op": "~"}
            ),
        )
        error = assert_error_body(response, 422, "validation_error")
        assert error_fields(error) == {"constraint2.op"}

    def test_conjunction_part_path_includes_index(self, client):
        response = client.post(
            "/query",
            json=valid_query(
                constraint1={
                    "kind": "and",
                    "parts": [
                        {"kind": "keyword", "column": "DESC", "keyword": "ok"},
                        {"kind": "bogus"},
                    ],
                }
            ),
        )
        error = assert_error_body(response, 422, "validation_error")
        assert "constraint1.parts[1].kind" in error_fields(error)

    def test_hostile_nesting_depth_is_rejected_not_crashed(self, client):
        constraint: dict = {"kind": "none"}
        for _ in range(40):
            constraint = {"kind": "and", "parts": [constraint]}
        response = client.post("/query", json=valid_query(constraint1=constraint))
        error = assert_error_body(response, 422, "validation_error")
        assert any("nest" in issue["message"] for issue in error["details"])

    def test_every_problem_reported_in_one_pass(self, client):
        response = client.post(
            "/query",
            json={
                "entity1": "Protein",
                "k": -1,
                "ranking": "best",
                "bogus": 1,
            },
        )
        error = assert_error_body(response, 422, "validation_error")
        assert error_fields(error) == {"entity2", "k", "ranking", "bogus"}


# ----------------------------------------------------------------------
# Routing
# ----------------------------------------------------------------------
class TestRouting:
    def test_unknown_path_is_404(self, client):
        response = client.get("/nope")
        assert_error_body(response, 404, "not_found")

    def test_wrong_verb_is_405_with_allow(self, client):
        response = client.get("/query")
        error = assert_error_body(response, 405, "method_not_allowed")
        assert response.headers["allow"] == "POST"
        assert "GET" in error["message"]

    def test_post_to_healthz_is_405(self, client):
        response = client.post("/healthz", json={})
        assert_error_body(response, 405, "method_not_allowed")
        assert response.headers["allow"] == "GET"

    def test_query_string_is_ignored_for_routing(self, client):
        response = client.get("/healthz?verbose=1")
        assert response.status == 200


# ----------------------------------------------------------------------
# Body handling
# ----------------------------------------------------------------------
class TestBodyLimits:
    def test_oversized_body_is_413(self, server):
        with create_app(server, max_body_bytes=64) as app:
            with TestClient(app) as client:
                response = client.post("/query", json=valid_query(k=1))
                assert_error_body(response, 413, "body_too_large")

    def test_multi_frame_request_body_is_reassembled(self, client):
        body = json.dumps(valid_query()).encode()
        response = client.request(
            "POST", "/query", body_frames=[body[:10], body[10:20], body[20:]]
        )
        assert response.status == 200


# ----------------------------------------------------------------------
# /explain
# ----------------------------------------------------------------------
class TestExplain:
    def test_golden_plan_payload(self, client):
        response = client.post("/explain", json=valid_query())
        assert response.status == 200
        payload = response.json()
        assert set(payload) == {
            "method",
            "strategy",
            "plan_class",
            "pairs_table",
            "alternatives",
            "display",
            "generation",
        }
        strategies = {alt["strategy"] for alt in payload["alternatives"]}
        assert payload["strategy"] in strategies
        chosen = [alt for alt in payload["alternatives"] if alt["chosen"]]
        assert len(chosen) == 1 and chosen[0]["strategy"] == payload["strategy"]
        for alt in payload["alternatives"]:
            if alt["estimated_cost"] is not None:
                assert alt["calibrated_cost"] == pytest.approx(
                    alt["estimated_cost"] * alt["calibration_factor"]
                )
        assert payload["display"].startswith("QueryPlan[")
        assert payload["generation"] == 1

    def test_explain_never_executes(self, client, server):
        client.post("/explain", json=valid_query())
        assert server.stats().executions == 0

    def test_explain_validation_error(self, client):
        response = client.post("/explain", json={"k": "many"})
        assert_error_body(response, 422, "validation_error")


# ----------------------------------------------------------------------
# /query_many (NDJSON streaming)
# ----------------------------------------------------------------------
class TestQueryMany:
    def batch(self, n: int = 4):
        keywords = ("kinase", "binding", "human", "receptor")
        return [
            valid_query(
                constraint1={
                    "kind": "keyword",
                    "column": "DESC",
                    "keyword": keywords[i % len(keywords)],
                },
                k=2 + i,
            )
            for i in range(n)
        ]

    def test_golden_ndjson_stream(self, client, server):
        queries = self.batch(4)
        expected = [
            server.query(make_query(q["constraint1"]["keyword"], q["k"]))
            for q in queries
        ]
        response = client.post("/query_many", json={"queries": queries})
        assert response.status == 200
        assert response.headers["content-type"] == "application/x-ndjson"
        lines = response.ndjson()
        assert len(lines) == len(queries) + 1
        for i, line in enumerate(lines[:-1]):
            assert line["index"] == i
            assert line["tids"] == list(expected[i].tids)
            assert line["generation"] == 1
        summary = lines[-1]
        assert summary == {"done": True, "count": len(queries), "generations": [1]}

    def test_parallel_matches_serial(self, client, server):
        queries = self.batch(6)
        serial = client.post("/query_many", json={"queries": queries})
        parallel = client.post(
            "/query_many", json={"queries": queries, "parallel": 4}
        )
        serial_tids = [line["tids"] for line in serial.ndjson()[:-1]]
        parallel_tids = [line["tids"] for line in parallel.ndjson()[:-1]]
        assert serial_tids == parallel_tids

    def test_batch_streams_in_slices(self, server):
        with create_app(server, stream_chunk_rows=2) as app:
            with TestClient(app) as client:
                response = client.post(
                    "/query_many", json={"queries": self.batch(6)}
                )
        assert response.status == 200
        # 6 queries in slices of 2 -> 3 result frames + summary frame.
        assert len(response.chunks) >= 4
        assert response.ndjson()[-1]["done"] is True

    def test_queries_must_be_a_non_empty_array(self, client):
        for bad in ({}, {"queries": []}, {"queries": "nope"}):
            response = client.post("/query_many", json=bad)
            error = assert_error_body(response, 422, "validation_error")
            assert error_fields(error) == {"queries"}

    def test_item_errors_are_index_tagged(self, client):
        response = client.post(
            "/query_many",
            json={"queries": [valid_query(), {"entity1": "Protein", "k": 0}]},
        )
        error = assert_error_body(response, 422, "validation_error")
        assert error_fields(error) == {"queries[1].entity2", "queries[1].k"}

    def test_oversized_batch_is_rejected(self, client):
        queries = [{"entity1": "A", "entity2": "B"}] * (MAX_BATCH + 1)
        response = client.post("/query_many", json={"queries": queries})
        error = assert_error_body(response, 422, "validation_error")
        assert error_fields(error) == {"queries"}

    def test_bad_mode_and_parallel(self, client):
        response = client.post(
            "/query_many",
            json={"queries": [valid_query()], "mode": "fiber", "parallel": 0},
        )
        error = assert_error_body(response, 422, "validation_error")
        assert error_fields(error) == {"mode", "parallel"}

    def test_unanswerable_batch_is_a_real_422_not_a_broken_stream(self, client):
        # The first slice runs before the response starts, so a store
        # that cannot answer gets a status code, not a torn stream.
        response = client.post(
            "/query_many",
            json={"queries": [valid_query(entity1="Unigene", entity2="Interaction")]},
        )
        assert_error_body(response, 422, "unsupported_query")


# ----------------------------------------------------------------------
# /rebuild
# ----------------------------------------------------------------------
class TestRebuild:
    def test_golden_rebuild_advances_generation(self, client, server):
        response = client.post("/rebuild", json={})
        assert response.status == 200
        payload = response.json()
        assert set(payload) == {"generation", "previous_generation", "elapsed_seconds"}
        assert payload["generation"] == 2
        assert payload["previous_generation"] == 1
        assert payload["elapsed_seconds"] > 0
        assert client.get("/healthz").json()["generation"] == 2
        assert client.post("/query", json=valid_query()).json()["generation"] == 2
        assert server.stats().rebuilds == 1

    def test_empty_body_means_rebuild_like_before(self, client):
        response = client.post("/rebuild")
        assert response.status == 200
        assert response.json()["generation"] == 2

    def test_override_is_accepted(self, client):
        response = client.post("/rebuild", json={"per_pair_path_limit": 1})
        assert response.status == 200
        assert response.json()["generation"] == 2

    def test_parallel_is_validated_then_ignored(self, client):
        # The engine builds serially; the field stays in the contract so
        # clients written against the partitioned build keep working.
        response = client.post("/rebuild", json={"parallel": 4})
        assert response.status == 200
        assert response.json()["generation"] == 2
        response = client.post("/rebuild", json={"parallel": 0})
        error = assert_error_body(response, 422, "validation_error")
        assert error_fields(error) == {"parallel"}

    def test_unknown_field_is_422(self, client):
        response = client.post("/rebuild", json={"force": True})
        error = assert_error_body(response, 422, "validation_error")
        assert error_fields(error) == {"force"}

    def test_malformed_json_is_400(self, client):
        response = client.post("/rebuild", body=b"{{")
        assert_error_body(response, 400, "invalid_json")


# ----------------------------------------------------------------------
# /stats
# ----------------------------------------------------------------------
class TestStats:
    def test_payload_sections_and_invariants(self, client):
        client.post("/query", json=valid_query())
        client.post("/query", json=valid_query())
        response = client.get("/stats")
        assert response.status == 200
        payload = response.json()
        assert set(payload) == {
            "generation",
            "requests",
            "executions",
            "coalesced",
            "failures",
            "rebuilds",
            "restores",
            "in_flight",
            "result_cache",
            "plan_cache",
            "statement_cache",
            "latency",
            "http",
        }
        cache = payload["result_cache"]
        assert cache["hits"] + cache["misses"] == payload["requests"] == 2
        assert cache["misses"] == payload["executions"] + payload["coalesced"]
        assert payload["executions"] == 1
        admission = payload["http"]["admission"]
        # The gate sheds work, not answers already in memory: the
        # second request is a hit, answered before admission.
        assert admission["admitted"] == 1
        assert payload["http"]["requests_total"] >= 3
        assert payload["http"]["responses_by_class"]["2xx"] >= 2

    def test_latency_snapshot_has_slo_percentiles(self, client):
        client.post("/query", json=valid_query())
        latency = client.get("/stats").json()["latency"]
        assert "fast-top-k-opt" in latency
        snap = latency["fast-top-k-opt"]
        assert {"count", "p50_seconds", "p95_seconds", "p99_seconds"} <= set(snap)
        assert snap["count"] == 1
        assert snap["p50_seconds"] <= snap["p95_seconds"] <= snap["p99_seconds"]


# ----------------------------------------------------------------------
# Streamed /query responses
# ----------------------------------------------------------------------
class TestQueryStreaming:
    EXHAUSTIVE = {"entity1": "Protein", "entity2": "DNA", "method": "fast-top"}

    def test_large_tid_list_streams_in_chunks(self, client, server):
        expected = server.query(
            TopologyQuery("Protein", "DNA", NoConstraint(), NoConstraint()),
            method="fast-top",
        )
        assert len(expected.tids) > 8  # else the fixture chunk size is moot
        response = client.post("/query", json=self.EXHAUSTIVE)
        assert response.status == 200
        assert len(response.chunks) >= 3
        assert "content-length" not in response.headers
        payload = response.json()  # concatenation is one valid document
        assert payload["tids"] == list(expected.tids)
        assert payload["count"] == len(expected.tids)
        assert payload["scores"] is None

    def test_small_topk_response_is_a_single_frame(self, client):
        response = client.post("/query", json=valid_query())
        assert response.status == 200
        assert len(response.chunks) == 1
        assert "content-length" in response.headers

    def test_streamed_and_plain_agree(self, server):
        with create_app(server, stream_chunk_rows=5) as small_app:
            with TestClient(small_app) as small_client:
                streamed = small_client.post("/query", json=self.EXHAUSTIVE)
        with create_app(server, stream_chunk_rows=10_000) as big_app:
            with TestClient(big_app) as big_client:
                plain = big_client.post("/query", json=self.EXHAUSTIVE)
        assert len(streamed.chunks) > 1 and len(plain.chunks) == 1
        # Distinct requests carry distinct trace ids; everything else
        # must agree byte-for-byte between the two code paths.
        assert streamed.json()["trace_id"] != plain.json()["trace_id"]
        assert without_trace_id(streamed) == without_trace_id(plain)

    def test_streamed_hit_repeats_its_frames(self, client):
        first = client.post("/query", json=self.EXHAUSTIVE)
        second = client.post("/query", json=self.EXHAUSTIVE)
        assert len(first.chunks) == len(second.chunks) >= 3
        assert first.chunks[:-1] == second.chunks[:-1]
        assert without_trace_id(first) == without_trace_id(second)


# ----------------------------------------------------------------------
# The request-bytes memo: a repeated /query is answered from bytes
# ----------------------------------------------------------------------
def sorted_dumps(payload) -> bytes:
    return json.dumps(payload, sort_keys=True).encode("utf-8")


class TestQueryMemo:
    BODY = sorted_dumps(valid_query())

    def post(self, client, body: bytes = BODY):
        return client.post("/query", body=body)

    def test_bodies_are_the_sorted_dump_byte_for_byte(self, client, server):
        miss, hit = self.post(client), self.post(client)
        result = server.cached(make_query())
        assert result is not None
        for response in (miss, hit):
            assert response.status == 200
            expected = {**result_to_wire(result), "trace_id": response.headers["x-trace-id"]}
            assert response.body == sorted_dumps(expected)

    def test_each_hit_carries_its_own_trace_id(self, client):
        self.post(client)
        first, second = self.post(client), self.post(client)
        ids = [r.json()["trace_id"] for r in (first, second)]
        assert ids == [first.headers["x-trace-id"], second.headers["x-trace-id"]]
        assert ids[0] != ids[1]
        assert without_trace_id(first) == without_trace_id(second)

    def test_key_order_and_whitespace_do_not_change_the_answer(self, client, server, app):
        spaced = json.dumps(dict(reversed(list(valid_query().items()))), indent=2)
        first, second = self.post(client), self.post(client, spaced.encode())
        assert first.status == second.status == 200
        assert without_trace_id(first) == without_trace_id(second)
        assert server.stats().executions == 1
        assert len(app._query_memo) == 2

    def test_same_bytes_follow_rebuild_invalidate_and_restore(self, client, server, tmp_path):
        assert self.post(client).json()["generation"] == 1
        assert client.post("/rebuild", json={}).status == 200
        assert self.post(client).json()["generation"] == 2
        path = tmp_path / "memo.topo"
        server.save(path)
        server.restore(path)
        assert self.post(client).json()["generation"] == 3
        executions = server.stats().executions
        server.invalidate()
        body = self.post(client).json()
        assert server.stats().executions == executions + 1
        assert body["generation"] == 3
        assert body["elapsed_seconds"] == server.cached(make_query()).elapsed_seconds

    def test_evicted_answer_is_re_encoded(self, tiny_system):
        other = sorted_dumps(valid_query(k=2))
        with TopologyServer(tiny_system, cache_size=1) as small:
            with create_app(small) as app, TestClient(app) as client:
                self.post(client)
                evicted = small.cached(make_query())
                self.post(client, other)  # evicts the first answer
                new = self.post(client)
                result = small.cached(make_query())
        assert small.stats().executions == 3 and result is not evicted
        assert new.json()["elapsed_seconds"] == result.elapsed_seconds
        assert new.body == sorted_dumps(
            {**result_to_wire(result), "trace_id": new.headers["x-trace-id"]}
        )

    @pytest.mark.parametrize(
        "body, status, code",
        [
            (b"{not json", 400, "invalid_json"),
            (sorted_dumps(valid_query(k=-1)), 422, "validation_error"),
            (sorted_dumps({"entity1": "Protein", "entity2": "DNA"}), 422, "unsupported_query"),
        ],
        ids=["invalid_json", "validation_error", "unsupported_query"],
    )
    def test_rejected_bytes_are_never_memoized(self, client, app, body, status, code):
        first, second = self.post(client, body), self.post(client, body)
        assert_error_body(first, status, code)
        assert first.json() == second.json()
        assert len(app._query_memo) == 0

    def test_long_bodies_are_answered_but_not_memoized(self, client, app):
        padded = self.BODY + b" " * _QUERY_MEMO_MAX_KEY
        assert self.post(client, padded).status == 200
        assert self.post(client, padded).status == 200
        assert len(app._query_memo) == 0

    def test_memo_is_bounded(self, client, app, server):
        # Distinct bytes, one query: whitespace either side of the object.
        bodies = (
            b" " * before + self.BODY + b" " * after
            for before in range(80)
            for after in range(80)
        )
        for body in itertools.islice(bodies, _QUERY_MEMO_SIZE + 10):
            assert self.post(client, body).status == 200
        assert len(app._query_memo) == _QUERY_MEMO_SIZE
        assert server.stats().executions == 1

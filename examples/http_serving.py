"""Serve topology search over HTTP — stdlib only, end to end.

Walks the network serving layer on a synthetic Biozon instance:

1. build an engine, wrap it in :class:`~repro.service.TopologyServer`,
   front it with the framework-free ASGI app, and serve it on a real
   socket with the stdlib HTTP/1.1 server;
2. query it with plain ``urllib`` — single queries (chunk-streamed when
   the tid list is large; the same bytes sent again get the same
   answer under a fresh trace id), an NDJSON batch, a plan explanation;
3. trip the validation layer and read the structured, field-tagged
   error body;
4. hot-swap a rebuild through ``POST /rebuild`` while the old
   generation keeps serving, and watch the generation stamp advance —
   also on the first query's bytes, sent once more;
5. read one consistent counter snapshot from ``GET /stats``.

Run:  python examples/http_serving.py

(If uvicorn happens to be installed, the same app object runs under it
unchanged: ``serve_uvicorn(create_app(server))``.)
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

from repro.biozon import BiozonConfig, generate
from repro.core import TopologySearchSystem
from repro.service import TopologyServer
from repro.service.http import HttpServerThread, create_app


def post(base_url: str, path: str, payload):
    """POST ``payload`` (a dict to encode, or body bytes as they are)."""
    data = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
    request = urllib.request.Request(
        base_url + path,
        data=data,
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request) as response:
        return response.status, response.read()


def without_trace_id(body: bytes):
    """``(payload minus its trace id, the trace id)``."""
    payload = json.loads(body)
    return payload, payload.pop("trace_id")


def main() -> None:
    print("== offline phase: build a tiny Biozon instance ==")
    dataset = generate(BiozonConfig.tiny(seed=3))
    system = TopologySearchSystem(dataset.database, dataset.graph())
    report = system.build(
        [("Protein", "DNA"), ("Protein", "Interaction")], max_length=3
    )
    print(
        f"built {report.alltops.alltops_rows} AllTops rows in "
        f"{report.elapsed_seconds:.2f}s"
    )

    with TopologyServer(system) as server:
        app = create_app(server)
        with app, HttpServerThread(app) as base_url:
            print(f"\n== serving at {base_url} (stdlib asyncio, HTTP/1.1) ==")

            with urllib.request.urlopen(base_url + "/healthz") as response:
                print("GET /healthz ->", json.loads(response.read()))

            print("\n== POST /query ==")
            query_bytes = json.dumps(
                {
                    "entity1": "Protein",
                    "entity2": "DNA",
                    "constraint1": {
                        "kind": "keyword", "column": "DESC", "keyword": "kinase"
                    },
                    "k": 4,
                    "ranking": "rare",
                }
            ).encode()
            status, body = post(base_url, "/query", query_bytes)
            result = json.loads(body)
            print(f"{status}: method={result['method']} gen={result['generation']}")
            print(f"top-{len(result['tids'])} topology ids: {result['tids']}")

            print("\n== the same bytes again: answered from bytes ==")
            _, again = post(base_url, "/query", query_bytes)
            first, first_trace = without_trace_id(body)
            repeat, repeat_trace = without_trace_id(again)
            assert repeat == first, "a repeat must carry the same answer"
            assert repeat_trace != first_trace, "each request has its own trace"
            print(f"same answer, trace ids {first_trace} -> {repeat_trace}")

            print("\n== POST /explain (plans, never executes) ==")
            status, body = post(
                base_url,
                "/explain",
                {"entity1": "Protein", "entity2": "DNA", "k": 4},
            )
            plan = json.loads(body)
            print(f"{status}: chose {plan['strategy']} out of "
                  f"{[a['strategy'] for a in plan['alternatives']]}")

            print("\n== POST /query_many (NDJSON stream) ==")
            status, body = post(
                base_url,
                "/query_many",
                {
                    "queries": [
                        {"entity1": "Protein", "entity2": "DNA", "k": k}
                        for k in (2, 4, 6)
                    ],
                    "parallel": 2,
                },
            )
            lines = [json.loads(line) for line in body.splitlines() if line]
            for line in lines[:-1]:
                print(f"  result[{line['index']}]: {len(line['tids'])} tids")
            print("  summary:", lines[-1])

            print("\n== validation: structured, field-tagged 422 ==")
            try:
                post(base_url, "/query", {"entity1": "Protein", "k": -5})
            except urllib.error.HTTPError as error:
                payload = json.loads(error.read())
                print(f"{error.code}:", json.dumps(payload["error"]["details"]))

            print("\n== POST /rebuild (hot swap; old generation serves meanwhile) ==")
            status, body = post(base_url, "/rebuild", {"per_pair_path_limit": 1})
            print(f"{status}:", json.loads(body))
            with urllib.request.urlopen(base_url + "/healthz") as response:
                print("GET /healthz ->", json.loads(response.read()))
            _, rebuilt = post(base_url, "/query", query_bytes)
            generation = json.loads(rebuilt)["generation"]
            assert generation > first["generation"], "stale bytes after /rebuild"
            print(f"the first /query bytes now answer from generation {generation}")

            print("\n== GET /stats (one consistent snapshot) ==")
            with urllib.request.urlopen(base_url + "/stats") as response:
                stats = json.loads(response.read())
            print(f"requests={stats['requests']} executions={stats['executions']} "
                  f"cache_hits={stats['result_cache']['hits']}")
            print(f"http: {stats['http']['requests_total']} requests, "
                  f"by class {stats['http']['responses_by_class']}")
            for method, snap in stats["latency"].items():
                print(f"latency[{method}]: p50={snap['p50_seconds'] * 1000:.2f}ms "
                      f"p95={snap['p95_seconds'] * 1000:.2f}ms "
                      f"p99={snap['p99_seconds'] * 1000:.2f}ms")


if __name__ == "__main__":
    main()

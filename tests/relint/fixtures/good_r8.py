"""R8 fixture: stable dotted-lowercase names; variation rides in tags."""

from repro.obs import span


def record(registry, tracer, method):
    registry.counter("server.queries_total", "Total queries.")
    with span("server.query", method=method):
        pass
    with tracer.span("server.query", route="/query"):
        pass


METRIC_TABLE = (
    ("server.requests", "counter", "Query requests served.", "requests"),
    ("http.admission.active", "gauge", "Slots held.", "http/admission/active"),
    ("http.admission.waiting", "gauge", "Requests queued.", "http/admission/waiting"),
    ("shard.up", "gauge", "Shard liveness.", "shard_obs/*/up", "shard"),
)

"""R8 fixture: dynamic or non-conforming metric and span names."""

from repro.obs import span


def record(registry, tracer, method):
    registry.counter(f"queries.{method}", "Total queries.")  # EXPECT: R8
    registry.gauge("Shard-Up", "Shard liveness.")  # EXPECT: R8
    with span("server." + method):  # EXPECT: R8
        pass
    with tracer.span("Server.Query"):  # EXPECT: R8
        pass


def admission_rows(keys):
    return tuple((f"http.admission.{key}", "gauge", "", key) for key in keys)


ADMISSION_KEYS = ("active", "waiting")

METRIC_TABLE = (
    ("server.requests", "counter", "Query requests served.", "requests"),
    (f"http.admission.{ADMISSION_KEYS[0]}", "gauge", "Slots held.", "http/admission/active"),  # EXPECT: R8
    ("Shard.Up", "gauge", "Shard liveness.", "shard_obs/*/up", "shard"),  # EXPECT: R8
    (ADMISSION_KEYS[1], "gauge", "Requests queued.", "http/admission/waiting"),  # EXPECT: R8
    *admission_rows(ADMISSION_KEYS),  # EXPECT: R8
)

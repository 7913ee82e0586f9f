"""Event counters and the Prometheus text exposition.

Most numbers a server exports are *state*: one snapshot owns them
(``ServingCore.stats()``, the admission gate, the tracer), and
``GET /metrics`` renders them from the same payload ``GET /stats``
serves (:mod:`repro.service.http.metricsview`) — that is what keeps
``hits + misses == requests`` exact inside one scrape.  This module is
for what has no snapshot owner: *events* counted where they happen,
deep inside the engine, by code that knows nothing about serving.  One
process-wide :class:`MetricsRegistry` hands out :class:`Counter` objects
behind stable dotted names (``repro.engine.pruned_checks``); each
carries its own lock and is read in a single acquisition.

:meth:`MetricsRegistry.render` writes the text format (version 0.0.4)
for the registry's counters plus whatever families the caller derived
from its snapshot; rendering converts dots to underscores for the
Prometheus name charset.  Only stdlib.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, Iterable, List, Sequence, Tuple

__all__ = [
    "LATENCY_BUCKETS",
    "Counter",
    "Family",
    "MetricsRegistry",
    "Sample",
    "bucket_index",
    "histogram_samples",
    "prom_name",
    "registry",
]

#: Latency bucket upper bounds in seconds, shared with
#: ``LatencyStats`` so `/metrics` histograms and `/stats` buckets agree.
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

# A sample is (metric name incl. any _bucket/_sum/_count suffix, labels, value).
Sample = Tuple[str, Dict[str, str], float]
# A family is (dotted name, kind, help text, samples).
Family = Tuple[str, str, str, List[Sample]]

_LabelKey = Tuple[Tuple[str, str], ...]


def bucket_index(bounds: Sequence[float], value: float) -> int:
    """Index of the first bucket whose upper bound holds ``value``;
    ``len(bounds)`` means the implicit +Inf bucket."""
    return bisect_left(bounds, value)


def prom_name(dotted: str) -> str:
    """``repro.http.requests`` → ``repro_http_requests``."""
    out = []
    for ch in dotted:
        if ch.isalnum() or ch == "_" or ch == ":":
            out.append(ch)
        else:
            out.append("_")
    name = "".join(out)
    if name and name[0].isdigit():
        name = "_" + name
    return name


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(float(value))


def histogram_samples(
    name: str,
    labels: Dict[str, str],
    bounds: Sequence[float],
    counts: Sequence[int],
    total: float,
) -> List[Sample]:
    """One labeled histogram series, Prometheus-style: cumulative
    ``_bucket`` samples over ``bounds`` plus ``+Inf``, then ``_sum`` and
    ``_count``.  ``counts`` are per-bucket (not cumulative) and hold one
    more entry than ``bounds`` — the last is the implicit +Inf bucket."""
    out: List[Sample] = []
    running = 0
    for bound, count in zip(bounds, counts):
        running += count
        out.append((name + "_bucket", {**labels, "le": _format_value(float(bound))}, float(running)))
    running += counts[-1]
    out.append((name + "_bucket", {**labels, "le": "+Inf"}, float(running)))
    out.append((name + "_sum", labels, float(total)))
    out.append((name + "_count", labels, float(running)))
    return out


class Counter:
    """A monotonically increasing count per label set."""

    def __init__(self, name: str, help_text: str) -> None:
        self.name = name
        self.help = help_text
        self._lock = threading.Lock()
        self._values: Dict[_LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = tuple(sorted((str(k), str(v)) for k, v in labels.items()))
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def samples(self) -> List[Sample]:
        with self._lock:
            items = list(self._values.items())
        if not items:
            return [(self.name, {}, 0.0)]
        return [(self.name, dict(key), value) for key, value in items]


class MetricsRegistry:
    """Process-wide registry: get-or-create counters, and a single
    :meth:`render` to Prometheus text."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}

    def counter(self, name: str, help_text: str = "") -> Counter:
        with self._lock:
            counter = self._counters.get(name)
            if counter is None:
                counter = self._counters[name] = Counter(name, help_text)
            return counter

    def reset(self) -> None:
        """Forget every counter: a forked worker process starts from
        zero, not from its parent's counts."""
        with self._lock:
            self._counters.clear()

    def gather(self) -> List[Family]:
        """All counters as families, sorted by name."""
        with self._lock:
            counters = sorted(self._counters.items())
        return [(name, "counter", c.help, c.samples()) for name, c in counters]

    def render(self, extra_families: Iterable[Family] = ()) -> str:
        """Prometheus text exposition (format version 0.0.4): the
        registry's counters, then ``extra_families`` in the order given.
        Families that share a name render once, under the first one's
        header with every one's samples — a coordinator's per-shard
        samples of a counter this process also bumps stay one family."""
        merged: Dict[str, Tuple[str, str, List[Sample]]] = {}
        for dotted, kind, help_text, samples in [*self.gather(), *extra_families]:
            merged.setdefault(prom_name(dotted), (kind, help_text, []))[2].extend(samples)
        lines: List[str] = []
        for base, (kind, help_text, samples) in merged.items():
            if help_text:
                lines.append(f"# HELP {base} {help_text}")
            lines.append(f"# TYPE {base} {kind}")
            for sample_name, labels, value in samples:
                name = prom_name(sample_name)
                if labels:
                    body = ",".join(
                        f'{prom_name(k)}="{_escape_label(str(v))}"'
                        for k, v in sorted(labels.items())
                    )
                    lines.append(f"{name}{{{body}}} {_format_value(value)}")
                else:
                    lines.append(f"{name} {_format_value(value)}")
        return "\n".join(lines) + "\n"


_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return _REGISTRY

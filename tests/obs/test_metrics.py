"""The event-counter registry and its Prometheus text exposition.

The property tests pin the exposition contract `/metrics` relies on:
whatever counters get registered and whatever snapshot-derived families
ride along, the rendered text parses line by line under the 0.0.4
grammar and every family appears exactly once (one ``# TYPE`` header,
samples grouped under it)."""

from __future__ import annotations

import re
from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import LATENCY_BUCKETS, MetricsRegistry, bucket_index, prom_name
from repro.obs.metrics import histogram_samples

_NAME_RE = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_SAMPLE_RE = re.compile(
    rf"^(?P<name>{_NAME_RE})"
    r"(?:\{(?P<labels>.*)\})?"
    r" (?P<value>[^ ]+)$"
)
_LABEL_ITEM = re.compile(rf'(?P<key>{_NAME_RE})="(?P<value>(?:[^"\\]|\\.)*)"')


def _parse_labels(raw: str) -> Dict[str, str]:
    """Parse the inside of ``{...}``: quoted values may contain commas
    and braces (only ``\\``, ``"`` and newline are escaped), so this
    walks label by label instead of splitting on commas."""
    labels: Dict[str, str] = {}
    pos = 0
    while pos < len(raw):
        match = _LABEL_ITEM.match(raw, pos)
        assert match, f"unparseable labels at {raw[pos:]!r}"
        labels[match.group("key")] = match.group("value")
        pos = match.end()
        if pos < len(raw):
            assert raw[pos] == ",", f"expected ',' in labels: {raw!r}"
            pos += 1
    return labels


def parse_exposition(text: str):
    """Parse Prometheus text format 0.0.4; raises on malformed lines.

    Returns ``(types, samples)``: family name -> kind, and sample name
    -> list of (labels, value)."""
    types: Dict[str, str] = {}
    samples: Dict[str, List[Tuple[Dict[str, str], float]]] = {}
    assert text.endswith("\n")
    # Split on "\n" only: it is the format's sole line terminator, and
    # escaped label values may legally contain every other control
    # character raw.
    for line in text[:-1].split("\n"):
        assert line, "blank line in exposition"
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            assert re.fullmatch(_NAME_RE, name), name
            assert kind in ("counter", "gauge", "histogram", "untyped"), kind
            assert name not in types, f"duplicate # TYPE for {name}"
            types[name] = kind
            continue
        match = _SAMPLE_RE.match(line)
        assert match, f"unparseable sample line: {line!r}"
        raw = match.group("labels")
        labels = _parse_labels(raw) if raw else {}
        value = match.group("value")
        parsed = float("inf") if value == "+Inf" else float(value)
        samples.setdefault(match.group("name"), []).append((labels, parsed))
    return types, samples


# ----------------------------------------------------------------------
# Deterministic registry behaviour
# ----------------------------------------------------------------------
class TestRegistry:
    def test_get_or_create_returns_the_same_metric(self):
        registry = MetricsRegistry()
        assert registry.counter("a.b") is registry.counter("a.b")

    def test_counter_accumulates_per_label_set(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits")
        counter.inc()
        counter.inc(2, shard="0")
        counter.inc(3, shard="0")
        _, samples = parse_exposition(registry.render())
        by_labels = {tuple(sorted(l.items())): v for l, v in samples["hits"]}
        assert by_labels[()] == 1
        assert by_labels[(("shard", "0"),)] == 5

    def test_reset_forgets_every_counter(self):
        registry = MetricsRegistry()
        registry.counter("a.b").inc(4)
        registry.reset()
        assert registry.gather() == []
        assert registry.counter("a.b").samples() == [("a.b", {}, 0.0)]

    def test_histogram_buckets_are_cumulative(self):
        # per-bucket counts of the observations 0.05, 0.5, 0.5, 5.0
        family = ("lat", "histogram", "", histogram_samples("lat", {}, (0.1, 1.0), [1, 2, 1], 6.05))
        _, samples = parse_exposition(MetricsRegistry().render([family]))
        buckets = {l["le"]: v for l, v in samples["lat_bucket"]}
        assert buckets == {"0.1": 1, "1": 3, "+Inf": 4}
        assert samples["lat_count"] == [({}, 4.0)]
        assert samples["lat_sum"][0][1] == pytest.approx(6.05)

    def test_histogram_series_keep_their_labels(self):
        series = histogram_samples("lat", {"method": "sql"}, (0.1,), [0, 2], 9.0)
        assert [labels for _, labels, _ in series] == [
            {"method": "sql", "le": "0.1"},
            {"method": "sql", "le": "+Inf"},
            {"method": "sql"},
            {"method": "sql"},
        ]

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("odd").inc(path='a"b\\c\nd')
        types, samples = parse_exposition(registry.render())
        ((labels, _),) = samples["odd"]
        assert labels["path"] == 'a\\"b\\\\c\\nd'

    def test_extra_family_with_a_registered_name_merges_under_its_header(self):
        """A coordinator's per-shard samples of a counter this process
        also bumps: one family, the registry's kind and help, both
        sets of samples."""
        registry = MetricsRegistry()
        registry.counter("a.b", "the registry's").inc(4)
        extra = [("a.b", "gauge", "the extra's", [("a.b", {"shard": "0"}, 99.0)])]
        text = registry.render(extra_families=extra)
        types, samples = parse_exposition(text)
        assert types["a_b"] == "counter"
        assert "# HELP a_b the registry's" in text and "the extra's" not in text
        assert samples["a_b"] == [({}, 4.0), ({"shard": "0"}, 99.0)]

    def test_bucket_index_is_le_inclusive(self):
        assert bucket_index((0.1, 1.0), 0.1) == 0
        assert bucket_index((0.1, 1.0), 0.5) == 1
        assert bucket_index((0.1, 1.0), 2.0) == 2

    def test_prom_name_sanitizes(self):
        assert prom_name("repro.http.requests") == "repro_http_requests"
        assert prom_name("1weird-name") == "_1weird_name"


# ----------------------------------------------------------------------
# Property: exposition is parseable, every metric exactly once
# ----------------------------------------------------------------------
_names = st.lists(
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=6),
    min_size=1,
    max_size=3,
).map(".".join)

_specs = st.lists(
    st.tuples(
        _names,
        st.sampled_from(["counter", "gauge", "histogram"]),
        st.floats(min_value=0, max_value=1e6, allow_nan=False),
        st.dictionaries(
            st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=4),
            st.text(max_size=8),
            max_size=2,
        ),
    ),
    min_size=1,
    max_size=8,
    unique_by=lambda spec: prom_name(spec[0]),
)


class TestExpositionProperty:
    @settings(max_examples=50, deadline=None)
    @given(specs=_specs)
    def test_render_parses_and_covers_every_metric_exactly_once(self, specs):
        """Counters live in the registry; gauges and histograms are
        snapshot-derived families handed to ``render`` (the histogram
        through the shared ``histogram_samples``)."""
        registry = MetricsRegistry()
        extra = []
        for name, kind, value, labels in specs:
            if kind == "counter":
                registry.counter(name).inc(value, **labels)
            elif kind == "gauge":
                extra.append((name, kind, "", [(name, labels, value)]))
            else:
                counts = [0] * (len(LATENCY_BUCKETS) + 1)
                counts[bucket_index(LATENCY_BUCKETS, value)] = 1
                series = histogram_samples(name, labels, LATENCY_BUCKETS, counts, value)
                extra.append((name, kind, "", series))
        types, samples = parse_exposition(registry.render(extra))
        assert len(types) == len(specs)
        for name, kind, value, labels in specs:
            base = prom_name(name)
            # exactly once: one # TYPE line of the right kind (parse
            # already rejects duplicates), samples under that family.
            assert types[base] == kind
            if kind == "histogram":
                series = samples[base + "_bucket"]
                count_by_labels = {}
                for sample_labels, sample_value in series:
                    le = sample_labels["le"]
                    if le == "+Inf":
                        count_by_labels[
                            tuple(sorted(
                                (k, v) for k, v in sample_labels.items() if k != "le"
                            ))
                        ] = sample_value
                assert sum(count_by_labels.values()) == 1  # one observation
                assert samples[base + "_count"][0][1] == 1
            else:
                total = sum(v for _, v in samples[base])
                assert total == pytest.approx(value)

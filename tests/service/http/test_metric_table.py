"""``METRIC_TABLE`` as data: names are unique, well-formed and
documented, and the three renderers resolve paths the way
``docs/OBSERVABILITY.md`` says they do."""

from __future__ import annotations

import re
from pathlib import Path

from repro.service.http.metricsview import METRIC_TABLE, metrics_families
from tools.relint.rules import _METRIC_NAME_RE

ROOT = Path(__file__).resolve().parents[3]
_COUNTER_CALL = re.compile(r"\.counter\(\s*\"([^\"]+)\"")


def catalogued_names() -> list:
    """First-column names of the metric catalogue table in the docs."""
    text = (ROOT / "docs" / "OBSERVABILITY.md").read_text()
    section = text.split("### Metric catalogue", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `(repro\.[^`]+)` \|", section, flags=re.MULTILINE)


def registry_names() -> set:
    """Every event counter ``src/`` registers (a literal name, by R8)."""
    names = set()
    for path in (ROOT / "src").rglob("*.py"):
        names.update(_COUNTER_CALL.findall(path.read_text()))
    return names


def test_names_are_unique_and_dotted_lowercase():
    names = [row[0] for row in METRIC_TABLE]
    assert len(names) == len(set(names))
    assert all(_METRIC_NAME_RE.match(name) for name in names)
    assert all(len(row) in (4, 5) for row in METRIC_TABLE)
    assert {row[1] for row in METRIC_TABLE} == {"counter", "gauge", "histogram"}


def test_the_catalogue_lists_exactly_what_is_exported():
    documented = catalogued_names()
    assert len(documented) == len(set(documented))
    assert registry_names() == {"repro.engine.pruned_checks"}
    assert set(documented) == {row[0] for row in METRIC_TABLE} | registry_names()


def families(payload: dict) -> dict:
    return {name: samples for name, _, _, samples in metrics_families(payload)}


def test_a_scalar_row_is_skipped_when_its_section_is_absent():
    got = families({"generation": 3, "result_cache": {"hits": 2}})
    assert got == {
        "repro.server.generation": [("repro.server.generation", {}, 3.0)],
        "repro.cache.hits": [("repro.cache.hits", {}, 2.0)],
    }


def test_a_star_fans_out_over_dict_keys_sorted_and_list_indices_in_order():
    got = families(
        {
            "http": {"responses_by_class": {"4xx": 1, "2xx": 5}},
            "shards": [{"index": 1, "calls": 7}, {"index": 0, "calls": 9}],
        }
    )
    assert got["repro.http.responses"] == [
        ("repro.http.responses", {"class": "2xx"}, 5.0),
        ("repro.http.responses", {"class": "4xx"}, 1.0),
    ]
    assert got["repro.shard.calls"] == [
        ("repro.shard.calls", {"shard": "1"}, 7.0),
        ("repro.shard.calls", {"shard": "0"}, 9.0),
    ]
    assert "repro.shard.failures" not in got  # no element has the value


def test_an_empty_series_map_is_a_header_but_an_unpicked_value_is_no_family():
    """``responses_by_class`` and ``latency`` map series to values: empty
    means no series *yet*.  ``strategies/*/count`` picks a value out of
    sections: with calibration off there is never one, so no family."""
    got = families(
        {
            "http": {"responses_by_class": {}},
            "latency": {},
            "calibrator": {"version": 0, "strategies": {}},
        }
    )
    assert got == {
        "repro.http.responses": [],
        "repro.query.latency_seconds": [],
        "repro.calibrator.version": [("repro.calibrator.version", {}, 0.0)],
    }


def test_a_dead_worker_is_up_zero_and_nothing_else():
    alive = {
        "index": 0,
        "up": True,
        "generation": 2,
        "counters": {"repro.engine.pruned_checks": [({"outcome": "executed"}, 4.0)]},
    }
    got = families({"shard_obs": [alive, {"index": 1, "up": False, "error": "boom"}]})
    assert got == {
        "repro.shard.up": [
            ("repro.shard.up", {"shard": "0"}, 1.0),
            ("repro.shard.up", {"shard": "1"}, 0.0),
        ],
        "repro.shard.generation": [("repro.shard.generation", {"shard": "0"}, 2.0)],
        "repro.engine.pruned_checks": [
            ("repro.engine.pruned_checks", {"shard": "0", "outcome": "executed"}, 4.0)
        ],
    }

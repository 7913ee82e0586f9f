"""Golden ``/metrics`` and ``/stats`` surfaces, recorded at the commit
before ``/metrics`` became a table over the ``/stats`` payload.

``golden/*.metrics.txt`` hold, for a fixed request script against (a) a
plain ``TopologyServer`` app and (b) a 2-shard coordinator app, the
ordered ``# HELP`` / ``# TYPE`` lines verbatim and, per sample, the
name plus its sorted label keys — with the label *values* that identify
a series (``le``, ``class``, ``shard``, ``method``, ``strategy``,
``outcome``) and every number masked.  ``golden/*.stats.json`` hold the
key tree of the ``/stats`` body.  The view must reproduce (a) line for
line and (b) line for line plus the per-shard
``repro_engine_pruned_checks`` samples, which the workers' ``obs_stats``
replies did not carry when the goldens were recorded.

Each app gets a private system, a private metrics registry and a fresh
calibrator, so the goldens do not depend on which tests ran before.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Any, List

import pytest

import repro.obs.metrics as obs_metrics
from repro.biozon import BiozonConfig, generate
from repro.core import TopologySearchSystem
from repro.service import ShardCoordinator, TopologyServer
from repro.service.http import TestClient, create_app
from repro.shard import split_system

from tests.obs.test_metrics import _SAMPLE_RE, _parse_labels, parse_exposition
from tests.service.http.conftest import valid_query

GOLDEN = Path(__file__).parent / "golden"
KEPT_LABEL_VALUES = ("le", "class", "shard", "method", "strategy", "outcome")
_SHARD_PRUNED_CHECK = re.compile(r'^repro_engine_pruned_checks\{.*shard="\d+"')


def mask_exposition(text: str) -> List[str]:
    """Comment lines verbatim; samples as ``name{key="value"|key}``
    with sorted keys, values kept only for series-identifying labels."""
    parse_exposition(text)  # well-formed under the 0.0.4 grammar first
    lines = []
    for line in text.splitlines():
        if line.startswith("#"):
            lines.append(line)
            continue
        match = _SAMPLE_RE.match(line)
        labels = sorted(
            f'{key}="{value}"' if key in KEPT_LABEL_VALUES else key
            for key, value in _parse_labels(match["labels"] or "").items()
        )
        lines.append(match["name"] + ("{" + ",".join(labels) + "}" if labels else ""))
    return lines


def key_tree(value: Any) -> Any:
    """Dict keys, recursively; a list is the trees of its elements;
    anything else is a leaf."""
    if isinstance(value, dict):
        return {key: key_tree(item) for key, item in sorted(value.items())}
    if isinstance(value, list) and any(isinstance(item, dict) for item in value):
        return [key_tree(item) for item in value]
    return None


def without_shard_pruned_checks(lines: List[str]) -> List[str]:
    """``lines`` minus the per-shard pruned-check samples — and minus
    that family's header when no other sample of it remains."""
    kept = [line for line in lines if not _SHARD_PRUNED_CHECK.match(line)]
    if not any(line.startswith("repro_engine_pruned_checks") for line in kept):
        kept = [line for line in kept if " repro_engine_pruned_checks " not in line]
    return kept


def run_script(client: TestClient) -> None:
    """The fixed request script: hits, misses, three methods (one that
    checks pruned topologies online), a batch, an explain, a 404 and a
    422 — every status class and every section gets a value."""
    assert client.post("/query", json=valid_query()).status == 200
    assert client.post("/query", json=valid_query()).status == 200  # a hit
    assert client.post("/query", json=valid_query(method="fast-top")).status == 200
    assert client.post("/query", json=valid_query(method="fast-top-k-et")).status == 200
    batch = {"queries": [valid_query(k=2), valid_query(k=3)], "method": "full-top-k"}
    assert client.post("/query_many", json=batch).status == 200
    assert client.post("/explain", json=valid_query()).status == 200
    assert client.post("/query", json={"bad": "body"}).status == 422
    assert client.get("/nope").status == 404


@pytest.fixture()
def private_system(monkeypatch):
    """A system no other test has queried, behind an empty registry
    (fork-started shard workers inherit the empty registry too)."""
    monkeypatch.setattr(obs_metrics, "_REGISTRY", obs_metrics.MetricsRegistry())
    dataset = generate(BiozonConfig.tiny(seed=3))
    system = TopologySearchSystem(dataset.database, dataset.graph())
    system.build([("Protein", "DNA"), ("Protein", "Interaction")], max_length=3)
    return system


@pytest.fixture()
def server_client(private_system):
    with TopologyServer(private_system) as server:
        with create_app(server) as app:
            with TestClient(app) as client:
                yield client


@pytest.fixture()
def coordinator_client(private_system, tmp_path):
    split = split_system(private_system, 2, tmp_path)
    with ShardCoordinator(split.manifest_path, start_method="fork") as coordinator:
        with create_app(coordinator) as app:
            with TestClient(app) as client:
                yield client


def read_lines(name: str) -> List[str]:
    return (GOLDEN / name).read_text().splitlines()


def test_server_metrics_match_the_golden_line_for_line(server_client):
    run_script(server_client)
    assert mask_exposition(server_client.get("/metrics").text) == read_lines(
        "server.metrics.txt"
    )


def test_server_stats_key_tree_matches_the_golden(server_client):
    run_script(server_client)
    tree = key_tree(server_client.get("/stats").json())
    assert tree == json.loads((GOLDEN / "server.stats.json").read_text())


def test_coordinator_metrics_are_the_golden_plus_per_shard_pruned_checks(
    coordinator_client,
):
    run_script(coordinator_client)
    lines = mask_exposition(coordinator_client.get("/metrics").text)
    assert without_shard_pruned_checks(lines) == read_lines("coordinator.metrics.txt")
    assert [line for line in lines if _SHARD_PRUNED_CHECK.match(line)] == [
        f'repro_engine_pruned_checks{{outcome="{outcome}",shard="{shard}"}}'
        for shard in (0, 1)
        for outcome in ("proved_empty", "executed")
    ]


def test_coordinator_stats_key_tree_matches_the_golden(coordinator_client):
    run_script(coordinator_client)
    tree = key_tree(coordinator_client.get("/stats").json())
    assert tree == json.loads((GOLDEN / "coordinator.stats.json").read_text())

"""Shared fixtures: the Figure-3 system and a small synthetic system.

Both are session-scoped — the offline build is the expensive part and
every consumer treats it as read-only.
"""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.biozon import BiozonConfig, build_figure3_database, generate
from repro.core import TopologySearchSystem
from repro.graph import LabeledGraph

# ``--hypothesis-profile ci``: the differential-sweep CI job's deeper
# run.  Tests that pin their own ``max_examples`` keep it; the rest (the
# SQL parser fuzz and round-trip among them) run ten times the default.
settings.register_profile("ci", max_examples=1000, deadline=None)


def pytest_addoption(parser):
    parser.addoption(
        "--difftest-seeds",
        type=int,
        default=5,
        help=(
            "number of random seeds the differential row-vs-columnar "
            "tests sweep (tests/relational/test_columnar_equivalence.py); "
            "CI's nightly-style step raises this to 25+"
        ),
    )


@pytest.fixture(scope="session")
def difftest_seeds(request):
    """Seed list for the differential tests, sized from the CLI."""
    return list(range(request.config.getoption("--difftest-seeds")))


@pytest.fixture(scope="session")
def fig3_db():
    return build_figure3_database()


@pytest.fixture(scope="session")
def fig3_system(fig3_db):
    system = TopologySearchSystem(fig3_db)
    system.build([("Protein", "DNA")], max_length=3)
    return system


@pytest.fixture(scope="session")
def fig3_graph(fig3_system):
    return fig3_system.graph


@pytest.fixture(scope="session")
def tiny_dataset():
    return generate(BiozonConfig.tiny(seed=3))


@pytest.fixture(scope="session")
def tiny_system(tiny_dataset):
    system = TopologySearchSystem(tiny_dataset.database, tiny_dataset.graph())
    system.build([("Protein", "DNA"), ("Protein", "Interaction")], max_length=3)
    return system


def build_graph(nodes, edges) -> LabeledGraph:
    """Test helper: graph from [(id, type)] and [(eid, u, v, type)]."""
    g = LabeledGraph()
    for nid, ntype in nodes:
        g.add_node(nid, ntype)
    for eid, u, v, etype in edges:
        g.add_edge(eid, u, v, etype)
    return g

"""Canonical forms: correctness and isomorphism-invariance.

The hypothesis test is the load-bearing one: relabeling node/edge ids
arbitrarily (an isomorphism by construction) must never change the
canonical form, and structurally distinct graphs must differ.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import (
    LabeledGraph,
    are_isomorphic,
    canonical_form,
    canonical_form_and_order,
    canonical_key,
    graph_from_canonical,
    parse_canonical_key,
)
from repro.graph.canonical import render_key

from tests.conftest import build_graph

NODE_TYPES = ["Protein", "DNA", "Unigene", "Interaction"]
EDGE_TYPES = ["encodes", "uni_encodes", "interacts"]


@st.composite
def random_labeled_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    types = [draw(st.sampled_from(NODE_TYPES)) for _ in range(n)]
    g = LabeledGraph()
    for i, t in enumerate(types):
        g.add_node(i, t)
    max_edges = n * (n - 1) // 2
    m = draw(st.integers(min_value=0, max_value=min(max_edges, 9)))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.permutations(pairs)) if pairs else []
    for k in range(min(m, len(chosen))):
        u, v = chosen[k]
        g.add_edge(f"e{k}", u, v, draw(st.sampled_from(EDGE_TYPES)))
    return g


def relabel(graph: LabeledGraph, seed: int) -> LabeledGraph:
    rng = random.Random(seed)
    nodes = list(graph.nodes())
    new_ids = [f"n{i}" for i in range(len(nodes))]
    rng.shuffle(new_ids)
    mapping = dict(zip(nodes, new_ids))
    out = LabeledGraph()
    for old in nodes:
        out.add_node(mapping[old], graph.node_type(old))
    edges = list(graph.edges())
    rng.shuffle(edges)
    for i, eid in enumerate(edges):
        u, v = graph.edge_endpoints(eid)
        out.add_edge(f"r{i}", mapping[u], mapping[v], graph.edge_type(eid))
    return out


class TestCanonicalBasics:
    def test_empty_graph(self):
        assert canonical_form(LabeledGraph()) == ((), ())

    def test_single_node(self):
        g = build_graph([("a", "Protein")], [])
        assert canonical_form(g) == (("Protein",), ())

    def test_single_edge(self):
        g = build_graph(
            [("a", "Protein"), ("b", "DNA")], [("e", "a", "b", "encodes")]
        )
        node_types, edges = canonical_form(g)
        assert sorted(node_types) == ["DNA", "Protein"]
        assert len(edges) == 1 and edges[0][2] == "encodes"

    def test_node_type_matters(self):
        g1 = build_graph([("a", "Protein")], [])
        g2 = build_graph([("a", "DNA")], [])
        assert canonical_form(g1) != canonical_form(g2)

    def test_edge_type_matters(self):
        nodes = [("a", "Protein"), ("b", "Protein")]
        g1 = build_graph(nodes, [("e", "a", "b", "x")])
        g2 = build_graph(nodes, [("e", "a", "b", "y")])
        assert canonical_form(g1) != canonical_form(g2)

    def test_parallel_edge_multiplicity_matters(self):
        nodes = [("a", "Protein"), ("b", "DNA")]
        g1 = build_graph(nodes, [("e1", "a", "b", "encodes")])
        g2 = build_graph(
            nodes, [("e1", "a", "b", "encodes"), ("e2", "a", "b", "encodes")]
        )
        assert canonical_form(g1) != canonical_form(g2)

    def test_path_vs_star_same_types(self):
        # P-P-P path vs P with two P neighbours is the same here (both
        # are paths of 3) -- use 4 nodes for a real distinction.
        path = build_graph(
            [(i, "Protein") for i in range(4)],
            [("e0", 0, 1, "x"), ("e1", 1, 2, "x"), ("e2", 2, 3, "x")],
        )
        star = build_graph(
            [(i, "Protein") for i in range(4)],
            [("e0", 0, 1, "x"), ("e1", 0, 2, "x"), ("e2", 0, 3, "x")],
        )
        assert canonical_form(path) != canonical_form(star)

    def test_symmetric_cycle(self):
        cycle = build_graph(
            [(i, "Protein") for i in range(4)],
            [("e0", 0, 1, "x"), ("e1", 1, 2, "x"), ("e2", 2, 3, "x"), ("e3", 3, 0, "x")],
        )
        chain = build_graph(
            [(i, "Protein") for i in range(4)],
            [("e0", 0, 1, "x"), ("e1", 1, 2, "x"), ("e2", 2, 3, "x")],
        )
        assert canonical_form(cycle) != canonical_form(chain)

    def test_order_maps_back(self):
        g = build_graph(
            [("a", "Protein"), ("b", "DNA"), ("c", "Unigene")],
            [("e1", "a", "b", "encodes"), ("e2", "c", "b", "uni_contains")],
        )
        form, order = canonical_form_and_order(g)
        assert sorted(order) == ["a", "b", "c"]
        for idx, nid in enumerate(order):
            assert form[0][idx] == g.node_type(nid)


class TestCanonicalKey:
    def test_roundtrip(self):
        g = build_graph(
            [("a", "Protein"), ("b", "DNA"), ("c", "Unigene")],
            [("e1", "a", "b", "encodes"), ("e2", "c", "b", "uni_contains")],
        )
        key = canonical_key(g)
        assert parse_canonical_key(key) == canonical_form(g)

    def test_representative_graph_is_isomorphic(self):
        g = build_graph(
            [("a", "Protein"), ("b", "DNA"), ("c", "Protein")],
            [("e1", "a", "b", "encodes"), ("e2", "c", "b", "encodes")],
        )
        rep = graph_from_canonical(canonical_form(g))
        assert are_isomorphic(g, rep)

    def test_empty_key_roundtrip(self):
        assert parse_canonical_key("[]|[]") == ((), ())


class TestAreIsomorphic:
    def test_fast_reject_by_counts(self):
        g1 = build_graph([("a", "Protein")], [])
        g2 = build_graph([("a", "Protein"), ("b", "Protein")], [])
        assert not are_isomorphic(g1, g2)

    def test_fast_reject_by_type_histogram(self):
        g1 = build_graph([("a", "Protein"), ("b", "DNA")], [])
        g2 = build_graph([("a", "Protein"), ("b", "Protein")], [])
        assert not are_isomorphic(g1, g2)

    def test_isomorphic_relabeled(self):
        g = build_graph(
            [("a", "Protein"), ("b", "DNA"), ("c", "Unigene")],
            [("e1", "a", "b", "encodes"), ("e2", "c", "b", "uni_contains")],
        )
        assert are_isomorphic(g, relabel(g, 99))


class TestHypothesisInvariance:
    @settings(max_examples=60, deadline=None)
    @given(random_labeled_graphs(), st.integers(min_value=0, max_value=10_000))
    def test_relabel_invariance(self, graph, seed):
        assert canonical_form(graph) == canonical_form(relabel(graph, seed))

    @settings(max_examples=40, deadline=None)
    @given(random_labeled_graphs())
    def test_key_roundtrip(self, graph):
        form = canonical_form(graph)
        assert parse_canonical_key(canonical_key(graph)) == form
        assert render_key(form) == canonical_key(graph)

    @settings(max_examples=40, deadline=None)
    @given(random_labeled_graphs())
    def test_representative_isomorphic(self, graph):
        rep = graph_from_canonical(canonical_form(graph))
        assert canonical_form(rep) == canonical_form(graph)

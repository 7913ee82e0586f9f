"""The shape memo of ``topologies_from_classes`` changes no answer.

A memo hit skips graph construction and the canonical-form search; the
miss path is the oracle.  Every test here compares a call that reuses
one memo across many pairs with a call that has none.
"""

from __future__ import annotations

import itertools
import random

from hypothesis import given, settings, strategies as st

from repro.core import path_equivalence_classes
from repro.core import topologies as topologies_module
from repro.core.alltops import compute_alltops
from repro.core.topologies import shape_key, topologies_from_classes
from repro.graph.labeled_graph import Path

from tests.conftest import build_graph


@st.composite
def multigraphs(draw):
    """Small multigraphs over two node and two edge types: endpoints of
    equal type, parallel edges and paths sharing interior nodes are the
    common case, so most unions have automorphisms."""
    n = draw(st.integers(min_value=2, max_value=6))
    types = draw(st.lists(st.sampled_from("PD"), min_size=n, max_size=n))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
                st.sampled_from("xy"),
            ).filter(lambda e: e[0] != e[1]),
            min_size=1,
            max_size=10,
        )
    )
    return build_graph(
        list(enumerate(types)),
        [(f"e{k}", u, v, t) for k, (u, v, t) in enumerate(edges)],
    )


def ordered_items(result):
    topologies, truncated = result
    return list(topologies.items()), truncated


class TestMemoIsTransparent:
    @settings(max_examples=60, deadline=None)
    @given(
        multigraphs(),
        st.integers(min_value=1, max_value=3),
        st.sampled_from([2, 64]),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_shared_memo_equals_no_memo(self, g, max_length, cap, flip_seed):
        """One memo across every ordered pair of a graph — and across
        hand-built classes whose representatives run ``b -> a`` —
        returns the same keys, endpoint positions, insertion order and
        ``truncated`` flag as memo-less calls."""
        flips = random.Random(flip_seed)
        memo = {}
        for a, b in itertools.permutations(list(g.nodes()), 2):
            classes = path_equivalence_classes(g, a, b, max_length)
            flipped = {
                sig: [p.reversed() if flips.random() < 0.5 else p for p in paths]
                for sig, paths in classes.items()
            }
            for variant in (classes, flipped):
                expected = topologies_from_classes(variant, a, b, cap)
                got = topologies_from_classes(variant, a, b, cap, memo)
                assert ordered_items(got) == ordered_items(expected)


class TestAutomorphismTrap:
    """For a union with automorphisms the endpoint positions depend on
    node insertion order, so the key must tell insertion orders apart."""

    def graph(self, a, u, b):
        return build_graph(
            [(a, "P"), (u, "U"), (b, "P")],
            [((a, u), a, u, "x"), ((u, b), u, b, "x")],
        )

    def test_same_union_other_insertion_order_other_key(self):
        g = self.graph("a", "u", "b")
        forward = Path(["a", "u", "b"], [("a", "u"), ("u", "b")], g)
        backward = forward.reversed()
        assert forward.as_graph().node_types() == backward.as_graph().node_types()
        assert shape_key((forward,), "a", "b") != shape_key((backward,), "a", "b")
        # ... and they have to differ: the answers do.
        sig = forward.signature()
        run_forward, _ = topologies_from_classes({sig: [forward]}, "a", "b")
        run_backward, _ = topologies_from_classes({sig: [backward]}, "a", "b")
        assert list(run_forward) == list(run_backward)
        assert run_forward != run_backward

    def test_identical_construction_same_key(self):
        g1 = self.graph("a", "u", "b")
        g2 = self.graph(7, 8, 9)
        p1 = Path(["a", "u", "b"], [("a", "u"), ("u", "b")], g1)
        p2 = Path([7, 8, 9], [(7, 8), (8, 9)], g2)
        assert shape_key((p1,), "a", "b") == shape_key((p2,), 7, 9)
        assert shape_key((p1, p1.reversed()), "a", "b") == shape_key(
            (p2, p2.reversed()), 7, 9
        )


def test_combination_cap_counts_hits():
    """A warm memo truncates at the same combination as a cold one."""
    # Class A: a -x- u_i -y- b; class B: a -x- u_i -z- b (same first
    # edge).  The first combination shares u_0, the second does not.
    nodes = [("a", "P"), ("b", "D")] + [(f"u{i}", "U") for i in range(3)]
    edges = []
    for i in range(3):
        edges += [
            (f"x{i}", "a", f"u{i}", "x"),
            (f"y{i}", f"u{i}", "b", "y"),
            (f"z{i}", f"u{i}", "b", "z"),
        ]
    g = build_graph(nodes, edges)
    classes = path_equivalence_classes(g, "a", "b", 2)
    memo = {}
    everything, truncated = topologies_from_classes(classes, "a", "b", shape_memo=memo)
    assert len(everything) == 2 and not truncated
    cold = topologies_from_classes(classes, "a", "b", combination_cap=1)
    warm = topologies_from_classes(classes, "a", "b", combination_cap=1, shape_memo=memo)
    assert ordered_items(warm) == ordered_items(cold)
    assert len(cold[0]) == 1 and cold[1]


def test_compute_alltops_equals_memo_bypassed(tiny_dataset, monkeypatch):
    graph = tiny_dataset.graph()
    pairs = [("Protein", "DNA"), ("Protein", "Interaction"), ("Protein", "Protein")]
    store, report = compute_alltops(graph, pairs, 3)
    # A key equal to nothing: every lookup misses.
    monkeypatch.setattr(topologies_module, "shape_key", lambda combo, a, b: object())
    oracle_store, oracle_report = compute_alltops(graph, pairs, 3)
    assert store.state_digest() == oracle_store.state_digest()
    assert report.combinations == oracle_report.combinations
    assert oracle_report.canonical_searches == oracle_report.combinations
    assert report.canonical_searches < report.combinations

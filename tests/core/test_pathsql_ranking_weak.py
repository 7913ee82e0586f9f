"""Path-chain SQL generation, ranking schemes, and weak-path rules."""

from __future__ import annotations

import pytest

from repro.core import RANKING_SCHEMES, Topology, WeakPathRules, score_column
from repro.core import NoConstraint, TopologyQuery
from repro.core.methods.pruned import Endpoints
from repro.core.pathsql import (
    chain_fragments,
    chain_reach,
    chain_steps,
    multi_chain_fragments,
    orient_signature,
)
from repro.core.ranking import compute_scores, domain_score, freq_score, rare_score
from repro.core.weak import BIOZON_WEAK_PATTERNS
from repro.errors import TopologyError
from repro.graph import canonical_key
from repro.relational.column import to_pylist

from tests.conftest import build_graph


def topology_from_graph(g, tid=1, pair=("Protein", "DNA"), sigs=()):
    return Topology(
        tid=tid,
        key=canonical_key(g),
        entity_pair=pair,
        endpoint_indices=(0, 1),
        class_signatures=tuple(sigs),
    )


C2 = ("DNA", "uni_contains", "Unigene", "uni_encodes", "Protein")
C1 = ("DNA", "encodes", "Protein")


class TestOrientSignature:
    def test_forward(self):
        sig = ("Protein", "encodes", "DNA")
        assert orient_signature(sig, "Protein", "DNA") == sig

    def test_reversed(self):
        sig = ("DNA", "encodes", "Protein")
        assert orient_signature(sig, "Protein", "DNA") == sig[::-1]

    def test_mismatch(self):
        with pytest.raises(TopologyError):
            orient_signature(("DNA", "encodes", "Protein"), "Protein", "Unigene")


class TestChainFragments:
    def test_direct_edge(self):
        chain = chain_fragments(("Protein", "encodes", "DNA"), "P", "D", "c0")
        assert chain.from_items == ("Encodes c0r0",)
        assert "c0r0.PID = P.ID" in chain.conditions
        assert "D.ID = c0r0.DID" in chain.conditions

    def test_two_hop(self):
        chain = chain_fragments(
            ("Protein", "uni_encodes", "Unigene", "uni_contains", "DNA"),
            "P", "D", "c0",
        )
        assert chain.from_items == ("UniEncodes c0r0", "UniContains c0r1")
        assert "c0r1.UID = c0r0.UID" in chain.conditions

    def test_simplicity_conditions(self):
        # P-e-D-e-P-e-D revisits both types: expect <> conditions.
        sig = ("Protein", "encodes", "DNA", "encodes", "Protein", "encodes", "DNA")
        chain = chain_fragments(sig, "P", "D", "c0")
        neqs = [c for c in chain.conditions if "<>" in c]
        assert len(neqs) == 2  # P vs P, D vs D

    def test_unknown_relationship(self):
        with pytest.raises(TopologyError):
            chain_fragments(("Protein", "bogus", "DNA"), "P", "D", "c0")

    def test_wrong_types_for_relationship(self):
        with pytest.raises(TopologyError):
            chain_fragments(("Protein", "uni_contains", "DNA"), "P", "D", "c0")

    def test_multi_chain_unique_aliases(self):
        frags = multi_chain_fragments([C1, C2], "Protein", "DNA", "P", "D")
        aliases = [item.split()[1] for item in frags.from_items]
        assert len(aliases) == len(set(aliases))

    def test_multi_chain_executes(self, fig3_system):
        frags = multi_chain_fragments([C2], "Protein", "DNA", "P", "D")
        sql = (
            f"SELECT DISTINCT P.ID, D.ID FROM Protein P, DNA D, {frags.from_sql()} "
            f"WHERE {frags.where_sql()}"
        )
        rows = fig3_system.engine.execute(sql).rows
        # Pairs with a P-U-D path: (78,215) x2 routes, (34,215), (44,742) x2.
        assert set(rows) == {(78, 215), (34, 215), (44, 742)}


class TestChainSteps:
    """The SQL text and the semi-join reduction are both derived from
    ``chain_steps``: pinned for every class of every topology (pruned
    ones included) of the Figure-3 and tiny stores."""

    def test_steps_of_a_two_hop_chain(self):
        assert chain_steps(C2[::-1]) == (
            ("UniEncodes", "PID", "UID"),
            ("UniContains", "UID", "DID"),
        )

    @pytest.mark.parametrize("fixture", ["fig3_system", "tiny_system"])
    def test_sql_and_reduction_walk_the_same_steps(self, request, fixture):
        system = request.getfixturevalue(fixture)
        seen = set()
        for topology in system.require_store().topologies.values():
            es1, es2 = topology.entity_pair
            everything = Endpoints(
                system, TopologyQuery(es1, es2, NoConstraint(), NoConstraint())
            )
            for signature in topology.class_signatures:
                oriented = orient_signature(signature, es1, es2)
                if oriented in seen:
                    continue
                seen.add(oriented)
                steps = chain_steps(oriented)
                chain = chain_fragments(oriented, "A", "B", "c")

                # The SQL text, rebuilt from the steps alone.
                assert chain.from_items == tuple(
                    f"{table} cr{i}" for i, (table, _, _) in enumerate(steps)
                )
                joins, node = [], "A.ID"
                for i, (_, from_column, to_column) in enumerate(steps):
                    joins.append(f"cr{i}.{from_column} = {node}")
                    node = f"cr{i}.{to_column}"
                joins.append(f"B.ID = {node}")
                assert [c for c in chain.conditions if "<>" not in c] == joins

                # The reduction reaches what those joins reach.
                rows = system.engine.execute(
                    f"SELECT DISTINCT B.ID FROM {es1} A, {es2} B, {chain.from_sql()} "
                    f"WHERE {' AND '.join(joins)}"
                ).rows
                reached = chain_reach(system.database, oriented, everything.ids(0))
                assert set(to_pylist(reached)) == {row[0] for row in rows}, oriented
        assert len(seen) >= 3


class TestRanking:
    def test_score_column_names(self):
        assert score_column("freq") == "SCORE_FREQ"
        assert score_column("rare") == "SCORE_RARE"
        with pytest.raises(ValueError):
            score_column("bogus")

    def test_freq_monotone(self):
        g = build_graph([("a", "Protein"), ("b", "DNA")], [("e", "a", "b", "encodes")])
        t1 = topology_from_graph(g, 1)
        t2 = topology_from_graph(g, 2)
        t1.frequency, t2.frequency = 10, 100
        assert freq_score(t2, 100) > freq_score(t1, 100)

    def test_rare_antimonotone(self):
        g = build_graph([("a", "Protein"), ("b", "DNA")], [("e", "a", "b", "encodes")])
        t1 = topology_from_graph(g, 1)
        t2 = topology_from_graph(g, 2)
        t1.frequency, t2.frequency = 10, 100
        assert rare_score(t1) > rare_score(t2)

    def test_domain_rewards_interactions_and_cycles(self):
        rules = WeakPathRules()
        plain = build_graph(
            [("a", "Protein"), ("b", "DNA")], [("e", "a", "b", "encodes")]
        )
        motif = build_graph(
            [("a", "Protein"), ("b", "Protein"), ("d", "DNA"), ("i", "Interaction")],
            [
                ("e1", "a", "d", "encodes"),
                ("e2", "b", "d", "encodes"),
                ("e3", "a", "i", "interacts_protein"),
                ("e4", "b", "i", "interacts_protein"),
            ],
        )
        t_plain = topology_from_graph(plain, 1, sigs=[C1])
        t_motif = topology_from_graph(motif, 2, sigs=[C1, C2])
        assert domain_score(t_motif, rules) > domain_score(t_plain, rules)

    def test_compute_scores_fills_all_schemes(self):
        g = build_graph([("a", "Protein"), ("b", "DNA")], [("e", "a", "b", "encodes")])
        tops = [topology_from_graph(g, i) for i in (1, 2, 3)]
        for i, t in enumerate(tops):
            t.frequency = i + 1
        compute_scores(tops)
        for t in tops:
            assert set(t.scores) == set(RANKING_SCHEMES)
            assert all(s >= 0 for s in t.scores.values())


class TestWeakRules:
    RULES = WeakPathRules()

    def test_pdp_in_long_path_is_weak(self):
        # P-D-P-U-D, the paper's canonical weak relationship.
        seq = ("Protein", "DNA", "Protein", "Unigene", "DNA")
        assert self.RULES.is_weak_sequence(seq)

    def test_short_paths_never_weak(self):
        assert not self.RULES.is_weak_sequence(("Protein", "DNA", "Protein"))

    def test_reverse_direction_detected(self):
        seq = ("DNA", "Unigene", "Protein", "DNA", "Protein")  # reversed PDPUD
        assert self.RULES.is_weak_sequence(seq)

    def test_strong_long_path_not_weak(self):
        seq = ("Protein", "Interaction", "Protein", "Interaction", "DNA")
        assert not self.RULES.is_weak_sequence(seq)

    def test_is_weak_class_uses_node_positions(self):
        sig = (
            "Protein", "encodes", "DNA", "encodes", "Protein",
            "uni_encodes", "Unigene", "uni_contains", "DNA",
        )
        assert self.RULES.is_weak_class(sig)

    def test_topology_weak_fraction(self):
        g = build_graph([("a", "Protein"), ("b", "DNA")], [("e", "a", "b", "encodes")])
        weak_sig = (
            "Protein", "encodes", "DNA", "encodes", "Protein",
            "uni_encodes", "Unigene", "uni_contains", "DNA",
        )
        t = topology_from_graph(g, 1, sigs=[C1, weak_sig])
        assert self.RULES.topology_weak_fraction(t) == pytest.approx(0.5)
        assert not self.RULES.is_weak_topology(t)

    def test_prune_weak_topologies(self):
        g = build_graph([("a", "Protein"), ("b", "DNA")], [("e", "a", "b", "encodes")])
        weak_sig = (
            "Protein", "encodes", "DNA", "encodes", "Protein",
            "uni_encodes", "Unigene", "uni_contains", "DNA",
        )
        strong = topology_from_graph(g, 1, sigs=[C1])
        weak = topology_from_graph(g, 2, sigs=[weak_sig])
        kept, pruned = self.RULES.prune_weak_topologies([strong, weak])
        assert kept == [strong]
        assert pruned == [weak]

    def test_table4_patterns_present(self):
        assert ("Protein", "DNA", "Protein") in BIOZON_WEAK_PATTERNS
        assert ("Family", "Pathway", "Family") in BIOZON_WEAK_PATTERNS
        assert len(BIOZON_WEAK_PATTERNS) == 9  # Table 4 has nine rows

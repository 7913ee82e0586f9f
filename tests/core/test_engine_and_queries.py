"""System facade, query/constraint values, and error paths."""

from __future__ import annotations

import pytest

from repro.biozon import build_figure3_database
from repro.core import (
    AttributeConstraint,
    ConjunctionConstraint,
    KeywordConstraint,
    NoConstraint,
    TopologyQuery,
    TopologySearchSystem,
)
from repro.errors import TopologyError
from repro.relational.expressions import RowLayout


class TestConstraints:
    LAYOUT = RowLayout([("x", "id"), ("x", "desc"), ("x", "type")])

    def _eval(self, constraint, row):
        return constraint.to_expression("x").bind(self.LAYOUT)(row)

    def test_keyword_constraint(self):
        c = KeywordConstraint("DESC", "enzyme")
        assert self._eval(c, (1, "an enzyme", "t")) is True
        assert self._eval(c, (1, "nothing", "t")) is False
        assert c.to_sql("P") == "CONTAINS(P.DESC, 'enzyme')"

    def test_attribute_constraint(self):
        c = AttributeConstraint("TYPE", "mRNA")
        assert self._eval(c, (1, "d", "mRNA")) is True
        assert self._eval(c, (1, "d", "EST")) is False
        assert c.to_sql("D") == "D.TYPE = 'mRNA'"

    def test_attribute_constraint_operators(self):
        c = AttributeConstraint("ID", 5, op=">")
        assert self._eval(c, (7, "d", "t")) is True
        assert self._eval(c, (3, "d", "t")) is False
        assert c.to_sql("D") == "D.ID > 5"

    def test_conjunction(self):
        c = ConjunctionConstraint(
            (KeywordConstraint("DESC", "a"), AttributeConstraint("TYPE", "t"))
        )
        assert self._eval(c, (1, "xax", "t")) is True
        assert self._eval(c, (1, "xax", "z")) is False
        assert "AND" in c.to_sql("P")

    def test_no_constraint(self):
        c = NoConstraint()
        assert self._eval(c, (1, None, None)) is True
        assert c.to_sql("P") == "1 = 1"

    def test_sql_quote_escapes_quotes(self):
        c = KeywordConstraint("DESC", "o'neil")
        sql = c.to_sql("P")
        assert "''" in sql
        # And it still parses + executes.
        db = build_figure3_database()
        system = TopologySearchSystem(db)
        result = system.engine.execute(
            f"SELECT P.ID FROM Protein P WHERE {sql}"
        )
        assert result.rows == []


class TestTopologyQueryValue:
    def test_validation(self):
        with pytest.raises(TopologyError):
            TopologyQuery("A", "B", NoConstraint(), NoConstraint(), max_length=0)
        with pytest.raises(TopologyError):
            TopologyQuery("A", "B", NoConstraint(), NoConstraint(), k=0)

    def test_describe(self):
        q = TopologyQuery(
            "Protein", "DNA",
            KeywordConstraint("DESC", "x"), NoConstraint(),
            k=5, ranking="rare",
        )
        text = q.describe()
        assert "top-5" in text and "rare" in text and "l=3" in text

    def test_entity_pair(self):
        q = TopologyQuery("A", "B", NoConstraint(), NoConstraint())
        assert q.entity_pair == ("A", "B")


class TestSystemFacade:
    def test_search_before_build_fails(self):
        system = TopologySearchSystem(build_figure3_database())
        q = TopologyQuery("Protein", "DNA", NoConstraint(), NoConstraint())
        with pytest.raises(TopologyError):
            system.search(q, "full-top")

    def test_build_report_contents(self, fig3_system):
        report = fig3_system.build_report
        assert report is not None
        assert report.alltops.distinct_topologies == 5
        assert report.elapsed_seconds > 0
        assert report.pruning is not None

    def test_build_report_carries_phase_spans(self, fig3_system):
        """The offline build traces itself: the report ships the span
        tree (engine.build root, one child per phase) so build timing is
        inspectable without a live tracer."""
        spans = fig3_system.build_report.spans
        by_name = {s["name"]: s for s in spans}
        assert {
            "engine.build",
            "build.compute_alltops",
            "build.prune",
            "build.materialize",
        } <= set(by_name)
        root = by_name["engine.build"]
        assert root["parent_id"] is None
        for phase in ("build.compute_alltops", "build.prune", "build.materialize"):
            assert by_name[phase]["parent_id"] == root["span_id"]
            assert by_name[phase]["trace_id"] == root["trace_id"]
            assert by_name[phase]["elapsed_seconds"] >= 0
        # ... and how much canonicalisation the compute phase did.
        tags = by_name["build.compute_alltops"]["tags"]
        alltops = fig3_system.build_report.alltops
        assert tags["combinations"] == alltops.combinations > 0
        assert tags["canonical_searches"] == alltops.canonical_searches > 0

    def test_orientation(self, fig3_system):
        fwd = TopologyQuery("Protein", "DNA", NoConstraint(), NoConstraint())
        rev = TopologyQuery("DNA", "Protein", NoConstraint(), NoConstraint())
        assert fig3_system.orientation(fwd) is True
        assert fig3_system.orientation(rev) is False
        assert fig3_system.store_entity_pair(rev) == ("Protein", "DNA")

    def test_method_cache(self, fig3_system):
        assert fig3_system.method("full-top") is fig3_system.method("full-top")

    def test_describe_topologies(self, fig3_system):
        q = TopologyQuery("Protein", "DNA", NoConstraint(), NoConstraint())
        result = fig3_system.search(q, "full-top")
        descriptions = fig3_system.describe_topologies(result.tids)
        assert len(descriptions) == len(result.tids)
        assert all("-" in d for d in descriptions)

    def test_no_prune_build(self):
        system = TopologySearchSystem(build_figure3_database())
        system.build([("Protein", "DNA")], max_length=3, prune=False)
        store = system.require_store()
        assert store.pruned_tids == set()
        assert store.lefttops_rows == store.alltops_rows
        q = TopologyQuery(
            "Protein", "DNA",
            KeywordConstraint("DESC", "enzyme"),
            AttributeConstraint("TYPE", "mRNA"),
        )
        assert len(system.search(q, "fast-top").tids) == 4

    def test_rebuild_replaces_store(self):
        system = TopologySearchSystem(build_figure3_database())
        system.build([("Protein", "DNA")], max_length=2)
        first = len(system.require_store().topologies)
        system.build([("Protein", "DNA")], max_length=3)
        second = len(system.require_store().topologies)
        assert second >= first
        assert system.max_length == 3


class TestMethodResult:
    def test_ranked_requires_scores(self, fig3_system):
        q = TopologyQuery("Protein", "DNA", NoConstraint(), NoConstraint())
        result = fig3_system.search(q, "full-top")
        with pytest.raises(ValueError):
            result.ranked

    def test_ranked_pairs(self, fig3_system):
        q = TopologyQuery(
            "Protein", "DNA", NoConstraint(), NoConstraint(), k=3, ranking="freq"
        )
        result = fig3_system.search(q, "fast-top-k")
        assert result.ranked == list(zip(result.tids, result.scores))

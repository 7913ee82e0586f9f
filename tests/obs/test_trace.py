"""Unit tests for the tracer: span lifecycle, parent links, the ring
buffer bounds, and the explicit cross-process handoff
(``current_wire`` → ``adopt`` → ``take`` → ``ingest``)."""

from __future__ import annotations

from collections import deque

import pytest

from repro.obs import NOOP_SPAN, SpanRecord, TraceContext, Tracer


@pytest.fixture()
def tracer():
    return Tracer(enabled=True)


class TestSpanLifecycle:
    def test_ingress_starts_a_trace(self, tracer):
        with tracer.span("root", ingress=True) as root:
            assert root.recording
            assert tracer.current().trace_id == root.trace_id
        assert tracer.current() is None
        spans = tracer.trace_spans(root.trace_id)
        assert [s.name for s in spans] == ["root"]
        assert spans[0].parent_id is None

    def test_interior_span_without_context_is_a_noop(self, tracer):
        with tracer.span("interior") as span:
            assert span is NOOP_SPAN
        assert tracer.stats()["spans_recorded"] == 0

    def test_disabled_tracer_noops_even_at_ingress(self):
        tracer = Tracer(enabled=False)
        with tracer.span("root", ingress=True) as span:
            assert span is NOOP_SPAN
        assert tracer.current_wire() is None
        assert tracer.stats()["spans_recorded"] == 0

    def test_children_link_to_their_parent(self, tracer):
        with tracer.span("root", ingress=True) as root:
            with tracer.span("child") as child:
                with tracer.span("grandchild"):
                    pass
        spans = {s.name: s for s in tracer.trace_spans(root.trace_id)}
        assert spans["grandchild"].parent_id == spans["child"].span_id
        assert spans["child"].parent_id == spans["root"].span_id
        assert spans["root"].parent_id is None
        assert {s.trace_id for s in spans.values()} == {root.trace_id}
        assert child.trace_id == root.trace_id

    def test_sibling_spans_share_the_parent(self, tracer):
        with tracer.span("root", ingress=True) as root:
            with tracer.span("first"):
                pass
            with tracer.span("second"):
                pass
        spans = {s.name: s for s in tracer.trace_spans(root.trace_id)}
        assert spans["first"].parent_id == spans["root"].span_id
        assert spans["second"].parent_id == spans["root"].span_id

    def test_exception_is_recorded_and_propagates(self, tracer):
        with pytest.raises(ValueError):
            with tracer.span("root", ingress=True) as root:
                raise ValueError("boom")
        (span,) = tracer.trace_spans(root.trace_id)
        assert span.error == "ValueError: boom"

    def test_tags_travel_to_the_record(self, tracer):
        with tracer.span("root", ingress=True, a=1) as root:
            root.tag(b=2)
        (span,) = tracer.trace_spans(root.trace_id)
        assert span.tags == {"a": 1, "b": 2}

    def test_elapsed_and_start_are_sane(self, tracer):
        with tracer.span("root", ingress=True) as root:
            pass
        (span,) = tracer.trace_spans(root.trace_id)
        assert span.elapsed_seconds >= 0
        assert span.start_unix > 0


class TestRingBounds:
    def test_oldest_trace_evicted_at_capacity(self):
        tracer = Tracer(enabled=True, max_traces=3)
        ids = []
        for _ in range(5):
            with tracer.span("root", ingress=True) as root:
                pass
            ids.append(root.trace_id)
        assert tracer.stats()["traces"] == 3
        assert tracer.trace_spans(ids[0]) == []
        assert tracer.trace_spans(ids[-1]) != []

    def test_spans_past_per_trace_cap_are_dropped(self):
        tracer = Tracer(enabled=True, max_spans_per_trace=4)
        with tracer.span("root", ingress=True) as root:
            for _ in range(10):
                with tracer.span("child"):
                    pass
        assert len(tracer.trace_spans(root.trace_id)) == 4
        assert tracer.stats()["spans_dropped"] > 0

    def test_a_drain_takes_only_the_spans_pending_at_its_call(self, tracer):
        """Spans recorded while a reader drains wait for the next drain,
        so threads that record without pause cannot keep the reader (a
        build collecting its spans) draining for as long as they run."""
        for _ in range(3):
            with tracer.span("root", ingress=True):
                pass
        refills = []

        class Recording(deque):
            """A recorder that adds a span for every span drained."""

            def popleft(self):
                record = super().popleft()
                if len(refills) < 100:
                    refills.append(record)
                    self.append(record)
                return record

        tracer._pending = Recording(tracer._pending)
        tracer.trace_spans("any")
        assert len(refills) == 3


class TestCrossProcessHandoff:
    def test_wire_roundtrip(self, tracer):
        with tracer.span("root", ingress=True) as root:
            wire = tracer.current_wire()
        ctx = TraceContext.from_wire(wire)
        assert ctx.trace_id == root.trace_id

    @pytest.mark.parametrize("wire", [None, 7, "x", {}, {"trace_id": 1}])
    def test_malformed_wire_is_rejected(self, wire):
        assert TraceContext.from_wire(wire) is None

    def test_adopt_take_ingest(self, tracer):
        """The full parent → worker → parent shipping cycle, in one
        process: spans recorded under an adopted context drain with
        take() and merge back with ingest(), keeping trace and parent
        ids intact."""
        worker = Tracer(enabled=True)
        with tracer.span("root", ingress=True) as root:
            wire = tracer.current_wire()
            with worker.adopt(wire):
                with worker.span("worker.op") as op:
                    pass
            shipped = worker.take(op.trace_id)
        assert worker.trace_spans(op.trace_id) == []  # drained
        assert tracer.ingest(shipped) == 1
        spans = {s.name: s for s in tracer.trace_spans(root.trace_id)}
        assert spans["worker.op"].trace_id == root.trace_id
        assert spans["worker.op"].parent_id == spans["root"].span_id

    def test_adopting_none_leaves_spans_unrecorded(self, tracer):
        with tracer.adopt(None):
            with tracer.span("interior") as span:
                assert span is NOOP_SPAN
        assert tracer.stats()["spans_recorded"] == 0

    def test_ingest_skips_malformed_spans(self, tracer):
        good = SpanRecord(
            trace_id="t", span_id="s", parent_id=None, name="n",
            start_unix=1.0, elapsed_seconds=0.5,
        ).to_wire()
        assert tracer.ingest([{"nope": 1}, good, "junk"]) == 1


class TestReading:
    def test_trace_tree_nests_children(self, tracer):
        with tracer.span("root", ingress=True) as root:
            with tracer.span("child"):
                pass
        tree = tracer.trace_tree(root.trace_id)
        assert tree["span_count"] == 2
        (top,) = tree["spans"]
        assert top["name"] == "root"
        assert [c["name"] for c in top["children"]] == ["child"]
        assert tree["elapsed_seconds"] >= 0

    def test_unknown_trace_tree_is_none(self, tracer):
        assert tracer.trace_tree("missing") is None

    def test_recent_is_newest_first(self, tracer):
        ids = []
        for _ in range(3):
            with tracer.span("root", ingress=True) as root:
                pass
            ids.append(root.trace_id)
        summaries = tracer.recent()
        assert [s["trace_id"] for s in summaries] == list(reversed(ids))
        assert all(s["root"] == "root" for s in summaries)

    def test_reset_clears_everything(self, tracer):
        with tracer.span("root", ingress=True):
            pass
        tracer.reset()
        assert tracer.stats() == {
            "enabled": True,
            "traces": 0,
            "spans_recorded": 0,
            "spans_dropped": 0,
        }

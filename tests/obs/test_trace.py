"""Tests for the span-tree tracer (repro.obs.trace)."""

import pickle

from repro.obs.context import Context
from repro.obs.metrics import NULL_METRICS
from repro.obs.trace import (
    Span,
    Tracer,
    format_trace,
    new_trace_id,
)


class TestTraceLifecycle:
    def test_begin_end_produces_root(self):
        tracer = Tracer()
        tracer.begin("request", query="q")
        root = tracer.end()
        assert root is not None
        assert root.name == "request"
        assert root.attributes["query"] == "q"
        assert root.duration >= 0.0
        assert tracer.last_trace is root

    def test_trace_id_in_root_attributes(self):
        tracer = Tracer()
        tracer.begin("request")
        trace_id = tracer.trace_id
        root = tracer.end()
        assert root.attributes["trace_id"] == trace_id
        assert len(trace_id) == 16

    def test_explicit_trace_id_is_kept(self):
        tracer = Tracer()
        tracer.begin("worker", trace_id="abc123")
        root = tracer.end()
        assert root.attributes["trace_id"] == "abc123"

    def test_new_trace_ids_are_unique(self):
        ids = {new_trace_id() for _ in range(64)}
        assert len(ids) == 64

    def test_end_without_begin_is_none(self):
        assert Tracer().end() is None

    def test_nested_spans_build_a_tree(self):
        tracer = Tracer()
        tracer.begin("request")
        with tracer.span("merge"):
            with tracer.span("score", groups=3):
                pass
            with tracer.span("score"):
                pass
        root = tracer.end()
        merge = root.children[0]
        assert merge.name == "merge"
        assert [c.name for c in merge.children] == ["score", "score"]
        assert merge.children[0].attributes["groups"] == 3

    def test_child_duration_within_parent(self):
        tracer = Tracer()
        tracer.begin("request")
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        root = tracer.end()
        outer = root.children[0]
        inner = outer.children[0]
        assert inner.duration <= outer.duration
        assert outer.duration <= root.duration

    def test_span_outside_trace_records_nothing(self):
        tracer = Tracer()
        with tracer.span("orphan") as span:
            assert span is None
        assert tracer.last_trace is None

    def test_exception_annotates_and_closes_span(self):
        tracer = Tracer()
        tracer.begin("request")
        try:
            with tracer.span("merge"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        root = tracer.end()
        assert root.children[0].attributes["error"] == "RuntimeError"

    def test_end_unwinds_open_spans(self):
        tracer = Tracer()
        tracer.begin("request")
        tracer._push("left_open", {})
        root = tracer.end()
        assert root.children[0].duration >= 0.0
        assert tracer.current() is None


class TestEventsAndAnnotations:
    def test_event_lands_on_innermost_span(self):
        tracer = Tracer()
        tracer.begin("request")
        with tracer.span("merge"):
            tracer.event("deadline_expired", stage="merge")
        root = tracer.end()
        name, when, attrs = root.children[0].events[0]
        assert name == "deadline_expired"
        assert attrs == {"stage": "merge"}
        assert when > 0

    def test_annotate_merges_into_current_span(self):
        tracer = Tracer()
        tracer.begin("request")
        with tracer.span("merge"):
            tracer.annotate(groups=7)
        root = tracer.end()
        assert root.children[0].attributes["groups"] == 7

    def test_event_outside_trace_is_noop(self):
        tracer = Tracer()
        tracer.event("nothing")
        tracer.annotate(ignored=True)
        assert tracer.last_trace is None


class TestBudgets:
    def test_span_budget_drops_and_counts(self):
        tracer = Tracer(max_spans=3)
        tracer.begin("request")
        for _ in range(5):
            with tracer.span("s"):
                pass
        root = tracer.end()
        assert len(root.children) == 2  # root + 2 spans = 3
        assert root.attributes["spans_dropped"] == 3

    def test_event_budget_drops_and_counts(self):
        tracer = Tracer(max_events=2)
        tracer.begin("request")
        for index in range(5):
            tracer.event("e", index=index)
        root = tracer.end()
        assert len(root.events) == 2
        assert root.attributes["events_dropped"] == 3

    def test_attach_respects_span_budget(self):
        tracer = Tracer(max_spans=2)
        tracer.begin("request")
        big = Span("worker")
        big.children = [Span("a"), Span("b"), Span("c")]
        tracer.attach(big)
        root = tracer.end()
        assert root.children == []
        assert root.attributes["spans_dropped"] == 4


class TestAttach:
    def test_attach_grafts_subtree(self):
        tracer = Tracer()
        subtree = Span("worker", attributes={"pid": 42})
        subtree.children.append(Span("merge"))
        tracer.begin("batch")
        with tracer.span("pool"):
            tracer.attach(subtree)
        root = tracer.end()
        pool = root.children[0]
        assert pool.children[0] is subtree
        assert root.find("merge") is subtree.children[0]

    def test_attach_outside_trace_is_dropped(self):
        tracer = Tracer()
        tracer.attach(Span("worker"))
        assert tracer.last_trace is None


class TestSpanSerialization:
    def make_tree(self):
        root = Span("request", start=100.0, duration=0.5,
                    attributes={"trace_id": "t1", "query": "q"})
        child = Span("merge", start=100.1, duration=0.2)
        child.events.append(("evict", 100.15, {"candidate": "x"}))
        child.events.append(("plain", 100.16, None))
        root.children.append(child)
        return root

    def test_dict_round_trip(self):
        root = self.make_tree()
        clone = Span.from_dict(root.as_dict())
        assert clone.as_dict() == root.as_dict()
        assert clone.children[0].events == root.children[0].events

    def test_spans_pickle(self):
        root = self.make_tree()
        clone = pickle.loads(pickle.dumps(root))
        assert clone.as_dict() == root.as_dict()

    def test_walk_and_find(self):
        root = self.make_tree()
        assert [s.name for s in root.walk()] == ["request", "merge"]
        assert root.find("merge").duration == 0.2
        assert root.find("missing") is None

    def test_format_trace_outline(self):
        text = format_trace(self.make_tree())
        lines = text.splitlines()
        assert lines[0].startswith("request  500.000 ms")
        assert "query=q" in lines[0]
        assert "trace_id" not in lines[0]
        assert lines[1].lstrip().startswith("merge")
        assert any("* evict" in line for line in lines)


class TestNullTracer:
    """Tracing off is a context without a span stack: every trace
    hook is a no-op (the role the old null tracer played)."""

    def test_disabled_flag(self):
        assert Context().trace is None
        with Context.request(NULL_METRICS, Tracer(), "request") as on:
            assert on.trace is not None
        with Context.request(NULL_METRICS, None, "request") as off:
            assert off.trace is None

    def test_all_hooks_are_noops(self):
        ctx = Context.request(NULL_METRICS, None, "request")
        with ctx:
            with ctx.stage("merge", x=1) as stage:
                assert stage.span is None
            ctx.event("e")
            ctx.annotate(a=1)
            ctx.absorb([], Span("worker"), "pool.task", 0.0, 0.0)
        assert ctx.root is None
        assert ctx.trace_id is None

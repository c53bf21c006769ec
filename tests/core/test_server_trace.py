"""Serving-path tracing: stitched pool traces, detailed batch stats,
worker stage-timer aggregation, and the flight recorder."""

import json

import pytest

from repro.core.cleaner import XCleanSuggester
from repro.core.config import XCleanConfig
from repro.core.server import SuggestionService
from repro.exceptions import ConfigurationError, Overloaded
from repro.index.corpus import build_corpus_index
from repro.obs import MetricsRegistry
from repro.obs.context import Context
from repro.obs.export import validate_chrome_trace
from repro.obs.recorder import FlightRecorder
from repro.obs.trace import Tracer
from repro.xmltree.builder import paper_example_tree
from repro.xmltree.document import XMLDocument

QUERIES = ["icdt tre", "trie icde", "icdt tre", ""]


@pytest.fixture()
def corpus():
    return build_corpus_index(XMLDocument(paper_example_tree()))


def make_service(corpus, **kwargs):
    kwargs.setdefault("config", XCleanConfig(max_errors=2))
    kwargs.setdefault("tracer", Tracer())
    return SuggestionService(corpus, **kwargs)


class TestSingleQueryTracing:
    def test_request_root_covers_engine_stages(self, corpus):
        with make_service(corpus) as service:
            service.suggest("icdt tre", 5)
            root = service.tracer.last_trace
        assert root.name == "request"
        names = {span.name for span in root.walk()}
        assert {"tokenize", "variant_gen", "merge"} <= names
        for span in root.walk():
            if span is not root:
                assert span.duration <= root.duration + 1e-9

    def test_last_stats_carries_trace_id(self, corpus):
        with make_service(corpus) as service:
            service.suggest("icdt tre", 5)
            miss_id = service.last_stats.trace_id
            root_id = service.tracer.last_trace.attributes["trace_id"]
            assert miss_id == root_id
            service.suggest("icdt tre", 5)  # cache hit
            hit = service.last_stats
        assert hit.result_cache_hits == 1
        assert hit.trace_id is not None
        assert hit.trace_id != miss_id  # a fresh request trace

    def test_untraced_service_still_serves(self, corpus):
        with SuggestionService(
            corpus, config=XCleanConfig(max_errors=2)
        ) as service:
            answer = service.suggest("icdt tre", 5)
            assert answer
            assert service.last_stats.trace_id is None
            assert service.flight_recorder is None


class TestScoreSpan:
    """Scoring runs inside the merge loop, so its aggregated span is a
    child of "merge" — with or without a metrics registry."""

    @staticmethod
    def assert_score_inside_merge(root):
        merge = root.find("merge")
        scores = [span for span in root.walk() if span.name == "score"]
        assert len(scores) == 1
        assert scores[0] in merge.children
        assert scores[0].attributes == {"aggregated": True}
        assert scores[0].duration > 0.0
        for span in root.walk():
            inner = sum(child.duration for child in span.children)
            assert inner <= span.duration + 1e-9, span.name

    def test_tracer_only_suggester(self, corpus):
        # What ``xclean trace`` builds: a tracer and no registry.
        tracer = Tracer()
        suggester = XCleanSuggester(
            corpus, config=XCleanConfig(max_errors=2), tracer=tracer
        )
        assert not suggester.metrics.enabled
        assert suggester.suggest("icdt tre", 5)
        assert suggester.last_stats.entities_scored > 0
        self.assert_score_inside_merge(tracer.last_trace)

    def test_service_request(self, corpus):
        with make_service(corpus) as service:
            service.suggest("icdt tre", 5)
            root = service.tracer.last_trace
        assert root.name == "request"
        self.assert_score_inside_merge(root)


class TestOneClock:
    """A stage's histogram observation and its span duration are one
    clock reading, so a traced request's spans match its metrics."""

    def test_spans_equal_stage_observations(self, corpus):
        registry = MetricsRegistry()
        with make_service(corpus, metrics=registry) as service:
            service.suggest("icdt tre", 5)
            root = service.tracer.last_trace
        for name in ("tokenize", "variant_gen", "merge", "variant",
                     "type_infer"):
            spans = [span for span in root.walk() if span.name == name]
            observed = registry.stage_histogram(name)
            assert spans and observed.count == len(spans), name
            assert observed.sum == sum(s.duration for s in spans), name
        (score,) = [span for span in root.walk() if span.name == "score"]
        assert score.attributes == {"aggregated": True}
        observed = registry.stage_histogram("score")
        assert observed.count == 1
        assert observed.sum == score.duration > 0.0


class TestPoolTraceStitching:
    """Acceptance: one stitched tree per batch, no orphan spans,
    worker durations consistent with the parent span."""

    def test_batch_fanout_produces_one_stitched_tree(self, corpus):
        with make_service(corpus) as service:
            answers = service.suggest_batch(QUERIES, 5, workers=2)
            root = service.tracer.last_trace
        assert [len(a) > 0 for a in answers] == [
            True, True, True, False,
        ]
        assert root.name == "batch"
        trace_id = root.attributes["trace_id"]
        task_spans = [
            span for span in root.walk() if span.name == "pool.task"
        ]
        worker_spans = [
            span for span in root.walk() if span.name == "worker"
        ]
        # Two unique answerable queries -> two pool tasks, each with
        # exactly one worker subtree stitched beneath it.
        assert len(task_spans) == 2
        assert len(worker_spans) == 2
        for task_span in task_spans:
            children = [c.name for c in task_span.children]
            assert children == ["worker"]
        for worker_span in worker_spans:
            # The worker ran under the parent's trace id and brought
            # its engine stages along.
            assert worker_span.attributes["trace_id"] == trace_id
            assert worker_span.attributes["pid"] > 0
            stage_names = {
                s.name for s in worker_span.walk()
            }
            assert {"tokenize", "variant_gen", "merge"} <= stage_names

    def test_worker_durations_fit_parent_window(self, corpus):
        with make_service(corpus) as service:
            service.suggest_batch(QUERIES, 5, workers=2)
            root = service.tracer.last_trace
        for task_span in root.walk():
            if task_span.name != "pool.task":
                continue
            worker_span = task_span.children[0]
            assert worker_span.duration <= task_span.duration + 1e-9
            assert task_span.duration <= root.duration + 1e-9
            # Epoch starts line up: the worker began after submission
            # (generous slack for clock granularity).
            assert worker_span.start >= task_span.start - 0.05

    def test_no_orphan_spans(self, corpus):
        with make_service(corpus) as service:
            service.suggest_batch(QUERIES, 5, workers=2)
            tracer = service.tracer
            root = tracer.last_trace
        # Everything the tracer retained is reachable from the root,
        # and nothing was left open or dropped.
        assert tracer.current() is None
        assert "spans_dropped" not in root.attributes
        for span in root.walk():
            for child in span.children:
                assert child in list(span.children)

    def test_batch_chrome_export_validates(self, corpus):
        from repro.obs.export import chrome_trace

        with make_service(corpus) as service:
            service.suggest_batch(QUERIES, 5, workers=2)
            root = service.tracer.last_trace
        data = chrome_trace(root)
        assert validate_chrome_trace(data) == []
        tracks = {
            e["tid"] for e in data["traceEvents"]
            if e["name"] == "worker"
        }
        assert all(tid != 1 for tid in tracks)

    def test_degraded_batch_traces_inline(self, corpus):
        with make_service(corpus) as service:
            service.close()  # pool unavailable -> degrade in-process
            service.suggest_batch(["icdt tre"], 5, workers=2)
            root = service.tracer.last_trace
        names = [span.name for span in root.walk()]
        assert "degrade" in names
        assert "pool.task" not in names


class TestBatchDetailedStats:
    def test_one_stats_per_query_in_order(self, corpus):
        with make_service(corpus) as service:
            detailed = service.suggest_batch_detailed(
                QUERIES, 5, workers=2
            )
        assert len(detailed) == len(QUERIES)
        (a1, s1), (a2, s2), (a3, s3), (a4, s4) = detailed
        assert s1.result_cache_misses == 1 and a1
        assert s2.result_cache_misses == 1 and a2
        # Third query duplicates the first: served from cache.
        assert s3.result_cache_hits == 1 and a3 == a1
        # Unanswerable: empty answer, fresh empty stats.
        assert a4 == [] and s4.result_cache_hits == 0
        assert s4.result_cache_misses == 0

    def test_trace_ids_shared_within_batch(self, corpus):
        with make_service(corpus) as service:
            detailed = service.suggest_batch_detailed(
                QUERIES, 5, workers=2
            )
            trace_id = service.tracer.last_trace.attributes[
                "trace_id"
            ]
        answered = [stats for answer, stats in detailed if answer]
        assert answered
        assert all(s.trace_id == trace_id for s in answered)

    def test_serial_batch_detailed(self, corpus):
        with make_service(corpus) as service:
            detailed = service.suggest_batch_detailed(QUERIES, 5)
        assert [bool(a) for a, _ in detailed] == [
            True, True, True, False,
        ]
        assert detailed[2][1].result_cache_hits == 1

    def test_untraced_detailed_has_no_trace_ids(self, corpus):
        with SuggestionService(
            corpus, config=XCleanConfig(max_errors=2)
        ) as service:
            detailed = service.suggest_batch_detailed(QUERIES, 5)
        assert all(s.trace_id is None for _, s in detailed)

    def test_plain_batch_still_works_after_detailed(self, corpus):
        with make_service(corpus) as service:
            service.suggest_batch_detailed(QUERIES, 5)
            answers = service.suggest_batch(QUERIES, 5)
        assert [bool(a) for a in answers] == [True, True, True, False]


class TestWorkerStageAggregation:
    def test_pool_stage_timers_merge_into_parent(self, corpus):
        with make_service(corpus) as service:
            before = service.metrics().as_dict()["stages"]
            service.suggest_batch(
                ["icdt tre", "trie icde"], 5, workers=2
            )
            after = service.metrics().as_dict()["stages"]
        merged = after.get("merge", {}).get("count", 0) - before.get(
            "merge", {}
        ).get("count", 0)
        # Both unique queries ran in workers; their merge-stage
        # observations must appear in the parent registry.
        assert merged == 2
        assert after["tokenize"]["count"] >= 2
        assert after["merge"]["sum"] > before.get("merge", {}).get(
            "sum", 0.0
        )


class TestFlightRecorder:
    def test_requests_and_batches_are_recorded(self, corpus):
        with make_service(corpus) as service:
            service.suggest("icdt tre", 5)
            service.suggest_batch(QUERIES, 5, workers=2)
            recorder = service.flight_recorder
        entries = list(recorder.entries())
        assert [e.trace.name for e in entries] == ["request", "batch"]
        assert entries[0].query == "icdt tre"
        assert entries[1].latency_s == pytest.approx(
            entries[1].trace.duration
        )

    def test_degraded_batch_is_notable(self, corpus):
        with make_service(corpus) as service:
            service.close()
            service.suggest_batch(["icdt tre"], 5, workers=2)
            recorder = service.flight_recorder
        entry = recorder.notable_entries()[0]
        assert entry.degraded is True

    def test_shed_request_records_error_flag(self, corpus):
        with make_service(corpus, max_pending=1) as service:
            service._inflight = 1  # saturate admission control
            with pytest.raises(Overloaded):
                service.suggest("icdt tre", 5)
            service._inflight = 0
            recorder = service.flight_recorder
        entry = recorder.notable_entries()[0]
        assert entry.error == "Overloaded"
        assert entry.trace.attributes["error"] == "Overloaded"

    def test_breaker_open_auto_dumps(self, corpus, tmp_path):
        path = tmp_path / "flight.jsonl"
        with make_service(
            corpus,
            flight_record_path=str(path),
            breaker_threshold=2,
        ) as service:
            service.suggest("icdt tre", 5)
            service.breaker.record_failure()
            assert not path.exists()
            service.breaker.record_failure()  # threshold -> open
        assert path.exists()
        lines = path.read_text().strip().splitlines()
        envelope = json.loads(lines[0])
        assert envelope["reason"] == "breaker_open"
        assert envelope["retained"] == 1

    def test_dump_on_demand_returns_payload_or_path(
        self, corpus, tmp_path
    ):
        with make_service(corpus) as service:
            service.suggest("icdt tre", 5)
            payload = service.dump_flight_record()
            assert json.loads(payload.splitlines()[0])[
                "flight_record"
            ]
            path = tmp_path / "dump.jsonl"
            assert service.dump_flight_record(str(path)) == str(path)
            assert path.exists()

    def test_dump_without_recorder_raises(self, corpus):
        with SuggestionService(
            corpus, config=XCleanConfig(max_errors=2)
        ) as service:
            with pytest.raises(ConfigurationError):
                service.dump_flight_record()

    def test_explicit_recorder_without_tracer_is_kept(self, corpus):
        recorder = FlightRecorder(capacity=4)
        with SuggestionService(
            corpus,
            config=XCleanConfig(max_errors=2),
            flight_recorder=recorder,
        ) as service:
            assert service.flight_recorder is recorder
            service.suggest("icdt tre", 5)
        # No tracer -> nothing recorded, but dumping works.
        assert len(recorder) == 0
        assert service.dump_flight_record().startswith("{")

    def test_slow_threshold_flags_entries(self, corpus):
        with make_service(
            corpus, slow_threshold=0.0
        ) as service:  # everything is "slow"
            service.suggest("icdt tre", 5)
            recorder = service.flight_recorder
        assert recorder.notable_entries()[0].slow is True


class TestPoolTaskClock:
    """The pool.task span anchors on wall clock but measures duration
    monotonically — a wall-clock step between submit and absorb (NTP
    slew, DST, a VM resume) must not produce an hours-long span."""

    def test_duration_ignores_wall_clock_steps(self, corpus):
        import time as real_time
        from time import perf_counter

        from repro.core.suggestion import CleaningStats
        from repro.obs.trace import Span

        with make_service(corpus) as service:
            # Simulate: the wall clock stepped forward a full hour
            # after submission, while only ~0.2 monotonic seconds of
            # real work elapsed.
            submitted_at = real_time.time() - 3600.0
            submitted_perf = perf_counter() - 0.2
            worker_span = Span(
                "worker", start=submitted_at, duration=0.05
            )
            answer = (
                [],
                CleaningStats(),
                {"timings": [], "span": worker_span},
            )
            with Context.request(
                service.metrics_registry, service.tracer, "request"
            ) as ctx:
                result = service._absorb_worker_answer(
                    ("icdt tre", 5, None), answer,
                    submitted_at, submitted_perf, ctx,
                )
            root = ctx.root
            assert result == ([], answer[1])
            task_span = root.find("pool.task")
            assert task_span is not None
            # Start stays on the wall-clock timeline...
            assert task_span.start == submitted_at
            # ...but the duration is monotonic elapsed time, not the
            # hour the wall clock claims passed.
            assert 0.05 <= task_span.duration < 10.0

    def test_duration_at_least_covers_worker_span(self, corpus):
        from time import perf_counter

        import time as real_time

        from repro.core.suggestion import CleaningStats
        from repro.obs.trace import Span

        with make_service(corpus) as service:
            submitted_at = real_time.time()
            submitted_perf = perf_counter()
            # Worker claims more time than the parent measured (its
            # perf_counter is a different clock domain): the span must
            # still contain its child.
            worker_span = Span(
                "worker", start=submitted_at, duration=123.0
            )
            answer = (
                [], CleaningStats(), {"timings": [], "span": worker_span}
            )
            with Context.request(
                service.metrics_registry, service.tracer, "request"
            ) as ctx:
                service._absorb_worker_answer(
                    ("icdt tre", 5, None), answer,
                    submitted_at, submitted_perf, ctx,
                )
            root = ctx.root
            task_span = root.find("pool.task")
            assert task_span.duration >= 123.0
            assert task_span.children == [worker_span]

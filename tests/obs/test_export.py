"""Tests for export formats: Prometheus text, JSONL, Chrome traces."""

import json

from repro.obs import MetricsRegistry
from repro.obs.export import (
    chrome_trace,
    trace_from_json_line,
    trace_to_json_line,
    validate_chrome_trace,
)
from repro.obs.trace import Span, Tracer


class TestPrometheusText:
    def test_label_escaping(self):
        registry = MetricsRegistry()
        registry.inc("odd_total", q='say "hi"\\now')
        text = registry.to_prometheus()
        assert 'q="say \\"hi\\"\\\\now"' in text

    def test_histogram_ends_with_inf_bucket(self):
        registry = MetricsRegistry()
        registry.stage_histogram("merge").observe(0.002)
        registry.stage_histogram("merge").observe(99.0)  # beyond every bound
        text = registry.to_prometheus()
        inf_line = next(
            line for line in text.splitlines()
            if line.startswith("xclean_stage_seconds_bucket")
            and 'le="+Inf"' in line
        )
        # +Inf is cumulative over everything, overflow included.
        assert inf_line.endswith(" 2")
        assert 'xclean_stage_seconds_count{stage="merge"} 2' in text

    def test_bucket_series_is_monotonic(self):
        registry = MetricsRegistry()
        for value in (0.00001, 0.003, 0.04, 2.0, 50.0):
            registry.observe("request_seconds", value)
        text = registry.to_prometheus()
        counts = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("xclean_request_seconds_bucket")
        ]
        assert counts == sorted(counts)
        assert counts[-1] == 5  # +Inf bucket equals count

    def test_newline_and_backslash_escaping(self):
        registry = MetricsRegistry()
        registry.inc("odd_total", q="line1\nline2", p="a\\b")
        text = registry.to_prometheus()
        assert 'q="line1\\nline2"' in text
        assert 'p="a\\\\b"' in text
        # The exposition format is line-oriented: a raw newline in a
        # label value would split one sample into two garbage lines.
        for line in text.splitlines():
            assert "line2" not in line or "line1" in line

    def test_type_emitted_once_per_family_with_label_sets(self):
        registry = MetricsRegistry()
        registry.inc("queries_total", outcome="served")
        registry.inc("queries_total", outcome="shed")
        registry.inc("other_total")
        registry.inc("queries_total", outcome="error")
        text = registry.to_prometheus()
        type_lines = [
            line for line in text.splitlines()
            if line.startswith("# TYPE xclean_queries_total ")
        ]
        assert len(type_lines) == 1

    def test_family_samples_are_contiguous(self):
        # Interleave two counter families' series creation; the
        # export must still group each family into one block.
        registry = MetricsRegistry()
        registry.inc("a_total", x="1")
        registry.inc("b_total")
        registry.inc("a_total", x="2")
        text = registry.to_prometheus()
        owners = [
            line.split("{")[0].split(" ")[0]
            for line in text.splitlines()
            if not line.startswith("#")
        ]
        seen, last = set(), None
        for owner in owners:
            if owner != last:
                assert owner not in seen, f"{owner} split into blocks"
                seen.add(owner)
                last = owner

    def test_gauges_export_with_gauge_type(self):
        registry = MetricsRegistry()
        registry.set_gauge("proc_threads", 4)
        registry.set_gauge("slo_availability", 0.999, window="1m")
        text = registry.to_prometheus()
        assert "# TYPE xclean_proc_threads gauge" in text
        assert "xclean_proc_threads 4" in text
        assert 'xclean_slo_availability{window="1m"} 0.999' in text

    def test_promtext_lint(self):
        """Every exported line satisfies the exposition grammar."""
        import re

        sample = re.compile(
            r"^[a-zA-Z_:][a-zA-Z0-9_:]*"          # metric name
            r"(\{[a-zA-Z_][a-zA-Z0-9_]*="          # first label
            r"\"(?:[^\"\\\n]|\\\\|\\\"|\\n)*\""    # escaped value
            r"(,[a-zA-Z_][a-zA-Z0-9_]*="
            r"\"(?:[^\"\\\n]|\\\\|\\\"|\\n)*\")*"
            r"\})?"
            r" (?:[0-9.eE+-]+|\+Inf|-Inf|NaN)$"    # value
        )
        registry = MetricsRegistry()
        registry.inc("queries_total", outcome="served")
        registry.inc("odd_total", q='say "hi"\\now\nnext')
        registry.set_gauge("slo_availability", 1.0, window="1m")
        registry.stage_histogram("merge").observe(0.004)
        text = registry.to_prometheus()
        assert text.endswith("\n")
        families_seen = set()
        current_family = None
        for line in text.splitlines():
            if line.startswith("# TYPE "):
                _, _, name, kind = line.split(" ", 3)
                assert kind in ("counter", "gauge", "histogram")
                assert name not in families_seen
                families_seen.add(name)
                current_family = name
            elif line.startswith("# HELP "):
                continue
            else:
                assert sample.match(line), f"bad sample line: {line!r}"
                assert current_family is not None
                assert line.startswith(current_family)

    def test_counter_monotonicity_across_snapshots(self):
        registry = MetricsRegistry()
        values = []
        for _ in range(3):
            registry.inc("queries_total", 2)
            snapshot = registry.snapshot().as_dict()
            values.append(snapshot["counters"]["queries_total"])
        assert values == [2, 4, 6]
        assert all(b >= a for a, b in zip(values, values[1:]))


def _sample_trace() -> Span:
    tracer = Tracer()
    tracer.begin("request", query="q")
    with tracer.span("merge", groups=2):
        tracer.event("accumulator_evict", candidate="x y")
    tracer.end()
    return tracer.last_trace


class TestJsonlRoundTrip:
    def test_single_line(self):
        line = trace_to_json_line(_sample_trace())
        assert "\n" not in line
        json.loads(line)

    def test_round_trip_preserves_tree(self):
        root = _sample_trace()
        clone = trace_from_json_line(trace_to_json_line(root))
        assert clone.as_dict() == root.as_dict()
        assert clone.find("merge").events == root.find("merge").events


class TestChromeTrace:
    def test_spans_become_complete_events(self):
        root = _sample_trace()
        data = chrome_trace(root)
        complete = [
            e for e in data["traceEvents"] if e["ph"] == "X"
        ]
        instants = [
            e for e in data["traceEvents"] if e["ph"] == "i"
        ]
        assert {e["name"] for e in complete} == {"request", "merge"}
        assert [e["name"] for e in instants] == ["accumulator_evict"]
        assert all(e["ts"] >= 0 for e in data["traceEvents"])

    def test_timestamps_relative_to_earliest_root(self):
        early = Span("a", start=10.0, duration=0.001)
        late = Span("b", start=11.0, duration=0.001)
        data = chrome_trace([late, early])
        by_name = {e["name"]: e for e in data["traceEvents"]}
        assert by_name["a"]["ts"] == 0.0
        assert by_name["b"]["ts"] == 1e6  # one second, in us

    def test_worker_pid_becomes_track(self):
        root = Span("batch", start=1.0, duration=0.01)
        worker = Span(
            "worker", start=1.001, duration=0.005,
            attributes={"pid": 4242},
        )
        worker.children.append(Span("merge", start=1.002))
        root.children.append(worker)
        data = chrome_trace(root)
        by_name = {e["name"]: e for e in data["traceEvents"]}
        assert by_name["batch"]["tid"] == 1
        assert by_name["worker"]["tid"] == 4242
        # Children inherit the worker's track.
        assert by_name["merge"]["tid"] == 4242

    def test_non_scalar_args_are_stringified(self):
        root = Span(
            "request", start=1.0,
            attributes={"tokens": ("a", "b"), "k": 5},
        )
        data = chrome_trace(root)
        args = data["traceEvents"][0]["args"]
        assert args["tokens"] == "('a', 'b')"
        assert args["k"] == 5
        json.dumps(data)  # fully serializable

    def test_empty_input(self):
        data = chrome_trace([])
        assert data["traceEvents"] == []
        assert validate_chrome_trace(data) == []


class TestValidateChromeTrace:
    def test_valid_export_has_no_problems(self):
        assert validate_chrome_trace(chrome_trace(_sample_trace())) == []

    def test_missing_trace_events(self):
        assert validate_chrome_trace({}) == [
            "traceEvents missing or not a list"
        ]

    def test_missing_required_fields(self):
        problems = validate_chrome_trace(
            {"traceEvents": [{"name": "x", "ph": "X"}]}
        )
        assert len(problems) == 1
        assert "missing" in problems[0]

    def test_negative_ts_and_missing_dur(self):
        event = {
            "name": "x", "cat": "c", "ph": "X",
            "ts": -1.0, "pid": 1, "tid": 1,
        }
        problems = validate_chrome_trace({"traceEvents": [event]})
        assert any("non-negative number" in p for p in problems)
        assert any("needs" in p for p in problems)

    def test_non_object_event(self):
        problems = validate_chrome_trace({"traceEvents": ["nope"]})
        assert problems == ["event 0: not an object"]

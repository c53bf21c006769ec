"""Tests for the observability package (registry, export formats)."""

import json

import pytest

from repro.obs import (
    NULL_METRICS,
    Context,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_inc_defaults_to_one(self):
        registry = MetricsRegistry()
        registry.inc("queries_total")
        registry.inc("queries_total", 2.0)
        assert registry.counter("queries_total").value == 3.0

    def test_get_or_create_is_stable(self):
        registry = MetricsRegistry()
        first = registry.counter("a_total")
        second = registry.counter("a_total")
        assert first is second

    def test_labels_split_series(self):
        registry = MetricsRegistry()
        registry.inc("hits_total", layer="variant")
        registry.inc("hits_total", layer="merged")
        registry.inc("hits_total", layer="merged")
        assert registry.counter("hits_total", layer="variant").value == 1
        assert registry.counter("hits_total", layer="merged").value == 2


class TestHistogram:
    def test_bucket_counts_are_cumulative(self):
        h = Histogram("lat", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 5.0, 50.0):
            h.observe(value)
        assert h.counts == [1, 2, 3]
        assert h.count == 4
        assert h.sum == pytest.approx(55.55)

    def test_quantiles_use_bucket_bounds(self):
        h = Histogram("lat", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.05, 0.05, 5.0):
            h.observe(value)
        assert h.quantile(0.50) == 0.1
        assert h.quantile(0.95) == 10.0

    def test_overflow_quantile_is_inf(self):
        h = Histogram("lat", buckets=(0.1,))
        h.observe(5.0)
        assert h.quantile(0.5) == float("inf")

    def test_empty_quantile_is_zero(self):
        h = Histogram("lat")
        assert h.quantile(0.99) == 0.0

    def test_quantile_validation(self):
        h = Histogram("lat")
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_summary_shape(self):
        h = Histogram("lat", buckets=(1.0,))
        h.observe(0.5)
        summary = h.summary()
        assert summary["count"] == 1
        assert summary["mean"] == pytest.approx(0.5)
        assert summary["p50"] == 1.0


class TestStageTimers:
    def test_stage_records_into_stage_histogram(self):
        registry = MetricsRegistry()
        with Context(registry).stage("merge") as stage:
            pass
        h = registry.histogram("stage_seconds", stage="merge")
        assert h.count == 1
        assert h.sum == stage.seconds >= 0.0

    def test_observe_stage_shortcut(self):
        # An aggregated stage records the time its owner summed by
        # hand, once, when it closes.
        registry = MetricsRegistry()
        with Context(registry).stage("score", aggregated=True) as stage:
            stage.seconds += 0.125
            stage.seconds += 0.125
        h = registry.histogram("stage_seconds", stage="score")
        assert h.count == 1
        assert h.sum == pytest.approx(0.25)


class TestSnapshotExport:
    def make_registry(self):
        registry = MetricsRegistry()
        registry.inc("queries_total", 3)
        registry.stage_histogram("tokenize").observe(0.0002)
        registry.stage_histogram("tokenize").observe(0.0004)
        registry.observe("request_seconds", 0.01)
        return registry

    def test_as_dict_has_stage_view(self):
        snapshot = self.make_registry().snapshot()
        data = snapshot.as_dict()
        assert data["counters"]["queries_total"] == 3
        assert data["stages"]["tokenize"]["count"] == 2
        assert data["histograms"]["request_seconds"]["count"] == 1

    def test_to_json_round_trips(self):
        text = self.make_registry().to_json()
        data = json.loads(text)
        assert data["namespace"] == "xclean"
        assert data["counters"]["queries_total"] == 3

    def test_snapshot_is_frozen_copy(self):
        registry = self.make_registry()
        snapshot = registry.snapshot()
        registry.inc("queries_total", 100)
        assert snapshot.as_dict()["counters"]["queries_total"] == 3

    def test_prometheus_format(self):
        text = self.make_registry().to_prometheus()
        assert "# TYPE xclean_queries_total counter" in text
        assert "xclean_queries_total 3" in text
        assert "# TYPE xclean_stage_seconds histogram" in text
        assert (
            'xclean_stage_seconds_bucket{stage="tokenize",le="+Inf"} 2'
            in text
        )
        assert 'xclean_stage_seconds_count{stage="tokenize"} 2' in text
        # One TYPE header per family, not per labeled series.
        assert text.count("# TYPE xclean_stage_seconds histogram") == 1
        assert text.endswith("\n")

    def test_prometheus_escapes_label_values(self):
        registry = MetricsRegistry()
        registry.inc("odd_total", stage='we"ird\\')
        text = registry.to_prometheus()
        assert 'stage="we\\"ird\\\\"' in text


class TestNullMetrics:
    def test_disabled_flag(self):
        assert NULL_METRICS.enabled is False

    def test_all_hooks_are_noops(self):
        NULL_METRICS.inc("a_total")
        NULL_METRICS.observe("b_seconds", 1.0)
        NULL_METRICS.counter("a_total").inc()
        NULL_METRICS.histogram("b_seconds").observe(1.0)
        with Context(NULL_METRICS).stage("merge"):
            pass
        assert NULL_METRICS.snapshot().as_dict()["counters"] == {}

    def test_exports_are_empty(self):
        assert json.loads(NULL_METRICS.to_json())["counters"] == {}
        assert NULL_METRICS.to_prometheus() == ""

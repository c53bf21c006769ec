"""Tests for the benchmark regression gate (benchmarks/compare.py).

``benchmarks/`` is not a package, so the module is loaded straight
from its file path.  Tests build tiny baseline/candidate directories
and check the verdict matrix: ok, regression (both directions),
skipped (scale mismatch, missing baseline), missing candidate value.
"""

import importlib.util
import json
import os

import pytest

_COMPARE_PATH = os.path.join(
    os.path.dirname(__file__), "..", "..", "benchmarks", "compare.py"
)


def _load_compare():
    spec = importlib.util.spec_from_file_location(
        "bench_compare", os.path.abspath(_COMPARE_PATH)
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


compare = _load_compare()


def write_bench(directory, name, payload):
    path = directory / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def hotpath(merge_ms, scale="default"):
    return {"scale": scale, "merge": {"merge_only_ms_per_query": merge_ms}}


def load_bench(p99, scale="default"):
    return {"scale": scale, "open_loop": {"p99_ms": p99}}


def update_bench(p50, scale="small"):
    return {"scale": scale, "ack": {"ack_p50_ms": p50}}


@pytest.fixture
def dirs(tmp_path):
    baseline = tmp_path / "baseline"
    candidate = tmp_path / "candidate"
    baseline.mkdir()
    candidate.mkdir()
    return baseline, candidate


class TestDig:
    def test_walks_nested_keys(self):
        assert compare.dig({"a": {"b": {"c": 3}}}, "a.b.c") == 3

    def test_missing_key_is_none(self):
        assert compare.dig({"a": {}}, "a.b.c") is None

    def test_non_dict_intermediate_is_none(self):
        assert compare.dig({"a": 5}, "a.b") is None


class TestCompareDirs:
    def test_identical_results_are_ok(self, dirs):
        baseline, candidate = dirs
        for directory in dirs:
            write_bench(directory, "BENCH_hotpath.json", hotpath(0.2))
            write_bench(directory, "BENCH_load.json", load_bench(9.0))
            write_bench(
                directory, "BENCH_update.json", update_bench(4.0)
            )
        report = compare.compare_dirs(str(baseline), str(candidate))
        assert report["regressions"] == []
        assert {r["status"] for r in report["results"]} == {"ok"}

    def test_higher_is_better_regression(self):
        # No committed headline is higher-is-better today; the
        # direction is still honoured metric by metric.
        entry = compare.compare_metric(
            {"scale": "default", "speedup": 20.0},
            {"scale": "default", "speedup": 12.0},
            "speedup",
            "higher",
            "default",
            compare.DEFAULT_THRESHOLD,
        )
        assert entry["status"] == "regression"
        assert entry["ratio"] == pytest.approx(0.6)

    def test_merge_only_time_regression(self, dirs):
        baseline, candidate = dirs
        write_bench(baseline, "BENCH_hotpath.json", hotpath(0.20))
        # 40% more merge-only time per query.
        write_bench(candidate, "BENCH_hotpath.json", hotpath(0.28))
        report = compare.compare_dirs(str(baseline), str(candidate))
        (bad,) = report["regressions"]
        assert bad["metric"] == "merge.merge_only_ms_per_query"
        assert bad["ratio"] == pytest.approx(1.4)

    def test_lower_is_better_regression(self, dirs):
        baseline, candidate = dirs
        write_bench(baseline, "BENCH_load.json", load_bench(10.0))
        write_bench(candidate, "BENCH_load.json", load_bench(13.0))
        report = compare.compare_dirs(str(baseline), str(candidate))
        (bad,) = report["regressions"]
        assert bad["metric"] == "open_loop.p99_ms"
        assert bad["ratio"] == pytest.approx(1.3)

    def test_within_threshold_noise_is_ok(self, dirs):
        baseline, candidate = dirs
        write_bench(baseline, "BENCH_load.json", load_bench(10.0))
        write_bench(candidate, "BENCH_load.json", load_bench(11.0))
        report = compare.compare_dirs(str(baseline), str(candidate))
        assert report["regressions"] == []

    def test_custom_threshold(self, dirs):
        baseline, candidate = dirs
        write_bench(baseline, "BENCH_load.json", load_bench(10.0))
        write_bench(candidate, "BENCH_load.json", load_bench(11.0))
        report = compare.compare_dirs(
            str(baseline), str(candidate), threshold=0.05
        )
        assert len(report["regressions"]) == 1

    def test_scale_mismatch_is_skipped_not_failed(self, dirs):
        baseline, candidate = dirs
        write_bench(baseline, "BENCH_load.json", load_bench(10.0))
        write_bench(
            candidate, "BENCH_load.json",
            load_bench(99.0, scale="small"),
        )
        report = compare.compare_dirs(str(baseline), str(candidate))
        assert report["regressions"] == []
        statuses = {
            r["status"] for r in report["results"]
            if r["file"] == "BENCH_load.json"
        }
        assert statuses == {"skipped"}

    def test_missing_baseline_file_is_skipped(self, dirs):
        baseline, candidate = dirs
        write_bench(candidate, "BENCH_load.json", load_bench(10.0))
        report = compare.compare_dirs(str(baseline), str(candidate))
        assert report["regressions"] == []

    def test_missing_candidate_value_is_missing(self, dirs):
        baseline, candidate = dirs
        write_bench(baseline, "BENCH_load.json", load_bench(10.0))
        write_bench(
            candidate, "BENCH_load.json",
            {"scale": "default", "open_loop": {}},
        )
        report = compare.compare_dirs(str(baseline), str(candidate))
        statuses = {
            r["status"] for r in report["results"]
            if r["file"] == "BENCH_load.json"
        }
        assert statuses == {"missing"}


class TestMain:
    def _populate(self, dirs, candidate_p99):
        baseline, candidate = dirs
        write_bench(baseline, "BENCH_load.json", load_bench(10.0))
        write_bench(
            candidate, "BENCH_load.json", load_bench(candidate_p99)
        )
        return baseline, candidate

    def test_exit_zero_when_clean(self, dirs, capsys):
        baseline, candidate = self._populate(dirs, 10.0)
        code = compare.main(
            ["--baseline", str(baseline), "--candidate", str(candidate)]
        )
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_exit_one_on_regression(self, dirs, capsys):
        baseline, candidate = self._populate(dirs, 20.0)
        code = compare.main(
            ["--baseline", str(baseline), "--candidate", str(candidate)]
        )
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_out_writes_json_artifact(self, dirs, tmp_path):
        baseline, candidate = self._populate(dirs, 10.0)
        out = tmp_path / "diff.json"
        compare.main(
            [
                "--baseline", str(baseline),
                "--candidate", str(candidate),
                "--out", str(out),
            ]
        )
        artifact = json.loads(out.read_text(encoding="utf-8"))
        assert artifact["threshold"] == 0.15
        assert artifact["results"]

    def test_committed_baseline_self_diffs_clean(self, capsys):
        out_dir = os.path.abspath(
            os.path.join(
                os.path.dirname(_COMPARE_PATH), "out"
            )
        )
        code = compare.main(
            ["--baseline", out_dir, "--candidate", out_dir]
        )
        assert code == 0

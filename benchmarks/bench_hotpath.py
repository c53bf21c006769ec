"""Hot-path benchmark — the merge kernel and batch serving, absolute.

Measures, on the synthetic DBLP dataset:

* single-query latency of ``XCleanSuggester.suggest`` with warm
  variant/merged-list caches — queries/sec, p50/p95 latency, and
  postings consumed per second;
* **merge-only time per query** of Algorithm 1's live merge loop
  (galloping intersection + in-loop γ-pruning) over memoized merged
  columns, isolated via the stage metrics: the ``merge`` stage covers
  the whole loop and ``score`` is observed from inside it, so
  ``merge - score`` is exactly the anchor scans, skips, group drains
  and entry materialization;
* batch throughput of ``SuggestionService.suggest_batch`` (result
  cache on) over a trace that repeats each workload query
  ``TRACE_REPEATS`` times in a shuffled order, the usual shape of a
  production query log (head queries recur).

Before timing anything, every workload query is checked on four runs
of the merge loop — cold, over memoized columns, ``kernel_pruning=False``
and ``use_skipping=False`` — which must return byte-identical top-k,
and against the ``NaiveCleaner`` oracle at γ=None (relative 1e-9).

The figures are absolute; ``benchmarks/compare.py`` gates
``merge.merge_only_ms_per_query`` against the committed baseline.
Results are emitted both as text (``out/hotpath.txt``) and as
machine-readable JSON (``out/BENCH_hotpath.json``).  Run as a script::

    PYTHONPATH=src python benchmarks/bench_hotpath.py --scale smoke

or through pytest (scale from ``REPRO_BENCH_SCALE``).
"""

import argparse
import json
import random
import sys
import time
from pathlib import Path

if __package__ is None or __package__ == "":
    sys.path.insert(0, str(Path(__file__).parent))

from _common import OUT_DIR, bench_scale, emit

from repro.core.naive import NaiveCleaner
from repro.core.server import SuggestionService
from repro.eval.experiments import dblp_setting
from repro.eval.reporting import format_table, shape_check
from repro.obs.metrics import MetricsRegistry

#: Timed passes over the workload (latencies are pooled).
REPETITIONS = 3

#: How often each query recurs in the batch trace.
TRACE_REPEATS = 3


def percentile(values, fraction):
    ordered = sorted(values)
    index = min(len(ordered) - 1, round(fraction * (len(ordered) - 1)))
    return ordered[index]


def workload_queries(setting):
    return [
        record.dirty_text
        for kind in ("RAND", "RULE", "CLEAN")
        for record in setting.workloads[kind]
    ]


def rows_of(suggestions):
    return [(s.tokens, s.score, s.result_type) for s in suggestions]


def verify_outputs(setting, queries):
    """Cold == memo == unpruned == linear (byte-identical) on every
    workload query, and == ``NaiveCleaner`` at γ=None (1e-9).  Raises
    on any mismatch; returns the number of queries checked."""
    kernel = setting.xclean()
    variants = {
        "kernel_pruning=False": setting.xclean(kernel_pruning=False),
        "use_skipping=False": setting.xclean(use_skipping=False),
    }
    for query in queries:
        setting.corpus.bump_generation()  # cold: no memoized columns
        cold = rows_of(kernel.suggest(query, 10))
        runs = {"memo": rows_of(kernel.suggest(query, 10))}
        for label, suggester in variants.items():
            runs[label] = rows_of(suggester.suggest(query, 10))
        for label, rows in runs.items():
            if rows != cold:
                raise AssertionError(
                    f"{label} output differs from the cold kernel run "
                    f"for {query!r}"
                )
    unbounded = setting.xclean(gamma=None)
    oracle = NaiveCleaner(
        setting.corpus,
        generator=setting.generator.fresh_cache(),
        config=unbounded.config,
    )
    for query in queries:
        fast = unbounded.score_all(query)
        naive = {
            c: s for c, s in oracle.score_all(query).items() if s > 0
        }
        if set(fast) != set(naive):
            raise AssertionError(
                f"candidate set differs from NaiveCleaner for {query!r}"
            )
        for candidate, score in fast.items():
            want = naive[candidate]
            if abs(score - want) > 1e-9 * abs(want):
                raise AssertionError(
                    f"score drifted from NaiveCleaner for {query!r} "
                    f"{candidate}: {score} vs {want}"
                )
    return len(queries)


def bench_single(setting, queries):
    """Per-query latencies and postings/sec, warm caches."""
    suggester = setting.xclean()
    for query in queries:  # warm caches: variants, merged lists, types
        suggester.suggest(query, 10)
    latencies = []
    postings = 0
    clock = time.perf_counter
    for _ in range(REPETITIONS):
        for query in queries:
            began = clock()
            suggester.suggest(query, 10)
            latencies.append(clock() - began)
            postings += suggester.last_stats.postings_read
    elapsed = sum(latencies)
    return {
        "queries_per_sec": len(latencies) / elapsed,
        "mean_ms": 1e3 * elapsed / len(latencies),
        "p50_ms": 1e3 * percentile(latencies, 0.50),
        "p95_ms": 1e3 * percentile(latencies, 0.95),
        "postings_per_sec": postings / elapsed,
    }


def _stage_totals(registry):
    """Cumulative seconds per stage from a registry snapshot."""
    return {
        stage: summary["sum"]
        for stage, summary in registry.snapshot().as_dict()["stages"].items()
    }


def bench_merge(setting, queries):
    """Merge-only seconds of the live merge loop over the warm passes.

    The merged-columns memo is sized to the workload and every query is
    run once before timing, so the timed passes run the whole loop —
    anchors, skips, group drains — over memoized columns.
    """
    registry = MetricsRegistry()
    suggester = setting.xclean(
        merged_cache_size=max(64, 4 * len(queries))
    )
    suggester.metrics = registry
    for query in queries:  # warm: variants, columns, types
        suggester.suggest(query, 10)
    before = _stage_totals(registry)
    pruned = 0
    for _ in range(REPETITIONS):
        for query in queries:
            suggester.suggest(query, 10)
            pruned += suggester.last_stats.kernel_pruned
    after = _stage_totals(registry)
    merge_s = after.get("merge", 0.0) - before.get("merge", 0.0)
    score_s = after.get("score", 0.0) - before.get("score", 0.0)
    merge_only_s = merge_s - score_s
    return {
        "merge_stage_s": merge_s,
        "score_share_s": score_s,
        "merge_only_s": merge_only_s,
        "merge_only_ms_per_query": (
            1e3 * merge_only_s / (REPETITIONS * len(queries))
        ),
        "kernel_pruned": pruned,
    }


def bench_batch(setting, queries):
    """Batch throughput of the service over a repeating trace."""
    trace = queries * TRACE_REPEATS
    random.Random(7).shuffle(trace)
    service = SuggestionService(
        setting.corpus,
        config=setting.xclean().config,
        generator=setting.generator.fresh_cache(),
    )
    for query in queries:
        # Warm the variant/merged caches through the underlying
        # suggester without seeding the service's result cache.
        service.suggester.suggest(query, 10)
    began = time.perf_counter()
    service.suggest_batch(trace, 10)
    service_elapsed = time.perf_counter() - began
    return {
        "trace_queries": len(trace),
        "unique_queries": len(set(trace)),
        "service_queries_per_sec": len(trace) / service_elapsed,
        "result_cache_hits": service.stats.result_cache_hits,
        "result_cache_misses": service.stats.result_cache_misses,
    }


def run(scale):
    setting = dblp_setting("small" if scale == "smoke" else scale)
    queries = workload_queries(setting)

    checked = verify_outputs(setting, queries)
    single = bench_single(setting, queries)
    merge = bench_merge(setting, queries)
    batch = bench_batch(setting, queries)

    report = {
        "benchmark": "hotpath",
        "scale": scale,
        "dataset": "DBLP",
        "corpus": setting.corpus.describe(),
        "workload_queries": len(queries),
        "repetitions": REPETITIONS,
        "identical_outputs_checked": checked,
        "single": single,
        "merge": merge,
        "batch": batch,
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "BENCH_hotpath.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )

    checks = [
        shape_check(
            f"cold, memo, unpruned and linear runs byte-identical, "
            f"NaiveCleaner within 1e-9 ({checked} queries)",
            checked == len(queries),
        ),
        shape_check(
            "result cache absorbed the repeated trace queries",
            batch["result_cache_hits"]
            >= (TRACE_REPEATS - 1) * batch["unique_queries"] * 0.9,
        ),
    ]
    emit(
        "hotpath",
        format_table(
            ("q/s", "mean ms", "p50 ms", "p95 ms", "postings/s"),
            [
                (
                    round(single["queries_per_sec"], 1),
                    single["mean_ms"],
                    single["p50_ms"],
                    single["p95_ms"],
                    round(single["postings_per_sec"]),
                )
            ],
            title=f"Hot path — single queries ({scale} scale)",
        )
        + "\n"
        + format_table(
            ("merge-only ms/query", "merge-only ms", "score ms"),
            [
                (
                    round(merge["merge_only_ms_per_query"], 4),
                    round(1e3 * merge["merge_only_s"], 2),
                    round(1e3 * merge["score_share_s"], 2),
                )
            ],
            title=(
                f"Merge stage — {REPETITIONS} warm passes, "
                f"{len(queries)} queries"
            ),
        )
        + "\n"
        + format_table(
            ("Serving mode", "q/s"),
            [
                ("service, batch", round(
                    batch["service_queries_per_sec"], 1)),
            ],
            title=(
                f"Batch trace — {batch['trace_queries']} queries, "
                f"{batch['unique_queries']} unique"
            ),
        )
        + "\n"
        + "\n".join(checks),
    )
    assert all("[OK ]" in check for check in checks)
    return report


def test_hotpath(benchmark):
    setting = dblp_setting(bench_scale())
    run(bench_scale())

    record = setting.workloads["RAND"][0]
    suggester = setting.xclean()
    benchmark.pedantic(
        lambda: suggester.suggest(record.dirty_text, 10),
        rounds=3,
        iterations=1,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Hot-path benchmark (merge loop, batch serving)"
    )
    parser.add_argument(
        "--scale",
        choices=("smoke", "small", "default"),
        default=bench_scale(),
    )
    args = parser.parse_args(argv)
    run(args.scale)
    return 0


if __name__ == "__main__":
    sys.exit(main())

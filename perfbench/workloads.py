"""The benchmark's workloads: set-up, timed passes, gates and metrics.

All three run in-process over the default bench corpus with the
``xclean serve`` defaults (epsilon=2, beta=5, gamma=1000, k=10, result
cache on).  Each is a closed loop driven by one load-generating thread.

``suggest-miss``
    In-process ``SuggestionService`` over the v3 snapshot; a seeded
    stream of distinct RAND+RULE misspelled queries.  Every query misses
    the result cache, so the engine does nearly all the work and
    ``net/`` none (measured shares of query time: variant_gen 53%,
    merge 28%, score 17%, type_infer 1%).  The control for every engine
    change.
``suggest-sharded``
    The same stream through ``ShardedSuggestionService`` over a 2-shard
    manifest with in-process scatter (``replicas=0``, what ``xclean
    serve`` does for a manifest).  Isolates the coordinator tax against
    suggest-miss: measured 7.7 ms/query against 5.3 ms single-index,
    98% of it in the per-shard legs because each shard repeats variant
    generation; the gather takes under 1%.
``update-mix``
    A single-index service after ``enable_live_updates``, one
    ``apply_updates`` of a seeded add/update/delete per 5 queries.  The
    query after an add or update misspells its new token; the others
    come from the suggest-miss stream.  Puts writes beside reads: each
    ack rebuilds the suggester (3.4 of ~4 ms measured) and resets read
    caches, slowing reads from 5.3 to 7.8 ms.

Dropped: ``http-zipf`` (``xclean serve`` in a child process, two
keep-alive connections, a Zipf(1.1) stream over 600 misspelled queries
with ~90% result-cache hits) was built and measured, then left out.
Over seeds 101-110 its spreads (quartile distance over median) were
18.7% for p50, 14.5% for p99 and 9.6% for throughput: its 0.5 ms
cache hits are mostly kernel and process-switch time, which the
interpreter-speed probe does not track.  ``net/`` and the result-cache
hit path stay unmeasured by this benchmark.

Layer -> metric -> workload (what each per-layer metric should move):

=====================  ===================================  ==============
layer                  per-layer metrics                    moves / on
=====================  ===================================  ==============
xmltree parser         xmltree.parse_s                      setup_s / all
index build/snapshot   index.build_s, snapshot_write_s,     setup_s / all,
                       snapshot_load_ms                     most: sharded
fastss                 fastss.variants_ms, .calls,          latency /
                       .cache_hit_ratio                     miss, sharded
index query path       index.merged_list_ms,                p50 / miss,
                       .merged_cache_hit_ratio              update-mix
core.cleaner           engine.self_ms + CleaningStats       p50, tput /
                       counts, engine.plan_cache_hit_ratio  miss
core.result_type       result_type.find_ms, .computed,      p99 / miss
                       .cache_hit_ratio
core.server            service.self_ms,                     p50 / all (the
                       .result_cache_hit_ratio              cache is missed)
core.shards            shards.legs, .leg_ms, .gather_ms,    p50, tput /
                       .rows_per_leg                        sharded only
live updates           live.wal_append_ms, .delta_apply_ms, update-mix
                       .overlay_refresh_ms, .install_ms,    only
                       live.update_p50_ms, .update_p95_ms
load generator         client.cpu_ms, probe.overhead_ratio  none
=====================  ===================================  ==============

A layer a workload does not exercise reports 0 there.

Correctness gates (any failure fails the run):

* the engine's per-operation counts (``CleaningStats``) repeat exactly
  on a fresh service: the first 100 operations after the same warm-up,
  or the whole stream in the traced run, whose answers must also be
  byte-identical to the untraced ones;
* suggest-miss and suggest-sharded: every suggestion for 120 sampled
  queries has at least one result through ``EntitySearch`` (the
  paper's guarantee; a search costs ~4.5 ms, too much for all);
* suggest-sharded: the top-k of 300 sampled queries is byte-identical
  to a single-index service's;
* update-mix: every add or update is suggested by the very next query.
"""

from __future__ import annotations

import ctypes
import gc
import json
import os
import random
import shutil
from dataclasses import dataclass
from time import perf_counter

from repro.core.cleaner import XCleanSuggester
from repro.core.config import XCleanConfig
from repro.core.result_type import ResultTypeFinder
from repro.core.search import EntitySearch
from repro.core.server import SuggestionService
from repro.core.shards import ShardedSuggestionService
from repro.eval.metrics import reciprocal_rank
from repro.exceptions import Overloaded
from repro.fastss.generator import VariantGenerator
from repro.index import compaction as compaction_module
from repro.index.corpus import QueryEngineMixin, build_corpus_index
from repro.index.delta import (
    DeltaOverlayCorpus,
    DeltaSegment,
    OverlayVariantGenerator,
)
from repro.index.sharding import build_sharded_snapshot
from repro.index.snapshot import build_snapshot, load_snapshot
from repro.index.wal import WriteAheadLog
from repro.xmltree.document import XMLDocument

import inputs
import timing
import tracing

#: The ``xclean serve`` defaults.
CONFIG = XCleanConfig(max_errors=2, beta=5.0, gamma=1000)
K = 10

#: Set-ups per run; set-up time is their median.  Two, not more, to
#: keep a run of every workload inside the benchmark's time budget.
SETUP_REPEATS = 2
#: Operations between speed probes (in-process workloads).
PROBE_EVERY = 4
#: Untimed queries before each timed pass.
WARMUP_QUERIES = 40
#: Leading operations replayed on a fresh service (determinism gate).
REPLAY_OPS = 100
#: Timed queries whose suggestions are run through EntitySearch.
VALIDITY_QUERIES = 120
#: Timed queries answered again by the single-index reference.
REFERENCE_QUERIES = 300
#: p99 needs 10 samples beyond it; p95 of updates likewise.
MIN_QUERIES = 1000
MIN_UPDATES = 200
#: Queries per update on update-mix.
QUERIES_PER_UPDATE = 5

#: CleaningStats counters that must repeat exactly for one seed.
ENGINE_COUNTS = (
    "groups_processed", "candidates_evaluated", "entities_scored",
    "postings_read", "postings_skipped", "kernel_pruned",
    "result_types_computed", "result_type_cache_hits",
    "result_type_cache_misses", "variant_cache_hits",
    "variant_cache_misses", "merged_cache_hits", "merged_cache_misses",
    "intersection_cache_hits", "intersection_cache_misses",
    "result_cache_hits", "result_cache_misses",
)

#: Per-layer metrics every traced run reports.
LAYER_METRICS = {
    "xmltree.parse_s": "s",
    "index.build_s": "s",
    "index.snapshot_write_s": "s",
    "index.snapshot_load_ms": "ms",
    "fastss.variants_ms": "ms",
    "fastss.calls": "count",
    "fastss.cache_hit_ratio": "1",
    "index.merged_list_ms": "ms",
    "index.merged_cache_hit_ratio": "1",
    "engine.self_ms": "ms",
    "engine.groups_processed": "count",
    "engine.candidates_evaluated": "count",
    "engine.entities_scored": "count",
    "engine.postings_read": "count",
    "engine.postings_skipped": "count",
    "engine.kernel_pruned": "count",
    "engine.plan_cache_hit_ratio": "1",
    "result_type.find_ms": "ms",
    "result_type.cache_hit_ratio": "1",
    "result_type.computed": "count",
    "service.self_ms": "ms",
    "service.result_cache_hit_ratio": "1",
    "shards.legs": "count",
    "shards.leg_ms": "ms",
    "shards.gather_ms": "ms",
    "shards.rows_per_leg": "count",
    "live.wal_append_ms": "ms",
    "live.delta_apply_ms": "ms",
    "live.overlay_refresh_ms": "ms",
    "live.install_ms": "ms",
    "live.update_p50_ms": "ms",
    "live.update_p95_ms": "ms",
    "client.cpu_ms": "ms",
    "probe.overhead_ratio": "1",
    "residual_ms": "ms",
    "trace.overhead_ratio": "1",
}

END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "throughput_ops": "1/s",
    "ok_ratio": "1",
    "mrr": "1",
    "rss_peak_mb": "MiB",
}


# ----------------------------------------------------------------------
# Process memory
# ----------------------------------------------------------------------

try:
    _LIBC = ctypes.CDLL("libc.so.6")
    _LIBC.malloc_trim.argtypes = [ctypes.c_size_t]
    _LIBC.malloc_trim.restype = ctypes.c_int
except (OSError, AttributeError):
    _LIBC = None

def reset_peak_rss() -> None:
    """Reset this process's RSS high-water mark to its current RSS.

    Freed heap pages are first handed back to the kernel (glibc
    ``malloc_trim``), so memory the set-up used and freed does not
    count as serving memory.
    """
    if _LIBC is not None:
        _LIBC.malloc_trim(0)
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def peak_rss_mb() -> float:
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


# ----------------------------------------------------------------------
# Answers and gates
# ----------------------------------------------------------------------

def classify(error: BaseException) -> str:
    """The failure kind of an operation that raised."""
    if isinstance(error, Overloaded):
        return "shed"
    if isinstance(error, TimeoutError):
        return "timeout"
    return "error"


def canonical(suggestions) -> bytes:
    """One top-k as bytes: equal bytes mean a byte-identical answer."""
    return json.dumps(
        [[list(s.tokens), s.score, s.result_type] for s in suggestions]
    ).encode()


def engine_counts(stats) -> tuple:
    return tuple(getattr(stats, name) for name in ENGINE_COUNTS)


def compare_counts(first: list, second: list, what: str) -> list:
    """Problems where two passes disagree on per-operation counts."""
    for op, (a, b) in enumerate(zip(first, second)):
        if a != b:
            return [f"{what}: engine counts differ at op {op}: {a} vs {b}"]
    return []


def compare_answers(answers: dict, reference: dict, what: str) -> list:
    """Problems where ``answers`` and ``reference`` differ (op -> bytes)."""
    bad = [op for op in reference if answers.get(op) != reference[op]]
    if not bad:
        return []
    return [f"{what}: {len(bad)} answers differ, first at op {bad[0]}"]


def check_valid(search: EntitySearch, answers: dict) -> list:
    """The paper's guarantee: every suggestion has >= 1 result."""
    empty = [
        (op, s.text) for op, suggestions in answers.items()
        for s in suggestions if not search.search(s.text, 1)
    ]
    if not empty:
        return []
    return [f"{len(empty)} suggestions have no results, e.g. {empty[0]}"]


# ----------------------------------------------------------------------
# Timed passes
# ----------------------------------------------------------------------

@dataclass
class Pass:
    ops: list
    clock: timing.ProbedClock
    #: One ``(outcome, answer)`` per op; a query's answer is
    #: ``(suggestions, stats)``, an update's the records applied.
    results: list
    rss_peak_mb: float
    spans: list | None = None

    def query_answers(self) -> dict:
        return {
            op: answer[0]
            for op, ((kind, _), (outcome, answer))
            in enumerate(zip(self.ops, self.results))
            if kind == "query" and outcome == "ok"
        }

    def counts(self) -> list:
        return [
            engine_counts(answer[1]) if kind == "query" and outcome == "ok"
            else (outcome, answer if outcome == "ok" else None)
            for (kind, _), (outcome, answer) in zip(self.ops, self.results)
        ]

    def factors(self) -> dict:
        clock = self.clock
        return {
            op: timing.REFERENCE_PROBE_S / clock.speed(i)
            for op, (_, i, _) in enumerate(clock.samples)
        }


def setup_layers(setups: list) -> dict:
    """Every per-layer metric at 0, but the set-up stages' medians."""
    out = dict.fromkeys(LAYER_METRICS, 0.0)
    for name, label, scale in (
        ("xmltree.parse_s", "parse", 1.0),
        ("index.build_s", "build", 1.0),
        ("index.snapshot_write_s", "snapshot_write", 1.0),
        ("index.snapshot_load_ms", "load", 1e3),
    ):
        values = [stages[label][0] for stages in setups if label in stages]
        if values:
            out[name] = scale * timing.median(values)
    return out


def warm(service, queries) -> None:
    for record in queries:
        service.suggest_detailed(record.dirty_text, K)


def in_process_pass(service, ops, recorder=None) -> Pass:
    """Drive ``ops`` through ``service`` one at a time, timed."""
    clock = timing.ProbedClock()
    results = []
    gc.collect()
    reset_peak_rss()
    clock.probe()
    for op, (kind, item) in enumerate(ops):
        if op and op % PROBE_EVERY == 0:
            clock.probe()
        if recorder is not None:
            recorder.op = op
        began = perf_counter()
        try:
            if kind == "query":
                answer = service.suggest_detailed(item.dirty_text, K)
            else:
                answer = service.apply_updates([item.record])
            outcome = "ok"
        except Exception as error:  # noqa: BLE001 - counted, reported
            answer, outcome = repr(error), classify(error)
        clock.record(perf_counter() - began, kind)
        results.append((outcome, answer))
    clock.probe()
    if recorder is not None:
        recorder.op = None
    return Pass(ops, clock, results, peak_rss_mb(),
                recorder.spans if recorder is not None else None)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

class Workload:
    """Shared flow: plan, repeated set-up, passes, gates, metrics."""

    name = ""
    #: Nominal rate: ``--seconds`` times this many queries are sent.
    queries_per_second = 225
    #: But never fewer than this many (p99 needs ten samples beyond).
    min_queries = MIN_QUERIES
    #: The serving object of the last set-up.
    target = None

    def __init__(self, corpus: inputs.Corpus, seed: int, seconds: int,
                 workdir: str):
        self.corpus = corpus
        self.seed = seed
        self.workdir = workdir
        self.plan(seconds)

    # -- inputs --------------------------------------------------------

    def plan(self, seconds: int) -> None:
        count = max(self.min_queries,
                    round(seconds * self.queries_per_second))
        stream = inputs.misspelled_queries(
            self.corpus, self.seed + 1, WARMUP_QUERIES + count
        )
        self.warmup = stream[:WARMUP_QUERIES]
        self.ops = [("query", record) for record in stream[WARMUP_QUERIES:]]

    def streams(self) -> dict:
        return {
            "warmup_sha256": inputs.stream_digest(self.warmup),
            "ops_sha256": inputs.stream_digest(
                [item for _, item in self.ops]
            ),
            "ops": len(self.ops),
        }

    # -- set-up --------------------------------------------------------

    def setup_all(self) -> list:
        """Set up SETUP_REPEATS times; keep the last; stage timings."""
        runs = []
        for repeat in range(SETUP_REPEATS):
            self.close()
            gc.collect()
            folder = os.path.join(self.workdir, f"setup{repeat}")
            os.makedirs(folder)
            stages: dict = {}

            def stage(label, fn, *args, **kwargs):
                result, scaled, raw = timing.timed_stage(fn, *args, **kwargs)
                stages[label] = (scaled, raw)
                return result

            self.setup(folder, stage)
            runs.append(stages)
        return runs

    def setup(self, folder: str, stage) -> None:
        raise NotImplementedError

    def _parse_and_build(self, stage):
        document = stage("parse", XMLDocument.from_string, self.corpus.xml)
        index = stage("build", build_corpus_index, document)
        return document, index

    def close(self) -> None:
        """Release the current set-up's serving object (if any)."""
        if self.target is not None:
            self.target.close()
            self.target = None

    # -- passes --------------------------------------------------------

    def fresh(self):
        """A new service over the same built artifacts."""
        raise NotImplementedError

    def timed_pass(self, service, recorder=None) -> Pass:
        warm(service, self.warmup)
        if recorder is None:
            return in_process_pass(service, self.ops)
        with recorder:
            self.install(recorder)
            return in_process_pass(service, self.ops, recorder)

    def install(self, recorder: tracing.SpanRecorder) -> None:
        recorder.wrap(SuggestionService, "suggest_detailed", "service")
        recorder.wrap(XCleanSuggester, "suggest", "engine")
        recorder.wrap(VariantGenerator, "variants", "fastss")
        recorder.wrap(QueryEngineMixin, "merged_list_packed", "index")
        recorder.wrap(ResultTypeFinder, "find", "result_type")

    def traced_pass(self) -> Pass:
        """The ops again on a fresh service, with spans recorded."""
        service = self.fresh()
        try:
            return self.timed_pass(service, tracing.SpanRecorder())
        finally:
            service.close()

    def replay(self, ops: list) -> Pass:
        service = self.fresh()
        try:
            warm(service, self.warmup)
            return in_process_pass(service, ops)
        finally:
            service.close()

    # -- gates ---------------------------------------------------------

    def check(self, main: Pass, traced: Pass | None) -> list:
        problems = []
        if traced is not None:
            problems += compare_counts(main.counts(), traced.counts(),
                                       "traced pass")
            problems += compare_answers(
                {op: canonical(s) for op, s in
                 traced.query_answers().items()},
                {op: canonical(s) for op, s in main.query_answers().items()},
                "traced pass",
            )
        else:
            head = self.ops[:REPLAY_OPS]
            problems += compare_counts(main.counts()[:len(head)],
                                       self.replay(head).counts(), "replay")
        return problems + self.check_workload(main)

    def check_workload(self, main: Pass) -> list:
        return []

    def sample_ops(self, answers: dict, count: int, salt: int) -> dict:
        rng = random.Random(self.seed * 7919 + salt)
        chosen = sorted(rng.sample(sorted(answers), min(count, len(answers))))
        return {op: answers[op] for op in chosen}

    # -- metrics -------------------------------------------------------

    def mrr(self, main: Pass) -> float:
        ranks = [
            reciprocal_rank(answer[0] if outcome == "ok" else [], item)
            for (kind, item), (outcome, answer)
            in zip(main.ops, main.results) if kind == "query"
        ]
        return sum(ranks) / len(ranks)

    def end_to_end(self, setups: list, main: Pass) -> tuple[dict, dict]:
        clock = main.clock
        scaled = clock.scaled("query")
        raw = clock.raw("query")
        timing.require_tail(len(scaled), 99.0, f"{self.name} queries")
        answered = sum(1 for outcome, _ in main.results if outcome == "ok")
        totals = [sum(s for s, _ in stages.values()) for stages in setups]
        raw_totals = [sum(r for _, r in stages.values()) for stages in setups]
        metrics = {
            "setup_s": timing.median(totals),
            "latency_p50_ms": 1e3 * timing.percentile(scaled, 50.0),
            "latency_p99_ms": 1e3 * timing.percentile(scaled, 99.0),
            "throughput_ops": len(main.ops) / clock.scaled_phase(),
            "ok_ratio": timing.ok_ratio(len(main.ops), answered),
            "mrr": self.mrr(main),
            "rss_peak_mb": main.rss_peak_mb,
        }
        tail = timing.tail_percentile(len(scaled))
        diagnostics = {
            "raw": {
                "setup_s": timing.median(raw_totals),
                "latency_p50_ms": 1e3 * timing.percentile(raw, 50.0),
                "latency_p99_ms": 1e3 * timing.percentile(raw, 99.0),
                "throughput_ops": len(main.ops) / clock.raw_phase(),
            },
            "setup_stages_scaled_s": [
                {k: s for k, (s, _) in stages.items()} for stages in setups
            ],
            "query_samples": len(scaled),
            "tail": {"pct": tail,
                     "ms": 1e3 * timing.percentile(scaled, tail)},
            "probe_ms": {
                "median": 1e3 * timing.median(clock.probes),
                "min": 1e3 * min(clock.probes),
                "max": 1e3 * max(clock.probes),
                "count": len(clock.probes),
            },
            "probe_overhead_ratio": clock.overhead_ratio(),
            "failures": sorted({
                str(answer) for outcome, answer in main.results
                if outcome != "ok"
            })[:5],
        }
        return metrics, diagnostics

    def layers(self, setups: list, main: Pass, traced: Pass) -> dict:
        """Per-layer metrics from the traced pass (and set-up stages)."""
        out = setup_layers(setups)
        factors = traced.factors()
        summary = tracing.summarize(traced.spans, factors)
        queries = sum(1 for kind, _ in traced.ops if kind == "query")
        updates = len(traced.ops) - queries

        def layer(name, key="total", per=queries, scale=1e3):
            entry = summary.get(name)
            return scale * entry[key] / per if entry and per else 0.0

        out["fastss.variants_ms"] = layer("fastss")
        out["fastss.calls"] = layer("fastss", "calls", scale=1)
        out["index.merged_list_ms"] = layer("index")
        out["engine.self_ms"] = layer("engine", "self")
        out["result_type.find_ms"] = layer("result_type")
        out["service.self_ms"] = layer("service", "self")
        out["shards.legs"] = layer("shards.leg", "calls", scale=1)
        out["shards.leg_ms"] = layer("shards.leg")
        out["shards.gather_ms"] = layer("shards.scatter_gather", "self")
        legs = summary.get("shards.leg")
        if legs and legs["calls"]:
            out["shards.rows_per_leg"] = legs["value"] / legs["calls"]
        out["live.wal_append_ms"] = layer("live.wal_append", per=updates)
        out["live.delta_apply_ms"] = layer("live.delta_apply", per=updates)
        out["live.overlay_refresh_ms"] = layer("live.overlay_refresh",
                                               per=updates)
        out["live.install_ms"] = layer("live.apply", "self", per=updates)

        stats = [answer[1] for (kind, _), (outcome, answer)
                 in zip(traced.ops, traced.results)
                 if kind == "query" and outcome == "ok"]
        sums = {name: sum(getattr(s, name) for s in stats)
                for name in ENGINE_COUNTS}

        def ratio(hits, misses):
            total = sums[hits] + sums[misses]
            return sums[hits] / total if total else 0.0

        for name in ("groups_processed", "candidates_evaluated",
                     "entities_scored", "postings_read",
                     "postings_skipped", "kernel_pruned"):
            out[f"engine.{name}"] = sums[name] / queries
        out["result_type.computed"] = sums["result_types_computed"] / queries
        out["fastss.cache_hit_ratio"] = ratio("variant_cache_hits",
                                              "variant_cache_misses")
        out["index.merged_cache_hit_ratio"] = ratio("merged_cache_hits",
                                                    "merged_cache_misses")
        out["engine.plan_cache_hit_ratio"] = ratio(
            "intersection_cache_hits", "intersection_cache_misses")
        out["result_type.cache_hit_ratio"] = ratio(
            "result_type_cache_hits", "result_type_cache_misses")
        out["service.result_cache_hit_ratio"] = ratio(
            "result_cache_hits", "result_cache_misses")

        raw_ops = {op: raw for op, (raw, _, _)
                   in enumerate(traced.clock.samples)}
        residual = tracing.residuals(traced.spans, raw_ops)
        out["residual_ms"] = 1e3 * sum(
            value * factors[op] for op, value in residual.items()
        ) / len(residual)
        clock = main.clock
        out["client.cpu_ms"] = 1e3 * (
            clock.scaled_phase() - sum(clock.scaled("query"))
            - sum(clock.scaled("update"))
        ) / len(main.ops)
        out["probe.overhead_ratio"] = clock.overhead_ratio()
        out["trace.overhead_ratio"] = (
            main.clock.scaled_phase() / traced.clock.scaled_phase()
        )
        return out


class SuggestMiss(Workload):
    name = "suggest-miss"

    def setup(self, folder, stage):
        _, index = self._parse_and_build(stage)
        self.path = os.path.join(folder, "corpus.xcs3")
        stage("snapshot_write", build_snapshot, index, self.path)
        corpus = stage("load", load_snapshot, self.path)
        self.target = stage("service", SuggestionService, corpus,
                            config=CONFIG)

    def fresh(self):
        return SuggestionService(load_snapshot(self.path), config=CONFIG)

    def check_workload(self, main):
        sample = self.sample_ops(main.query_answers(), VALIDITY_QUERIES, 1)
        return check_valid(EntitySearch(load_snapshot(self.path)), sample)


class SuggestSharded(Workload):
    name = "suggest-sharded"
    queries_per_second = 145
    # Its p99 wandered 16-25 ms between runs of one seed at 1160
    # queries; 2000 put twenty samples beyond it.
    min_queries = 2000
    shards = 2

    def setup(self, folder, stage):
        _, index = self._parse_and_build(stage)
        self.manifest = os.path.join(folder, "shards", "manifest.json")
        stage("snapshot_write", build_sharded_snapshot, index,
              os.path.dirname(self.manifest), self.shards)
        self.target = stage("load", ShardedSuggestionService,
                            self.manifest, config=CONFIG)

    def fresh(self):
        return ShardedSuggestionService(self.manifest, config=CONFIG)

    def install(self, recorder):
        super().install(recorder)
        recorder.wrap(ShardedSuggestionService, "suggest_detailed",
                      "service")
        recorder.wrap(ShardedSuggestionService, "_compute",
                      "shards.scatter_gather")
        recorder.wrap(ShardedSuggestionService, "_query_shard_local",
                      "shards.leg",
                      value=lambda leg: len(leg[1]) if leg[1] else 0)
        recorder.wrap(XCleanSuggester, "partial_rows", "engine")

    def check_workload(self, main):
        # The single-index reference is rebuilt here rather than kept
        # through the timed pass, where its million posting tuples would
        # slow every full garbage collection.
        index = build_corpus_index(XMLDocument.from_string(self.corpus.xml))
        answers = main.query_answers()
        sample = self.sample_ops(answers, REFERENCE_QUERIES, 2)
        reference = SuggestionService(index, config=CONFIG)
        expected = {
            op: canonical(reference.suggest(self.ops[op][1].dirty_text, K))
            for op in sample
        }
        got = {op: canonical(answers[op]) for op in sample}
        problems = compare_answers(got, expected, "sharded vs single")
        valid = self.sample_ops(answers, VALIDITY_QUERIES, 1)
        return problems + check_valid(EntitySearch(index), valid)


class UpdateMix(Workload):
    name = "update-mix"
    updates_per_second = 7

    def plan(self, seconds):
        updates = max(MIN_UPDATES, round(seconds * self.updates_per_second))
        stream = inputs.misspelled_queries(
            self.corpus, self.seed + 1,
            WARMUP_QUERIES + updates * QUERIES_PER_UPDATE,
        )
        self.warmup = stream[:WARMUP_QUERIES]
        queries = iter(stream[WARMUP_QUERIES:])
        self.ops = []
        for update in inputs.update_stream(self.corpus, self.seed + 2,
                                           updates):
            self.ops.append(("update", update))
            rest = QUERIES_PER_UPDATE
            if update.probe is not None:
                self.ops.append(("query", update.probe))
                rest -= 1
            self.ops += [("query", next(queries)) for _ in range(rest)]

    def setup(self, folder, stage):
        document, index = self._parse_and_build(stage)
        self.pristine = os.path.join(folder, "pristine.xcs3")
        stage("snapshot_write", build_snapshot, index, self.pristine)
        self.target = self._open(document, stage)

    def _open(self, document, stage=None):
        """A live service on a fresh copy of the pristine snapshot."""
        self.copies = getattr(self, "copies", 0) + 1
        path = os.path.join(self.workdir, f"live{self.copies}.xcs3")
        shutil.copyfile(self.pristine, path)
        stage = stage or (lambda _label, fn, *a, **k: fn(*a, **k))
        corpus = stage("load", load_snapshot, path)
        service = stage("service", SuggestionService, corpus,
                        config=CONFIG)
        stage("live", service.enable_live_updates, document)
        return service

    def fresh(self):
        return self._open(XMLDocument.from_string(self.corpus.xml))

    def install(self, recorder):
        super().install(recorder)
        recorder.wrap(SuggestionService, "apply_updates", "live.apply")
        recorder.wrap(WriteAheadLog, "append", "live.wal_append")
        recorder.wrap(compaction_module, "apply_record", "live.delta_apply")
        recorder.wrap(DeltaSegment, "apply", "live.delta_apply")
        recorder.wrap(DeltaOverlayCorpus, "refresh", "live.overlay_refresh")
        recorder.wrap(OverlayVariantGenerator, "variants", "fastss")

    def check_workload(self, main):
        missed = []
        for op, (kind, item) in enumerate(main.ops):
            if kind != "update" or item.probe is None:
                continue
            outcome, answer = main.results[op + 1]
            if outcome != "ok" or not any(
                item.token in s.tokens for s in answer[0]
            ):
                missed.append(op)
        if not missed:
            return []
        return [f"{len(missed)} updates not suggested by the next query, "
                f"first at op {missed[0]}"]

    def update_percentiles(self, main: Pass) -> dict:
        scaled = main.clock.scaled("update")
        timing.require_tail(len(scaled), 95.0, "update-mix updates")
        return {
            "update_p50_ms": 1e3 * timing.percentile(scaled, 50.0),
            "update_p95_ms": 1e3 * timing.percentile(scaled, 95.0),
            "updates": len(scaled),
        }

    def end_to_end(self, setups, main):
        metrics, diagnostics = super().end_to_end(setups, main)
        diagnostics["updates"] = self.update_percentiles(main)
        return metrics, diagnostics

    def layers(self, setups, main, traced):
        out = super().layers(setups, main, traced)
        updates = self.update_percentiles(main)
        out["live.update_p50_ms"] = updates["update_p50_ms"]
        out["live.update_p95_ms"] = updates["update_p95_ms"]
        return out


WORKLOADS = {
    cls.name: cls
    for cls in (SuggestMiss, SuggestSharded, UpdateMix)
}

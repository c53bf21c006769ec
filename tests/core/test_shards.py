"""Tests for scatter-gather serving over shard manifests.

The load-bearing claim: ``ShardedSuggestionService`` returns the
byte-identical top-k of a single-index run at every shard count,
because the gather folds full per-shard partial-accumulator tables
through the same Shewchuk expansions the single-index pool uses.

Fault-injection tests replace ``_worker_shard_partials`` with
module-level stand-ins *before* the lazy replica pools fork, so the
forked workers inherit the patched module attribute (same technique
as ``tests/core/test_server.py``).
"""

import hashlib
import json
import os
import sys
import threading
import time
from dataclasses import replace

import pytest

from repro.core import shards as shards_module
from repro.core.candidates import keyword_variants
from repro.core.cleaner import XCleanSuggester
from repro.core.config import XCleanConfig
from repro.core.shards import (
    ShardedSuggestionService,
    fold_cleaning_stats,
    merge_partial_tables,
)
from repro.core.suggestion import CleaningStats
from repro.eval.experiments import dblp_setting
from repro.exceptions import ConfigurationError, QueryError, StorageError
from repro.fastss.generator import VariantGenerator
from repro.fastss.index import FastSSIndex, PartitionedFastSSIndex
from repro.index.corpus import build_corpus_index
from repro.index.sharding import (
    MANIFEST_NAME,
    build_sharded_snapshot,
    write_manifest,
)
from repro.index.snapshot import (
    SnapshotCorpusIndex,
    _parse_table,
    _write_sections,
    load_snapshot,
)
from repro.obs.context import Context
from repro.obs.trace import Tracer
from repro.xmltree.builder import paper_example_tree
from repro.xmltree.document import XMLDocument

SHARD_COUNTS = (1, 2, 4, 7)
TINY_QUERY = "icdt tre"


def _config(use_skipping: bool = True) -> XCleanConfig:
    # gamma=None keeps the accumulator pool unbounded so the
    # byte-identity claim is unconditional (no evictions anywhere).
    return XCleanConfig(max_errors=2, gamma=None, use_skipping=use_skipping)


def _key(suggestion):
    return (suggestion.tokens, suggestion.score, suggestion.result_type)


# ----------------------------------------------------------------------
# Worker stand-ins (module-level: picklable by reference, inherited by
# forked replica processes).
# ----------------------------------------------------------------------

_REAL_WORKER = shards_module._worker_shard_partials
_MARKER_DIR = ""


def _fail_once_worker(task):
    marker = os.path.join(_MARKER_DIR, "failed-once")
    try:
        handle = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return _REAL_WORKER(task)
    os.close(handle)
    raise RuntimeError("injected one-shot replica failure")


def _fail_shard_zero_worker(task):
    if task[2] == 0:
        raise RuntimeError("injected shard-0 failure")
    return _REAL_WORKER(task)


def _always_fail_worker(task):
    raise RuntimeError("injected permanent replica failure")


def _sleepy_worker(task):
    time.sleep(3.0)
    return _REAL_WORKER(task)


def _sections_of(path):
    """``[(name, payload)]`` of a snapshot, in file order."""
    with open(path, "rb") as handle:
        raw = handle.read()
    return [
        (name, raw[offset : offset + length])
        for name, (offset, length, _crc) in _parse_table(raw).items()
    ]


def _embed_fastss_everywhere(manifest, directory):
    """A copy of ``manifest`` in the older shard layout.

    There every shard embedded the global FastSS tables: each shard
    here gets shard 0's ``fsd_*`` sections and FastSS meta.
    """
    paths = manifest.shard_paths()
    first = _sections_of(paths[0])
    tables = [(name, data) for name, data in first if name.startswith("fsd_")]
    fastss = json.loads(dict(first)["meta"])["fastss"]
    infos = []
    for info, path in zip(manifest.shards, paths):
        sections = _sections_of(path)
        if info.shard_id:
            meta = json.loads(dict(sections)["meta"])
            meta["fastss"] = fastss
            sections = [
                (name, json.dumps(meta, sort_keys=True).encode("utf-8")
                 if name == "meta" else data)
                for name, data in sections
            ] + tables
        target = os.path.join(directory, info.path)
        _write_sections(target, sections)
        with open(target, "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        infos.append(replace(
            info, sha256=digest, bytes=os.path.getsize(target)
        ))
    return write_manifest(
        replace(manifest, shards=tuple(infos)),
        os.path.join(directory, MANIFEST_NAME),
    )


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def setting():
    return dblp_setting("small")


@pytest.fixture(scope="module")
def queries(setting):
    picked = []
    for records in setting.workloads.values():
        picked.extend(record.dirty_text for record in records[:8])
    return picked


@pytest.fixture(scope="module")
def manifests(setting, tmp_path_factory):
    base = tmp_path_factory.mktemp("dblp-shards")
    built = {}
    for count in SHARD_COUNTS:
        directory = base / f"n{count}"
        directory.mkdir()
        built[count] = build_sharded_snapshot(
            setting.corpus, str(directory), count
        )
    return built


@pytest.fixture(scope="module")
def reference(setting, queries):
    """Single-index answers per skipping mode; None = unanswerable."""
    answers = {}
    for use_skipping in (True, False):
        suggester = XCleanSuggester(
            setting.corpus, config=_config(use_skipping)
        )
        rows = []
        for query in queries:
            try:
                rows.append(
                    [_key(s) for s in suggester.suggest(query, 10)]
                )
            except QueryError:
                rows.append(None)
        answers[use_skipping] = rows
    return answers


@pytest.fixture(scope="module")
def tiny_manifest(tmp_path_factory):
    corpus = build_corpus_index(XMLDocument(paper_example_tree()))
    directory = tmp_path_factory.mktemp("tiny-shards")
    return build_sharded_snapshot(corpus, str(directory), 2)


@pytest.fixture(scope="module")
def tiny_reference(tiny_manifest):
    with ShardedSuggestionService(
        tiny_manifest, config=XCleanConfig(max_errors=1)
    ) as service:
        return [_key(s) for s in service.suggest(TINY_QUERY, 5)]


# ----------------------------------------------------------------------
# Merge-layer units
# ----------------------------------------------------------------------


class TestMergePartialTables:
    def test_ties_break_by_candidate_ascending(self):
        # Manufactured exact ties: same score, three candidates.  The
        # documented total order is (-score, candidate) — identical to
        # AccumulatorPool.top_k, so shard counts cannot reorder ties.
        rows = [
            (("zeta",), (0.5,), 2.0, 1.0, "conf", 1),
            (("alpha",), (0.25,), 4.0, 1.0, "conf", 1),
            (("mid",), (1.0,), 1.0, 1.0, "conf", 1),
        ]
        merged, count = merge_partial_tables([rows], 10)
        assert count == 3
        assert [s.score for s in merged] == [1.0, 1.0, 1.0]
        assert [s.tokens for s in merged] == [
            ("alpha",), ("mid",), ("zeta",),
        ]

    def test_cross_shard_fold_is_exact(self):
        import math

        parts_a = (0.1, 1e-17)
        parts_b = (0.3, -2e-17, 0.2)
        shard_a = [(("x",), parts_a, 3.0, 2.0, "t", 1)]
        shard_b = [(("x",), parts_b, 3.0, 2.0, "t", 2)]
        merged, count = merge_partial_tables([shard_a, shard_b], 5)
        assert count == 1
        expected = 3.0 * math.fsum(parts_a + parts_b) / 2.0
        assert merged[0].score == expected

    def test_fold_order_does_not_matter(self):
        shard_a = [(("x",), (0.125, 3e-18), 1.0, 1.0, "t", 1)]
        shard_b = [(("x",), (0.375, -1e-18), 1.0, 1.0, "t", 1)]
        ab, _ = merge_partial_tables([shard_a, shard_b], 1)
        ba, _ = merge_partial_tables([shard_b, shard_a], 1)
        assert ab[0].score == ba[0].score

    def test_zero_normalizer_scores_zero(self):
        rows = [(("x",), (1.0,), 1.0, 0.0, "t", 1)]
        merged, _ = merge_partial_tables([rows], 1)
        assert merged[0].score == 0.0

    def test_k_truncates(self):
        rows = [
            (("a",), (3.0,), 1.0, 1.0, "t", 1),
            (("b",), (2.0,), 1.0, 1.0, "t", 1),
            (("c",), (1.0,), 1.0, 1.0, "t", 1),
        ]
        merged, count = merge_partial_tables([rows], 2)
        assert count == 3
        assert [s.tokens for s in merged] == [("a",), ("b",)]


class TestFoldCleaningStats:
    def test_sums_max_and_sticky_partial(self):
        a = CleaningStats(
            keywords=2, space_size=9, entities_scored=3,
            postings_read=10,
        )
        b = CleaningStats(
            keywords=2, space_size=9, entities_scored=4,
            postings_read=7, partial=True,
        )
        folded = fold_cleaning_stats([a, b], trace_id="t-1")
        assert folded.keywords == 2
        assert folded.space_size == 9
        assert folded.entities_scored == 7
        assert folded.postings_read == 17
        assert folded.partial is True
        assert folded.trace_id == "t-1"


# ----------------------------------------------------------------------
# Byte-identical equivalence (the acceptance criterion)
# ----------------------------------------------------------------------


class TestEquivalence:
    @pytest.mark.parametrize("use_skipping", (True, False))
    @pytest.mark.parametrize("shard_count", SHARD_COUNTS)
    def test_in_process_matches_single_index(
        self, manifests, queries, reference, shard_count, use_skipping
    ):
        with ShardedSuggestionService(
            manifests[shard_count], config=_config(use_skipping)
        ) as service:
            for query, expected in zip(queries, reference[use_skipping]):
                if expected is None:
                    with pytest.raises(QueryError):
                        service.suggest(query, 10)
                    continue
                got, stats = service.suggest_detailed(query, 10)
                assert [_key(s) for s in got] == expected
                assert stats.accumulator_evictions == 0
                assert not stats.partial

    @pytest.mark.parametrize(
        "replicas,routing",
        ((1, "round-robin"), (2, "least-loaded")),
    )
    def test_pooled_matches_single_index(
        self, manifests, queries, reference, replicas, routing
    ):
        pairs = [
            (query, expected)
            for query, expected in zip(queries, reference[True])
            if expected is not None
        ][:6]
        with ShardedSuggestionService(
            manifests[4],
            config=_config(True),
            replicas=replicas,
            routing=routing,
            close_grace=2.0,
        ) as service:
            for query, expected in pairs:
                assert [
                    _key(s) for s in service.suggest(query, 10)
                ] == expected
            assert service.stats.pool_starts > 0
            assert service.stats.shard_dispatches >= 4 * len(pairs)
            assert service.stats.worker_failures == 0
            assert service.stats.shards_omitted == 0

    def test_batch_threaded_matches_single_index(
        self, manifests, queries, reference
    ):
        pairs = [
            (query, expected)
            for query, expected in zip(queries, reference[True])
            if expected is not None
        ][:8]
        batch = [query for query, _ in pairs]
        # Duplicates exercise the coalescing path.
        batch = batch + batch[:2]
        with ShardedSuggestionService(
            manifests[2],
            config=_config(True),
            replicas=1,
            workers=4,
            close_grace=2.0,
        ) as service:
            answers = service.suggest_batch(batch, k=10)
        assert len(answers) == len(batch)
        expected_rows = [expected for _, expected in pairs]
        expected_rows = expected_rows + expected_rows[:2]
        for got, expected in zip(answers, expected_rows):
            assert [_key(s) for s in got] == expected

    def test_gamma_bounded_run_reports_no_evictions(
        self, manifests, queries, reference
    ):
        config = XCleanConfig(max_errors=2, gamma=1000)
        with ShardedSuggestionService(
            manifests[4], config=config
        ) as service:
            for query, expected in zip(queries, reference[True]):
                if expected is None:
                    continue
                got, stats = service.suggest_detailed(query, 10)
                # At gamma=1000 nothing is evicted on this corpus, so
                # the bounded run must still be byte-identical.
                assert stats.accumulator_evictions == 0
                assert [_key(s) for s in got] == expected

    @pytest.mark.parametrize("replicas", (0, 1))
    def test_older_layout_matches_single_index(
        self, manifests, queries, reference, replicas, tmp_path
    ):
        # Every shard embeds FastSS there; only shard 0's copy is read.
        older = _embed_fastss_everywhere(manifests[4], str(tmp_path))
        for path in older.shard_paths():
            assert load_snapshot(path)._fastss_index() is not None
        pairs = [
            (query, expected)
            for query, expected in zip(queries, reference[True])
            if expected is not None
        ][:6 if replicas else None]
        with ShardedSuggestionService(
            older, config=_config(True), replicas=replicas,
            close_grace=2.0,
        ) as service:
            for query, expected in pairs:
                got, stats = service.suggest_detailed(query, 10)
                assert [_key(s) for s in got] == expected
                assert not stats.partial
            assert service.stats.shards_omitted == 0
            assert service.stats.degraded_queries == 0

    def test_threaded_batch_with_tiny_variant_cache_matches_serial(
        self, setting, manifests, queries, reference
    ):
        # Four coordinator threads share shard 0's generator; with an
        # LRU of 2 they evict each other's keywords all the time.
        pairs = list(dict(
            (query, expected)
            for query, expected in zip(queries, reference[True])
            if expected is not None
        ).items())[:12]
        batch = [query for query, _ in pairs]
        interval = sys.getswitchinterval()
        with ShardedSuggestionService(
            manifests[2],
            config=_config(True),
            replicas=1,
            workers=4,
            close_grace=2.0,
        ) as service:
            generator = service._local_suggester(0).generator
            generator.cache_size = 2
            sys.setswitchinterval(1e-5)
            try:
                answers = service.suggest_batch(batch, k=10)
            finally:
                sys.setswitchinterval(interval)
            assert len(generator._cache) <= 2
            # One probe per keyword per query, none lost to a race.
            assert generator.cache_hits + generator.cache_misses == sum(
                len(setting.corpus.tokenizer.tokenize(query))
                for query in batch
            )
            assert service.stats.shards_omitted == 0
            assert service.stats.degraded_queries == 0
        assert [[_key(s) for s in got] for got in answers] == [
            expected for _, expected in pairs
        ]


# ----------------------------------------------------------------------
# Variants once per query, at the coordinator
# ----------------------------------------------------------------------


class TestVariantsOnce:
    @pytest.mark.parametrize("shard_count", (1, 2, 4))
    def test_one_probe_per_keyword_per_query(
        self, setting, manifests, queries, reference, shard_count,
        monkeypatch,
    ):
        probes = []
        real = VariantGenerator.variants

        def spy(generator, keyword, max_errors=None):
            probes.append(keyword)
            return real(generator, keyword, max_errors)

        monkeypatch.setattr(VariantGenerator, "variants", spy)
        tokenize = setting.corpus.tokenizer.tokenize
        with ShardedSuggestionService(
            manifests[shard_count], config=_config(True),
            result_cache_size=0,
        ) as service:
            for query, expected in zip(queries, reference[True]):
                probes.clear()
                if expected is None:
                    with pytest.raises(QueryError):
                        service.suggest(query, 10)
                    assert probes == []
                    continue
                got, stats = service.suggest_detailed(query, 10)
                assert [_key(s) for s in got] == expected
                assert probes == tokenize(query), query
                assert (
                    stats.variant_cache_hits + stats.variant_cache_misses
                    == len(probes)
                )
            # Only the coordinator's shard-0 suggester has a generator.
            assert all(
                service._local[sid]._generator is None
                for sid in range(1, shard_count)
            )

    def test_concurrent_probes_lose_no_cache_update(
        self, setting, manifests, queries
    ):
        # Threaded batches run the coordinator's variant step from
        # several threads at once.  Four queries' keywords through an
        # LRU of 2 hit and evict all the time; under the lock no probe
        # fails and no count is lost.
        tokenize = setting.corpus.tokenizer.tokenize
        answerable = [query for query in queries if tokenize(query)][:4]
        threads, rounds = 8, 150
        errors = []
        with ShardedSuggestionService(
            manifests[2], config=_config(True)
        ) as service:
            generator = service._local_suggester(0).generator
            generator.cache_size = 2

            def probe(offset):
                order = answerable[offset:] + answerable[:offset]
                try:
                    for _ in range(rounds):
                        for query in order:
                            service._query_variants(query, Context())
                except Exception as error:  # noqa: BLE001 - asserted
                    errors.append(error)

            pool = [
                threading.Thread(target=probe, args=(offset,))
                for offset in range(threads)
            ]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for thread in pool:
                    thread.start()
                for thread in pool:
                    thread.join(timeout=300)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in pool)
            assert errors == []
            assert len(generator._cache) <= 2
            assert generator.cache_hits + generator.cache_misses == (
                threads * rounds
                * sum(len(tokenize(query)) for query in answerable)
            )

    def test_leg_over_shard_one_builds_no_fastss_index(
        self, manifests, queries, monkeypatch
    ):
        config = _config(True)
        paths = manifests[2].shard_paths()
        coordinator = XCleanSuggester(load_snapshot(paths[0]), config=config)
        handed = {}
        for query in queries:
            keywords = coordinator.corpus.tokenizer.tokenize(query)
            if keywords:
                handed[query] = keyword_variants(
                    keywords, coordinator.generator, config.max_errors
                )
        built = []

        def spy_on(owner, name):
            real = getattr(owner, name)

            def spy(*args, **kwargs):
                built.append(f"{owner.__name__}.{name}")
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, spy)

        for owner in (VariantGenerator, FastSSIndex, PartitionedFastSSIndex):
            spy_on(owner, "__init__")
        spy_on(SnapshotCorpusIndex, "variant_generator")
        leg = XCleanSuggester(load_snapshot(paths[1]), config=config)
        rows = {
            query: leg.partial_rows(query, variants=variants)
            for query, variants in handed.items()
        }
        assert built == []
        assert leg._generator is None
        monkeypatch.undo()
        # The same leg probing a FastSS index of its own (rebuilt from
        # the vocabulary: shard 1 keeps no tables) scores identically.
        own = XCleanSuggester(load_snapshot(paths[1]), config=config)
        assert any(table for table, _ in rows.values())
        for query, (table, stats) in rows.items():
            own_table, own_stats = own.partial_rows(query)
            assert table == own_table, query
            assert stats.variant_cache_hits == 0
            assert stats.variant_cache_misses == 0
            for counter in ("groups_processed", "candidates_evaluated",
                            "entities_scored", "postings_read"):
                assert getattr(stats, counter) == getattr(
                    own_stats, counter
                ), (query, counter)


# ----------------------------------------------------------------------
# Service behaviour
# ----------------------------------------------------------------------


class TestServiceBehaviour:
    def test_unanswerable_query(self, tiny_manifest):
        with ShardedSuggestionService(
            tiny_manifest, config=XCleanConfig(max_errors=1)
        ) as service:
            with pytest.raises(QueryError):
                service.suggest("???", 5)
            answers = service.suggest_batch(["???", TINY_QUERY], k=5)
            assert answers[0] == []
            assert answers[1]
            assert service.stats.unanswerable >= 1

    def test_result_cache_keyed_on_generation(
        self, tiny_manifest, tiny_reference
    ):
        with ShardedSuggestionService(
            tiny_manifest, config=XCleanConfig(max_errors=1)
        ) as service:
            first = service.suggest(TINY_QUERY, 5)
            service.suggest(TINY_QUERY, 5)
            assert service.stats.result_cache_hits == 1
            assert service.stats.result_cache_misses == 1
            service.bump_generation()
            third = service.suggest(TINY_QUERY, 5)
            assert service.stats.result_cache_misses == 2
            assert [_key(s) for s in first] == tiny_reference
            assert [_key(s) for s in third] == tiny_reference

    def test_cache_hit_is_traced(self, tiny_manifest):
        with ShardedSuggestionService(
            tiny_manifest, config=XCleanConfig(max_errors=1),
            tracer=Tracer(),
        ) as service:
            service.suggest(TINY_QUERY, 5)
            miss = service.tracer.last_trace
            service.suggest(TINY_QUERY, 5)
            hit = service.tracer.last_trace
        assert miss.events == []
        assert [name for name, _, _ in hit.events] == ["result_cache_hit"]

    def test_configuration_errors(self, tiny_manifest):
        with pytest.raises(ConfigurationError, match="min_depth"):
            ShardedSuggestionService(
                tiny_manifest,
                config=XCleanConfig(max_errors=1, min_depth=1),
            )
        with pytest.raises(ConfigurationError, match="routing"):
            ShardedSuggestionService(
                tiny_manifest,
                config=XCleanConfig(max_errors=1),
                routing="bogus",
            )
        with pytest.raises(ConfigurationError, match="replicas"):
            ShardedSuggestionService(
                tiny_manifest,
                config=XCleanConfig(max_errors=1),
                replicas=-1,
            )

    def test_per_shard_stage_metrics_are_labeled(self, tiny_manifest):
        with ShardedSuggestionService(
            tiny_manifest, config=XCleanConfig(max_errors=1)
        ) as service:
            service.suggest(TINY_QUERY, 5)
            counters = service.metrics().as_dict()["counters"]
        labeled = [
            name for name in counters
            if name.startswith("shard_stage_seconds_total{")
        ]
        assert labeled, "expected per-shard stage counters"
        assert any('shard="0"' in name for name in labeled)
        assert any('shard="1"' in name for name in labeled)


# ----------------------------------------------------------------------
# Fault injection: failover ladder, degrade, omission, breaker
# ----------------------------------------------------------------------


class TestFaultInjection:
    def test_failover_to_second_replica(
        self, tiny_manifest, tiny_reference, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(
            "tests.core.test_shards._MARKER_DIR", str(tmp_path)
        )
        monkeypatch.setattr(
            shards_module, "_worker_shard_partials", _fail_once_worker
        )
        with ShardedSuggestionService(
            tiny_manifest,
            config=XCleanConfig(max_errors=1),
            replicas=2,
            close_grace=2.0,
        ) as service:
            got = service.suggest(TINY_QUERY, 5)
            assert [_key(s) for s in got] == tiny_reference
            assert service.stats.worker_failures == 1
            assert service.stats.replica_failovers == 1
            assert service.stats.degraded_queries == 0
            assert service.stats.shards_omitted == 0

    def test_exhausted_shard_degrades_in_process(
        self, tiny_manifest, tiny_reference, monkeypatch
    ):
        monkeypatch.setattr(
            shards_module, "_worker_shard_partials", _always_fail_worker
        )
        with ShardedSuggestionService(
            tiny_manifest,
            config=XCleanConfig(max_errors=1),
            replicas=1,
            close_grace=2.0,
        ) as service:
            got, stats = service.suggest_detailed(TINY_QUERY, 5)
            assert [_key(s) for s in got] == tiny_reference
            assert not stats.partial
            assert service.stats.worker_failures == 2
            assert service.stats.degraded_queries == 2

    def test_omitted_shard_serves_partial_and_never_caches(
        self, tiny_manifest, monkeypatch
    ):
        monkeypatch.setattr(
            shards_module,
            "_worker_shard_partials",
            _fail_shard_zero_worker,
        )
        with ShardedSuggestionService(
            tiny_manifest,
            config=XCleanConfig(max_errors=1),
            replicas=1,
            degrade_in_process=False,
            breaker_threshold=10,
            close_grace=2.0,
        ) as service:
            _, stats = service.suggest_detailed(TINY_QUERY, 5)
            assert stats.partial
            assert service.stats.shards_omitted == 1
            assert service.stats.partial_results == 1
            # Partial answers are never cached: the same query again
            # recomputes rather than serving the incomplete top-k.
            service.suggest_detailed(TINY_QUERY, 5)
            assert service.stats.result_cache_hits == 0
            assert service.stats.result_cache_misses == 2
            assert service.stats.shards_omitted == 2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_total_outage_raises_from_batch(
        self, tiny_manifest, monkeypatch, workers
    ):
        # Every replica fails and nothing degrades in-process: that is
        # an outage, not an unanswerable query, on every batch path.
        monkeypatch.setattr(
            shards_module, "_worker_shard_partials", _always_fail_worker
        )
        with ShardedSuggestionService(
            tiny_manifest,
            config=XCleanConfig(max_errors=1),
            replicas=1,
            degrade_in_process=False,
            close_grace=2.0,
        ) as service:
            with pytest.raises(StorageError, match="all 2 shards failed"):
                service.suggest_batch([TINY_QUERY], k=5, workers=workers)
            assert service.stats.unanswerable == 0
            assert service._inflight == 0

    def test_worker_timeout_degrades(
        self, tiny_manifest, tiny_reference, monkeypatch
    ):
        monkeypatch.setattr(
            shards_module, "_worker_shard_partials", _sleepy_worker
        )
        with ShardedSuggestionService(
            tiny_manifest,
            config=XCleanConfig(max_errors=1),
            replicas=1,
            worker_timeout=0.3,
            close_grace=0.5,
        ) as service:
            got = service.suggest(TINY_QUERY, 5)
            assert [_key(s) for s in got] == tiny_reference
            assert service.stats.worker_timeouts >= 1
            assert service.stats.degraded_queries >= 1

    def test_breaker_opens_and_skips_dead_replicas(
        self, tiny_manifest, monkeypatch
    ):
        monkeypatch.setattr(
            shards_module, "_worker_shard_partials", _always_fail_worker
        )
        with ShardedSuggestionService(
            tiny_manifest,
            config=XCleanConfig(max_errors=1),
            replicas=1,
            breaker_threshold=1,
            breaker_cooldown=60.0,
            close_grace=2.0,
        ) as service:
            service.suggest(TINY_QUERY, 5)
            assert service.stats.worker_failures == 2
            # Both breakers are now open: the second (uncached) query
            # must not dispatch at all, just degrade in-process.
            service.suggest("tre", 5)
            assert service.stats.worker_failures == 2
            assert service.stats.degraded_queries == 4
            counters = service.metrics().as_dict()["counters"]
            assert counters['breaker_transitions_total{to="open"}'] == 2

    def test_fault_plan_exercises_shard_query_site(
        self, tiny_manifest, tiny_reference
    ):
        config = XCleanConfig(
            max_errors=1, fault_plan="shard.query:raise x1"
        )
        with ShardedSuggestionService(
            tiny_manifest, config=config, replicas=1, close_grace=2.0
        ) as service:
            got = service.suggest(TINY_QUERY, 5)
            assert [_key(s) for s in got] == tiny_reference
            # The x1 counter is per worker process: each shard's
            # replica raised once, then the coordinator degraded.
            assert service.stats.worker_failures == 2
            assert service.stats.degraded_queries == 2

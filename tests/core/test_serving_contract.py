"""One serving contract, checked against both services.

``SuggestionService`` (one v3 snapshot) and ``ShardedSuggestionService``
(a 2-shard manifest) share their request machinery: admission control,
the result LRU, per-query ``CleaningStats`` and batch accounting, and
the flight recorder.  Every test here runs against both, so the two
cannot drift apart again.  Batch tests also run each service's parallel
path: the single index's process pool, and the coordinator's threads
over one replica pool per shard.
"""

import json

import pytest

from repro.core.config import XCleanConfig
from repro.core.server import SuggestionService
from repro.core.serving import DEFAULT_RETRY_AFTER
from repro.core.shards import ShardedSuggestionService
from repro.exceptions import ConfigurationError, Overloaded, QueryError
from repro.index.corpus import build_corpus_index
from repro.index.sharding import build_sharded_snapshot
from repro.index.snapshot import build_snapshot, load_snapshot
from repro.obs.trace import Tracer
from repro.xmltree.builder import paper_example_tree
from repro.xmltree.document import XMLDocument

CONFIG = XCleanConfig(max_errors=1)
QUERY = "icdt tre"
OTHER = "trie icde"
UNANSWERABLE = "???"


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    corpus = build_corpus_index(XMLDocument(paper_example_tree()))
    base = tmp_path_factory.mktemp("contract")
    snapshot = str(base / "paper.xcs3")
    build_snapshot(corpus, snapshot)
    (base / "shards").mkdir()
    manifest = build_sharded_snapshot(corpus, str(base / "shards"), 2)
    return {"single": snapshot, "sharded": manifest}


@pytest.fixture(params=["single", "sharded"])
def make(request, paths):
    """Factory for the parametrized service; closes what it opened.

    ``parallel=True`` gives the service a parallel batch path: a
    two-worker pool for the single index, one replica per shard and
    two coordinator threads for the sharded one.
    """
    kind = request.param
    opened = []

    def build(parallel: bool = False, **kwargs):
        if kind == "single":
            if parallel:
                kwargs["workers"] = 2
            service = SuggestionService(
                load_snapshot(paths["single"]), config=CONFIG, **kwargs
            )
        else:
            if parallel:
                kwargs.update(replicas=1, workers=2, close_grace=2.0)
            service = ShardedSuggestionService(
                paths["sharded"], config=CONFIG, **kwargs
            )
        opened.append(service)
        return service

    yield build
    for service in opened:
        service.close()


class TestAdmission:
    def test_over_limit_query_is_shed(self, make):
        service = make(max_pending=1)
        service.admit(1)
        try:
            with pytest.raises(Overloaded) as caught:
                service.suggest(QUERY, 5)
        finally:
            service.release(1)
        assert caught.value.retry_after >= DEFAULT_RETRY_AFTER
        assert service.stats.shed_queries == 1
        assert service.stats.queries_served == 0
        assert service._inflight == 0
        assert service.suggest(QUERY, 5)

    @pytest.mark.parametrize("parallel", [False, True])
    def test_batch_shed_all_or_nothing(self, make, parallel):
        service = make(parallel=parallel, max_pending=2)
        with pytest.raises(Overloaded) as caught:
            service.suggest_batch([QUERY, OTHER, QUERY], 5)
        assert caught.value.retry_after >= DEFAULT_RETRY_AFTER
        assert service.stats.shed_queries == 3
        assert service.stats.queries_served == 0
        assert service.stats.result_cache_misses == 0
        assert service._inflight == 0
        assert len(service.suggest_batch([QUERY, OTHER], 5)) == 2
        assert service._inflight == 0

    def test_retry_after_hint_tracks_latency(self, make):
        service = make()
        assert service.retry_after_hint() == DEFAULT_RETRY_AFTER
        service._observe_latency(2.0)
        assert service.retry_after_hint() == 2.0
        service.admit(1)
        try:
            service.max_pending = 1
            with pytest.raises(Overloaded) as caught:
                service.admit(1)
        finally:
            service.release(1)
        assert caught.value.retry_after == 2.0


class TestPerQueryStats:
    def test_last_stats_describes_each_query(self, make):
        service = make()
        service.suggest(QUERY, 5)
        miss = service.last_stats
        assert miss.result_cache_misses == 1
        assert miss.result_cache_hits == 0
        assert miss.keywords == 2
        service.suggest(QUERY, 5)
        hit = service.last_stats
        assert hit.result_cache_hits == 1
        assert hit.result_cache_misses == 0
        with pytest.raises(QueryError):
            service.suggest(UNANSWERABLE, 5)
        assert service.last_stats is hit

    @pytest.mark.parametrize("parallel", [False, True])
    def test_batch_detailed_one_stats_per_query(self, make, parallel):
        service = make(parallel=parallel)
        batch = [QUERY, UNANSWERABLE, QUERY, OTHER, UNANSWERABLE]
        rows = service.suggest_batch_detailed(batch, 5)
        assert len(rows) == len(batch)
        answers = [answer for answer, _ in rows]
        stats = [row_stats for _, row_stats in rows]
        assert answers[0] and answers[0] == answers[2]
        assert answers[1] == [] and answers[4] == []
        assert stats[0].result_cache_misses == 1
        assert stats[2].result_cache_hits == 1
        assert stats[3].result_cache_misses == 1
        for placeholder in (stats[1], stats[4]):
            assert placeholder.result_cache_hits == 0
            assert placeholder.result_cache_misses == 0
            assert placeholder.keywords == 0
        assert service.last_stats is stats[3]


class TestBatchAccounting:
    @pytest.mark.parametrize("parallel", [False, True])
    def test_duplicates_are_one_miss_plus_hits(self, make, parallel):
        service = make(parallel=parallel)
        answers = service.suggest_batch([QUERY, QUERY, QUERY], 5)
        assert answers[0] and answers[0] == answers[1] == answers[2]
        assert service.stats.queries_served == 3
        assert service.stats.result_cache_misses == 1
        assert service.stats.result_cache_hits == 2
        assert service.stats.unanswerable == 0

    @pytest.mark.parametrize("parallel", [False, True])
    def test_unanswerable_counted_per_occurrence(self, make, parallel):
        service = make(parallel=parallel)
        answers = service.suggest_batch(
            [UNANSWERABLE, QUERY, UNANSWERABLE], 5
        )
        assert answers[0] == [] and answers[2] == []
        assert service.stats.unanswerable == 2
        service.suggest_batch([UNANSWERABLE], 5)
        assert service.stats.unanswerable == 3
        assert service.stats.queries_served == 4
        counters = service.metrics().as_dict()["counters"]
        assert counters["unanswerable_total"] == 3


class TestFlightRecord:
    def test_dump_without_recorder_raises(self, make):
        service = make()
        with pytest.raises(ConfigurationError):
            service.dump_flight_record()

    def test_dump_returns_jsonl(self, make):
        service = make(tracer=Tracer())
        service.suggest(QUERY, 5)
        service.suggest_batch([OTHER], 5)
        payload = service.dump_flight_record()
        lines = [json.loads(line) for line in payload.splitlines()]
        assert len(lines) >= 3
        assert any(line.get("query") == QUERY for line in lines)

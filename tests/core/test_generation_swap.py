"""The zero-downtime generation swap at the serving tier.

Covers the service-level update pipeline (``SuggestionService`` and
``ShardedSuggestionService``): acknowledged updates are query-visible
within one request, compaction swaps to the fresh generation with zero
dropped queries, and no answer ever mixes generations.  Also the cache
regressions: every cache a swap could poison (result LRU, merged
columns memo, result-type LRU) is generation- or epoch-keyed.
"""

import dataclasses
import os
import threading

import pytest

from repro.core.cleaner import XCleanSuggester
from repro.core.config import XCleanConfig
from repro.core.result_type import ResultTypeConfig, ResultTypeFinder
from repro.core.server import SuggestionService
from repro.core.shards import ShardedSuggestionService
from repro.exceptions import ConfigurationError
from repro.index.corpus import build_corpus_index
from repro.index.delta import (
    document_from_json,
    document_to_json,
    node_to_json,
)
from repro.index.sharding import (
    MANIFEST_NAME,
    build_sharded_snapshot,
    load_manifest,
)
from repro.index.snapshot import build_snapshot, load_snapshot
from repro.index.wal import WalRecord
from repro.xmltree.builder import paper_example_tree
from repro.xmltree.document import XMLDocument
from repro.xmltree.node import XMLNode


def el(label, *children, text=""):
    node = XMLNode(label, text=text)
    for child in children:
        node.add_child(child)
    return node


def book(title, author):
    return el(
        "book", el("title", text=title), el("author", text=author)
    )


def base_document():
    root = el(
        "bib",
        book("database systems", "codd"),
        book("xml keyword search", "lu"),
        book("valid spelling suggestion", "chen"),
    )
    return XMLDocument(root, name="swap-test")


NEW_BOOK = WalRecord(
    op="add", dewey=(1,),
    subtree=node_to_json(book("zanzibar consistency", "pat")),
)

#: Misspelling whose answer flips from empty to non-empty on update.
NEW_QUERY = "zanziber"


def answers(suggestions):
    return [dataclasses.astuple(s) for s in suggestions]


@pytest.fixture
def snapshot(tmp_path):
    document = base_document()
    path = str(tmp_path / "serve.xcs3")
    build_snapshot(build_corpus_index(document), path)
    return path, document


@pytest.fixture
def service(snapshot):
    path, _ = snapshot
    with SuggestionService(
        load_snapshot(path), config=XCleanConfig(max_errors=2)
    ) as svc:
        yield svc


class TestServiceLiveUpdates:
    def test_requires_enablement(self, service):
        with pytest.raises(ConfigurationError):
            service.apply_updates([NEW_BOOK])
        with pytest.raises(ConfigurationError):
            service.compact()

    def test_requires_snapshot_backed_corpus(self):
        svc = SuggestionService(
            build_corpus_index(base_document()),
            config=XCleanConfig(max_errors=2),
        )
        try:
            with pytest.raises(ConfigurationError):
                svc.enable_live_updates(base_document())
        finally:
            svc.close()

    def test_update_visible_within_one_request(self, snapshot, service):
        _, document = snapshot
        service.enable_live_updates(document)
        assert not service.suggest(NEW_QUERY, 5)
        applied = service.apply_updates([NEW_BOOK])
        assert applied == 1
        found = service.suggest(NEW_QUERY, 5)
        assert found and "zanzibar" in found[0].tokens[0]
        assert service.stats.updates_applied == 1
        assert service.stats.generation_swaps >= 1
        assert service.data_generation == 0  # not yet compacted

    def test_compact_swaps_to_fresh_generation(self, snapshot, service):
        _, document = snapshot
        service.enable_live_updates(document)
        service.apply_updates([NEW_BOOK])
        before = answers(service.suggest(NEW_QUERY, 5))
        assert service.compact() == 1
        assert service.data_generation == 1
        assert not service.live.delta.dirty
        # Serving moved off the overlay onto the snapshot; byte-same.
        assert answers(service.suggest(NEW_QUERY, 5)) == before
        assert getattr(service.corpus, "data_generation", None) == 1

    def test_idempotent_enable(self, snapshot, service):
        _, document = snapshot
        live = service.enable_live_updates(document)
        assert service.enable_live_updates() is live

    def test_recovery_installs_overlay(self, snapshot, service):
        path, document = snapshot
        service.enable_live_updates(document)
        service.apply_updates([NEW_BOOK])
        expected = answers(service.suggest(NEW_QUERY, 5))
        service.close()  # crash stand-in: WAL acked, never compacted
        with SuggestionService(
            load_snapshot(path), config=XCleanConfig(max_errors=2)
        ) as recovered:
            live = recovered.enable_live_updates()
            assert live.recovered_records == 1
            assert answers(recovered.suggest(NEW_QUERY, 5)) == expected

    def test_invalid_record_keeps_prefix(self, snapshot, service):
        _, document = snapshot
        service.enable_live_updates(document)
        bad = {"op": "delete", "dewey": [1, 99]}
        with pytest.raises(Exception):
            service.apply_updates([NEW_BOOK.as_dict(), bad])
        # The record before the bad one was acknowledged and serves.
        assert service.suggest(NEW_QUERY, 5)
        assert service.stats.updates_applied == 1

    def test_malformed_payload_never_acknowledged(self, snapshot, service):
        """A subtree that cannot parse must be rejected *before* the
        fsync-ack — otherwise WAL replay would brick every reopen."""
        path, document = snapshot
        service.enable_live_updates(document)
        poison = {
            "op": "add", "dewey": [1],
            "subtree": {"label": "book", "children": [{"text": "x"}]},
        }
        with pytest.raises(Exception):
            service.apply_updates([poison])
        assert service.live.acked_records == 0
        service.close()
        # Reopen from disk: recovery must not crash on a poison record.
        with SuggestionService(
            load_snapshot(path), config=XCleanConfig(max_errors=2)
        ) as recovered:
            live = recovered.enable_live_updates()
            assert live.recovered_records == 0

    def test_finished_recovery_installs_fresh_base(self, snapshot):
        """Crash window 1 (live source ahead, snapshot build died):
        the open finishes the fold — and the service must *serve* the
        folded generation, not the stale snapshot it loaded."""
        from repro.index.compaction import LiveIndexManager

        path, document = snapshot
        with LiveIndexManager(path, document=document) as live:
            live.apply([NEW_BOOK])
            live._write_live_source(live.document, live.generation + 1)
        stale = load_snapshot(path)
        assert stale.data_generation == 0
        with SuggestionService(
            stale, config=XCleanConfig(max_errors=2)
        ) as service:
            live = service.enable_live_updates()
            assert live.generation == 1
            assert live.recovered_records == 0
            assert not live.delta.dirty
            # data_generation and the serving corpus must agree.
            assert service.data_generation == 1
            assert getattr(service.corpus, "data_generation", None) == 1
            found = service.suggest(NEW_QUERY, 5)
            assert found and "zanzibar" in found[0].tokens[0]


class TestCacheEpochs:
    """A swap must make every pre-swap cache entry unreachable."""

    def test_result_cache_never_crosses_a_swap(self, snapshot, service):
        query = "databse systms"
        service.suggest(query, 5)
        service.suggest(query, 5)
        assert service.stats.result_cache_hits == 1
        service.swap_snapshot()  # same path, new generation epoch
        service.suggest(query, 5)
        assert service.stats.result_cache_hits == 1
        assert service.stats.result_cache_misses == 2

    def test_merged_columns_memo_is_generation_keyed(self):
        corpus = build_corpus_index(base_document())
        first = corpus.merged_list_packed(("database", "databases"))
        again = corpus.merged_list_packed(("database", "databases"))
        assert again.columns is first.columns
        assert corpus.merged_cache_hits == 1
        corpus.bump_generation()
        rebuilt = corpus.merged_list_packed(("database", "databases"))
        assert rebuilt.columns is not first.columns
        assert corpus.merged_cache_hits == 1
        assert corpus.merged_cache_misses == 2

    def test_result_type_cache_is_generation_keyed(self):
        corpus = build_corpus_index(
            XMLDocument(paper_example_tree())
        )
        finder = ResultTypeFinder(
            corpus, ResultTypeConfig(reduction=0.8, min_depth=2)
        )
        first = finder.find(("trie", "icde"))
        assert finder.find(("trie", "icde")) == first
        assert finder.cache_hits == 1
        corpus.bump_generation()
        assert finder.find(("trie", "icde")) == first
        assert finder.cache_hits == 1
        assert finder.cache_misses == 2

    def test_suggester_rebuilt_on_install(self, snapshot, service):
        _, document = snapshot
        before = service.suggester
        service.enable_live_updates(document)
        service.apply_updates([NEW_BOOK])
        assert service.suggester is not before
        assert service.suggester.corpus is service.corpus


class TestInflightAcrossSwap:
    """Queries racing a swap: zero drops, no mixed-generation answers."""

    QUERY = NEW_QUERY

    def hammer(self, service, stop, errors, observed):
        while not stop.is_set():
            try:
                observed.append(
                    tuple(answers(service.suggest(self.QUERY, 5)))
                )
            except Exception as exc:  # noqa: BLE001 - recorded, asserted
                errors.append(exc)
                return

    def run_race(self, service, mutate):
        stop = threading.Event()
        errors: list = []
        observed: list = []
        threads = [
            threading.Thread(
                target=self.hammer,
                args=(service, stop, errors, observed),
            )
            for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        try:
            mutate()
        finally:
            stop.set()
            for thread in threads:
                thread.join(30.0)
        assert not errors, errors
        return observed

    def expected_sets(self, document):
        config = XCleanConfig(max_errors=2)
        before = build_corpus_index(document)
        applied = document_from_json(document_to_json(document))
        from repro.index.delta import apply_record

        apply_record(applied, NEW_BOOK)
        after = build_corpus_index(applied)
        return {
            tuple(
                answers(
                    XCleanSuggester(c, config=config).suggest(
                        self.QUERY, 5
                    )
                )
            )
            for c in (before, after)
        }

    def test_single_service_swap_storm(self, snapshot, service):
        _, document = snapshot
        service.enable_live_updates(document)
        legal = self.expected_sets(document)

        def mutate():
            service.apply_updates([NEW_BOOK])
            service.compact()
            service.swap_snapshot()

        observed = self.run_race(service, mutate)
        assert observed, "query stream never completed a request"
        illegal = [o for o in observed if o not in legal]
        assert not illegal, illegal[:3]
        # The mutation really swapped: post-update answers appeared.
        assert observed[-1] != ()

    def test_sharded_service_swap_storm(self, tmp_path):
        document = base_document()
        directory = str(tmp_path / "shards")
        build_sharded_snapshot(
            build_corpus_index(document), directory, shards=2
        )
        manifest = load_manifest(
            os.path.join(directory, MANIFEST_NAME)
        )
        legal = self.expected_sets(document)
        with ShardedSuggestionService(
            manifest, config=XCleanConfig(max_errors=2)
        ) as service:
            service.enable_live_updates(document)

            def mutate():
                service.apply_updates([NEW_BOOK])

            observed = self.run_race(service, mutate)
            assert not [o for o in observed if o not in legal]
            assert service.stats.updates_applied == 1
            assert service.stats.generation_swaps == 1
            assert service.data_generation == 1
            found = service.suggest(self.QUERY, 5)
            assert found and "zanzibar" in found[0].tokens[0]


class TestShardedLiveUpdates:
    def test_in_memory_manifest_rejected(self, tmp_path):
        # A manifest that never touched disk has no directory to
        # anchor the WAL in.
        document = base_document()
        built = build_sharded_snapshot(
            build_corpus_index(document), str(tmp_path / "s"), shards=1
        )
        with ShardedSuggestionService(
            built, config=XCleanConfig(max_errors=2)
        ) as service:
            service.manifest = dataclasses.replace(built, directory="")
            with pytest.raises(ConfigurationError):
                service.enable_live_updates(document)

    def test_recovery_folds_on_enable(self, tmp_path):
        from repro.index.compaction import LiveIndexManager

        document = base_document()
        directory = str(tmp_path / "shards")
        build_sharded_snapshot(
            build_corpus_index(document), directory, shards=2
        )
        # Ack an update out-of-band, then "crash" before compaction.
        with LiveIndexManager(directory, document=document) as live:
            live.apply([NEW_BOOK])
        manifest = load_manifest(
            os.path.join(directory, MANIFEST_NAME)
        )
        with ShardedSuggestionService(
            manifest, config=XCleanConfig(max_errors=2)
        ) as service:
            service.enable_live_updates()
            assert service.data_generation == 1
            found = service.suggest(NEW_QUERY, 5)
            assert found and "zanzibar" in found[0].tokens[0]

    def test_finished_recovery_swaps_manifest(self, tmp_path):
        """Crash window 1: the open finishes the interrupted fold, and
        the service must swap onto the folded manifest, not keep
        serving the stale shard set it loaded."""
        from repro.index.compaction import LiveIndexManager

        document = base_document()
        directory = str(tmp_path / "shards-window1")
        build_sharded_snapshot(
            build_corpus_index(document), directory, shards=2
        )
        with LiveIndexManager(directory, document=document) as live:
            live.apply([NEW_BOOK])
            live._write_live_source(live.document, live.generation + 1)
        manifest = load_manifest(
            os.path.join(directory, MANIFEST_NAME)
        )
        assert manifest.generation == 0
        with ShardedSuggestionService(
            manifest, config=XCleanConfig(max_errors=2)
        ) as service:
            live = service.enable_live_updates()
            assert live.recovered_records == 0
            assert service.data_generation == 1
            assert service.manifest.generation == 1
            found = service.suggest(NEW_QUERY, 5)
            assert found and "zanzibar" in found[0].tokens[0]

    def test_acked_but_unfolded_records_survive_failed_fold(
        self, tmp_path, monkeypatch
    ):
        """A record that was fsync-acked but failed to fold must not
        be counted as applied, and compaction must not reset the WAL
        over it — replay on reopen recovers every acked record."""
        import repro.index.compaction as compaction_module
        from repro.exceptions import UpdateError
        from repro.index.compaction import LiveIndexManager

        second = WalRecord(
            op="add", dewey=(1,),
            subtree=node_to_json(book("paxos consensus", "lamport")),
        )
        document = base_document()
        directory = str(tmp_path / "shards-fold")
        build_sharded_snapshot(
            build_corpus_index(document), directory, shards=2
        )
        manifest = load_manifest(
            os.path.join(directory, MANIFEST_NAME)
        )
        with ShardedSuggestionService(
            manifest, config=XCleanConfig(max_errors=2)
        ) as service:
            service.enable_live_updates(document)
            real_apply = compaction_module.apply_record
            calls = {"n": 0}

            def flaky_apply(doc, record):
                calls["n"] += 1
                if calls["n"] == 2:
                    raise UpdateError("injected fold failure")
                return real_apply(doc, record)

            monkeypatch.setattr(
                compaction_module, "apply_record", flaky_apply
            )
            with pytest.raises(UpdateError):
                service.apply_updates([NEW_BOOK, second])
            monkeypatch.undo()
            # Both records were acked; only the first reached the
            # document.  Nothing may be compacted (that would discard
            # the second) and the stat counts only real folds.
            assert service.live.acked_records == 2
            assert service.live.applied_records == 1
            assert service.stats.updates_applied == 0
            assert service.data_generation == 0
        # Replay on reopen recovers *both* acknowledged records.
        with LiveIndexManager(directory) as recovered:
            assert recovered.recovered_records == 2
            assert recovered.document.node_at((1, 4)) is not None
            assert recovered.document.node_at((1, 5)) is not None

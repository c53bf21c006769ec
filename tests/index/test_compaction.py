"""Crash-safe lifecycle of LiveIndexManager (index/compaction.py).

The acceptance bar: crash the interleaved update workload at every
injected fault site, restart from disk alone, and the recovered index
must serve byte-identical top-k to a from-scratch rebuild of the same
logical corpus — every acknowledged update present, no torn state.
"""

import dataclasses
import json
import os

import pytest

from repro.core.cleaner import XCleanSuggester
from repro.core.config import XCleanConfig
from repro.exceptions import StorageError, UpdateError
from repro.index import atomic as atomic_module
from repro.index.compaction import LiveIndexManager
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
from repro.obs import faults
from repro.xmltree.document import XMLDocument
from repro.xmltree.node import XMLNode

QUERIES = ("speling sugestion", "databse", "zanziber", "xml serach")

#: Both advance modes of the merge loop: galloping and linear.
SKIPPING = (True, False)


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
    return XMLDocument(root, name="compaction-test")


OPS = [
    WalRecord(
        op="add", dewey=(1,),
        subtree=node_to_json(book("zanzibar consistency", "pat")),
    ),
    WalRecord(op="delete", dewey=(1, 1)),
    WalRecord(
        op="update", dewey=(1, 2, 1),
        subtree=node_to_json(el("title", text="entity tree search")),
    ),
]


@pytest.fixture
def snapshot(tmp_path):
    document = base_document()
    path = str(tmp_path / "live.xcs3")
    build_snapshot(build_corpus_index(document), path)
    return path, document


def rebuild_reference(manager):
    """From-scratch index over the manager's logical document."""
    copy = document_from_json(document_to_json(manager.document))
    return build_corpus_index(copy)


def topk(corpus, query, use_skipping=True, k=5):
    config = XCleanConfig(use_skipping=use_skipping)
    suggester = XCleanSuggester(corpus, config=config)
    return [
        dataclasses.astuple(s) for s in suggester.suggest(query, k)
    ]


def assert_serves_like_rebuild(manager):
    reference = rebuild_reference(manager)
    for use_skipping in SKIPPING:
        for query in QUERIES:
            assert topk(manager.corpus, query, use_skipping) == (
                topk(reference, query, use_skipping)
            ), (use_skipping, query)


class TestOpenAndRecovery:
    def test_first_open_requires_document(self, snapshot):
        path, _ = snapshot
        with pytest.raises(UpdateError):
            LiveIndexManager(path)

    def test_reopen_needs_only_disk_state(self, snapshot):
        path, document = snapshot
        with LiveIndexManager(path, document=document):
            pass
        with LiveIndexManager(path) as manager:
            assert manager.generation == 0
            assert manager.recovered_records == 0

    def test_wal_replay_restores_acknowledged_updates(self, snapshot):
        path, document = snapshot
        with LiveIndexManager(path, document=document) as manager:
            manager.apply(OPS)
            expected = document_to_json(manager.document)
        # "Crash" (no compaction): reopen from disk alone.
        with LiveIndexManager(path) as recovered:
            assert recovered.recovered_records == len(OPS)
            assert document_to_json(recovered.document) == expected
            assert_serves_like_rebuild(recovered)

    def test_foreign_sidecar_rejected(self, snapshot, tmp_path):
        path, document = snapshot
        with LiveIndexManager(path, document=document) as manager:
            manager.apply(OPS)
            manager.compact()  # generation 1
        # Regress the sidecar stamp: it no longer matches this index.
        with open(path + ".live.json", encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["generation"] = 0
        with open(path + ".live.json", "w", encoding="utf-8") as out:
            json.dump(payload, out)
        with pytest.raises(StorageError):
            LiveIndexManager(path)

    @pytest.mark.parametrize("sidecar", [
        "[]",
        "{}",
        '{"generation": "x", "root": {"label": "bib"}}',
        '{"generation": 0, "root": {"children": []}}',
        "[" * 100_000,
    ], ids=["list", "no-root", "generation-str", "no-label", "deep"])
    def test_malformed_sidecar_rejected(self, snapshot, sidecar):
        path, document = snapshot
        with LiveIndexManager(path, document=document):
            pass
        with open(path + ".live.json", "w", encoding="utf-8") as out:
            out.write(sidecar)
        with pytest.raises(StorageError, match="malformed live source"):
            LiveIndexManager(path)


class TestPayloadValidation:
    """No record may be fsync-acknowledged unless replay can apply it.

    A WAL-acked record that later fails ``apply_record`` would poison
    every subsequent open (replay re-applies it and the open crashes),
    so validation must fully parse the payload *before* the append.
    """

    POISON_CHILD = {"label": "book", "children": [{"text": "no label"}]}

    @pytest.mark.parametrize("op,dewey", [("add", (1,)), ("update", (1, 1))])
    def test_malformed_subtree_rejected_before_ack(
        self, snapshot, op, dewey
    ):
        path, document = snapshot
        poison = WalRecord(op=op, dewey=dewey, subtree=self.POISON_CHILD)
        with LiveIndexManager(path, document=document) as manager:
            with pytest.raises(UpdateError):
                manager.apply([poison])
            assert manager.acked_records == 0
            assert manager.applied_records == 0
        # Nothing hit the log: recovery is clean, not bricked.
        with LiveIndexManager(path) as reopened:
            assert reopened.recovered_records == 0
            assert_serves_like_rebuild(reopened)

    def test_compact_refuses_to_discard_acked_but_unfolded(
        self, snapshot, monkeypatch
    ):
        """An acked record whose fold failed lives only in the WAL;
        compacting would reset the log and silently discard it."""
        import repro.index.compaction as compaction_module

        path, document = snapshot
        with LiveIndexManager(path, document=document) as manager:

            def dying_apply(doc, record):
                raise UpdateError("injected fold failure")

            monkeypatch.setattr(
                compaction_module, "apply_record", dying_apply
            )
            with pytest.raises(UpdateError):
                manager.apply(OPS[:1])
            monkeypatch.undo()
            assert manager.acked_records == 1
            assert manager.applied_records == 0
            with pytest.raises(UpdateError, match="refusing to compact"):
                manager.compact()
        # The acknowledged record survived in the log: replay folds it.
        with LiveIndexManager(path) as recovered:
            assert recovered.recovered_records == 1
            assert recovered.document.node_at((1, 4)) is not None
            assert_serves_like_rebuild(recovered)


class TestCompaction:
    def test_generation_stamped_everywhere(self, snapshot):
        path, document = snapshot
        with LiveIndexManager(path, document=document) as manager:
            manager.apply(OPS)
            assert manager.compact() == 1
            assert manager.compact() == 2  # monotonic, even when clean
        reloaded = load_snapshot(path)
        try:
            assert reloaded.data_generation == 2
        finally:
            reloaded.close()
        with LiveIndexManager(path) as manager:
            assert manager.generation == 2
            assert_serves_like_rebuild(manager)

    def test_compacted_equals_rebuild(self, snapshot):
        path, document = snapshot
        with LiveIndexManager(path, document=document) as manager:
            manager.apply(OPS)
            manager.compact()
            assert not manager.delta.dirty
            assert_serves_like_rebuild(manager)

    def test_updates_after_compaction(self, snapshot):
        path, document = snapshot
        with LiveIndexManager(path, document=document) as manager:
            manager.apply(OPS[:1])
            manager.compact()
            manager.apply(OPS[1:])
            assert_serves_like_rebuild(manager)


class TestCrashWindows:
    """Every fault site, crashed and restarted (the acceptance bar)."""

    def apply_then_crash(self, path, document, plan, seed=0):
        with LiveIndexManager(path, document=document) as manager:
            manager.apply(OPS[:1])
            with faults.injected(plan, seed=seed):
                with pytest.raises(Exception):
                    manager.apply(OPS[1:])
                    manager.compact()

    @pytest.mark.parametrize("plan", [
        "wal.append:raise",
        "delta.apply:raise",
        "compact.swap:raise",      # crash entering the compaction
        "compact.swap:raise@1",    # crash after base swap, pre WAL reset
    ])
    def test_crash_and_restart_matches_rebuild(self, snapshot, plan):
        path, document = snapshot
        self.apply_then_crash(path, document, plan)
        with LiveIndexManager(path) as recovered:
            # The first record was acknowledged before the crash: it
            # must have survived.
            assert recovered.document.node_at((1, 4)) is not None
            assert_serves_like_rebuild(recovered)

    def test_corrupt_wal_tail_recovers_clean_prefix(self, snapshot):
        """Media corruption (not a crash): the damaged suffix is shed
        and the surviving prefix still serves exactly like a rebuild."""
        path, document = snapshot
        with LiveIndexManager(path, document=document) as manager:
            with faults.injected("wal.append:corrupt", seed=7):
                try:
                    manager.apply(OPS)
                except Exception:
                    pass
        with LiveIndexManager(path) as recovered:
            assert_serves_like_rebuild(recovered)

    @staticmethod
    def fsync_dying_after(allowed):
        """Let ``allowed`` fsyncs through, then fail every later one.

        Inside ``compact`` the first file-level fsync belongs to the
        live-source sidecar; letting it through and killing the next
        lands the crash inside the snapshot build — recovery window 1.
        """
        real_fsync = os.fsync
        calls = {"n": 0}

        def fsync(fd):
            calls["n"] += 1
            if calls["n"] > allowed:
                raise OSError("disk gone (injected)")
            real_fsync(fd)

        return fsync

    def test_crash_mid_snapshot_build(self, snapshot, monkeypatch):
        """Window 1: live source written ahead, base build dies."""
        path, document = snapshot
        with LiveIndexManager(path, document=document) as manager:
            manager.apply(OPS)
            monkeypatch.setattr(
                atomic_module.os, "fsync", self.fsync_dying_after(1)
            )
            with pytest.raises(OSError):
                manager.compact()
            monkeypatch.undo()
        # Old generation still loads (atomic writer never tears it).
        stale = load_snapshot(path)
        assert stale.data_generation == 0
        stale.close()
        # Recovery finishes the interrupted compaction.
        with LiveIndexManager(path) as recovered:
            assert recovered.generation == 1
            assert_serves_like_rebuild(recovered)

    def test_crash_between_swap_and_wal_reset(self, snapshot):
        """Window 2: base at N+1, WAL still stamped N."""
        path, document = snapshot
        with LiveIndexManager(path, document=document) as manager:
            manager.apply(OPS)
            with faults.injected("compact.swap:raise@1"):
                with pytest.raises(Exception):
                    manager.compact()
        swapped = load_snapshot(path)
        assert swapped.data_generation == 1
        swapped.close()
        with LiveIndexManager(path) as recovered:
            # Stale WAL records were already folded in; not replayed.
            assert recovered.generation == 1
            assert recovered.recovered_records == 0
            assert_serves_like_rebuild(recovered)

    def test_double_crash_then_recovery(self, snapshot, monkeypatch):
        path, document = snapshot
        with LiveIndexManager(path, document=document) as manager:
            manager.apply(OPS[:2])
            monkeypatch.setattr(
                atomic_module.os, "fsync", self.fsync_dying_after(1)
            )
            with pytest.raises(OSError):
                manager.compact()
            monkeypatch.undo()
        # Second crash: die again entering the recovery compaction.
        with faults.injected("compact.swap:raise"):
            with pytest.raises(Exception):
                LiveIndexManager(path)
        with LiveIndexManager(path) as recovered:
            assert recovered.generation == 1
            assert_serves_like_rebuild(recovered)


class TestSharded:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_apply_compact_matches_rebuild(self, tmp_path, shards):
        from repro.core.shards import ShardedSuggestionService

        document = base_document()
        directory = str(tmp_path / f"shards{shards}")
        build_sharded_snapshot(
            build_corpus_index(document), directory, shards=shards
        )
        with LiveIndexManager(directory, document=document) as live:
            live.apply(OPS)
            assert live.compact() == 1
        manifest = load_manifest(
            os.path.join(directory, MANIFEST_NAME)
        )
        assert manifest.generation == 1
        reference = build_corpus_index(
            document_from_json(
                document_to_json(
                    LiveIndexManager(directory).document
                )
            )
        )
        with ShardedSuggestionService(manifest) as service:
            for query in QUERIES:
                mine = [
                    dataclasses.astuple(s)
                    for s in service.suggest(query, k=5)
                ]
                assert mine == topk(reference, query), query

    def test_sharded_crash_between_fold_and_wal_reset(self, tmp_path):
        document = base_document()
        directory = str(tmp_path / "crash-shards")
        build_sharded_snapshot(
            build_corpus_index(document), directory, shards=2
        )
        with LiveIndexManager(directory, document=document) as live:
            live.apply(OPS)
            with faults.injected("compact.swap:raise@1"):
                with pytest.raises(Exception):
                    live.compact()
        with LiveIndexManager(directory) as recovered:
            assert recovered.generation == 1
            assert recovered.recovered_records == 0
            reference = rebuild_reference(recovered)
            manifest = recovered.base
            from repro.core.shards import ShardedSuggestionService

            with ShardedSuggestionService(manifest) as service:
                for query in QUERIES:
                    mine = [
                        dataclasses.astuple(s)
                        for s in service.suggest(query, k=5)
                    ]
                    assert mine == topk(reference, query), query

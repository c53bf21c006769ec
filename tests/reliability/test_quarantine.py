"""Snapshot quarantine: corrupt files are moved aside, never retried.

Two entry points are drilled: ``load_resilient`` (load-time CRC
failure → quarantine → fallback/rebuild) and the serving path (pool
trouble → deep verify → quarantine → pinned in-process execution on
the parent's still-valid mapping).
"""

import os

import pytest

from repro.core import server as server_module
from repro.core.config import XCleanConfig
from repro.core.server import SuggestionService
from repro.exceptions import StorageError
from repro.index.corpus import build_corpus_index
from repro.index.snapshot import (
    QUARANTINE_SUFFIX,
    build_snapshot,
    load_resilient,
    load_snapshot,
    quarantine_snapshot,
    verify_snapshot,
)
from repro.index.storage_binary import save_index_binary
from repro.obs import MetricsRegistry
from repro.xmltree.builder import paper_example_tree
from repro.xmltree.document import XMLDocument


@pytest.fixture(scope="module")
def corpus():
    return build_corpus_index(
        XMLDocument(paper_example_tree(), name="paper-example")
    )


def _corrupt_table(path):
    """Flip a byte in the section table so the table CRC fails."""
    with open(path, "r+b") as handle:
        handle.seek(20)
        byte = handle.read(1)
        handle.seek(20)
        handle.write(bytes([byte[0] ^ 0xFF]))


def _crashy_worker(task):
    raise RuntimeError("worker crash (injected)")


class TestQuarantineFile:
    def test_moves_file_aside_and_counts(self, corpus, tmp_path):
        path = str(tmp_path / "index.xcs3")
        build_snapshot(corpus, path)
        registry = MetricsRegistry()
        target = quarantine_snapshot(path, metrics=registry)
        assert target == path + QUARANTINE_SUFFIX
        assert not os.path.exists(path)
        assert os.path.exists(target)
        counters = registry.snapshot().as_dict()["counters"]
        assert counters["snapshot_quarantined_total"] == 1

    def test_missing_file_returns_none(self, tmp_path):
        assert quarantine_snapshot(str(tmp_path / "gone.xcs3")) is None


class TestLoadResilient:
    def test_clean_snapshot_loads(self, corpus, tmp_path):
        path = str(tmp_path / "index.xcs3")
        build_snapshot(corpus, path)
        loaded = load_resilient(path, verify=True)
        assert loaded.snapshot_path == path

    def test_corrupt_snapshot_quarantined_then_fallback(
        self, corpus, tmp_path
    ):
        bad = str(tmp_path / "index.xcs3")
        build_snapshot(corpus, bad, generation=1)
        _corrupt_table(bad)
        fallback = str(tmp_path / "index-older.xcs3")
        build_snapshot(corpus, fallback)
        loaded = load_resilient(bad, fallback_path=fallback)
        assert loaded.snapshot_path == fallback
        assert loaded.data_generation == 0
        assert not os.path.exists(bad)
        assert os.path.exists(bad + QUARANTINE_SUFFIX)

    def test_corrupt_snapshot_falls_back_to_rebuild(
        self, corpus, tmp_path
    ):
        bad = str(tmp_path / "index.xcs3")
        build_snapshot(corpus, bad)
        _corrupt_table(bad)
        loaded = load_resilient(bad, rebuild=lambda: corpus)
        assert loaded is corpus
        assert os.path.exists(bad + QUARANTINE_SUFFIX)

    def test_no_fallback_reraises_typed(self, corpus, tmp_path):
        bad = str(tmp_path / "index.xcs3")
        build_snapshot(corpus, bad)
        _corrupt_table(bad)
        with pytest.raises(StorageError):
            load_resilient(bad)
        assert os.path.exists(bad + QUARANTINE_SUFFIX)

    def test_non_snapshot_corruption_not_quarantined(
        self, corpus, tmp_path
    ):
        path = str(tmp_path / "index.xcib")
        save_index_binary(corpus, path)
        with open(path, "r+b") as handle:
            handle.seek(10)
            byte = handle.read(1)
            handle.seek(10)
            handle.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(StorageError):
            load_resilient(path)
        # Only files with the snapshot magic are the managed artifact;
        # anything else stays put for manual inspection.
        assert os.path.exists(path)
        assert not os.path.exists(path + QUARANTINE_SUFFIX)


class TestServeTimeQuarantine:
    def test_pool_trouble_over_corrupt_snapshot_degrades_in_process(
        self, corpus, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "index.xcs3")
        build_snapshot(corpus, path)
        snapshot_corpus = load_snapshot(path)
        reference = SuggestionService(
            corpus, config=XCleanConfig(max_errors=1)
        ).suggest_batch(["tree icdt", "databas"], 5)

        # The file goes bad *after* the parent mapped it (rotation
        # glitch, disk fault); the parent's mapping still holds the
        # good bytes, but any new worker would re-map garbage.
        _corrupt_table(path)
        monkeypatch.setattr(
            server_module, "_worker_suggest", _crashy_worker
        )
        with SuggestionService(
            snapshot_corpus,
            config=XCleanConfig(max_errors=1),
            breaker_threshold=10,
        ) as service:
            first = service.suggest_batch(["tree icdt"], 5, workers=2)
            # Pool trouble triggered the health check: the corrupt
            # file is quarantined and the service pins in-process.
            assert service.stats.snapshot_quarantined == 1
            assert service._snapshot_degraded
            assert not os.path.exists(path)
            assert os.path.exists(path + QUARANTINE_SUFFIX)
            # Answers stay correct throughout — the degraded batch and
            # everything after come from the parent's valid mapping.
            monkeypatch.undo()
            second = service.suggest_batch(["databas"], 5, workers=2)
            assert [
                [(s.tokens, s.result_type) for s in answer]
                for answer in first + second
            ] == [
                [(s.tokens, s.result_type) for s in answer]
                for answer in reference
            ]
            # No new pool is forked onto the quarantined file.
            assert service._pool is None
            assert service.stats.degraded_queries >= 2
        counters = service.metrics().as_dict()["counters"]
        assert counters["snapshot_quarantined_total"] == 1

    def test_healthy_snapshot_not_quarantined_on_pool_trouble(
        self, corpus, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "index.xcs3")
        build_snapshot(corpus, path)
        snapshot_corpus = load_snapshot(path)
        monkeypatch.setattr(
            server_module, "_worker_suggest", _crashy_worker
        )
        with SuggestionService(
            snapshot_corpus,
            config=XCleanConfig(max_errors=1),
            breaker_threshold=10,
        ) as service:
            service.suggest_batch(["tree icdt"], 5, workers=2)
            assert service.stats.snapshot_quarantined == 0
            assert not service._snapshot_degraded
        assert os.path.exists(path)
        verify_snapshot(path)

    def test_injected_load_fault_quarantines_via_fault_plan(
        self, corpus, tmp_path
    ):
        # Same ladder driven purely by a fault plan: ``snapshot.load``
        # raises inside the verify pass, standing in for a CRC failure
        # without touching the bytes the parent has mapped.
        path = str(tmp_path / "index.xcs3")
        build_snapshot(corpus, path)
        snapshot_corpus = load_snapshot(path)
        config = XCleanConfig(
            max_errors=1,
            fault_plan="worker.query:raise;snapshot.load:raise",
        )
        with SuggestionService(
            snapshot_corpus, config=config, breaker_threshold=10
        ) as service:
            batch = service.suggest_batch(["tree icdt"], 5, workers=2)
            assert batch[0]
            assert service.stats.snapshot_quarantined == 1
            assert service._snapshot_degraded
        assert os.path.exists(path + QUARANTINE_SUFFIX)

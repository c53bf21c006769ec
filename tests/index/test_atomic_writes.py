"""Crash safety of the on-disk index writers (index/atomic.py).

A writer killed mid-write must never leave a loadable-but-corrupt (or
torn) file at the destination: either the complete old file survives
or the complete new one appears.
"""

import os

import pytest

from repro.index import atomic as atomic_module
from repro.index.atomic import TMP_SUFFIX, atomic_write
from repro.index.corpus import build_corpus_index
from repro.index.snapshot import (
    build_snapshot,
    load_snapshot,
    verify_snapshot,
)
from repro.index.storage_binary import load_index_binary, save_index_binary
from repro.xmltree.builder import paper_example_tree
from repro.xmltree.document import XMLDocument


@pytest.fixture(scope="module")
def corpus():
    return build_corpus_index(
        XMLDocument(paper_example_tree(), name="paper-example")
    )


class TestAtomicWrite:
    def test_success_publishes_and_cleans_tmp(self, tmp_path):
        target = tmp_path / "out.bin"
        with atomic_write(str(target), "wb") as handle:
            handle.write(b"payload")
        assert target.read_bytes() == b"payload"
        assert not os.path.exists(str(target) + TMP_SUFFIX)

    def test_text_mode_with_encoding(self, tmp_path):
        target = tmp_path / "out.txt"
        with atomic_write(str(target), "w", encoding="utf-8") as handle:
            handle.write("héllo")
        assert target.read_text(encoding="utf-8") == "héllo"

    def test_exception_leaves_destination_untouched(self, tmp_path):
        target = tmp_path / "out.bin"
        target.write_bytes(b"old and complete")
        with pytest.raises(RuntimeError):
            with atomic_write(str(target), "wb") as handle:
                handle.write(b"half of the new")
                raise RuntimeError("killed mid-write")
        assert target.read_bytes() == b"old and complete"
        assert not os.path.exists(str(target) + TMP_SUFFIX)

    def test_exception_without_preexisting_file(self, tmp_path):
        target = tmp_path / "fresh.bin"
        with pytest.raises(RuntimeError):
            with atomic_write(str(target), "wb") as handle:
                handle.write(b"torn")
                raise RuntimeError("killed mid-write")
        assert not target.exists()
        assert not os.path.exists(str(target) + TMP_SUFFIX)

    def test_read_modes_rejected(self, tmp_path):
        target = str(tmp_path / "out.bin")
        for mode in ("rb", "r", "ab", "a", "r+b", "w+b"):
            with pytest.raises(ValueError):
                with atomic_write(target, mode):
                    pass


class TestWritersSurviveCrash:
    """Kill each index writer mid-write; the old file must still load."""

    @pytest.mark.parametrize(
        "save,load,name",
        [
            (build_snapshot, load_snapshot, "index.xcs3"),
            (save_index_binary, load_index_binary, "index.xcib"),
        ],
    )
    def test_old_index_survives_failed_rewrite(
        self, corpus, tmp_path, monkeypatch, save, load, name
    ):
        path = str(tmp_path / name)
        save(corpus, path)
        good = load(path)

        # The crash: fsync blows up after the new bytes were written
        # to the temp file but before the rename could happen.
        def dying_fsync(fd):
            raise OSError("disk gone (injected)")

        monkeypatch.setattr(atomic_module.os, "fsync", dying_fsync)
        with pytest.raises(OSError):
            save(corpus, path)
        monkeypatch.undo()

        assert not os.path.exists(path + TMP_SUFFIX)
        reloaded = load(path)
        assert reloaded.name == good.name
        assert sorted(reloaded.inverted.tokens()) == sorted(
            good.inverted.tokens()
        )

    def test_snapshot_build_crash_leaves_no_torn_file(
        self, corpus, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "index.xcs3")
        build_snapshot(corpus, path)
        verify_snapshot(path)
        original = open(path, "rb").read()

        def dying_fsync(fd):
            raise OSError("disk gone (injected)")

        monkeypatch.setattr(atomic_module.os, "fsync", dying_fsync)
        with pytest.raises(OSError):
            build_snapshot(corpus, path)
        monkeypatch.undo()

        assert not os.path.exists(path + TMP_SUFFIX)
        assert open(path, "rb").read() == original
        verify_snapshot(path)

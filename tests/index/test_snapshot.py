"""Snapshot v3: format validation, mmap loader, and engine parity."""

import os
import struct

import pytest

from repro.core.cleaner import XCleanSuggester
from repro.core.config import XCleanConfig
from repro.core.naive import NaiveCleaner
from repro.exceptions import StorageError
from repro.fastss.generator import VariantGenerator
from repro.index.corpus import build_corpus_index
from repro.index import snapshot as snapshot_module
from repro.index.snapshot import (
    MAGIC,
    _parse_table,
    _write_sections,
    build_snapshot,
    load_snapshot,
    verify_snapshot,
)
from repro.index.storage_binary import load_index_binary, save_index_binary
from repro.xmltree.builder import paper_example_tree
from repro.xmltree.document import XMLDocument


@pytest.fixture
def corpus():
    return build_corpus_index(
        XMLDocument(paper_example_tree(), name="paper-example")
    )


@pytest.fixture
def snapshot_path(corpus, tmp_path):
    path = str(tmp_path / "index.xcs3")
    build_snapshot(corpus, path)
    return path


class TestRoundTrip:
    def test_name_and_counts(self, corpus, snapshot_path):
        loaded = load_snapshot(snapshot_path)
        assert loaded.name == "paper-example"
        description = loaded.describe()
        assert description["tokens"] == len(corpus.vocabulary)
        assert (
            description["postings"]
            == corpus.inverted.total_postings()
        )
        assert description["paths"] == len(corpus.path_table)
        assert description["snapshot_bytes"]["total"] == os.path.getsize(
            snapshot_path
        )

    def test_postings_identical(self, corpus, snapshot_path):
        loaded = load_snapshot(snapshot_path)
        for token in corpus.inverted.tokens():
            assert list(loaded.inverted.list_for(token)) == list(
                corpus.inverted.list_for(token)
            )

    def test_path_table_identical(self, corpus, snapshot_path):
        loaded = load_snapshot(snapshot_path)
        assert list(loaded.path_table) == list(corpus.path_table)

    def test_subtree_counts_identical(self, corpus, snapshot_path):
        loaded = load_snapshot(snapshot_path)
        assert (
            loaded.subtree_token_counts == corpus.subtree_token_counts
        )
        for dewey, count in corpus.subtree_token_counts.items():
            assert loaded.subtree_length(dewey) == count
        assert loaded.subtree_length((99, 99, 99)) == 0

    def test_path_statistics_identical(self, corpus, snapshot_path):
        loaded = load_snapshot(snapshot_path)
        assert loaded.path_node_counts == corpus.path_node_counts
        assert loaded.path_token_totals() == corpus.path_token_totals()
        assert loaded.max_path_depth() == corpus.max_path_depth()
        for token in corpus.path_index.tokens():
            assert dict(loaded.path_index.counts_for(token)) == dict(
                corpus.path_index.counts_for(token)
            )

    def test_vocabulary_statistics(self, corpus, snapshot_path):
        loaded = load_snapshot(snapshot_path)
        vocab, loaded_vocab = corpus.vocabulary, loaded.vocabulary
        assert loaded_vocab.total_tokens == vocab.total_tokens
        assert (
            loaded_vocab.element_doc_count == vocab.element_doc_count
        )
        assert sorted(loaded_vocab.tokens()) == sorted(vocab.tokens())
        for token in vocab:
            assert token in loaded_vocab
            assert loaded_vocab.collection_frequency(
                token
            ) == vocab.collection_frequency(token)
            assert loaded_vocab.background_probability(
                token
            ) == vocab.background_probability(token)
            assert loaded_vocab.max_tfidf(token) == pytest.approx(
                vocab.max_tfidf(token)
            )
        assert "no-such-token" not in loaded_vocab
        assert loaded_vocab.collection_frequency("no-such-token") == 0

    def test_embedded_fastss_matches_fresh_generator(
        self, corpus, tmp_path
    ):
        path = str(tmp_path / "fss.xcs3")
        build_snapshot(
            corpus, path, fastss_max_errors=2,
            fastss_partition_threshold=5,
        )
        loaded = load_snapshot(path)
        embedded = loaded.variant_generator(2)
        fresh = VariantGenerator(
            corpus.vocabulary.tokens(), max_errors=2
        )
        for token in corpus.vocabulary:
            assert embedded.variants(token) == fresh.variants(token)

    def test_larger_radius_rebuilds_from_vocabulary(
        self, corpus, tmp_path
    ):
        path = str(tmp_path / "fss1.xcs3")
        build_snapshot(corpus, path, fastss_max_errors=1)
        loaded = load_snapshot(path)
        fresh = VariantGenerator(
            corpus.vocabulary.tokens(), max_errors=3
        )
        generator = loaded.variant_generator(3)
        for token in corpus.vocabulary:
            assert generator.variants(token) == fresh.variants(token)

    def test_verify_snapshot(self, snapshot_path):
        summary = verify_snapshot(snapshot_path)
        assert summary["bytes"] == os.path.getsize(snapshot_path)
        assert summary["sections"] > 10


def _sections_of(path):
    """``[(name, payload)]`` of a snapshot, in file order."""
    with open(path, "rb") as handle:
        raw = handle.read()
    return [
        (name, raw[offset : offset + length])
        for name, (offset, length, _crc) in _parse_table(raw).items()
    ]


class TestFastSSTables:
    """The mapped fsd_* tables, and files that lack them."""

    @staticmethod
    def _assert_fresh_variants(corpus, loaded):
        fresh = VariantGenerator(corpus.vocabulary.tokens(), max_errors=2)
        generator = loaded.variant_generator(2)
        for token in list(corpus.vocabulary) + ["confernce", "xm", ""]:
            assert generator.variants(token) == fresh.variants(token)

    def test_default_build_embeds_digest_tables(self, snapshot_path):
        names = dict(_sections_of(snapshot_path))
        for tag in "spx":
            for column in ("key", "start", "ids"):
                assert f"fsd_{tag}_{column}" in names
        assert not any(name.startswith("fss_") for name in names)
        loaded = load_snapshot(snapshot_path)
        assert loaded.variant_generator(2)._index is loaded._fastss_index()

    def test_no_fastss_build_rebuilds_from_vocabulary(
        self, corpus, tmp_path
    ):
        path = str(tmp_path / "bare.xcs3")
        build_snapshot(corpus, path, fastss_max_errors=None)
        assert not any(
            name.startswith("fsd_") for name, _ in _sections_of(path)
        )
        loaded = load_snapshot(path)
        assert loaded._fastss_index() is None
        self._assert_fresh_variants(corpus, loaded)

    def test_retired_fss_sections_are_ignored(
        self, corpus, snapshot_path, tmp_path
    ):
        # A file in the older layout: FastSS meta plus fss_* sections
        # this reader does not know, and no fsd_* tables.
        sections = [
            (name, payload)
            for name, payload in _sections_of(snapshot_path)
            if not name.startswith("fsd_")
        ]
        for tag in "spx":
            for column in ("off", "blob", "starts", "tok"):
                sections.append((f"fss_{tag}_{column}", b"\x01" * 12))
        path = str(tmp_path / "older.xcs3")
        _write_sections(path, sections)
        loaded = load_snapshot(path)
        assert loaded._meta["fastss"]["kind"] == "partitioned"
        assert loaded._fastss_index() is None
        self._assert_fresh_variants(corpus, loaded)
        assert verify_snapshot(path)["sections"] == len(sections)

    @pytest.mark.parametrize(
        "name, change",
        [
            ("fsd_s_start", lambda data: b""),
            ("fsd_s_start", lambda data: data[:-8]),
            ("fsd_p_start", lambda data: data + struct.pack("<q", 0)),
            ("fsd_x_ids", lambda data: data + struct.pack("<i", 0)),
            ("fsd_s_key", lambda data: data[:-8]),
        ],
        ids=["no-starts", "starts-short", "starts-long", "ids-long",
             "keys-short"],
    )
    def test_inconsistent_shape_raises_storage_error(
        self, snapshot_path, tmp_path, name, change
    ):
        sections = [
            (section, change(data) if section == name else data)
            for section, data in _sections_of(snapshot_path)
        ]
        path = str(tmp_path / "shape.xcs3")
        _write_sections(path, sections)  # valid CRCs, bad shape
        loaded = load_snapshot(path)
        with pytest.raises(StorageError, match="inconsistent shape"):
            loaded.variant_generator(2)

    def test_missing_partition_table_raises_storage_error(
        self, snapshot_path, tmp_path
    ):
        sections = [
            (name, data)
            for name, data in _sections_of(snapshot_path)
            if not name.startswith("fsd_p_")
        ]
        path = str(tmp_path / "partial.xcs3")
        _write_sections(path, sections)
        with pytest.raises(StorageError, match="malformed FastSS"):
            load_snapshot(path).variant_generator(2)

    @pytest.mark.parametrize("bad_id", [1_000_000, -2])
    def test_token_id_out_of_range_raises_storage_error(
        self, corpus, snapshot_path, tmp_path, bad_id
    ):
        # Every short-table id rewritten under valid CRCs: the shape
        # checks pass, and the first decode must refuse the id rather
        # than wrap to another token or raise an untyped IndexError.
        sections = dict(_sections_of(snapshot_path))
        count = len(sections["fsd_s_ids"]) // 4
        sections["fsd_s_ids"] = struct.pack(f"<{count}i", *[bad_id] * count)
        path = str(tmp_path / "stray-id.xcs3")
        _write_sections(path, list(sections.items()))
        generator = load_snapshot(path).variant_generator(2)
        shortest = min(corpus.vocabulary.tokens(), key=len)
        with pytest.raises(StorageError, match="outside its"):
            generator.variants(shortest)

    def test_generator_in_another_token_order(self, corpus, tmp_path):
        # Ids of a generator built in insertion order are translated to
        # the snapshot's vocabulary ranks.
        tokens = sorted(corpus.vocabulary.tokens(), reverse=True)
        generator = VariantGenerator(tokens, max_errors=2)
        path = str(tmp_path / "reordered.xcs3")
        build_snapshot(corpus, path, generator=generator)
        loaded = load_snapshot(path)
        assert loaded.variant_generator(2)._index is loaded._fastss_index()
        self._assert_fresh_variants(corpus, loaded)

    def test_generator_over_foreign_tokens_rejected(
        self, corpus, tmp_path
    ):
        generator = VariantGenerator(["zanzibar"], max_errors=1)
        with pytest.raises(StorageError, match="not in the corpus"):
            build_snapshot(
                corpus, str(tmp_path / "x.xcs3"), generator=generator
            )


class TestStringTableFind:
    """``find`` answers from the ids of decoded strings when it can."""

    ABSENT = ("", "zzzz", "confernce", "\u00e9t\u00e9")

    @pytest.mark.parametrize("limit", [None, 3], ids=["memo", "memo-full"])
    def test_find_agrees_with_and_without_the_memo(
        self, snapshot_path, monkeypatch, limit
    ):
        if limit is not None:
            monkeypatch.setattr(snapshot_module, "_MEMO_LIMIT", limit)
        searched = load_snapshot(snapshot_path).vocabulary._table
        memoized = load_snapshot(snapshot_path).vocabulary._table
        tokens = [memoized.get_str(rank) for rank in range(len(memoized))]
        assert len(memoized._ids) == min(len(tokens), limit or len(tokens))
        for rank, token in enumerate(tokens):
            assert memoized.find(token) == searched.find(token) == rank
        for token in self.ABSENT:
            assert token not in tokens
            assert memoized.find(token) == searched.find(token) == -1
        # ``find`` reads bytes only; it never fills the memo itself.
        assert searched._ids == {}


class TestEngineParity:
    """In-memory, v2 and v3 must agree suggestion-for-suggestion."""

    QUERIES = ("confernce", "xml daabases", "keyword serach")

    @staticmethod
    def _rows(suggester, query):
        return [
            (s.tokens, s.score, s.result_type)
            for s in suggester.suggest(query, 10)
        ]

    def test_all_formats_identical_topk(self, corpus, tmp_path):
        v2 = str(tmp_path / "index.xcib")
        v3 = str(tmp_path / "index.xcs3")
        save_index_binary(corpus, v2)
        build_snapshot(corpus, v3)
        config = XCleanConfig(max_errors=2)
        suggesters = [
            XCleanSuggester(source, config=config)
            for source in (
                corpus,
                load_index_binary(v2),
                load_snapshot(v3),
            )
        ]
        for query in self.QUERIES:
            reference = self._rows(suggesters[0], query)
            for other in suggesters[1:]:
                assert self._rows(other, query) == reference

    def test_naive_cleaner_over_snapshot(self, corpus, snapshot_path):
        # NaiveCleaner reads tuple posting lists; over a snapshot they
        # come from the tuple shim (SnapshotCorpusIndex.inverted).
        loaded = load_snapshot(snapshot_path)
        config = XCleanConfig(max_errors=2, gamma=None)
        from_snapshot = NaiveCleaner(loaded, config=config)
        in_memory = NaiveCleaner(corpus, config=config)
        for query in self.QUERIES + ("tree icdt", "tre icd"):
            scores = in_memory.score_all(query)
            assert from_snapshot.score_all(query) == scores
            assert (
                from_snapshot.last_stats.postings_read
                == in_memory.last_stats.postings_read
            )
            assert self._rows(from_snapshot, query) == self._rows(
                in_memory, query
            )
        assert scores, "expected the paper query to score candidates"

    def test_parallel_build_byte_identical(self, corpus, tmp_path):
        serial = str(tmp_path / "serial.xcs3")
        parallel = str(tmp_path / "parallel.xcs3")
        build_snapshot(corpus, serial)
        build_snapshot(corpus, parallel, workers=3)
        with open(serial, "rb") as a, open(parallel, "rb") as b:
            assert a.read() == b.read()


class TestCorruption:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.xcs3"
        path.write_bytes(b"")
        with pytest.raises(StorageError, match="empty"):
            load_snapshot(str(path))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.xcs3"
        path.write_bytes(b"NOPE" + b"\0" * 64)
        with pytest.raises(StorageError, match="magic"):
            load_snapshot(str(path))

    def test_bad_version(self, tmp_path, snapshot_path):
        raw = bytearray(open(snapshot_path, "rb").read())
        struct.pack_into("<I", raw, 4, 99)
        path = tmp_path / "version.xcs3"
        path.write_bytes(raw)
        with pytest.raises(StorageError, match="version 99"):
            load_snapshot(str(path))

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.xcs3"
        path.write_bytes(MAGIC + b"\x03")
        with pytest.raises(StorageError, match="truncated"):
            load_snapshot(str(path))

    def test_truncated_table(self, tmp_path, snapshot_path):
        raw = open(snapshot_path, "rb").read()
        path = tmp_path / "table.xcs3"
        path.write_bytes(raw[:24])
        with pytest.raises(StorageError, match="truncated"):
            load_snapshot(str(path))

    def test_corrupt_table_checksum(self, tmp_path, snapshot_path):
        raw = bytearray(open(snapshot_path, "rb").read())
        raw[20] ^= 0xFF  # inside the first table entry's name
        path = tmp_path / "crc.xcs3"
        path.write_bytes(raw)
        with pytest.raises(StorageError, match="checksum"):
            load_snapshot(str(path))

    def test_meta_bit_flips_raise_storage_error(
        self, tmp_path, snapshot_path
    ):
        # The fast load materializes meta, so it checks meta's CRC: no
        # flipped bit may surface as a KeyError (e.g. a renamed key).
        raw = open(snapshot_path, "rb").read()
        offset, length, _crc = _parse_table(raw)["meta"]
        path = tmp_path / "meta.xcs3"
        for position in range(offset, offset + length):
            for bit in (0, 5):
                mutant = bytearray(raw)
                mutant[position] ^= 1 << bit
                path.write_bytes(mutant)
                with pytest.raises(StorageError):
                    load_snapshot(str(path))

    def test_paths_blob_flip_raises_storage_error(
        self, tmp_path, snapshot_path
    ):
        raw = bytearray(open(snapshot_path, "rb").read())
        offset, _length, _crc = _parse_table(raw)["paths_blob"]
        raw[offset] ^= 0x80  # not UTF-8 any more
        path = tmp_path / "paths.xcs3"
        path.write_bytes(raw)
        with pytest.raises(StorageError, match="paths_blob"):
            load_snapshot(str(path))

    @pytest.mark.parametrize("meta", [
        b"1", b"[]", b"{}", b'{"name": "x"}', b"[" * 100_000,
    ], ids=["int", "list", "empty", "partial", "deep"])
    def test_crc_valid_malformed_meta(self, tmp_path, snapshot_path, meta):
        raw = open(snapshot_path, "rb").read()
        sections = [
            (name, meta if name == "meta" else raw[start:start + size])
            for name, (start, size, _crc) in _parse_table(raw).items()
        ]
        path = str(tmp_path / "malformed.xcs3")
        _write_sections(path, sections)  # fresh, valid CRCs
        verify_snapshot(path)
        with pytest.raises(StorageError, match="malformed"):
            load_snapshot(path)

    def test_corrupt_payload_caught_by_verify(
        self, tmp_path, snapshot_path
    ):
        raw = bytearray(open(snapshot_path, "rb").read())
        raw[-1] ^= 0xFF  # flip a payload byte, table stays intact
        path = tmp_path / "payload.xcs3"
        path.write_bytes(raw)
        with pytest.raises(StorageError, match="checksum"):
            verify_snapshot(str(path))


class TestMmapBehavior:
    def test_survives_source_file_removal(
        self, corpus, snapshot_path, tmp_path
    ):
        loaded = load_snapshot(snapshot_path)
        os.remove(snapshot_path)
        # Postings are still served out of the (now unlinked) mapping.
        reference = XCleanSuggester(
            corpus, config=XCleanConfig(max_errors=2)
        )
        mapped = XCleanSuggester(
            loaded, config=XCleanConfig(max_errors=2)
        )
        for query in TestEngineParity.QUERIES:
            assert [
                (s.tokens, s.score) for s in mapped.suggest(query, 10)
            ] == [
                (s.tokens, s.score)
                for s in reference.suggest(query, 10)
            ]

    def test_close_is_best_effort(self, snapshot_path):
        loaded = load_snapshot(snapshot_path)
        loaded.packed_view().get(next(iter(loaded.vocabulary)))
        loaded.close()  # exported views keep the mapping alive


class TestDispatch:
    def test_load_timed_under_index_load_stage(self, snapshot_path):
        from repro.obs import INDEX_LOAD_STAGE, MetricsRegistry

        registry = MetricsRegistry()
        load_snapshot(snapshot_path, metrics=registry)
        stages = registry.snapshot().as_dict()["stages"]
        assert stages[INDEX_LOAD_STAGE]["count"] == 1

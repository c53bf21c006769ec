"""Tests for the varint/delta codec and binary (v2) index persistence."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import StorageError
from repro.index.compression import (
    decode_postings,
    encode_postings,
    read_string,
    read_uvarint,
    write_string,
    write_uvarint,
)
from repro.index.corpus import build_corpus_index
from repro.index.storage_binary import (
    dumps_binary,
    load_index_binary,
    loads_binary,
    save_index_binary,
)
from repro.xmltree.builder import paper_example_tree
from repro.xmltree.document import XMLDocument


class TestVarint:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 2**20, 2**40])
    def test_roundtrip(self, value):
        buffer = bytearray()
        write_uvarint(buffer, value)
        decoded, position = read_uvarint(bytes(buffer), 0)
        assert decoded == value
        assert position == len(buffer)

    def test_small_values_one_byte(self):
        buffer = bytearray()
        write_uvarint(buffer, 100)
        assert len(buffer) == 1

    def test_negative_rejected(self):
        with pytest.raises(StorageError):
            write_uvarint(bytearray(), -1)

    def test_truncated_raises(self):
        with pytest.raises(StorageError):
            read_uvarint(b"\x80", 0)

    @given(st.integers(min_value=0, max_value=2**63 - 1))
    def test_roundtrip_property(self, value):
        buffer = bytearray()
        write_uvarint(buffer, value)
        assert read_uvarint(bytes(buffer), 0)[0] == value


class TestStrings:
    @given(st.text(max_size=50))
    def test_roundtrip(self, text):
        buffer = bytearray()
        write_string(buffer, text)
        decoded, position = read_string(bytes(buffer), 0)
        assert decoded == text
        assert position == len(buffer)

    def test_truncated_raises(self):
        buffer = bytearray()
        write_string(buffer, "hello")
        with pytest.raises(StorageError):
            read_string(bytes(buffer)[:-2], 0)


deweys = st.lists(
    st.integers(min_value=1, max_value=9), min_size=1, max_size=6
).map(tuple)

postings_strategy = st.lists(
    st.tuples(
        deweys,
        st.integers(min_value=0, max_value=50),
        st.integers(min_value=1, max_value=9),
    ),
    max_size=30,
).map(
    lambda rows: sorted(
        {r[0]: r for r in rows}.values(), key=lambda r: r[0]
    )
)


class TestPostingCodec:
    def test_empty_list(self):
        data = encode_postings([])
        assert decode_postings(data)[0] == []

    def test_shared_prefixes_compress(self):
        # Siblings share a 3-component prefix: suffix coding must beat
        # naive full-tuple coding.
        siblings = [((1, 2, 3, i), 0, 1) for i in range(1, 40)]
        spread = [((i, 2, 3, 1), 0, 1) for i in range(1, 40)]
        assert len(encode_postings(siblings)) < len(
            encode_postings(spread)
        )

    def test_corrupt_data_raises(self):
        good = encode_postings([((1, 2), 0, 1)])
        with pytest.raises(StorageError):
            decode_postings(good[:-1])

    @settings(max_examples=80)
    @given(postings_strategy)
    def test_roundtrip_property(self, postings):
        data = encode_postings(postings)
        decoded, position = decode_postings(data)
        assert decoded == postings
        assert position == len(data)


class TestBinaryIndex:
    @pytest.fixture(scope="class")
    def corpus(self):
        return build_corpus_index(
            XMLDocument(paper_example_tree(), name="paper-example")
        )

    def test_roundtrip_equivalent_to_text_format(self, corpus):
        # The v2 codec reproduces the source corpus it was written from.
        from_binary = loads_binary(dumps_binary(corpus))
        assert from_binary.name == corpus.name
        assert from_binary.path_node_counts == corpus.path_node_counts
        assert (
            from_binary.subtree_token_counts
            == corpus.subtree_token_counts
        )
        assert list(from_binary.path_table) == list(corpus.path_table)
        for token in corpus.inverted.tokens():
            assert list(from_binary.inverted.list_for(token)) == list(
                corpus.inverted.list_for(token)
            )

    def test_file_roundtrip(self, corpus, tmp_path):
        path = str(tmp_path / "index.xcib")
        save_index_binary(corpus, path)
        loaded = load_index_binary(path)
        assert loaded.describe() == corpus.describe()

    def test_wrong_magic(self):
        with pytest.raises(StorageError):
            loads_binary(b"NOPE" + b"\x00" * 10)

    def test_suggestions_identical_after_reload(self, corpus):
        from repro.core.cleaner import XCleanSuggester
        from repro.core.config import XCleanConfig

        config = XCleanConfig(max_errors=1, gamma=None)
        original = XCleanSuggester(corpus, config=config)
        reloaded = XCleanSuggester(
            loads_binary(dumps_binary(corpus)), config=config
        )
        a = original.suggest("tree icdt", 5)
        b = reloaded.suggest("tree icdt", 5)
        assert [(s.tokens, s.result_type) for s in a] == [
            (s.tokens, s.result_type) for s in b
        ]
        for left, right in zip(a, b):
            assert left.score == pytest.approx(right.score)


class TestChecksumIntegrity:
    @pytest.fixture(scope="class")
    def blob(self):
        corpus = build_corpus_index(
            XMLDocument(paper_example_tree(), name="crc")
        )
        return dumps_binary(corpus)

    def test_clean_blob_loads(self, blob):
        assert loads_binary(blob).name == "crc"

    def test_truncation_detected(self, blob):
        with pytest.raises(StorageError):
            loads_binary(blob[:-1])

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_any_single_byte_flip_detected(self, blob, data):
        position = data.draw(
            st.integers(min_value=4, max_value=len(blob) - 1)
        )
        flip = data.draw(st.integers(min_value=1, max_value=255))
        corrupted = bytearray(blob)
        corrupted[position] ^= flip
        with pytest.raises(StorageError):
            loads_binary(bytes(corrupted))

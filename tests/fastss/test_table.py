"""Signature tables: digest columns, collisions, and mapped snapshots.

The snapshot-backed index must return exactly what the brute-force
oracle returns, whatever the build radius, partition threshold, query
radius or alphabet — and a digest collision may widen the candidate
set but never change an answer.
"""

import os
import tempfile
from hashlib import blake2b

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fastss import table as table_module
from repro.fastss.index import (
    BruteForceVariants,
    FastSSIndex,
    PartitionedFastSSIndex,
)
from repro.fastss.table import SignatureTable, signature_digest
from repro.index.corpus import build_corpus_index, fastss_bucket_bytes
from repro.index.snapshot import build_snapshot, load_snapshot
from repro.index.tokenizer import Tokenizer, TokenizerConfig
from repro.xmltree.document import XMLDocument
from repro.xmltree.node import XMLNode

#: Lowercase letters, two of them outside ASCII (the tokenizer keeps
#: any alphanumeric character and lowercases).
ALPHABET = "abcdeéü"

VOCAB = [
    "tree", "trees", "trie", "tried", "icde", "icdt", "vldb",
    "insurance", "instance", "architecture", "archetype",
    "classification", "clustering", "verification", "verifications",
    "größe", "grosse",
]


def _corpus(tokens):
    """A corpus whose vocabulary is exactly ``tokens``."""
    root = XMLNode("root")
    for token in tokens:
        root.add_child(XMLNode("t", text=token))
    tokenizer = Tokenizer(
        TokenizerConfig(min_length=1, stopwords=frozenset())
    )
    return build_corpus_index(XMLDocument(root), tokenizer=tokenizer)


def _mapped(tokens, max_errors, threshold, directory):
    path = os.path.join(directory, "v.xcs3")
    build_snapshot(
        _corpus(tokens), path, fastss_max_errors=max_errors,
        fastss_partition_threshold=threshold,
    )
    return load_snapshot(path)


class TestSignatureTable:
    def test_lookup_returns_bucket_ids(self):
        table = SignatureTable.from_buckets(
            {"ab": [0, 2], "b": [1], "": [0, 1, 2]}
        )
        assert table.lookup(["ab"]) == {0, 2}
        assert table.lookup(["b", "ab"]) == {0, 1, 2}
        assert table.lookup(["zz"]) == set()
        assert len(table) == 3

    def test_columns_are_sorted_digests(self):
        buckets = {sig: [n] for n, sig in enumerate("abcdefgh")}
        table = SignatureTable.from_buckets(buckets)
        assert list(table.keys) == sorted(map(signature_digest, buckets))
        assert len(table.starts) == len(table.keys) + 1
        assert table.starts[-1] == len(table.ids)

    def test_digest_is_stable_blake2b(self):
        # The little-endian int64 of an 8-byte blake2b: stable across
        # processes, unlike the salted builtin hash().
        raw = blake2b(b"tree", digest_size=8).digest()
        assert signature_digest("tree") == int.from_bytes(
            raw, "little", signed=True
        )

    def test_add_goes_to_tail_not_columns(self):
        table = SignatureTable.from_buckets({"ab": [0]})
        keys, ids = table.keys, table.ids
        table.add("ab", 5)
        table.add("cd", 6)
        assert table.keys is keys and table.ids is ids
        assert list(ids) == [0]
        assert table.lookup(["ab"]) == {0, 5}
        assert table.lookup(["cd"]) == {6}
        frozen = table.frozen()
        assert frozen.lookup(["ab"]) == {0, 5}
        assert frozen.lookup(["cd"]) == {6}
        assert len(frozen) == len(table) == 2

    def test_incremental_add_token_keeps_columns(self):
        index = FastSSIndex(VOCAB, max_errors=2)
        keys = index._table.keys
        index.add_token("treez")
        assert index._table.keys is keys
        assert "treez" in [v.token for v in index.variants("tree", 1)]
        assert index.variants("treex") == BruteForceVariants(
            VOCAB + ["treez"], max_errors=2
        ).variants("treex")

    def test_bucket_bytes_are_column_bytes(self):
        index = PartitionedFastSSIndex(VOCAB, max_errors=2)
        assert fastss_bucket_bytes(index) == sum(
            8 * len(table.keys) + 8 * len(table.starts)
            + 4 * len(table.ids)
            for table in index.tables().values()
        )


class TestCollisions:
    """A digest with only three values merges nearly every bucket."""

    @pytest.fixture
    def colliding(self, monkeypatch):
        monkeypatch.setattr(
            table_module, "signature_digest", lambda sig: len(sig) % 3
        )

    def test_in_memory_answers_unchanged(self, colliding):
        oracle = BruteForceVariants(VOCAB, max_errors=2)
        plain = FastSSIndex(VOCAB, max_errors=2)
        partitioned = PartitionedFastSSIndex(
            VOCAB, max_errors=2, partition_threshold=5
        )
        assert len(plain._table) <= 3
        for word in ("tree", "verifcation", "clusterng", "grose", "x", ""):
            for eps in (0, 1, 2):
                expected = oracle.variants(word, eps)
                assert plain.variants(word, eps) == expected
                assert partitioned.variants(word, eps) == expected

    def test_snapshot_answers_unchanged(self, colliding, tmp_path):
        loaded = _mapped(VOCAB, 2, 5, str(tmp_path))
        generator = loaded.variant_generator(2)
        assert generator._index is loaded._fastss_index()
        oracle = BruteForceVariants(list(loaded.vocabulary), max_errors=2)
        for word in ("tree", "verifcation", "clusterng", "grose", "x", ""):
            for eps in (0, 1, 2):
                assert generator.variants(word, eps) == tuple(
                    oracle.variants(word, eps)
                )


tokens_strategy = st.lists(
    st.text(alphabet=ALPHABET, min_size=1, max_size=16),
    min_size=1,
    max_size=20,
)


@st.composite
def perturbed(draw, word: str, edits: int) -> str:
    """``word`` after up to ``edits`` random insertions, deletions and
    substitutions — a query near a stored token, which random text
    over the alphabet seldom is."""
    chars = list(word)
    for _ in range(draw(st.integers(0, edits))):
        kind = draw(st.sampled_from(("insert", "delete", "substitute")))
        if kind == "insert" or not chars:
            at = draw(st.integers(0, len(chars)))
            chars.insert(at, draw(st.sampled_from(ALPHABET)))
            continue
        at = draw(st.integers(0, len(chars) - 1))
        if kind == "delete":
            del chars[at]
        else:
            chars[at] = draw(st.sampled_from(ALPHABET))
    return "".join(chars)


class TestSnapshotMatchesBruteForce:
    def test_window_edges(self, tmp_path):
        # ed = 3 with the query split ⌊3/2⌋ = 1 away from the word's
        # half length: a window narrower than the pigeonhole bound
        # misses these long (> threshold 2) tokens.
        words = ["caac", "cbac", "aacbc", "cbcc"]
        oracle = BruteForceVariants(words, max_errors=3)
        in_memory = PartitionedFastSSIndex(
            words, max_errors=3, partition_threshold=2
        )
        mapped = _mapped(words, 3, 2, str(tmp_path)).variant_generator(3)
        for query in ("c", "b", "aa"):
            expected = oracle.variants(query, 3)
            assert expected, query
            assert in_memory.variants(query, 3) == expected
            assert mapped.variants(query, 3) == tuple(expected)

    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        data=st.data(),
        tokens=tokens_strategy,
        queries=st.lists(
            st.text(alphabet=ALPHABET, max_size=16), max_size=2
        ),
        max_errors=st.sampled_from((1, 2, 3)),
        threshold=st.sampled_from((2, 5, 9)),
    )
    def test_snapshot_generator_equals_brute_force(
        self, data, tokens, queries, max_errors, threshold
    ):
        with tempfile.TemporaryDirectory() as directory:
            loaded = _mapped(tokens, max_errors, threshold, directory)
            generator = loaded.variant_generator(max_errors)
            # Served from the mapped tables, not rebuilt.
            assert generator._index is loaded._fastss_index()
            vocabulary = list(loaded.vocabulary)
            oracle = BruteForceVariants(vocabulary, max_errors=max_errors)
            # Empty, one-character, drawn, and perturbed stored tokens.
            probes = ["", "a", "é", *queries] + [
                data.draw(perturbed(token, max_errors + 1))
                for token in vocabulary[:6]
            ]
            for query in probes:
                for eps in range(max_errors + 1):
                    assert generator.variants(query, eps) == tuple(
                        oracle.variants(query, eps)
                    ), (query, eps)
            loaded.close()

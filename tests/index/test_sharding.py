"""Tests for sharded snapshot builds and the CRC-checked manifest."""

import json
import os

import pytest

from repro.core.cleaner import XCleanSuggester
from repro.core.config import XCleanConfig
from repro.exceptions import ConfigurationError, StorageError
from repro.index.corpus import build_corpus_index
from repro.index.sharding import (
    DEFAULT_PARTITION_DEPTH,
    MANIFEST_NAME,
    assign_prefixes,
    build_sharded_snapshot,
    hash_shard_of,
    is_manifest,
    load_manifest,
    partition_prefixes,
    resolve_manifest_path,
    verify_sharded,
)
from repro.index.snapshot import _parse_table, load_snapshot
from repro.xmltree.builder import paper_example_tree
from repro.xmltree.document import XMLDocument


@pytest.fixture(scope="module")
def corpus():
    return build_corpus_index(XMLDocument(paper_example_tree()))


@pytest.fixture(scope="module")
def manifest(corpus, tmp_path_factory):
    directory = tmp_path_factory.mktemp("shards")
    return build_sharded_snapshot(corpus, str(directory), 2)


class TestAssignment:
    def test_every_prefix_assigned_exactly_once(self, corpus):
        prefixes = partition_prefixes(
            corpus, DEFAULT_PARTITION_DEPTH
        )
        assignment = assign_prefixes(corpus, 2)
        assert sorted(assignment) == prefixes
        assert set(assignment.values()) <= {0, 1}

    def test_range_assignment_is_contiguous(self, corpus):
        assignment = assign_prefixes(corpus, 3)
        owners = [
            assignment[prefix] for prefix in sorted(assignment)
        ]
        # Monotone non-decreasing == contiguous Dewey runs.
        assert owners == sorted(owners)

    def test_assignment_is_deterministic(self, corpus):
        for strategy in ("range", "hash"):
            first = assign_prefixes(corpus, 4, strategy=strategy)
            second = assign_prefixes(corpus, 4, strategy=strategy)
            assert first == second

    def test_hash_assignment_uses_crc_not_salted_hash(self, corpus):
        assignment = assign_prefixes(corpus, 4, strategy="hash")
        for prefix, shard in assignment.items():
            assert shard == hash_shard_of(prefix, 4)

    def test_more_shards_than_prefixes_still_covers(self, corpus):
        prefixes = partition_prefixes(
            corpus, DEFAULT_PARTITION_DEPTH
        )
        assignment = assign_prefixes(corpus, len(prefixes) + 3)
        assert sorted(assignment) == prefixes

    def test_invalid_arguments(self, corpus):
        with pytest.raises(ConfigurationError):
            assign_prefixes(corpus, 0)
        with pytest.raises(ConfigurationError):
            assign_prefixes(corpus, 2, strategy="modulo")


class TestManifest:
    def test_round_trip(self, manifest):
        loaded = load_manifest(
            os.path.join(manifest.directory, MANIFEST_NAME)
        )
        assert loaded == manifest

    def test_shares_sum_to_globals(self, manifest, corpus):
        assert sum(
            info.postings for info in manifest.shards
        ) == corpus.inverted.total_postings()
        assert manifest.entities == len(
            partition_prefixes(corpus, manifest.partition_depth)
        )

    def test_is_manifest_sniffing(self, manifest, tmp_path):
        assert is_manifest(manifest.directory)
        assert is_manifest(
            os.path.join(manifest.directory, MANIFEST_NAME)
        )
        shard_path = manifest.shard_paths()[0]
        assert not is_manifest(shard_path)
        assert not is_manifest(str(tmp_path / "missing.json"))
        assert resolve_manifest_path(
            manifest.directory
        ) == os.path.join(manifest.directory, MANIFEST_NAME)

    def test_crc_mismatch_rejected(self, manifest, tmp_path):
        path = os.path.join(manifest.directory, MANIFEST_NAME)
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        document["totals"]["entities"] += 1
        tampered = tmp_path / MANIFEST_NAME
        tampered.write_text(json.dumps(document))
        with pytest.raises(StorageError, match="crc mismatch"):
            load_manifest(str(tampered))

    def test_share_sum_mismatch_rejected(self, manifest, tmp_path):
        from repro.index.sharding import _payload_crc

        path = os.path.join(manifest.directory, MANIFEST_NAME)
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        # Re-sign the tampered payload so only the sum check can fire.
        document["shards"][0]["entities"] += 1
        payload = {
            key: value
            for key, value in document.items() if key != "crc"
        }
        document["crc"] = _payload_crc(payload)
        tampered = tmp_path / MANIFEST_NAME
        tampered.write_text(json.dumps(document))
        with pytest.raises(StorageError, match="sum"):
            load_manifest(str(tampered))

    @pytest.mark.parametrize("tamper", [
        lambda document: document.pop("totals"),
        lambda document: document.update(shards=5),
        lambda document: document.update(shards=[]),
        lambda document: document.update(partition_depth="2"),
        lambda document: document["shards"][0].update(path=7),
        lambda document: document["totals"].update(postings=True),
    ], ids=[
        "no-totals", "shards-int", "no-shards", "depth-str", "path-int",
        "postings-bool",
    ])
    def test_crc_valid_malformed_manifest_rejected(
        self, manifest, tmp_path, tamper
    ):
        from repro.index.sharding import _payload_crc

        path = os.path.join(manifest.directory, MANIFEST_NAME)
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        tamper(document)
        document.pop("crc")
        document["crc"] = _payload_crc(document)  # re-signed
        tampered = tmp_path / MANIFEST_NAME
        tampered.write_text(json.dumps(document))
        with pytest.raises(StorageError):
            load_manifest(str(tampered))

    def test_deeply_nested_manifest_rejected(self, tmp_path):
        deep = tmp_path / MANIFEST_NAME
        deep.write_text("[" * 100_000)
        with pytest.raises(StorageError):
            load_manifest(str(deep))

    def test_not_a_manifest_rejected(self, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text("{\"format\": \"something-else\"}")
        with pytest.raises(StorageError, match="not a shard manifest"):
            load_manifest(str(bogus))


class TestShardSnapshots:
    def test_shards_load_as_ordinary_snapshots(self, manifest):
        for path in manifest.shard_paths():
            shard = load_snapshot(path)
            # Global statistics are replicated into every shard.
            assert shard.vocabulary.total_tokens > 0

    def test_every_shard_embeds_the_same_fastss_bytes(self, manifest):
        tables = []
        for path in manifest.shard_paths():
            with open(path, "rb") as handle:
                raw = handle.read()
            tables.append({
                name: raw[offset : offset + length]
                for name, (offset, length, _crc) in _parse_table(raw).items()
                if name.startswith("fsd_")
            })
            shard = load_snapshot(path)
            assert shard.variant_generator(2)._index is shard._fastss_index()
        assert len(tables[0]) == 9
        assert all(table == tables[0] for table in tables)

    def test_shard_postings_partition_the_corpus(
        self, manifest, corpus
    ):
        merged: dict[str, list] = {}
        for path in manifest.shard_paths():
            shard = load_snapshot(path)
            for token in corpus.inverted.tokens():
                postings = list(shard.inverted.list_for(token))
                merged.setdefault(token, []).extend(
                    (tuple(p[0]), p[1]) for p in postings
                )
        for token in corpus.inverted.tokens():
            expected = sorted(
                (tuple(p[0]), p[1])
                for p in corpus.inverted.list_for(token)
            )
            assert sorted(merged.get(token, [])) == expected

    def test_single_shard_answers_like_the_corpus(
        self, corpus, tmp_path
    ):
        manifest = build_sharded_snapshot(corpus, str(tmp_path), 1)
        config = XCleanConfig(max_errors=1)
        expected = XCleanSuggester(corpus, config=config).suggest(
            "tree icdt", 5
        )
        shard = load_snapshot(manifest.shard_paths()[0])
        got = XCleanSuggester(shard, config=config).suggest(
            "tree icdt", 5
        )
        assert [(s.tokens, s.score, s.result_type) for s in got] == [
            (s.tokens, s.score, s.result_type) for s in expected
        ]

    def test_hash_strategy_builds_and_verifies(self, corpus, tmp_path):
        manifest = build_sharded_snapshot(
            corpus, str(tmp_path), 3, strategy="hash"
        )
        assert all(info.range is None for info in manifest.shards)
        reports = verify_sharded(str(tmp_path))
        assert all(report["ok"] for report in reports)


class TestVerifySharded:
    def test_all_ok(self, manifest):
        reports = verify_sharded(manifest.directory)
        assert [r["shard_id"] for r in reports] == [0, 1]
        assert all(r["ok"] and r["error"] is None for r in reports)

    def test_detects_corruption(self, corpus, tmp_path):
        manifest = build_sharded_snapshot(corpus, str(tmp_path), 2)
        victim = manifest.shard_paths()[1]
        with open(victim, "r+b") as handle:
            handle.seek(os.path.getsize(victim) // 2)
            byte = handle.read(1)
            handle.seek(-1, os.SEEK_CUR)
            handle.write(bytes([byte[0] ^ 0xFF]))
        reports = verify_sharded(str(tmp_path))
        assert reports[0]["ok"]
        assert not reports[1]["ok"]
        assert reports[1]["error"]

    def test_detects_truncation(self, corpus, tmp_path):
        manifest = build_sharded_snapshot(corpus, str(tmp_path), 2)
        victim = manifest.shard_paths()[0]
        with open(victim, "r+b") as handle:
            handle.truncate(os.path.getsize(victim) - 16)
        reports = verify_sharded(str(tmp_path))
        assert not reports[0]["ok"]

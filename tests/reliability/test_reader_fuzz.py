"""Seeded mutation fuzzing of every reader of untrusted bytes.

Each reader either succeeds or fails with its typed error —
:class:`~repro.exceptions.StorageError` for the on-disk formats
(snapshot, shard manifest, WAL, live-source sidecar) and
:class:`~repro.net.http.BadRequest` for the HTTP parser — never with
an untyped exception, a hang (every example runs under a deadline) or
a half-installed serving state.  The XML parser has its own fuzzers in
``tests/xmltree/test_parser_fuzz.py``.

Every test is derandomized, so a run is reproducible; the inputs are
the paper-example index and its 2-shard build.
"""

import json
import os
import shutil
import struct
import zlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import XCleanConfig
from repro.core.server import SuggestionService
from repro.core.shards import ShardedSuggestionService
from repro.exceptions import StorageError
from repro.index.compaction import LiveIndexManager
from repro.index.corpus import build_corpus_index
from repro.index.delta import node_to_json
from repro.index.sharding import (
    MANIFEST_NAME,
    _payload_crc,
    build_sharded_snapshot,
    load_manifest,
)
from repro.index.snapshot import (
    _parse_table,
    _write_sections,
    build_snapshot,
    load_snapshot,
)
from repro.index.wal import WalRecord, WriteAheadLog
from repro.net.http import BadRequest, HTTPRequest, parse_request_head
from repro.xmltree.builder import paper_example_tree
from repro.xmltree.document import XMLDocument
from repro.xmltree.node import XMLNode


def fuzz(examples: int, deadline_ms: int = 2000):
    """Derandomized settings with a per-example deadline."""
    return settings(
        max_examples=examples,
        deadline=deadline_ms,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )


@st.composite
def mutated(draw, raw: bytes, spans=()):
    """``raw`` after byte flips, a truncation, or a splice.

    Flips land anywhere or, as often, inside one of ``spans`` (the
    ``(start, end)`` byte ranges a loader parses), so they are not all
    spent on posting bytes that no loader reads.
    """
    data = bytearray(raw)
    kind = draw(st.sampled_from(("flip", "truncate", "splice")))
    if kind == "flip":
        where = st.one_of(
            st.integers(0, len(raw) - 1),
            *(st.integers(start, end - 1) for start, end in spans),
        )
        for _ in range(draw(st.integers(1, 4))):
            data[draw(where)] ^= draw(st.integers(1, 255))
    elif kind == "truncate":
        del data[draw(st.integers(0, len(raw) - 1)):]
    else:
        start = draw(st.integers(0, len(raw)))
        end = draw(st.integers(start, min(len(raw), start + 64)))
        source = draw(st.integers(0, len(raw)))
        insert = draw(st.one_of(
            st.binary(max_size=64), st.just(raw[source:source + 64])
        ))
        data[start:end] = insert
    return bytes(data)


#: Arbitrary JSON values: what a CRC-valid but hand-made file can hold.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)


def replace_somewhere(draw, document):
    """Replace one value (at any depth) of a JSON document, or delete it."""
    node = document
    while True:
        keys = list(node) if isinstance(node, dict) else list(
            range(len(node))
        )
        if not keys:
            return
        key = draw(st.sampled_from(keys))
        child = node[key]
        if isinstance(child, (dict, list)) and child and draw(
            st.booleans()
        ):
            node = child
            continue
        if isinstance(node, dict) and draw(st.booleans()):
            del node[key]
        else:
            node[key] = draw(json_values)
        return


#: Snapshot sections the fast loader parses (besides header + table).
PARSED = (
    "meta", "paths_off", "paths_blob", "pnode_pids", "pnode_counts",
    "ptot_pids", "ptot_vals",
)


def parsed_spans(raw):
    """Byte ranges of a snapshot's header + table and parsed sections."""
    table = _parse_table(raw)
    spans = [(0, 16 + 40 * len(table))]  # 16-byte header, 40 per entry
    for name in PARSED:
        offset, length, _crc = table[name]
        spans.append((offset, offset + length))
    return spans


def _read(path) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """The paper example as a snapshot and as a 2-shard manifest."""
    root = tmp_path_factory.mktemp("fuzz")
    document = XMLDocument(paper_example_tree(), name="paper-example")
    corpus = build_corpus_index(document)
    snapshot = str(root / "index.xcs3")
    build_snapshot(corpus, snapshot)
    shards = str(root / "shards")
    build_sharded_snapshot(corpus, shards, 2)
    return {
        "root": root, "document": document, "snapshot": snapshot,
        "shards": shards,
    }


def _write(path, data) -> str:
    """Replace ``path`` by a new file (never truncate it in place).

    An earlier example may still map the old file; shrinking a mapped
    file in place would turn its next page fault into SIGBUS.
    """
    path = str(path)
    with open(path + ".new", "wb") as handle:
        handle.write(data)
    os.replace(path + ".new", path)
    return path


def _load_or_storage_error(load, path):
    try:
        loaded = load(path)
    except StorageError:
        return None
    return loaded


# ----------------------------------------------------------------------
# Snapshot + manifest
# ----------------------------------------------------------------------


class TestSnapshotFuzz:
    @fuzz(300)
    @given(data=st.data())
    def test_mutated_snapshot_loads_or_raises_storage_error(
        self, built, data
    ):
        raw = _read(built["snapshot"])
        mutant = data.draw(mutated(raw, parsed_spans(raw)))
        path = _write(built["root"] / "mutant.xcs3", mutant)
        loaded = _load_or_storage_error(load_snapshot, path)
        if loaded is not None:
            loaded.close()

    @fuzz(200)
    @given(data=st.data())
    def test_crc_valid_meta_loads_or_raises_storage_error(
        self, built, data
    ):
        raw = _read(built["snapshot"])
        table = _parse_table(raw)
        offset, length, _crc = table["meta"]
        meta = json.loads(raw[offset:offset + length])
        replace_somewhere(data.draw, meta)
        sections = [
            (name, json.dumps(meta).encode("utf-8") if name == "meta"
             else raw[start:start + size])
            for name, (start, size, _crc) in table.items()
        ]
        path = str(built["root"] / "meta.xcs3")
        _write_sections(path, sections)  # re-signed: every CRC valid
        loaded = _load_or_storage_error(load_snapshot, path)
        if loaded is not None:
            loaded.close()


class TestManifestFuzz:
    @pytest.fixture(scope="class")
    def pristine(self, built):
        path = os.path.join(built["shards"], MANIFEST_NAME)
        with open(path, "rb") as handle:
            return handle.read()

    @fuzz(200)
    @given(data=st.data())
    def test_mutated_manifest(self, built, pristine, data):
        mutant = data.draw(mutated(pristine))
        path = _write(built["root"] / MANIFEST_NAME, mutant)
        _load_or_storage_error(load_manifest, path)

    @fuzz(200)
    @given(data=st.data())
    def test_crc_valid_manifest(self, built, pristine, data):
        document = json.loads(pristine)
        del document["crc"]
        replace_somewhere(data.draw, document)
        document["crc"] = _payload_crc(document)
        path = _write(
            built["root"] / MANIFEST_NAME, json.dumps(document).encode()
        )
        _load_or_storage_error(load_manifest, path)

    @fuzz(150, deadline_ms=4000)
    @given(data=st.data())
    def test_sharded_service_opens_or_raises_storage_error(
        self, built, pristine, data
    ):
        # Mutate the manifest or shard 0 (loaded eagerly at open) in a
        # private copy of the shard directory.
        copy = built["root"] / "shards-copy"
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(built["shards"], copy)
        name = data.draw(st.sampled_from((MANIFEST_NAME, "shard-0000.xcs3")))
        raw = _read(copy / name)
        spans = parsed_spans(raw) if name != MANIFEST_NAME else ()
        _write(copy / name, data.draw(mutated(raw, spans)))
        try:
            service = ShardedSuggestionService(str(copy / MANIFEST_NAME))
        except StorageError:
            return
        service.close()


# ----------------------------------------------------------------------
# WAL replay
# ----------------------------------------------------------------------


RECORDS = [
    WalRecord(
        op="add", dewey=(1,),
        subtree=node_to_json(XMLNode("title", text="zanzibar")),
    ),
    WalRecord(op="delete", dewey=(1, 2)),
    WalRecord(
        op="update", dewey=(1, 1, 1),
        subtree=node_to_json(XMLNode("year", text="2011")),
    ),
]


class TestWalFuzz:
    @pytest.fixture(scope="class")
    def pristine(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("wal") / "log.wal")
        wal = WriteAheadLog(path)
        wal.create(3)
        for record in RECORDS:
            wal.append(record)
        wal.close()
        with open(path, "rb") as handle:
            return handle.read()

    @staticmethod
    def _frames(raw):
        """``(start, end)`` of each frame after the magic."""
        offset, spans = 8, []
        while offset < len(raw):
            length = struct.unpack_from("<I", raw, offset)[0]
            spans.append((offset, offset + 8 + length))
            offset += 8 + length
        return spans

    def _replay(self, built, data: bytes):
        wal = WriteAheadLog(_write(built["root"] / "fuzz.wal", data))
        try:
            records = wal.replay()
        except StorageError:
            return None
        # Replay truncated any bad tail: a second pass agrees.
        assert WriteAheadLog(wal.path).replay() == records
        return records

    @fuzz(200)
    @given(data=st.data())
    def test_mutated_log_replays_an_acknowledged_prefix(
        self, built, pristine, data
    ):
        records = self._replay(built, data.draw(mutated(pristine)))
        if records is not None:
            assert records == RECORDS[: len(records)]

    @fuzz(200)
    @given(data=st.data())
    def test_crc_valid_frames_replay_a_prefix(self, built, pristine, data):
        spans = self._frames(pristine)
        index = data.draw(st.integers(0, len(spans) - 1))
        payload = data.draw(st.one_of(
            st.binary(max_size=64),
            json_values.map(lambda value: json.dumps(value).encode()),
            st.integers(1, 60_000).map(lambda depth: b"[" * depth),
        ))
        start, end = spans[index]
        frame = struct.pack("<II", len(payload), zlib.crc32(payload))
        mutant = pristine[:start] + frame + payload + pristine[end:]
        records = self._replay(built, mutant)
        if records is not None and index > 0:
            # Frame 0 is the header; records before the re-signed frame
            # are intact and must all come back.
            assert records[: index - 1] == RECORDS[: index - 1]


# ----------------------------------------------------------------------
# Live-source sidecar
# ----------------------------------------------------------------------


class TestSidecarFuzz:
    @pytest.fixture(scope="class")
    def live(self, built):
        """A live index (snapshot, WAL, sidecar) plus a pristine copy."""
        pristine = built["root"] / "live-pristine"
        pristine.mkdir()
        index = str(pristine / "index.xcs3")
        shutil.copy(built["snapshot"], index)
        with LiveIndexManager(index, document=built["document"]):
            pass
        return pristine

    def _open(self, pristine, sidecar: bytes):
        # Every example starts from the pristine files: a sidecar ahead
        # of the snapshot makes the open finish a compaction.
        directory = pristine.parent / "live"
        shutil.rmtree(directory, ignore_errors=True)
        shutil.copytree(pristine, directory)
        index = str(directory / "index.xcs3")
        _write(index + ".live.json", sidecar)
        try:
            with LiveIndexManager(index):
                pass
        except StorageError:
            pass

    @fuzz(100, deadline_ms=4000)
    @given(data=st.data())
    def test_mutated_sidecar(self, live, data):
        sidecar = _read(live / "index.xcs3.live.json")
        self._open(live, data.draw(mutated(sidecar)))

    @fuzz(100, deadline_ms=4000)
    @given(data=st.data())
    def test_malformed_json_sidecar(self, live, data):
        document = json.loads(_read(live / "index.xcs3.live.json"))
        replace_somewhere(data.draw, document)
        self._open(live, json.dumps(document).encode())


# ----------------------------------------------------------------------
# HTTP request parsing
# ----------------------------------------------------------------------


request_heads = st.one_of(
    st.binary(max_size=200),
    st.builds(
        lambda method, target, version, headers: (
            f"{method} {target} {version}\r\n{headers}\r\n\r\n"
        ).encode("ascii", "replace"),
        st.sampled_from(("GET", "POST", "get", "BREW", "")),
        st.text(alphabet="/[]?=&%:x ", max_size=20),
        st.sampled_from(("HTTP/1.1", "HTTP/1.0", "HTTP/2", "")),
        st.text(alphabet="a-:\r\n \t", max_size=40),
    ),
)


class TestHTTPFuzz:
    @fuzz(400, deadline_ms=500)
    @given(request_heads)
    def test_parse_request_head(self, raw):
        try:
            parse_request_head(raw)
        except BadRequest as error:
            assert 400 <= error.status < 500

    @fuzz(300, deadline_ms=500)
    @given(st.tuples(
        st.sampled_from(("/", "//", "///")),
        st.text(alphabet="/[]?=&%:@#x", max_size=12),
    ).map("".join))
    def test_request_targets(self, target):
        try:
            parse_request_head(f"GET {target} HTTP/1.1\r\n\r\n".encode())
        except BadRequest as error:
            assert error.status == 400

    @fuzz(300, deadline_ms=500)
    @given(st.one_of(
        st.text(max_size=30),
        st.text(alphabet="0123456789+-_ .e\u0661", max_size=6),
    ))
    def test_content_length(self, raw):
        request = HTTPRequest(
            method="POST", target="/suggest", version="HTTP/1.1",
            headers={"content-length": raw},
        )
        try:
            length = request.content_length(1 << 20)
        except BadRequest:
            return
        assert str(length) == raw.lstrip("0").rjust(1, "0")

    @fuzz(300, deadline_ms=500)
    @given(st.one_of(
        st.binary(max_size=100),
        st.text(alphabet='[]{}":,0123456789.eE+- ', max_size=100).map(
            str.encode
        ),
        st.integers(1, 100_000).map(lambda depth: b"[" * depth),
        st.integers(1, 6_000).map(lambda digits: b"7" * digits),
    ))
    def test_json_body(self, body):
        request = HTTPRequest(
            method="POST", target="/suggest", version="HTTP/1.1",
            headers={}, body=body,
        )
        try:
            assert isinstance(request.json(), dict)
        except BadRequest:
            pass


# ----------------------------------------------------------------------
# Snapshot hot-swap: all or nothing
# ----------------------------------------------------------------------


QUERIES = ("tree icdt", "tre icde")


class TestSwapFuzz:
    @pytest.fixture(scope="class")
    def service(self, built):
        # No result cache: every answer below is computed afresh.
        corpus = load_snapshot(built["snapshot"])
        with SuggestionService(
            corpus, config=XCleanConfig(max_errors=1), result_cache_size=0
        ) as service:
            yield service

    @fuzz(150)
    @given(data=st.data())
    def test_corrupt_swap_changes_nothing(self, built, service, data):
        raw = _read(built["snapshot"])
        before = (
            service.corpus,
            service.corpus.data_generation,
            [service.suggest(query, 5) for query in QUERIES],
        )
        mutant = bytearray(raw)
        if data.draw(st.booleans()):
            # Cut into the last section: it is out of bounds.
            end = max(
                offset + length
                for offset, length, _crc in _parse_table(raw).values()
            )
            del mutant[data.draw(st.integers(0, end - 1)):]
        else:
            # A byte of the header, the table or a CRC-checked section.
            start, end = data.draw(st.sampled_from(parsed_spans(raw)))
            position = data.draw(st.integers(start, end - 1))
            mutant[position] ^= data.draw(st.integers(1, 255))
        path = _write(built["root"] / "swap.xcs3", bytes(mutant))
        with pytest.raises(StorageError):
            service.swap_snapshot(path)
        assert service.corpus is before[0]
        assert service.corpus.data_generation == before[1]
        assert [
            service.suggest(query, 5) for query in QUERIES
        ] == before[2]

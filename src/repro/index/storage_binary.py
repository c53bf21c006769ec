"""Compact binary persistence for :class:`CorpusIndex` (v2, archival).

A library codec built on the varint/delta codec of
:mod:`repro.index.compression`; nothing in the ``xclean`` CLI writes
or reads it (every command uses the v3 snapshot of
:mod:`repro.index.snapshot`).  It stays because it is the compact
on-disk form behind the paper's index-size ratio
(``bench_index_size.py``, Dewey deltas dominate) and the v2 baseline
of ``bench_coldstart.py`` and ``bench_serving.py``.

Layout (all integers varint, all strings length-prefixed UTF-8)::

    magic "XCIB" | version | name
    path count | paths (component count, labels...)
    path-node-count pairs
    subtree-count entries (delta-coded deweys | count)
    max path depth | totals count | (pid, W_p as repr text) pairs
    element_doc_count | vocab rows (token, cf, df, max_rel_tf as text)
    list count | per token: token, encoded postings
    CRC32 of everything above (4 bytes, big-endian)

The trailing CRC32 guarantees detection of any single-byte corruption
(and virtually all larger ones) at load time.
"""

from __future__ import annotations

import zlib

from repro.exceptions import StorageError
from repro.index.compression import (
    decode_postings,
    encode_postings,
    read_string,
    read_uvarint,
    write_string,
    write_uvarint,
)
from repro.index.atomic import atomic_write
from repro.index.corpus import CorpusIndex
from repro.index.inverted import InvertedIndex, InvertedList
from repro.index.path_index import PathIndex, path_counts_from_postings
from repro.index.tokenizer import Tokenizer
from repro.index.vocabulary import Vocabulary
from repro.xmltree.labelpath import PathTable

MAGIC = b"XCIB"
#: Version 2 appends the precomputed Eq. 8 normalizers (W_p per path
#: id, as repr'd floats) and the maximal label-path depth after the
#: subtree section.  Version-1 payloads still load; the totals are
#: derived on the fly.
VERSION = 2


def dumps_binary(index: CorpusIndex) -> bytes:
    """Serialize ``index`` to compact bytes."""
    buffer = bytearray()
    buffer.extend(MAGIC)
    write_uvarint(buffer, VERSION)
    write_string(buffer, index.name)

    paths = list(index.path_table)
    write_uvarint(buffer, len(paths))
    for labels in paths:
        write_uvarint(buffer, len(labels))
        for label in labels:
            write_string(buffer, label)

    write_uvarint(buffer, len(index.path_node_counts))
    for pid in sorted(index.path_node_counts):
        write_uvarint(buffer, pid)
        write_uvarint(buffer, index.path_node_counts[pid])

    # Subtree token counts: reuse the posting codec by packing each
    # (dewey, count) as a pseudo-posting (path_id slot unused).
    subtree_items = sorted(index.subtree_token_counts.items())
    pseudo = [(code, 0, count) for code, count in subtree_items]
    buffer.extend(encode_postings(pseudo))

    totals = index.path_token_totals()
    write_uvarint(buffer, index.max_path_depth())
    write_uvarint(buffer, len(totals))
    for pid in sorted(totals):
        write_uvarint(buffer, pid)
        write_string(buffer, repr(totals[pid]))

    vocab_rows = sorted(index.vocabulary.export_rows())
    write_uvarint(buffer, index.vocabulary.element_doc_count)
    write_uvarint(buffer, len(vocab_rows))
    for token, cf, df, max_rel in vocab_rows:
        write_string(buffer, token)
        write_uvarint(buffer, cf)
        write_uvarint(buffer, df)
        write_string(buffer, repr(max_rel))

    tokens = sorted(index.inverted.tokens())
    write_uvarint(buffer, len(tokens))
    for token in tokens:
        write_string(buffer, token)
        buffer.extend(
            encode_postings(list(index.inverted.list_for(token)))
        )
    checksum = zlib.crc32(bytes(buffer)) & 0xFFFFFFFF
    buffer.extend(checksum.to_bytes(4, "big"))
    return bytes(buffer)


def loads_binary(data: bytes) -> CorpusIndex:
    """Deserialize an index written by :func:`dumps_binary`."""
    if data[: len(MAGIC)] != MAGIC:
        raise StorageError("not a binary XClean index")
    if len(data) < len(MAGIC) + 4:
        raise StorageError("truncated binary index")
    payload, trailer = data[:-4], data[-4:]
    expected = int.from_bytes(trailer, "big")
    actual = zlib.crc32(payload) & 0xFFFFFFFF
    if actual != expected:
        raise StorageError(
            f"binary index checksum mismatch "
            f"(stored {expected:#010x}, computed {actual:#010x})"
        )
    data = payload
    position = len(MAGIC)
    version, position = read_uvarint(data, position)
    if version not in (1, VERSION):
        raise StorageError(f"unsupported binary index version {version}")
    name, position = read_string(data, position)

    path_table = PathTable()
    path_count, position = read_uvarint(data, position)
    for _ in range(path_count):
        label_count, position = read_uvarint(data, position)
        labels = []
        for _ in range(label_count):
            label, position = read_string(data, position)
            labels.append(label)
        path_table.intern(tuple(labels))

    node_count, position = read_uvarint(data, position)
    path_node_counts: dict[int, int] = {}
    for _ in range(node_count):
        pid, position = read_uvarint(data, position)
        count, position = read_uvarint(data, position)
        path_node_counts[pid] = count

    pseudo, position = decode_postings(data, position)
    subtree_counts = {code: count for code, _unused, count in pseudo}

    path_token_totals: dict[int, float] | None = None
    max_depth: int | None = None
    if version >= 2:
        max_depth, position = read_uvarint(data, position)
        total_count, position = read_uvarint(data, position)
        path_token_totals = {}
        for _ in range(total_count):
            pid, position = read_uvarint(data, position)
            total_text, position = read_string(data, position)
            path_token_totals[pid] = float(total_text)

    element_docs, position = read_uvarint(data, position)
    row_count, position = read_uvarint(data, position)
    rows = []
    for _ in range(row_count):
        token, position = read_string(data, position)
        cf, position = read_uvarint(data, position)
        df, position = read_uvarint(data, position)
        max_rel_text, position = read_string(data, position)
        rows.append((token, cf, df, float(max_rel_text)))
    vocabulary = Vocabulary.from_rows(rows, element_docs)

    inverted = InvertedIndex()
    path_index = PathIndex()
    list_count, position = read_uvarint(data, position)
    for _ in range(list_count):
        token, position = read_string(data, position)
        postings, position = decode_postings(data, position)
        inverted.add_list(InvertedList(token, postings))
        path_index.set_counts(
            token, path_counts_from_postings(postings, path_table)
        )

    return CorpusIndex(
        name=name,
        path_table=path_table,
        inverted=inverted,
        path_index=path_index,
        vocabulary=vocabulary,
        subtree_token_counts=subtree_counts,
        path_node_counts=path_node_counts,
        tokenizer=Tokenizer(),
        path_token_totals_map=path_token_totals,
        max_depth=max_depth,
    )


def save_index_binary(index: CorpusIndex, path: str) -> None:
    """Write the compact binary form to ``path`` (crash-safe).

    The bytes land in a temp file that is atomically renamed into
    place (see :mod:`repro.index.atomic`).
    """
    with atomic_write(path, "wb") as handle:
        handle.write(dumps_binary(index))


def load_index_binary(path: str) -> CorpusIndex:
    """Load an index written by :func:`save_index_binary`."""
    with open(path, "rb") as handle:
        return loads_binary(handle.read())

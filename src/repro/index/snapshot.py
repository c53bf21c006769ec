"""Snapshot v3: zero-copy mmap persistence of the packed index.

The one index format every ``xclean`` command builds and reads.  The
archival v2 binary codec (:mod:`repro.index.storage_binary`)
deserializes the corpus into a full Python object graph, linear in
corpus size at every process start.  The v3 *snapshot* stores the
structures the packed query engine actually touches as flat,
little-endian, 8-byte-aligned sections in one file, so loading is::

    mmap the file → parse a fixed-size header + section table →
    wrap each section in a ``memoryview`` cast to its element type.

No per-posting Python object is ever materialized: posting columns stay
int64/int32 views that the merge loop searches directly, and a
pool of serving workers mapping the same file shares the bytes through
the OS page cache (copy-on-access never happens on a read mapping).

File layout (everything little-endian)::

    header   magic "XCS3" | u32 version | u32 section count
             | u32 CRC32(section table)
    table    per section: 16s name (NUL-padded) | u64 offset
             | u64 length | u32 CRC32(payload) | u32 reserved
    payload  sections, each padded to an 8-byte boundary

Section reference (``i``/``q``/``I``/``d`` are array element codes;
*blob* sections are raw UTF-8 bytes):

=============  ====  =====================================================
name           type  contents
=============  ====  =====================================================
meta           blob  JSON: name, stats, packer dims, tokenizer, FastSS
paths_off      I     ``n_paths+1`` offsets into ``paths_blob``
paths_blob     blob  label-path strings ("/a/b"), **in path-id order**
pnode_pids     i     path ids with node counts (sorted)
pnode_counts   q     node count per ``pnode_pids`` entry (Eq. 8's N)
ptot_pids      i     path ids with token totals (sorted)
ptot_vals      d     W_p per ``ptot_pids`` entry (Eq. 8, length prior)
sub_keys       q     packed Dewey codes with subtree lengths (sorted)
sub_lens       q     \\|D(r)\\| per ``sub_keys`` entry (Eq. 6)
voc_off        I     ``n_tokens+1`` offsets into ``voc_blob``
voc_blob       blob  token strings **sorted by UTF-8 bytes** (id = rank)
voc_cf         q     collection frequency per token id
voc_df         q     element document frequency per token id
voc_rel        d     max relative tf per token id (PY08)
post_starts    q     ``n_tokens+1`` posting offsets per token id
post_keys      q     packed Dewey keys, concatenated per token
post_pids      i     posting path ids (parallel to ``post_keys``)
post_tfs       i     posting term frequencies (parallel)
pidx_starts    q     ``n_tokens+1`` offsets into the f_w^p pairs
pidx_pids      i     path ids of the f_w^p pairs (sorted per token)
pidx_counts    q     f_w^p per ``pidx_pids`` entry (Eq. 7)
fsd_?_key      q     [optional] FastSS bucket table (?: s/p/x = short/
                     prefix/suffix): distinct signature digests, sorted
fsd_?_start    q     ``len(key)+1`` offsets: bucket i is
                     ``ids[start[i]:start[i+1]]``
fsd_?_ids      i     vocabulary token ids, per bucket
=============  ====  =====================================================

A signature's digest is ``blake2b(signature, digest_size=8)`` read as
a little-endian int64 (:mod:`repro.fastss.table`); signatures whose
digests collide share a bucket, which only widens the candidate set
that verification filters.  Files written before these tables carry
``fss_*`` sections instead; they are unknown now, so such a file, like
one built without FastSS, rebuilds its variant index from the
vocabulary on first use.

Versioning rules: the magic changes only on incompatible layout
changes; unknown *extra* sections are ignored by loaders (forward
compatible); removing or re-typing a listed section requires a new
magic.  On big-endian hosts sections are copied into ``array`` objects
and byte-swapped at load (correct, not zero-copy).

The builder (:func:`build_snapshot`) can fan the per-token column
packing out across a fork-based process pool; section bytes are
concatenated in vocabulary order at the end, so the output is
byte-identical to a serial build.
"""

from __future__ import annotations

import itertools
import json
import logging
import mmap
import multiprocessing
import os
import struct
import sys
import zlib
from array import array
from bisect import bisect_left
from concurrent.futures import ProcessPoolExecutor
from typing import Iterator

from repro.exceptions import DeweyError, StorageError
from repro.fastss.generator import (
    DEFAULT_VARIANT_CACHE_SIZE,
    VariantGenerator,
)
from repro.fastss.index import FastSSIndex, PartitionedFastSSIndex
from repro.fastss.table import SignatureTable
from repro.index.atomic import atomic_write
from repro.index.corpus import CorpusIndex, QueryEngineMixin
from repro.index.inverted import InvertedList, PackedInvertedList
from repro.index.tokenizer import Tokenizer, TokenizerConfig
from repro.obs.context import Context
from repro.obs.faults import active as _active_faults
from repro.obs.metrics import INDEX_LOAD_STAGE, NULL_METRICS
from repro.xmltree.dewey import DeweyCode
from repro.xmltree.dewey_packed import DeweyPacker
from repro.xmltree.labelpath import PathTable, format_path, parse_path

logger = logging.getLogger(__name__)

MAGIC = b"XCS3"
VERSION = 3

#: Suffix appended when a corrupt snapshot is moved aside.
QUARANTINE_SUFFIX = ".quarantined"

_HEADER = struct.Struct("<4sIII")
_ENTRY = struct.Struct("<16sQQII")

#: Element type per section name (``None`` = raw byte blob).  The
#: loader rejects a file whose section length is not a multiple of the
#: element size, and ignores names it does not know (see versioning
#: rules in the module docstring).
_SECTION_FORMATS: dict[str, str | None] = {
    "meta": None,
    "paths_off": "I",
    "paths_blob": None,
    "pnode_pids": "i",
    "pnode_counts": "q",
    "ptot_pids": "i",
    "ptot_vals": "d",
    "sub_keys": "q",
    "sub_lens": "q",
    "voc_off": "I",
    "voc_blob": None,
    "voc_cf": "q",
    "voc_df": "q",
    "voc_rel": "d",
    "post_starts": "q",
    "post_keys": "q",
    "post_pids": "i",
    "post_tfs": "i",
    "pidx_starts": "q",
    "pidx_pids": "i",
    "pidx_counts": "q",
    "fsd_s_key": "q",
    "fsd_s_start": "q",
    "fsd_s_ids": "i",
    "fsd_p_key": "q",
    "fsd_p_start": "q",
    "fsd_p_ids": "i",
    "fsd_x_key": "q",
    "fsd_x_start": "q",
    "fsd_x_ids": "i",
}

_REQUIRED_SECTIONS = tuple(
    name for name in _SECTION_FORMATS if not name.startswith("fsd_")
)

#: Sections the fast loader materializes into Python objects, all
#: O(paths), so their CRCs are checked on every load: a flipped byte in
#: them would otherwise surface as a ``KeyError`` or a wrong path
#: table.  The O(postings) sections stay mapped and unchecked until
#: :func:`verify_snapshot`.
_LOAD_CHECKED = (
    "meta", "paths_off", "paths_blob", "pnode_pids", "pnode_counts",
    "ptot_pids", "ptot_vals",
)

#: Bound of the per-structure string/id memo dicts on the query path
#: (token → vocabulary id, id → decoded token).  Matches the result-type
#: LRU default: large enough for ~100% hit rates on skewed traffic,
#: small enough that memory stays flat on a long-lived service.
_MEMO_LIMIT = 65536


def _align8(value: int) -> int:
    return (value + 7) & ~7


# ----------------------------------------------------------------------
# Builder
# ----------------------------------------------------------------------


def _string_table(strings: list[str]) -> tuple[bytes, bytes]:
    """``(u32 offsets, blob)`` for strings in the given (id) order."""
    offsets = array("I", [0])
    chunks = []
    total = 0
    for text in strings:
        encoded = text.encode("utf-8")
        chunks.append(encoded)
        total += len(encoded)
        offsets.append(total)
    return _le_bytes(offsets), b"".join(chunks)


def _le_bytes(column: array) -> bytes:
    """Array bytes in little-endian order regardless of host."""
    if sys.byteorder != "little":
        column = array(column.typecode, column)
        column.byteswap()
    return column.tobytes()


# Build-side fan-out state.  Set in the parent *before* the fork pool
# spawns its workers, so children inherit the inverted index and packer
# through the fork — nothing corpus-sized is ever pickled; each task
# message is a (lo, hi) token span and each result a bytes triple.
_PACK_SOURCE: tuple | None = None


def _pack_token_span(span: tuple[int, int]):
    assert _PACK_SOURCE is not None, "pack worker not initialized"
    inverted, packer, tokens = _PACK_SOURCE
    lo, hi = span
    keys = array("q")
    pids = array("i")
    tfs = array("i")
    lengths = []
    pack = packer.pack
    for token in tokens[lo:hi]:
        postings = inverted.list_for(token)
        lengths.append(len(postings))
        for code, pid, tf in postings:
            keys.append(pack(code))
            pids.append(pid)
            tfs.append(tf)
    return lengths, _le_bytes(keys), _le_bytes(pids), _le_bytes(tfs)


def _pack_postings(
    index: CorpusIndex,
    packer: DeweyPacker,
    tokens: list[str],
    workers: int | None,
) -> tuple[bytes, bytes, bytes, bytes]:
    """(post_starts, post_keys, post_pids, post_tfs) section bytes."""
    global _PACK_SOURCE
    _PACK_SOURCE = (index.inverted, packer, tokens)
    try:
        parts = None
        if workers and workers > 1 and len(tokens) > 1:
            try:
                context = multiprocessing.get_context("fork")
            except ValueError:
                context = None
            if context is not None:
                chunk = max(1, -(-len(tokens) // (workers * 4)))
                spans = [
                    (lo, min(lo + chunk, len(tokens)))
                    for lo in range(0, len(tokens), chunk)
                ]
                with ProcessPoolExecutor(
                    max_workers=workers, mp_context=context
                ) as pool:
                    parts = list(pool.map(_pack_token_span, spans))
        if parts is None:
            parts = [_pack_token_span((0, len(tokens)))]
    finally:
        _PACK_SOURCE = None
    starts = array("q", [0])
    total = 0
    for lengths, _keys, _pids, _tfs in parts:
        for length in lengths:
            total += length
            starts.append(total)
    return (
        _le_bytes(starts),
        b"".join(part[1] for part in parts),
        b"".join(part[2] for part in parts),
        b"".join(part[3] for part in parts),
    )


def build_snapshot(
    index: CorpusIndex,
    path: str,
    generator: VariantGenerator | None = None,
    fastss_max_errors: int | None = 3,
    fastss_partition_threshold: int = 9,
    workers: int | None = None,
    metrics=None,
    generation: int = 0,
) -> dict:
    """Write ``index`` to ``path`` in snapshot v3 form.

    ``generation`` stamps a monotonically increasing data generation
    into the snapshot meta (see ``docs/index_format.md``); the live
    update/compaction pipeline bumps it on every fold so serving tiers
    can tell two builds of the same corpus apart.

    ``generator`` embeds an existing FastSS index (it must be built
    over the corpus vocabulary); without one, a partitioned FastSS
    index with ``fastss_max_errors`` is built and embedded, unless
    ``fastss_max_errors`` is ``None`` (no variant sections — loaders
    then rebuild variant indexes from the vocabulary on demand).

    ``workers`` > 1 fans the per-token column packing out over a
    fork-based process pool; the output is byte-identical to a serial
    build.  Returns a summary dict (file size, per-section bytes).
    """
    metrics = metrics or NULL_METRICS

    packer = DeweyPacker.for_codes(
        itertools.chain(
            (
                code
                for token in index.inverted.tokens()
                for code, _pid, _tf in index.inverted.list_for(token)
            ),
            index.subtree_token_counts,
        )
    )
    if not packer.fits_int64:
        raise StorageError(
            f"packed Dewey keys need {packer.total_bits} bits; snapshot "
            f"v3 stores int64 keys (split the corpus or deepen the "
            f"format first)"
        )

    rows = sorted(
        index.vocabulary.export_rows(),
        key=lambda row: row[0].encode("utf-8"),
    )
    tokens = [row[0] for row in rows]

    sections: list[tuple[str, bytes]] = []

    def add(name: str, payload: bytes) -> None:
        sections.append((name, payload))

    paths = [format_path(labels) for labels in index.path_table]
    paths_off, paths_blob = _string_table(paths)
    add("paths_off", paths_off)
    add("paths_blob", paths_blob)

    pnode = sorted(index.path_node_counts.items())
    add("pnode_pids", _le_bytes(array("i", (p for p, _c in pnode))))
    add("pnode_counts", _le_bytes(array("q", (c for _p, c in pnode))))

    totals = sorted(index.path_token_totals().items())
    add("ptot_pids", _le_bytes(array("i", (p for p, _v in totals))))
    add("ptot_vals", _le_bytes(array("d", (v for _p, v in totals))))

    subtree = sorted(
        (packer.pack(code), count)
        for code, count in index.subtree_token_counts.items()
    )
    add("sub_keys", _le_bytes(array("q", (k for k, _v in subtree))))
    add("sub_lens", _le_bytes(array("q", (v for _k, v in subtree))))

    voc_off, voc_blob = _string_table(tokens)
    add("voc_off", voc_off)
    add("voc_blob", voc_blob)
    add("voc_cf", _le_bytes(array("q", (row[1] for row in rows))))
    add("voc_df", _le_bytes(array("q", (row[2] for row in rows))))
    add("voc_rel", _le_bytes(array("d", (row[3] for row in rows))))

    with Context(metrics).stage("pack_index"):
        starts, keys, pids, tfs = _pack_postings(
            index, packer, tokens, workers
        )
    add("post_starts", starts)
    add("post_keys", keys)
    add("post_pids", pids)
    add("post_tfs", tfs)

    pidx_starts = array("q", [0])
    pidx_pids = array("i")
    pidx_counts = array("q")
    total_pairs = 0
    for token in tokens:
        pairs = sorted(index.path_index.counts_for(token).items())
        for pid, count in pairs:
            pidx_pids.append(pid)
            pidx_counts.append(count)
        total_pairs += len(pairs)
        pidx_starts.append(total_pairs)
    add("pidx_starts", _le_bytes(pidx_starts))
    add("pidx_pids", _le_bytes(pidx_pids))
    add("pidx_counts", _le_bytes(pidx_counts))

    fastss_meta = None
    if generator is None and fastss_max_errors is not None:
        generator = VariantGenerator(
            tokens,
            max_errors=fastss_max_errors,
            partition_threshold=fastss_partition_threshold,
        )
    if generator is not None:
        variant_index = getattr(generator, "_index", generator)
        fastss_meta = _add_fastss_sections(add, variant_index, tokens)

    tokenizer_config = index.tokenizer.config
    meta = {
        "name": index.name,
        "generation": generation,
        "element_doc_count": index.vocabulary.element_doc_count,
        "total_tokens": index.vocabulary.total_tokens,
        "max_path_depth": index.max_path_depth(),
        "counts": {
            "tokens": len(tokens),
            "postings": index.inverted.total_postings(),
            "paths": len(paths),
        },
        "packer": {
            "max_depth": packer.max_depth,
            "component_bits": packer.component_bits,
        },
        "tokenizer": {
            "min_length": tokenizer_config.min_length,
            "lowercase": tokenizer_config.lowercase,
            "drop_numbers": tokenizer_config.drop_numbers,
            "stopwords": sorted(tokenizer_config.stopwords),
        },
        "fastss": fastss_meta,
    }
    sections.insert(
        0, ("meta", json.dumps(meta, sort_keys=True).encode("utf-8"))
    )

    return _write_sections(path, sections)


def _add_fastss_sections(add, variant_index, tokens) -> dict | None:
    """Emit the fsd_* columns of a FastSS index; None if unsupported.

    The columns are written as the index holds them.  Only when its
    token ids are not the snapshot's vocabulary ranks (a generator
    built in another token order) is the ids column translated.
    """
    if isinstance(variant_index, PartitionedFastSSIndex):
        meta = {
            "kind": "partitioned",
            "max_errors": variant_index.max_errors,
            "partition_threshold": variant_index.partition_threshold,
            "long_lengths": sorted(variant_index._long_lengths),
        }
    elif isinstance(variant_index, FastSSIndex):
        meta = {
            "kind": "plain",
            "max_errors": variant_index.max_errors,
            "partition_threshold": None,
            "long_lengths": [],
        }
    else:
        # Unknown generator flavour (e.g. the brute-force oracle):
        # skip the sections; loaders rebuild from the vocabulary.
        return None
    ranked = variant_index._tokens == tokens
    token_ids = {} if ranked else {t: r for r, t in enumerate(tokens)}

    def rank(member: int) -> int:
        token = variant_index._token(member)
        found = token_ids.get(token)
        if found is None:
            raise StorageError(
                f"FastSS bucket token {token!r} is not in the corpus "
                f"vocabulary; snapshots can only embed generators "
                f"built over the corpus tokens"
            )
        return found

    for tag, table in variant_index.tables().items():
        table = table.frozen()
        ids = table.ids if ranked else array("i", map(rank, table.ids))
        add(f"fsd_{tag}_key", _le_bytes(table.keys))
        add(f"fsd_{tag}_start", _le_bytes(table.starts))
        add(f"fsd_{tag}_ids", _le_bytes(ids))
    return meta


def _write_sections(
    path: str, sections: list[tuple[str, bytes]]
) -> dict:
    """Lay out header + table + aligned payloads; return a summary."""
    header_size = _HEADER.size + len(sections) * _ENTRY.size
    offset = _align8(header_size)
    entries = []
    for name, payload in sections:
        encoded = name.encode("ascii")
        if len(encoded) > 16:
            raise StorageError(f"section name {name!r} exceeds 16 bytes")
        entries.append(
            _ENTRY.pack(
                encoded.ljust(16, b"\0"),
                offset,
                len(payload),
                zlib.crc32(payload) & 0xFFFFFFFF,
                0,
            )
        )
        offset = _align8(offset + len(payload))
    table = b"".join(entries)
    header = _HEADER.pack(
        MAGIC, VERSION, len(sections), zlib.crc32(table) & 0xFFFFFFFF
    )
    # Crash-safe: the whole file lands in <path>.tmp and is renamed
    # into place, so a build killed mid-write cannot leave a torn
    # (loadable-looking) snapshot under the destination name.
    with atomic_write(path, "wb") as handle:
        handle.write(header)
        handle.write(table)
        position = header_size
        for _name, payload in sections:
            padding = _align8(position) - position
            if padding:
                handle.write(b"\0" * padding)
            handle.write(payload)
            position = _align8(position) + len(payload)
        padding = _align8(position) - position
        if padding:
            handle.write(b"\0" * padding)
        total = _align8(position)
    return {
        "path": path,
        "bytes": total,
        "sections": {
            name: len(payload) for name, payload in sections
        },
    }


# ----------------------------------------------------------------------
# Loader plumbing
# ----------------------------------------------------------------------


def _map_file(path: str) -> mmap.mmap:
    """mmap ``path`` read-only; the descriptor is closed immediately.

    POSIX keeps the mapping (and the pages behind it) valid after the
    file is closed or even unlinked — the snapshot index therefore
    survives rotation (or quarantine) of the file it was loaded from.

    This is the ``snapshot.load`` fault-injection site: every mapping —
    fast loads, deep verifies, worker inits — funnels through here, so
    a plan can fail or corrupt any snapshot read deterministically.
    """
    faults = _active_faults()
    if faults.enabled:
        faults.hit("snapshot.load", path=path)
    with open(path, "rb") as handle:
        if handle.seek(0, 2) == 0:
            raise StorageError("truncated snapshot: empty file")
        return mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)


def _parse_table(mapped) -> dict[str, tuple[int, int, int]]:
    """Validate header and table; return name → (offset, length, crc)."""
    if len(mapped) < _HEADER.size:
        raise StorageError(
            f"truncated snapshot: {len(mapped)} bytes is shorter than "
            f"the {_HEADER.size}-byte header"
        )
    magic, version, count, table_crc = _HEADER.unpack_from(mapped, 0)
    if magic != MAGIC:
        raise StorageError(
            f"not an XClean snapshot (magic {magic!r}, expected "
            f"{MAGIC!r})"
        )
    if version != VERSION:
        raise StorageError(
            f"unsupported snapshot version {version} (this reader "
            f"handles version {VERSION})"
        )
    table_end = _HEADER.size + count * _ENTRY.size
    if len(mapped) < table_end:
        raise StorageError(
            f"truncated snapshot: section table needs {table_end} "
            f"bytes, file has {len(mapped)}"
        )
    table = bytes(mapped[_HEADER.size : table_end])
    actual = zlib.crc32(table) & 0xFFFFFFFF
    if actual != table_crc:
        raise StorageError(
            f"snapshot section table checksum mismatch (stored "
            f"{table_crc:#010x}, computed {actual:#010x})"
        )
    out: dict[str, tuple[int, int, int]] = {}
    for position in range(count):
        raw_name, offset, length, crc, _reserved = _ENTRY.unpack_from(
            table, position * _ENTRY.size
        )
        name = raw_name.rstrip(b"\0").decode("ascii", "replace")
        if offset + length > len(mapped):
            raise StorageError(
                f"snapshot section {name!r} out of bounds "
                f"(offset {offset} + length {length} > file size "
                f"{len(mapped)})"
            )
        out[name] = (offset, length, crc)
    missing = [n for n in _REQUIRED_SECTIONS if n not in out]
    if missing:
        raise StorageError(
            f"snapshot is missing required sections: "
            f"{', '.join(missing)}"
        )
    return out


def _check_crc(name: str, payload, stored: int) -> None:
    """Raise :class:`StorageError` unless ``payload`` matches its CRC."""
    actual = zlib.crc32(payload) & 0xFFFFFFFF
    if actual != stored:
        raise StorageError(
            f"snapshot section {name!r} checksum mismatch "
            f"(stored {stored:#010x}, computed {actual:#010x})"
        )


class _Sections:
    """Typed views over the mapped sections of one snapshot."""

    def __init__(self, mapped, table: dict[str, tuple[int, int, int]]):
        self._memory = memoryview(mapped)
        self.table = table

    def blob(self, name: str) -> memoryview:
        offset, length, _crc = self.table[name]
        return self._memory[offset : offset + length]

    def column(self, name: str):
        """Section as an int/float view (zero-copy on little-endian)."""
        fmt = _SECTION_FORMATS[name]
        assert fmt is not None, name
        raw = self.blob(name)
        itemsize = struct.calcsize(fmt)
        if len(raw) % itemsize:
            raise StorageError(
                f"snapshot section {name!r} length {len(raw)} is not "
                f"a multiple of its {itemsize}-byte element"
            )
        if sys.byteorder != "little":
            swapped = array(fmt)
            swapped.frombytes(bytes(raw))
            swapped.byteswap()
            return swapped
        return raw.cast(fmt)


class _StringTable:
    """Read-only id ↔ string table over (offsets, blob) sections.

    ``find`` binary-searches by UTF-8 bytes and therefore requires the
    table to be byte-sorted (the vocabulary is; the path table is
    id-ordered and only ever indexed).  Decoded strings are memoized
    up to a bound so hot tokens decode once, and so is the id each
    came from: a string just decoded (a FastSS candidate, say) is
    found again without a search.
    """

    __slots__ = ("_offsets", "_blob", "_decoded", "_ids")

    def __init__(self, offsets, blob):
        self._offsets = offsets
        self._blob = blob
        self._decoded: dict[int, str] = {}
        self._ids: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._offsets) - 1

    def raw(self, index: int) -> bytes:
        return bytes(
            self._blob[self._offsets[index] : self._offsets[index + 1]]
        )

    def get_str(self, index: int) -> str:
        decoded = self._decoded.get(index)
        if decoded is None:
            # Ids can come from mapped columns (the FastSS tables),
            # which loading does not CRC: a stray id must not wrap
            # around to another string.
            if not 0 <= index < len(self._offsets) - 1:
                raise StorageError(
                    f"snapshot string id {index} is outside its "
                    f"{len(self)}-entry table"
                )
            decoded = self.raw(index).decode("utf-8")
            if len(self._decoded) < _MEMO_LIMIT:
                self._decoded[index] = decoded
                self._ids[decoded] = index
        return decoded

    def find(self, text: str) -> int:
        """Rank of ``text`` in the byte-sorted table, or -1."""
        found = self._ids.get(text)
        if found is not None:
            return found
        probe = text.encode("utf-8")
        lo, hi = 0, len(self)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.raw(mid) < probe:
                lo = mid + 1
            else:
                hi = mid
        if lo < len(self) and self.raw(lo) == probe:
            return lo
        return -1

    def __iter__(self) -> Iterator[str]:
        for index in range(len(self)):
            yield self.get_str(index)


class PackedKeyMap:
    """Sorted-column ``.get`` map (the snapshot's ``subtree_lengths``).

    Mirrors the dict the in-memory :class:`PackedIndex` keeps, but as
    two parallel columns probed by bisect — the scoring loop only ever
    calls ``get``.
    """

    __slots__ = ("_keys", "_values")

    def __init__(self, keys, values):
        self._keys = keys
        self._values = values

    def __len__(self) -> int:
        return len(self._keys)

    def get(self, key: int, default: int = 0) -> int:
        keys = self._keys
        position = bisect_left(keys, key)
        if position < len(keys) and keys[position] == key:
            return self._values[position]
        return default

    def items(self) -> Iterator[tuple[int, int]]:
        keys = self._keys
        values = self._values
        for position in range(len(keys)):
            yield keys[position], values[position]


class SnapshotVocabulary:
    """mmap-backed twin of :class:`~repro.index.vocabulary.Vocabulary`.

    Same read interface; statistics come straight from the ``voc_*``
    columns.  Token → id lookups are memoized because the language
    model asks for ``background_probability`` once per scored entity.
    """

    __slots__ = (
        "_table", "_cf", "_df", "_rel", "_total_tokens",
        "_element_doc_count", "_ids",
    )

    def __init__(self, table, cf, df, rel, total_tokens,
                 element_doc_count):
        self._table = table
        self._cf = cf
        self._df = df
        self._rel = rel
        self._total_tokens = total_tokens
        self._element_doc_count = element_doc_count
        self._ids: dict[str, int] = {}

    def _id(self, token: str) -> int:
        ids = self._ids
        found = ids.get(token)
        if found is None:
            found = self._table.find(token)
            if len(ids) < _MEMO_LIMIT:
                ids[token] = found
        return found

    def __contains__(self, token: str) -> bool:
        return self._id(token) >= 0

    def __len__(self) -> int:
        return len(self._table)

    def __iter__(self) -> Iterator[str]:
        return iter(self._table)

    def tokens(self):
        return iter(self._table)

    @property
    def total_tokens(self) -> int:
        return self._total_tokens

    @property
    def element_doc_count(self) -> int:
        return self._element_doc_count

    def collection_frequency(self, token: str) -> int:
        rank = self._id(token)
        return self._cf[rank] if rank >= 0 else 0

    def background_probability(self, token: str) -> float:
        if self._total_tokens == 0:
            return 0.0
        rank = self._id(token)
        cf = self._cf[rank] if rank >= 0 else 0
        return cf / self._total_tokens

    def element_document_frequency(self, token: str) -> int:
        rank = self._id(token)
        return self._df[rank] if rank >= 0 else 0

    def max_relative_tf(self, token: str) -> float:
        rank = self._id(token)
        return self._rel[rank] if rank >= 0 else 0.0

    def idf(self, token: str) -> float:
        import math

        df = self.element_document_frequency(token)
        if df == 0 or self._element_doc_count == 0:
            return 0.0
        return math.log(self._element_doc_count / df)

    def max_tfidf(self, token: str) -> float:
        return self.max_relative_tf(token) * self.idf(token)

    def export_rows(self):
        for rank in range(len(self._table)):
            yield (
                self._table.get_str(rank),
                self._cf[rank],
                self._df[rank],
                self._rel[rank],
            )


class SnapshotPathIndex:
    """mmap-backed twin of :class:`~repro.index.path_index.PathIndex`.

    ``counts_for`` materializes one small dict per distinct token and
    memoizes it — result-type inference hits the same tokens over and
    over, and Eq. 7 only needs membership tests and single lookups.
    """

    __slots__ = ("_vocabulary", "_starts", "_pids", "_counts", "_memo")

    def __init__(self, vocabulary: SnapshotVocabulary, starts, pids,
                 counts):
        self._vocabulary = vocabulary
        self._starts = starts
        self._pids = pids
        self._counts = counts
        self._memo: dict[str, dict[int, int]] = {}

    def _span(self, token: str) -> tuple[int, int]:
        rank = self._vocabulary._id(token)
        if rank < 0:
            return (0, 0)
        return self._starts[rank], self._starts[rank + 1]

    def __contains__(self, token: str) -> bool:
        lo, hi = self._span(token)
        return hi > lo

    def __len__(self) -> int:
        starts = self._starts
        return sum(
            1
            for rank in range(len(starts) - 1)
            if starts[rank + 1] > starts[rank]
        )

    def tokens(self):
        starts = self._starts
        table = self._vocabulary._table
        for rank in range(len(starts) - 1):
            if starts[rank + 1] > starts[rank]:
                yield table.get_str(rank)

    def counts_for(self, token: str) -> dict[int, int]:
        found = self._memo.get(token)
        if found is None:
            lo, hi = self._span(token)
            pids = self._pids
            counts = self._counts
            found = {
                pids[position]: counts[position]
                for position in range(lo, hi)
            }
            if len(self._memo) < _MEMO_LIMIT:
                self._memo[token] = found
        return found

    def f(self, token: str, path_id: int) -> int:
        return self.counts_for(token).get(path_id, 0)


class SnapshotPackedIndex:
    """mmap-backed twin of :class:`~repro.index.corpus.PackedIndex`.

    ``get`` returns :class:`PackedInvertedList` objects whose columns
    are memoryview *slices* of the mapped posting sections — the merge
    loop bisects them exactly as it bisects ``array`` columns, and no
    posting is ever copied into a Python object.
    """

    __slots__ = (
        "packer", "_subtree", "_vocabulary", "_starts", "_keys",
        "_pids", "_tfs", "_lists",
    )

    def __init__(self, packer: DeweyPacker, subtree: PackedKeyMap,
                 vocabulary: SnapshotVocabulary, starts, keys, pids,
                 tfs):
        self.packer = packer
        self._subtree = subtree
        self._vocabulary = vocabulary
        self._starts = starts
        self._keys = keys
        self._pids = pids
        self._tfs = tfs
        self._lists: dict[str, PackedInvertedList] = {}

    @property
    def subtree_lengths(self) -> PackedKeyMap:
        """|D(r)| keyed by packed Dewey code (bisect-backed ``get``)."""
        return self._subtree

    def get(self, token: str) -> PackedInvertedList | None:
        packed = self._lists.get(token)
        if packed is None:
            rank = self._vocabulary._id(token)
            if rank < 0:
                return None
            lo, hi = self._starts[rank], self._starts[rank + 1]
            packed = PackedInvertedList(
                token,
                self._keys[lo:hi],
                self._pids[lo:hi],
                self._tfs[lo:hi],
            )
            if len(self._lists) < _MEMO_LIMIT:
                self._lists[token] = packed
        return packed


class _LazyInvertedIndex:
    """Tuple posting lists over the packed posting sections.

    The merge loop never touches this; the offline tuple readers
    (``NaiveCleaner``, SLCA/ELCA, entity search, PY08) do, so lists
    are unpacked *per requested token*, on demand, and memoized.
    """

    __slots__ = ("_packed", "_memo")

    def __init__(self, packed: SnapshotPackedIndex):
        self._packed = packed
        self._memo: dict[str, InvertedList | None] = {}

    def get(self, token: str) -> InvertedList | None:
        if token in self._memo:
            return self._memo[token]
        columns = self._packed.get(token)
        if columns is None:
            materialized = None
        else:
            unpack = self._packed.packer.unpack
            materialized = InvertedList(
                token,
                [
                    (unpack(columns.keys[i]), columns.path_ids[i],
                     columns.tfs[i])
                    for i in range(len(columns))
                ],
            )
        if len(self._memo) < _MEMO_LIMIT:
            self._memo[token] = materialized
        return materialized

    def list_for(self, token: str) -> InvertedList:
        found = self.get(token)
        if found is None:
            return InvertedList(token, [])
        return found

    def __contains__(self, token: str) -> bool:
        return self._packed._vocabulary._id(token) >= 0

    def tokens(self):
        packed = self._packed
        starts = packed._starts
        table = packed._vocabulary._table
        for rank in range(len(starts) - 1):
            if starts[rank + 1] > starts[rank]:
                yield table.get_str(rank)

    def __len__(self) -> int:
        starts = self._packed._starts
        return sum(
            1
            for rank in range(len(starts) - 1)
            if starts[rank + 1] > starts[rank]
        )

    def total_postings(self) -> int:
        starts = self._packed._starts
        return starts[len(starts) - 1] if len(starts) else 0


# ----------------------------------------------------------------------
# The loaded corpus
# ----------------------------------------------------------------------


class SnapshotCorpusIndex(QueryEngineMixin):
    """A corpus index served directly out of a mapped v3 snapshot.

    Exposes the :class:`~repro.index.corpus.CorpusIndex` query surface
    (it shares :class:`QueryEngineMixin`), but the packed engine's data
    — posting columns, subtree lengths, vocabulary statistics — are
    memoryviews into the mapping.  Only the small dict-shaped
    structures (path table, Eq. 8 normalizers) are materialized at
    load, so construction is O(paths), not O(postings).
    """

    def __init__(self, mapped, sections: _Sections, meta: dict,
                 snapshot_path: str):
        self._mapped = mapped
        self._sections = sections
        self._meta = meta
        self.snapshot_path = snapshot_path
        self.name = meta["name"]
        #: Data generation stamped at build time (0 for pre-live
        #: snapshots; bumped by every compaction fold).  Distinct from
        #: the mixin's in-process cache ``generation`` counter.
        self.data_generation = meta.get("generation", 0)

        tok = meta["tokenizer"]
        self.tokenizer = Tokenizer(
            TokenizerConfig(
                min_length=tok["min_length"],
                lowercase=tok["lowercase"],
                drop_numbers=tok["drop_numbers"],
                stopwords=frozenset(tok["stopwords"]),
            )
        )

        self.path_table = PathTable()
        path_strings = _StringTable(
            sections.column("paths_off"), sections.blob("paths_blob")
        )
        for text in path_strings:
            self.path_table.intern(parse_path(text))

        self.path_node_counts = dict(
            zip(
                sections.column("pnode_pids"),
                sections.column("pnode_counts"),
            )
        )
        self.path_token_totals_map = dict(
            zip(
                sections.column("ptot_pids"),
                sections.column("ptot_vals"),
            )
        )
        self.max_depth = meta["max_path_depth"]

        vocab_table = _StringTable(
            sections.column("voc_off"), sections.blob("voc_blob")
        )
        self.vocabulary = SnapshotVocabulary(
            vocab_table,
            sections.column("voc_cf"),
            sections.column("voc_df"),
            sections.column("voc_rel"),
            meta["total_tokens"],
            meta["element_doc_count"],
        )

        packer_meta = meta["packer"]
        # Keys are int64 columns; a wider claim is malformed, and
        # DeweyPacker would allocate 2**component_bits to mask it.
        if not 0 < packer_meta["component_bits"] < 64:
            raise ValueError("packer component_bits out of range")
        packer = DeweyPacker(
            packer_meta["max_depth"], packer_meta["component_bits"]
        )
        subtree = PackedKeyMap(
            sections.column("sub_keys"), sections.column("sub_lens")
        )
        self._packed_index = SnapshotPackedIndex(
            packer,
            subtree,
            self.vocabulary,
            sections.column("post_starts"),
            sections.column("post_keys"),
            sections.column("post_pids"),
            sections.column("post_tfs"),
        )
        self.path_index = SnapshotPathIndex(
            self.vocabulary,
            sections.column("pidx_starts"),
            sections.column("pidx_pids"),
            sections.column("pidx_counts"),
        )
        self._inverted: _LazyInvertedIndex | None = None
        self._subtree_tuple_counts: dict[DeweyCode, int] | None = None
        self._fastss: object | None = None
        self._init_query_caches()

    # -- query surface shared with CorpusIndex -------------------------

    def packed_view(self) -> SnapshotPackedIndex:
        """The columnar engine view (already built — it *is* the file)."""
        return self._packed_index

    @property
    def inverted(self) -> _LazyInvertedIndex:
        """Tuple-list shim for the offline readers; the merge loop
        never touches it."""
        found = self._inverted
        if found is None:
            found = _LazyInvertedIndex(self._packed_index)
            self._inverted = found
        return found

    @property
    def subtree_token_counts(self) -> dict[DeweyCode, int]:
        """Tuple-keyed |D(r)| map, materialized on first (rare) use."""
        found = self._subtree_tuple_counts
        if found is None:
            unpack = self._packed_index.packer.unpack
            found = {
                unpack(key): count
                for key, count in self._packed_index.subtree_lengths
                .items()
            }
            self._subtree_tuple_counts = found
        return found

    def subtree_length(self, dewey: DeweyCode) -> int:
        """|D(r)| — token count of the virtual document rooted at r."""
        try:
            key = self._packed_index.packer.pack(dewey)
        except DeweyError:
            # A shape the corpus never contained cannot have tokens.
            return 0
        return self._packed_index.subtree_lengths.get(key, 0)

    # -- variant generation --------------------------------------------

    def variant_generator(
        self,
        max_errors: int = 2,
        cache_size: int = DEFAULT_VARIANT_CACHE_SIZE,
    ) -> VariantGenerator:
        """A variant generator over this corpus's vocabulary.

        Served from the embedded FastSS tables when present and built
        with a radius >= ``max_errors``; otherwise (no sections, or a
        larger radius requested) a fresh index is built from the
        vocabulary — correct either way, just slower to construct.
        """
        embedded = self._fastss_index()
        if embedded is not None and max_errors <= embedded.max_errors:
            return VariantGenerator(
                (),
                max_errors=max_errors,
                cache_size=cache_size,
                _shared_index=embedded,
            )
        return VariantGenerator(
            self.vocabulary.tokens(),
            max_errors=max_errors,
            cache_size=cache_size,
        )

    def _fastss_index(self):
        """The embedded FastSS index over the mapped fsd_* columns.

        Wrapping the columns does no work that grows with the number
        of signatures; each table gets only constant-time shape
        checks.  ``None`` when the file has no such tables.
        """
        if self._fastss is not None:
            return self._fastss
        fss_meta = self._meta.get("fastss")
        if not fss_meta or "fsd_s_key" not in self._sections.table:
            return None
        try:
            max_errors = int(fss_meta["max_errors"])
            token = self.vocabulary._table.get_str
            if fss_meta["kind"] == "partitioned":
                self._fastss = PartitionedFastSSIndex.over_tables(
                    self._signature_table("s"),
                    self._signature_table("p"),
                    self._signature_table("x"),
                    max_errors,
                    int(fss_meta["partition_threshold"]),
                    map(int, fss_meta["long_lengths"]),
                    token,
                )
            else:
                self._fastss = FastSSIndex.over_table(
                    self._signature_table("s"), max_errors, token
                )
        except (KeyError, TypeError, ValueError) as error:
            raise StorageError(
                f"malformed FastSS tables in {self.snapshot_path}: "
                f"{error!r}"
            ) from None
        return self._fastss

    def _signature_table(self, tag: str) -> SignatureTable:
        sections = self._sections
        keys = sections.column(f"fsd_{tag}_key")
        starts = sections.column(f"fsd_{tag}_start")
        ids = sections.column(f"fsd_{tag}_ids")
        if len(starts) != len(keys) + 1 or starts[-1] != len(ids):
            raise StorageError(
                f"snapshot FastSS table {tag!r} has an inconsistent "
                f"shape ({len(keys)} keys, {len(starts)} starts, "
                f"{len(ids)} ids)"
            )
        return SignatureTable(keys, starts, ids)

    # -- introspection --------------------------------------------------

    def describe(self) -> dict:
        """Summary counters plus the on-disk per-section byte sizes."""
        counts = self._meta["counts"]
        section_bytes = {
            name: length
            for name, (_off, length, _crc) in sorted(
                self._sections.table.items()
            )
        }
        return {
            "tokens": counts["tokens"],
            "postings": counts["postings"],
            "paths": counts["paths"],
            "total_occurrences": self._meta["total_tokens"],
            "snapshot_bytes": {
                **section_bytes,
                "total": len(self._mapped),
            },
        }

    def close(self) -> None:
        """Best-effort unmap.

        Memoryview slices handed to query structures keep the mapping
        alive; closing then raises ``BufferError``, which is swallowed —
        the mapping is reclaimed when the index is garbage-collected.
        """
        try:
            self._mapped.close()
        except BufferError:
            pass


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


def load_snapshot(path: str, metrics=None) -> SnapshotCorpusIndex:
    """Map a v3 snapshot and wrap it as a query-ready corpus index.

    O(header + paths): posting, vocabulary, and FastSS sections are
    only *referenced*, their bytes fault in lazily as queries touch
    them.  Header, table checksum, section bounds and the CRCs of the
    sections materialized here are validated, and any malformed
    content raises :class:`StorageError`; run :func:`verify_snapshot`
    for a deep per-section CRC check.
    """
    with Context(metrics or NULL_METRICS).stage(INDEX_LOAD_STAGE):
        mapped = _map_file(path)
        table = _parse_table(mapped)
        sections = _Sections(mapped, table)
        for name in _LOAD_CHECKED:
            _check_crc(name, sections.blob(name), table[name][2])
        try:
            meta = json.loads(bytes(sections.blob("meta")))
            return SnapshotCorpusIndex(mapped, sections, meta, path)
        except (
            KeyError, TypeError, ValueError, ArithmeticError,
            RecursionError, DeweyError,
        ) as error:
            raise StorageError(
                f"malformed snapshot {path}: {error!r}"
            ) from None


def verify_snapshot(path: str) -> dict:
    """Deep-check every section CRC; return a summary dict.

    Raises :class:`StorageError` on any mismatch, naming the damaged
    section — this is the integrity gate for snapshot distribution
    (the fast loader only validates the header and table).
    """
    mapped = _map_file(path)
    try:
        table = _parse_table(mapped)
        view = memoryview(mapped)
        for name, (offset, length, stored) in sorted(table.items()):
            _check_crc(name, view[offset : offset + length], stored)
        view.release()
        return {
            "path": path,
            "bytes": len(mapped),
            "sections": len(table),
        }
    finally:
        try:
            mapped.close()
        except BufferError:  # pragma: no cover - defensive
            pass


def quarantine_snapshot(path: str, metrics=None) -> str | None:
    """Move a damaged snapshot aside so nothing loads it again.

    Renames ``path`` to ``path + ".quarantined"`` (atomic; an existing
    quarantine file from an earlier incident is overwritten) and bumps
    the ``snapshot_quarantined_total`` counter.  Returns the quarantine
    path, or ``None`` when the rename failed (file already gone, or a
    permission problem — logged, not raised: quarantine is a best-effort
    cleanup on an already-failing path).

    Live mappings of the file keep working after the rename (POSIX
    keeps mapped pages valid), so a parent process that loaded the
    snapshot before it went bad continues serving while new loads and
    new workers fall back.
    """
    metrics = metrics or NULL_METRICS
    target = path + QUARANTINE_SUFFIX
    try:
        os.replace(path, target)
    except OSError as error:
        logger.warning(
            "could not quarantine snapshot %s: %s", path, error
        )
        return None
    metrics.inc("snapshot_quarantined_total")
    logger.warning("quarantined corrupt snapshot %s -> %s", path, target)
    return target


def load_resilient(
    path: str,
    metrics=None,
    verify: bool = False,
    fallback_path: str | None = None,
    rebuild=None,
):
    """Load a v3 snapshot, quarantining it when it is corrupt.

    The degradation ladder:

    1. ``load_snapshot(path)`` — optionally preceded by a deep
       per-section CRC check (``verify=True``);
    2. on a :class:`StorageError` from a file that carries the
       snapshot magic, the file is quarantined (moved to
       ``path + ".quarantined"``, counter bumped) and the loader falls
       back to ``fallback_path`` (an older snapshot) when given;
    3. else to ``rebuild()`` — a zero-argument callable returning a
       fresh corpus index (e.g. re-parsing the source documents).

    A file without the snapshot magic is not quarantined (it is not
    the managed artifact; it stays put for inspection) but still
    falls through the same ladder.  Raises the original
    :class:`StorageError` when no fallback recovers.
    """
    metrics = metrics or NULL_METRICS
    try:
        with open(path, "rb") as handle:
            magic = handle.read(len(MAGIC))
        is_snapshot = magic == MAGIC
        if is_snapshot and verify:
            verify_snapshot(path)
        return load_snapshot(path, metrics=metrics)
    except StorageError as error:
        if is_snapshot:
            quarantine_snapshot(path, metrics=metrics)
        logger.warning("index load failed for %s: %s", path, error)
        if fallback_path is not None:
            try:
                return load_resilient(
                    fallback_path, metrics=metrics, verify=verify,
                    rebuild=rebuild,
                )
            except StorageError:
                pass
        if rebuild is not None:
            return rebuild()
        raise

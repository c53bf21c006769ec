"""Crash-safe write-ahead log of live subtree updates.

The live-update pipeline (``docs/index_format.md``, "Live updates")
acknowledges a subtree add/update/delete only after the operation is
durable.  Durability comes from this module: every operation is
appended to an on-disk log *before* it is applied to the in-memory
delta segment, and the append ends with an ``fsync`` — an
acknowledged record survives any crash of the serving process or the
machine.

File layout (all integers little-endian)::

    magic   8 bytes   b"XCWAL001"
    header  <u32 len><u32 crc32(payload)><payload>   JSON header
    record  <u32 len><u32 crc32(payload)><payload>   JSON record
    record  ...

The header carries ``base_generation`` — the data generation of the
snapshot the log's records extend.  Replay of a log whose base
generation does not match the serving snapshot is refused (the records
are either already folded in, or belong to a different lineage).

Each record frame is length-prefixed and CRC-framed.  A crash mid-
append leaves a *torn tail*: a partial length word, a partial payload,
or a payload whose CRC no longer matches.  :meth:`WriteAheadLog.replay`
detects the first bad frame, truncates the file back to the last good
frame boundary, and returns only the intact prefix — so recovery never
sees a corrupt record and never loses an acknowledged one (the torn
frame was, by construction, never acknowledged).

The ``wal.append`` fault site (:mod:`repro.obs.faults`) fires inside
:meth:`append` before the fsync/acknowledge step, with the log path —
so chaos plans can simulate both append crashes (``raise``) and torn
on-disk bytes (``corrupt``).
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass, field
from typing import Iterator

from repro.exceptions import StorageError, UpdateError
from repro.obs.faults import active as _active_faults
from repro.xmltree.dewey import DeweyCode

MAGIC = b"XCWAL001"

_FRAME = struct.Struct("<II")

#: Operations a record may carry.
OPS = ("add", "update", "delete")


@dataclass(frozen=True)
class WalRecord:
    """One logged subtree operation.

    ``dewey`` targets the *parent* node for ``add`` (the new subtree is
    appended as its last child) and the node itself for ``update`` /
    ``delete``.  ``subtree`` is the JSON tree of the new content
    (``{"label", "text", "children"}``, see :mod:`repro.index.delta`);
    ``None`` for deletes.
    """

    op: str
    dewey: DeweyCode
    subtree: dict | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.op not in OPS:
            raise UpdateError(
                f"unknown WAL op {self.op!r}; known ops: {', '.join(OPS)}"
            )
        if not self.dewey or any(
            (not isinstance(c, int)) or c < 1 for c in self.dewey
        ):
            raise UpdateError(
                f"WAL target must be a non-empty Dewey tuple of "
                f"positive ints, got {self.dewey!r}"
            )
        if self.op == "delete":
            if self.subtree is not None:
                raise UpdateError("delete records carry no subtree")
        elif self.subtree is None:
            raise UpdateError(f"{self.op} records need a subtree")

    def as_dict(self) -> dict:
        out: dict = {"op": self.op, "dewey": list(self.dewey)}
        if self.subtree is not None:
            out["subtree"] = self.subtree
        if self.meta:
            out["meta"] = self.meta
        return out

    @classmethod
    def from_dict(cls, document: dict) -> "WalRecord":
        try:
            return cls(
                op=document["op"],
                dewey=tuple(document["dewey"]),
                subtree=document.get("subtree"),
                meta=document.get("meta", {}),
            )
        except (KeyError, TypeError) as exc:
            raise UpdateError(f"malformed WAL record: {exc}") from exc


def _frame(payload: bytes) -> bytes:
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


class WriteAheadLog:
    """Append-only, CRC-framed, fsync-on-ack operation log."""

    def __init__(self, path: str):
        self.path = path
        self.base_generation = 0
        self._handle = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def exists(self) -> bool:
        return os.path.exists(self.path)

    def create(self, base_generation: int) -> None:
        """Write a fresh, empty log (truncating any previous one)."""
        self.close()
        header = json.dumps(
            {"base_generation": base_generation}, sort_keys=True
        ).encode("utf-8")
        # Written in place (not via atomic rename): the log is defined
        # by its replay semantics, and an interrupted create leaves a
        # short file that replay rejects and recovery re-creates.
        with open(self.path, "wb") as handle:
            handle.write(MAGIC + _frame(header))
            handle.flush()
            os.fsync(handle.fileno())
        self.base_generation = base_generation

    def reset(self, base_generation: int) -> None:
        """Truncate all records and restamp the base generation."""
        self.create(base_generation)

    def close(self) -> None:
        handle, self._handle = self._handle, None
        if handle is not None:
            handle.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Append (the ack path)
    # ------------------------------------------------------------------

    def append(self, record: WalRecord) -> None:
        """Durably append one record; returning means acknowledged.

        The frame is written and flushed, the ``wal.append`` fault site
        fires, then the file is fsynced.  A fault or crash anywhere in
        that sequence means the record was *not* acknowledged — replay
        may find it whole (it was fully written) or truncate it as a
        torn tail; either outcome is a correct recovery.
        """
        handle = self._handle
        if handle is None:
            if not self.exists:
                raise StorageError(
                    f"{self.path}: WAL must be created before append"
                )
            handle = self._handle = open(self.path, "ab")
        payload = json.dumps(
            record.as_dict(), sort_keys=True
        ).encode("utf-8")
        handle.write(_frame(payload))
        handle.flush()
        faults = _active_faults()
        if faults.enabled:
            faults.hit("wal.append", path=self.path)
        os.fsync(handle.fileno())

    # ------------------------------------------------------------------
    # Replay (the recovery path)
    # ------------------------------------------------------------------

    def replay(self) -> list[WalRecord]:
        """Read back every intact record, truncating any torn tail.

        Returns the acknowledged prefix in append order and leaves the
        file ending exactly at the last intact frame, so subsequent
        appends extend a clean log.  Raises :class:`StorageError` only
        when the file is not a WAL at all (bad magic or a torn/corrupt
        *header* — there is nothing trustworthy to salvage).
        """
        self.close()
        with open(self.path, "rb") as handle:
            data = handle.read()
        if len(data) < len(MAGIC) or data[: len(MAGIC)] != MAGIC:
            raise StorageError(f"{self.path}: not a WAL (bad magic)")
        offset = len(MAGIC)
        frames = list(self._iter_frames(data, offset))
        if not frames:
            raise StorageError(f"{self.path}: WAL header torn or corrupt")
        header_payload, offset = frames[0]
        try:
            header = json.loads(header_payload)
            self.base_generation = int(header["base_generation"])
        except (
            ValueError, KeyError, TypeError, OverflowError, RecursionError
        ) as exc:
            raise StorageError(
                f"{self.path}: malformed WAL header: {exc}"
            ) from exc
        records: list[WalRecord] = []
        good_end = offset
        for payload, end in frames[1:]:
            try:
                records.append(WalRecord.from_dict(json.loads(payload)))
            except (ValueError, RecursionError, UpdateError):
                # An unparseable-but-CRC-clean record cannot be a torn
                # write; still, nothing after it can be trusted.
                break
            good_end = end
        if good_end < len(data):
            with open(self.path, "r+b") as handle:
                handle.truncate(good_end)
                handle.flush()
                os.fsync(handle.fileno())
        return records

    @staticmethod
    def _iter_frames(data: bytes, offset: int) -> Iterator[
        tuple[bytes, int]
    ]:
        """Yield ``(payload, end_offset)`` for each intact frame."""
        size = len(data)
        while offset + _FRAME.size <= size:
            length, crc = _FRAME.unpack_from(data, offset)
            start = offset + _FRAME.size
            end = start + length
            if end > size:
                return  # torn payload
            payload = data[start:end]
            if zlib.crc32(payload) != crc:
                return  # corrupt frame
            yield payload, end
            offset = end

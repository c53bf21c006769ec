"""The write-ahead log (index/wal.py): framing, replay, torn tails.

The contract under test: a record is acknowledged exactly when
``append`` returns, and ``replay`` returns exactly the acknowledged
prefix — a crash anywhere (mid-append, mid-create) loses at most the
unacknowledged suffix and never yields a corrupt record.
"""

import json
import os
import struct
import zlib

import pytest

from repro.exceptions import StorageError, UpdateError
from repro.index.wal import MAGIC, WalRecord, WriteAheadLog
from repro.obs import faults

SUBTREE = {"label": "title", "text": "spelling"}


def record(i: int) -> WalRecord:
    return WalRecord(op="add", dewey=(1, i + 1), subtree=SUBTREE)


def clean_frame(payload: bytes) -> bytes:
    """A CRC-clean frame around arbitrary (crafted) payload bytes."""
    return struct.pack("<II", len(payload), zlib.crc32(payload)) + payload


@pytest.fixture
def wal(tmp_path):
    log = WriteAheadLog(str(tmp_path / "index.wal"))
    log.create(base_generation=3)
    yield log
    log.close()


class TestRecordValidation:
    def test_unknown_op_rejected(self):
        with pytest.raises(UpdateError):
            WalRecord(op="rename", dewey=(1,), subtree=SUBTREE)

    def test_empty_dewey_rejected(self):
        with pytest.raises(UpdateError):
            WalRecord(op="delete", dewey=())

    def test_non_positive_component_rejected(self):
        with pytest.raises(UpdateError):
            WalRecord(op="delete", dewey=(1, 0))

    def test_delete_carries_no_subtree(self):
        with pytest.raises(UpdateError):
            WalRecord(op="delete", dewey=(1, 2), subtree=SUBTREE)

    def test_add_needs_subtree(self):
        with pytest.raises(UpdateError):
            WalRecord(op="add", dewey=(1,))

    def test_dict_round_trip(self):
        rec = WalRecord(
            op="update", dewey=(1, 2, 3), subtree=SUBTREE,
            meta={"who": "test"},
        )
        assert WalRecord.from_dict(rec.as_dict()) == rec

    def test_malformed_dict_rejected(self):
        with pytest.raises(UpdateError):
            WalRecord.from_dict({"op": "add"})


class TestAppendReplay:
    def test_round_trip(self, wal):
        recs = [record(i) for i in range(5)]
        for rec in recs:
            wal.append(rec)
        fresh = WriteAheadLog(wal.path)
        assert fresh.replay() == recs
        assert fresh.base_generation == 3

    def test_empty_log_replays_empty(self, wal):
        fresh = WriteAheadLog(wal.path)
        assert fresh.replay() == []
        assert fresh.base_generation == 3

    def test_reset_drops_records_and_restamps(self, wal):
        wal.append(record(0))
        wal.reset(base_generation=4)
        fresh = WriteAheadLog(wal.path)
        assert fresh.replay() == []
        assert fresh.base_generation == 4

    def test_append_requires_create(self, tmp_path):
        log = WriteAheadLog(str(tmp_path / "missing.wal"))
        with pytest.raises(StorageError):
            log.append(record(0))


class TestTornTails:
    """Crash simulations: the file ends (or is damaged) mid-frame."""

    def filled(self, wal, n=4):
        recs = [record(i) for i in range(n)]
        for rec in recs:
            wal.append(rec)
        wal.close()
        return recs

    def test_partial_payload_truncated(self, wal):
        recs = self.filled(wal)
        with open(wal.path, "r+b") as handle:
            handle.truncate(os.path.getsize(wal.path) - 3)
        fresh = WriteAheadLog(wal.path)
        assert fresh.replay() == recs[:-1]

    def test_partial_length_word_truncated(self, wal):
        recs = self.filled(wal)
        size = os.path.getsize(wal.path)
        with open(wal.path, "ab") as handle:
            handle.write(b"\x07")  # 1 of 4 length bytes
        fresh = WriteAheadLog(wal.path)
        assert fresh.replay() == recs
        # The torn byte is gone: appends extend a clean log.
        assert os.path.getsize(wal.path) == size

    def test_corrupt_byte_drops_frame_and_suffix(self, wal):
        recs = self.filled(wal)
        # Flip one payload byte of the second record: its CRC fails,
        # and nothing after it can be trusted either.
        data = open(wal.path, "rb").read()
        frame = struct.Struct("<II")
        offset = len(MAGIC)
        ends = []
        while offset + frame.size <= len(data):
            length, _ = frame.unpack_from(data, offset)
            offset += frame.size + length
            ends.append(offset)
        # ends[0] = header end; ends[1] = record 0 end; corrupt inside
        # record 1's payload.
        target = ends[1] + frame.size + 2
        damaged = (
            data[:target]
            + bytes([data[target] ^ 0xFF])
            + data[target + 1:]
        )
        with open(wal.path, "wb") as handle:
            handle.write(damaged)
        fresh = WriteAheadLog(wal.path)
        assert fresh.replay() == recs[:1]
        assert os.path.getsize(wal.path) == ends[1]

    def test_appends_after_truncating_replay(self, wal):
        recs = self.filled(wal)
        with open(wal.path, "r+b") as handle:
            handle.truncate(os.path.getsize(wal.path) - 1)
        fresh = WriteAheadLog(wal.path)
        assert fresh.replay() == recs[:-1]
        extra = record(9)
        fresh.append(extra)
        fresh.close()
        final = WriteAheadLog(wal.path)
        assert final.replay() == recs[:-1] + [extra]

    def test_bad_magic_raises(self, tmp_path):
        path = str(tmp_path / "junk.wal")
        with open(path, "wb") as handle:
            handle.write(b"NOTAWAL!" + b"\x00" * 32)
        with pytest.raises(StorageError):
            WriteAheadLog(path).replay()

    def test_torn_header_raises(self, tmp_path):
        # An interrupted create: magic landed, the header frame did
        # not.  Nothing is salvageable — recovery re-creates the log.
        path = str(tmp_path / "torn.wal")
        with open(path, "wb") as handle:
            handle.write(MAGIC + b"\x40\x00")
        with pytest.raises(StorageError):
            WriteAheadLog(path).replay()

    def test_unparseable_clean_frame_stops_replay(self, wal):
        recs = self.filled(wal, n=2)
        # A CRC-clean frame that is not a valid record (never written
        # by append; e.g. tampering): replay stops before it.
        import zlib
        payload = json.dumps({"op": "nope"}).encode()
        frame = struct.Struct("<II").pack(
            len(payload), zlib.crc32(payload)
        )
        with open(wal.path, "ab") as handle:
            handle.write(frame + payload)
        fresh = WriteAheadLog(wal.path)
        assert fresh.replay() == recs


    @pytest.mark.parametrize(
        "header",
        [b'{"base_generation": 1e400}', b"[" * 100_000],
        ids=["overflowing-generation", "deep-nesting"],
    )
    def test_crafted_header_raises_storage_error(self, tmp_path, header):
        path = str(tmp_path / "crafted.wal")
        with open(path, "wb") as handle:
            handle.write(MAGIC + clean_frame(header))
        with pytest.raises(StorageError):
            WriteAheadLog(path).replay()

    def test_deeply_nested_record_stops_replay(self, wal):
        # Nesting past the JSON parser's recursion limit is one more
        # unparseable CRC-clean record: replay keeps the prefix.
        recs = self.filled(wal, n=2)
        size = os.path.getsize(wal.path)
        with open(wal.path, "ab") as handle:
            handle.write(clean_frame(b"[" * 100_000))
        fresh = WriteAheadLog(wal.path)
        assert fresh.replay() == recs
        assert os.path.getsize(wal.path) == size


class TestFaultSite:
    def test_append_raise_is_unacknowledged_but_whole(self, wal):
        """A fault at the ack point: the record may be on disk, but
        the caller never saw the append return — replay returning it
        is allowed (fully written) and losing it would be too."""
        wal.append(record(0))
        with faults.injected("wal.append:raise"):
            with pytest.raises(Exception):
                wal.append(record(1))
        wal.close()
        replayed = WriteAheadLog(wal.path).replay()
        assert replayed[:1] == [record(0)]
        assert len(replayed) in (1, 2)

    def test_append_corrupt_tail_recovers_prefix(self, wal):
        recs = [record(i) for i in range(3)]
        for rec in recs:
            wal.append(rec)
        # Corrupt the log file in place (deterministic offset), as a
        # chaos plan would; the acknowledged prefix must survive.
        with faults.injected("wal.append:corrupt", seed=7):
            wal.append(record(3))
        wal.close()
        replayed = WriteAheadLog(wal.path).replay()
        assert replayed == recs[: len(replayed)]

"""Background compaction and the live-index lifecycle manager.

:class:`LiveIndexManager` owns the moving parts of a live index (see
``docs/index_format.md``, "Live updates"): the logical document, the
:class:`~repro.index.wal.WriteAheadLog`, the in-memory
:class:`~repro.index.delta.DeltaSegment`, and the generation-stamped
base artifact (a single v3 snapshot or a shard manifest).

Three files live next to the base artifact::

    <index>            the snapshot (or manifest directory)
    <index>.live.json  the logical document, stamped with a generation
    <index>.wal        the record log, stamped with a base generation

**Generation lifecycle** (build → serve → compact → swap → retire):
every compaction folds the WAL'd updates into a fresh build stamped
``generation + 1`` through the atomic writer, then resets the WAL to
the new base.  The three stamps (live source, snapshot/manifest, WAL)
let recovery classify any crash point:

* live source *ahead* of the snapshot — the crash hit between the
  source write and the snapshot replace; recovery finishes the
  interrupted compaction (every acknowledged update is in the source).
* WAL base *behind* the snapshot — the crash hit between the snapshot
  replace and the WAL reset; the records are already folded in, so
  the WAL is reset.
* all three equal — normal serve state; WAL records (if any) replay
  into the delta segment.

The ``compact.swap`` fault site fires at the start of a compaction and
again between the snapshot build and the WAL reset, so chaos plans can
crash both recovery windows deterministically.
"""

from __future__ import annotations

import json
import os

from repro.exceptions import StorageError, UpdateError
from repro.index.atomic import atomic_write
from repro.index.corpus import build_corpus_index
from repro.index.delta import (
    DEFAULT_DELTA_MAX_RECORDS,
    DeltaOverlayCorpus,
    DeltaSegment,
    apply_record,
    document_from_json,
    document_to_json,
    node_from_json,
)
from repro.index.sharding import (
    MANIFEST_NAME,
    build_sharded_snapshot,
    load_manifest,
)
from repro.index.snapshot import build_snapshot, load_snapshot
from repro.index.wal import WalRecord, WriteAheadLog
from repro.obs.context import Context
from repro.obs.faults import active as _active_faults
from repro.obs.metrics import NULL_METRICS
from repro.xmltree.document import XMLDocument

LIVE_SUFFIX = ".live.json"
WAL_SUFFIX = ".wal"


def _copy_document(document: XMLDocument) -> XMLDocument:
    """Deep-copy via the sidecar codec (frees the caller's tree)."""
    return document_from_json(document_to_json(document))


class LiveIndexManager:
    """Crash-safe lifecycle manager for one live index.

    ``document`` seeds the logical document on the *first* open (it
    must be the exact corpus the base artifact was built from); later
    opens recover it from the live-source sidecar plus the WAL, so a
    restarted process needs only the index path.
    """

    def __init__(
        self,
        index_path: str,
        *,
        document: XMLDocument | None = None,
        base=None,
        wal_path: str | None = None,
        live_path: str | None = None,
        max_records: int = DEFAULT_DELTA_MAX_RECORDS,
        fastss_max_errors: int | None = 3,
        metrics=None,
    ):
        self.index_path = index_path
        self.sharded = os.path.isdir(index_path)
        anchor = (
            os.path.join(index_path, "live")
            if self.sharded
            else index_path
        )
        self.wal_path = wal_path or anchor + WAL_SUFFIX
        self.live_path = live_path or anchor + LIVE_SUFFIX
        self.max_records = max_records
        self.fastss_max_errors = fastss_max_errors
        self.metrics = metrics or NULL_METRICS
        self.recovered_records = 0
        #: Monotonic count of WAL-acknowledged records this process
        #: has appended; lets callers size a partial ``apply`` failure.
        self.acked_records = 0
        #: Monotonic count of records this process has successfully
        #: applied to the logical document.  ``acked_records`` can run
        #: ahead of it only when a record failed *after* its fsync-ack
        #: — such a record lives solely in the WAL, so compacting
        #: (which resets the log) would silently discard it;
        #: :meth:`compact` refuses while the gap exists.
        self.applied_records = 0
        #: Records currently sitting in the WAL (since its last
        #: reset): the "WAL depth" /statusz reports.  Replay seeds it;
        #: every ack bumps it; compaction zeroes it.
        self.wal_records = 0
        #: ``{generation, duration_s, outcome, records_folded}`` of
        #: the most recent :meth:`compact` (``outcome`` is ``"ok"`` or
        #: ``"failed"``); ``None`` before the first one.
        self.last_compaction: dict | None = None

        self.base = base if base is not None else self._load_base()
        self.generation = self._base_generation()
        self.tokenizer = self._base_tokenizer()
        self.document = self._open_document(document)
        self.delta = DeltaSegment(max_records=max_records)
        self._overlay: DeltaOverlayCorpus | None = None
        self.wal = WriteAheadLog(self.wal_path)
        self._open_wal()

    # ------------------------------------------------------------------
    # Base artifact plumbing (single snapshot vs shard manifest)
    # ------------------------------------------------------------------

    def _load_base(self):
        if self.sharded:
            return load_manifest(
                os.path.join(self.index_path, MANIFEST_NAME)
            )
        return load_snapshot(self.index_path, metrics=self.metrics)

    def _base_generation(self) -> int:
        if self.sharded:
            return self.base.generation
        return getattr(self.base, "data_generation", 0)

    def _base_tokenizer(self):
        if self.sharded:
            # Shard 0 carries the global tokenizer config (every shard
            # does; loading one is O(header + paths)).
            shard = load_snapshot(self.base.shard_paths()[0])
            tokenizer = shard.tokenizer
            shard.close()
            return tokenizer
        return self.base.tokenizer

    # ------------------------------------------------------------------
    # Open / recovery
    # ------------------------------------------------------------------

    def _open_document(
        self, document: XMLDocument | None
    ) -> XMLDocument:
        if os.path.exists(self.live_path):
            try:
                with open(self.live_path, encoding="utf-8") as handle:
                    payload = json.load(handle)
                live_generation = payload.get("generation", 0)
                if type(live_generation) is not int:
                    raise TypeError(f"generation {live_generation!r}")
                recovered = document_from_json(payload)
            except (
                ValueError, KeyError, TypeError, AttributeError,
                RecursionError, UpdateError,
            ) as error:
                raise StorageError(
                    f"{self.live_path}: malformed live source: {error!r}"
                ) from None
            if live_generation > self.generation:
                # Crash between the live-source write and the base
                # swap: finish the interrupted compaction now.
                self.document = recovered
                self.delta = DeltaSegment(max_records=self.max_records)
                self._finish_compaction(live_generation)
                return self.document
            if live_generation < self.generation:
                raise StorageError(
                    f"{self.live_path}: live source generation "
                    f"{live_generation} behind index generation "
                    f"{self.generation} — sidecar does not belong to "
                    f"this index"
                )
            return recovered
        if document is None:
            raise UpdateError(
                f"{self.index_path}: no live source sidecar; the first "
                f"open must pass the document the index was built from"
            )
        copied = _copy_document(document)
        self._write_live_source(copied, self.generation)
        return copied

    def _write_live_source(
        self, document: XMLDocument, generation: int
    ) -> None:
        payload = dict(
            document_to_json(document), generation=generation
        )
        with atomic_write(
            self.live_path, "w", encoding="utf-8"
        ) as handle:
            json.dump(payload, handle, separators=(",", ":"))

    def _open_wal(self) -> None:
        if not self.wal.exists:
            self.wal.create(self.generation)
            return
        try:
            records = self.wal.replay()
        except StorageError:
            # Torn header: the only write that produces one is an
            # interrupted create/reset, which happens strictly after
            # the records it dropped were folded into the base.
            self.wal.create(self.generation)
            return
        if self.wal.base_generation != self.generation:
            # Records already folded by a compaction that crashed
            # before resetting the log.
            self.wal.reset(self.generation)
            return
        for record in records:
            result = apply_record(self.document, record)
            if not self.sharded:
                self.delta.apply(
                    result, self.tokenizer, self.base.path_table
                )
        self.recovered_records = len(records)
        self.wal_records = len(records)
        if records and not self.sharded:
            self.overlay.refresh()

    # ------------------------------------------------------------------
    # Serving surface
    # ------------------------------------------------------------------

    @property
    def overlay(self) -> DeltaOverlayCorpus:
        if self.sharded:
            raise UpdateError(
                "sharded live indexes fold updates eagerly; there is "
                "no overlay corpus"
            )
        found = self._overlay
        if found is None:
            found = DeltaOverlayCorpus(self.base, self.delta)
            self._overlay = found
        return found

    @property
    def corpus(self):
        """What to serve right now: overlay when dirty, else the base."""
        if self.delta.dirty:
            return self.overlay
        return self.base

    # ------------------------------------------------------------------
    # The write path
    # ------------------------------------------------------------------

    def _validate(self, record: WalRecord) -> None:
        """Reject structurally invalid records *before* logging them.

        A record is only appended once it is guaranteed to apply, so
        WAL replay can never fail on an acknowledged record.  That
        guarantee covers the payload too: the subtree is fully parsed
        here — a record whose subtree cannot round-trip through
        ``node_from_json`` (``WalRecord`` itself only checks presence)
        must never be fsync-acknowledged, or every later open would
        crash replaying it.
        """
        if record.subtree is not None:
            node_from_json(record.subtree)
        if record.op == "add":
            if self.document.node_at(record.dewey) is None:
                raise UpdateError(
                    f"add target (parent) {record.dewey!r} does not "
                    f"exist"
                )
            return
        if len(record.dewey) < 2:
            raise UpdateError(
                f"cannot {record.op} the document root "
                f"{record.dewey!r}"
            )
        if self.document.node_at(record.dewey) is None:
            raise UpdateError(
                f"{record.op} target {record.dewey!r} does not exist"
            )

    def apply(self, records) -> int:
        """Durably apply records; returning means all acknowledged.

        Each record is validated, WAL-appended (fsync — the ack
        point), then folded into the logical document and the delta
        segment.  A crash between ack and fold is repaired by WAL
        replay on the next open.
        """
        metrics = self.metrics
        ctx = Context(metrics)
        applied = 0
        for record in records:
            if isinstance(record, dict):
                record = WalRecord.from_dict(record)
            self._validate(record)
            with ctx.stage("wal_append"):
                self.wal.append(record)
            self.acked_records += 1
            self.wal_records += 1
            if metrics.enabled:
                metrics.inc("wal_records_total")
            with ctx.stage("delta_apply"):
                result = apply_record(self.document, record)
                self.applied_records += 1
                if not self.sharded:
                    self.delta.apply(
                        result, self.tokenizer, self.base.path_table
                    )
            applied += 1
        if applied and not self.sharded:
            self.overlay.refresh()
        return applied

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------

    def compact(self, workers: int | None = None) -> int:
        """Fold the WAL'd updates into a fresh generation.

        Returns the new generation number.  Crash-safe at every step —
        see the module docstring for the recovery classification.
        """
        if self.acked_records > self.applied_records:
            raise UpdateError(
                f"refusing to compact: "
                f"{self.acked_records - self.applied_records} "
                f"acknowledged records never folded into the document; "
                f"resetting the WAL would discard them — reopen the "
                f"index to recover them by replay"
            )
        folding = self.wal_records
        new_generation = self.generation + 1
        # Every attempt is a "compact" stage, failed ones included; its
        # one elapsed reading is also the status duration.
        stage = Context(self.metrics).stage("compact")
        outcome = "failed"
        try:
            with stage:
                faults = _active_faults()
                if faults.enabled:
                    faults.hit("compact.swap", path=self.wal_path)
                self._write_live_source(self.document, new_generation)
                self._finish_compaction(new_generation, workers=workers)
            outcome = "ok"
        finally:
            self.last_compaction = {
                "generation": new_generation,
                "duration_s": stage.seconds,
                "outcome": outcome,
                "records_folded": folding,
            }
            if self.metrics.enabled:
                self.metrics.inc("compactions_total", outcome=outcome)
        return new_generation

    def _finish_compaction(
        self, new_generation: int, workers: int | None = None
    ) -> None:
        index = build_corpus_index(
            self.document, tokenizer=self.tokenizer
        )
        if self.sharded:
            self.base = build_sharded_snapshot(
                index,
                self.index_path,
                shards=len(self.base.shards),
                partition_depth=self.base.partition_depth,
                strategy=self.base.strategy,
                fastss_max_errors=self.fastss_max_errors,
                workers=workers,
                metrics=self.metrics,
                generation=new_generation,
            )
        else:
            build_snapshot(
                index,
                self.index_path,
                fastss_max_errors=self.fastss_max_errors,
                workers=workers,
                metrics=self.metrics,
                generation=new_generation,
            )
            self.base = load_snapshot(
                self.index_path, metrics=self.metrics
            )
        faults = _active_faults()
        if faults.enabled:
            # The second recovery window: base swapped, WAL not yet
            # reset.
            faults.hit("compact.swap", path=self.wal_path)
        self.wal = WriteAheadLog(self.wal_path)
        self.wal.reset(new_generation)
        self.wal_records = 0
        self.generation = new_generation
        self.delta = DeltaSegment(max_records=self.max_records)
        self._overlay = None

    # ------------------------------------------------------------------

    def close(self) -> None:
        self.wal.close()

    def __enter__(self) -> "LiveIndexManager":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def wal_bytes(self) -> int:
        """On-disk size of the WAL file (0 when absent)."""
        try:
            return os.path.getsize(self.wal_path)
        except OSError:
            return 0

    def describe(self) -> dict:
        return {
            "index_path": self.index_path,
            "sharded": self.sharded,
            "generation": self.generation,
            "pending_records": len(self.delta.records),
            "recovered_records": self.recovered_records,
            "delta": self.delta.describe(),
        }

    def status(self) -> dict:
        """The live-update half of ``/statusz`` (see ``obs/ops.py``)."""
        return {
            "generation": self.generation,
            "wal_records": self.wal_records,
            "wal_bytes": self.wal_bytes(),
            "acked_records": self.acked_records,
            "applied_records": self.applied_records,
            "recovered_records": self.recovered_records,
            "delta": self.delta.describe(),
            "last_compaction": self.last_compaction,
        }

"""In-memory delta segment and query-time overlay for live updates.

The live-update pipeline (``docs/index_format.md``, "Live updates")
keeps the base index immutable — an mmap'd v3 snapshot or an in-memory
:class:`~repro.index.corpus.CorpusIndex` — and layers acknowledged
subtree operations on top of it:

* :func:`apply_record` mutates the *logical document* (the Dewey-coded
  tree the index describes) and hands back the old and new subtrees;
* :class:`DeltaSegment` turns those subtrees into exact adjustments of
  every statistic the scoring model reads — postings, vocabulary
  (Eq. 6 background model), subtree token counts and the Eq. 8
  normalizers — plus the tombstoned subtrees whose base postings are
  cut out, and a per-token stamp of the last record that changed each
  token's posting list;
* :class:`DeltaOverlayCorpus` exposes the merged view through the
  standard :class:`~repro.index.corpus.QueryEngineMixin` surface, so
  the merge loop (``merged_list_packed``) and the tuple readers —
  ``NaiveCleaner``, SLCA/ELCA, entity search, PY08 (``merged_list`` /
  ``inverted``) — consume it unchanged.
  Its caches invalidate per token, by stamp (see
  :meth:`DeltaOverlayCorpus.refresh`).

**Dewey stability.**  Updates must not renumber nodes the base index
already refers to.  ``add`` therefore appends as the last child, and
``delete`` leaves a childless, textless *placeholder* node in the tree
(removing a middle child would shift every following sibling's
ordinal).  The placeholder carries no tokens, so the entity disappears
from all query results; its node still counts toward ``entity_count``
— on both sides of the equivalence, because the rebuilt reference
corpus is the applied logical document, placeholders included.

**Exactness.**  Every statistic the XClean scoring path reads is
adjusted exactly, so overlay top-k results are byte-identical to a
from-scratch rebuild of the applied document (the crash-recovery tests
assert this in both skipping modes and across shard counts).  The one
documented approximation is the PY08 baseline's ``max_relative_tf``:
a delete cannot lower a base maximum without a global scan, so the
overlay only ever raises it; compaction restores the exact value.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, Iterator

from repro.exceptions import DeweyError, UpdateError
from repro.fastss.generator import (
    DEFAULT_VARIANT_CACHE_SIZE,
    VariantGenerator,
)
from repro.fastss.index import FastSSIndex, Variant
from repro.index.corpus import QueryEngineMixin
from repro.index.inverted import InvertedList, PackedInvertedList
from repro.index.path_index import path_counts_from_packed
from repro.index.wal import WalRecord
from repro.obs.faults import active as _active_faults
from repro.xmltree.dewey import DeweyCode
from repro.xmltree.dewey_packed import DeweyPacker
from repro.xmltree.document import XMLDocument
from repro.xmltree.labelpath import LabelPath
from repro.xmltree.node import XMLNode

#: Default bound on buffered records before compaction is advised.
DEFAULT_DELTA_MAX_RECORDS = 4096


# ----------------------------------------------------------------------
# Subtree (de)serialization — the WAL payload format
# ----------------------------------------------------------------------


def node_to_json(node: XMLNode) -> dict:
    """Serialize a subtree as the WAL's JSON tree payload."""
    out: dict = {"label": node.label}
    if node.text:
        out["text"] = node.text
    if node.children:
        out["children"] = [node_to_json(child) for child in node.children]
    return out


def node_from_json(document: dict) -> XMLNode:
    """Parse a WAL JSON tree payload into a detached subtree."""
    try:
        node = XMLNode(
            str(document["label"]), text=str(document.get("text", ""))
        )
        for child in document.get("children", ()):
            node.add_child(node_from_json(child))
    except (KeyError, TypeError, AttributeError) as exc:
        raise UpdateError(f"malformed subtree payload: {exc}") from exc
    return node


def document_to_json(document: XMLDocument) -> dict:
    """Serialize a whole logical document (the live-source sidecar)."""
    return {"name": document.name, "root": node_to_json(document.root)}


def document_from_json(payload: dict) -> XMLDocument:
    """Rebuild a logical document from its sidecar payload."""
    root = node_from_json(payload["root"])
    root.assign_deweys((1,))
    return XMLDocument(root, name=payload.get("name", "document"))


# ----------------------------------------------------------------------
# Applying records to the logical document
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ApplyResult:
    """The document mutation produced by one WAL record.

    ``old`` / ``new`` are the replaced and inserted subtrees (``None``
    when the op adds fresh content / ``new`` is the delete
    placeholder); ``parent_labels`` is the label path of the affected
    node's parent, so walking either subtree with
    ``iter_with_paths(prefix=parent_labels)`` yields full label paths.
    """

    record: WalRecord
    old: XMLNode | None
    new: XMLNode
    parent_labels: LabelPath


def _labels_along(document: XMLDocument, dewey: DeweyCode) -> LabelPath:
    """Label path of the node at ``dewey`` (validating the walk)."""
    root = document.root
    if root.dewey != dewey[:1]:
        raise UpdateError(
            f"dewey {dewey!r} does not start at the document root"
        )
    labels = [root.label]
    node = root
    for ordinal in dewey[1:]:
        index = ordinal - 1
        if index < 0 or index >= len(node.children):
            raise UpdateError(f"no node at dewey {dewey!r}")
        node = node.children[index]
        labels.append(node.label)
    return tuple(labels)


def apply_record(
    document: XMLDocument, record: WalRecord
) -> ApplyResult:
    """Apply one record to the logical document (mutating it)."""
    if record.op == "add":
        parent = document.node_at(record.dewey)
        if parent is None:
            raise UpdateError(
                f"add target (parent) {record.dewey!r} does not exist"
            )
        parent_labels = _labels_along(document, record.dewey)
        assert record.subtree is not None
        new = node_from_json(record.subtree)
        parent.children.append(new)
        new.assign_deweys(record.dewey + (len(parent.children),))
        return ApplyResult(record, None, new, parent_labels)

    # update / delete target an existing non-root node.
    if len(record.dewey) < 2:
        raise UpdateError(
            f"cannot {record.op} the document root {record.dewey!r}"
        )
    parent = document.node_at(record.dewey[:-1])
    ordinal = record.dewey[-1]
    if parent is None or not (1 <= ordinal <= len(parent.children)):
        raise UpdateError(
            f"{record.op} target {record.dewey!r} does not exist"
        )
    parent_labels = _labels_along(document, record.dewey[:-1])
    old = parent.children[ordinal - 1]
    if record.op == "update":
        assert record.subtree is not None
        new = node_from_json(record.subtree)
    else:
        # Delete leaves a placeholder so sibling ordinals (and hence
        # every Dewey code the base index stores) stay valid.
        new = XMLNode(old.label)
    parent.children[ordinal - 1] = new
    new.assign_deweys(record.dewey)
    return ApplyResult(record, old, new, parent_labels)


# ----------------------------------------------------------------------
# The delta segment
# ----------------------------------------------------------------------


@dataclass
class DeltaSegment:
    """Bounded, exact stat adjustments for a batch of applied records.

    All mappings are *deltas* against the base index: postings to add,
    signed adjustments to the Eq. 6/8 statistics, and the tombstoned
    subtree roots whose base postings are cut out.  ``touched`` stamps
    every token whose posting list differs from the base with the
    version of the record that last changed that list: untouched tokens
    pass through the overlay zero-copy, and an overlay cache entry built
    at or after a token's stamp is still exact.
    """

    tombstones: set[DeweyCode] = field(default_factory=set)
    #: token -> tombstone roots whose replaced subtree held the token.
    #: A base posting is covered by some tombstone exactly when it is
    #: covered by one of its token's cuts: the first tombstone over it
    #: replaced a subtree that still held the base node.
    cuts: dict[str, list[DeweyCode]] = field(default_factory=dict)
    postings_add: dict[str, list[tuple[DeweyCode, int, int]]] = field(
        default_factory=dict
    )
    touched: dict[str, int] = field(default_factory=dict)
    cf_delta: dict[str, int] = field(default_factory=dict)
    df_delta: dict[str, int] = field(default_factory=dict)
    rel_new: dict[str, float] = field(default_factory=dict)
    total_tokens_delta: int = 0
    element_doc_delta: int = 0
    #: Only ever gains keys (values move), so a reader that has seen
    #: its first n keys finds the new ones as its insertion-order tail.
    subtree_delta: dict[DeweyCode, int] = field(default_factory=dict)
    path_node_delta: dict[int, int] = field(default_factory=dict)
    path_total_delta: dict[int, int] = field(default_factory=dict)
    max_new_depth: int = 0
    records: list[WalRecord] = field(default_factory=list)
    max_records: int = DEFAULT_DELTA_MAX_RECORDS
    #: Monotone change counter; the version of the last folded record.
    version: int = 0

    def __len__(self) -> int:
        return len(self.records)

    @property
    def dirty(self) -> bool:
        return self.version > 0

    @property
    def needs_compaction(self) -> bool:
        """True once the segment outgrew its configured bound."""
        return len(self.records) >= self.max_records

    # ------------------------------------------------------------------

    def apply(self, result: ApplyResult, tokenizer, path_table) -> None:
        """Fold one applied record into the segment.

        The ``delta.apply`` fault site fires first, so a chaos plan can
        simulate a crash *after* the WAL acknowledged the record but
        before it became query-visible — recovery (WAL replay) must
        land in the same state.
        """
        faults = _active_faults()
        if faults.enabled:
            faults.hit("delta.apply")
        stamp = self.version + 1
        if result.old is not None:
            old_tokens = self._fold_subtree(
                result.old, result.parent_labels, tokenizer,
                path_table, sign=-1, stamp=stamp,
            )
            target = result.old.dewey
            assert target is not None
            self.tombstones.add(target)
            for token in old_tokens:
                self.cuts.setdefault(token, []).append(target)
            self._purge_added_under(target, old_tokens)
        self._fold_subtree(
            result.new, result.parent_labels, tokenizer, path_table,
            sign=+1, stamp=stamp,
        )
        self.records.append(result.record)
        self.version = stamp

    def _purge_added_under(
        self, root: DeweyCode, tokens: set[str]
    ) -> None:
        """Drop previously added postings shadowed by a new tombstone.

        Added postings always describe nodes of the current document,
        so only the replaced subtree's ``tokens`` can have any under
        ``root`` — and folding that subtree already stamped them.
        """
        depth = len(root)
        for token in tokens:
            postings = self.postings_add.get(token)
            if not postings:
                continue
            kept = [p for p in postings if p[0][:depth] != root]
            if len(kept) != len(postings):
                self.postings_add[token] = kept

    def _fold_subtree(
        self,
        subtree: XMLNode,
        parent_labels: LabelPath,
        tokenizer,
        path_table,
        sign: int,
        stamp: int,
    ) -> set[str]:
        """Fold one subtree's statistics; returns the tokens it held."""
        seen: set[str] = set()
        for node, labels in subtree.iter_with_paths(
            prefix=parent_labels
        ):
            pid = path_table.intern(labels)
            self.path_node_delta[pid] = (
                self.path_node_delta.get(pid, 0) + sign
            )
            if sign > 0 and len(labels) > self.max_new_depth:
                self.max_new_depth = len(labels)
            if not node.text:
                continue
            counts: dict[str, int] = {}
            for token in tokenizer.iter_tokens(node.text):
                counts[token] = counts.get(token, 0) + 1
            if not counts:
                continue
            dewey = node.dewey
            assert dewey is not None
            length = sum(counts.values())
            self.element_doc_delta += sign
            self.total_tokens_delta += sign * length
            for token, tf in counts.items():
                seen.add(token)
                self.touched[token] = stamp
                self.cf_delta[token] = (
                    self.cf_delta.get(token, 0) + sign * tf
                )
                self.df_delta[token] = (
                    self.df_delta.get(token, 0) + sign
                )
                if sign > 0:
                    self.postings_add.setdefault(token, []).append(
                        (dewey, pid, tf)
                    )
                    rel = tf / length
                    if rel > self.rel_new.get(token, 0.0):
                        self.rel_new[token] = rel
            for depth in range(1, len(dewey) + 1):
                prefix = dewey[:depth]
                self.subtree_delta[prefix] = (
                    self.subtree_delta.get(prefix, 0) + sign * length
                )
                ancestor = path_table.prefix_id(pid, depth)
                self.path_total_delta[ancestor] = (
                    self.path_total_delta.get(ancestor, 0)
                    + sign * length
                )
        return seen

    # ------------------------------------------------------------------

    def changed_since(self, version: int) -> list[str]:
        """Tokens whose posting list changed after ``version``."""
        return [
            token for token, stamp in self.touched.items()
            if stamp > version
        ]

    def approx_bytes(self) -> int:
        """Rough in-memory footprint of the segment.

        A deterministic per-entry estimate (CPython container + tuple
        overheads), not a deep ``getsizeof`` walk — /statusz polls
        this, so it must stay O(tokens) and allocation-free.
        """
        postings = sum(len(p) for p in self.postings_add.values())
        return (
            64 * len(self.records)
            + 88 * postings
            + 56 * (
                len(self.cf_delta) + len(self.df_delta)
                + len(self.rel_new)
            )
            + 72 * (
                len(self.subtree_delta) + len(self.path_node_delta)
                + len(self.path_total_delta)
            )
            + 48 * (
                len(self.touched) + len(self.tombstones)
                + sum(len(roots) for roots in self.cuts.values())
            )
        )

    def describe(self) -> dict:
        return {
            "records": len(self.records),
            "touched_tokens": len(self.touched),
            "tombstones": len(self.tombstones),
            "added_postings": sum(
                len(p) for p in self.postings_add.values()
            ),
            "total_tokens_delta": self.total_tokens_delta,
            "approx_bytes": self.approx_bytes(),
            "needs_compaction": self.needs_compaction,
        }


# ----------------------------------------------------------------------
# Overlay views (vocabulary / inverted / path index / packed)
# ----------------------------------------------------------------------


class OverlayVocabulary:
    """Base vocabulary plus exact delta adjustments (Eq. 6 inputs)."""

    def __init__(self, base, delta: DeltaSegment):
        self._base = base
        self._delta = delta

    def _cf(self, token: str) -> int:
        return self._base.collection_frequency(token) + (
            self._delta.cf_delta.get(token, 0)
        )

    def __contains__(self, token: str) -> bool:
        return self._cf(token) > 0

    def __len__(self) -> int:
        return sum(1 for _ in self.tokens())

    def __iter__(self) -> Iterator[str]:
        return iter(self.tokens())

    def tokens(self) -> Iterator[str]:
        delta_cf = self._delta.cf_delta
        for token in self._base.tokens():
            if self._base.collection_frequency(token) + delta_cf.get(
                token, 0
            ) > 0:
                yield token
        for token, adjust in delta_cf.items():
            if adjust > 0 and self._base.collection_frequency(token) == 0:
                yield token

    @property
    def total_tokens(self) -> int:
        return self._base.total_tokens + self._delta.total_tokens_delta

    @property
    def element_doc_count(self) -> int:
        return (
            self._base.element_doc_count
            + self._delta.element_doc_delta
        )

    def collection_frequency(self, token: str) -> int:
        return max(0, self._cf(token))

    def background_probability(self, token: str) -> float:
        total = self.total_tokens
        if total == 0:
            return 0.0
        return self.collection_frequency(token) / total

    def element_document_frequency(self, token: str) -> int:
        return max(
            0,
            self._base.element_document_frequency(token)
            + self._delta.df_delta.get(token, 0),
        )

    def max_relative_tf(self, token: str) -> float:
        # Approximate under deletes (see module docstring): the base
        # maximum is never lowered, only raised by new elements.
        # XClean scoring does not read it; compaction restores
        # exactness for the PY08 baseline.
        return max(
            self._base.max_relative_tf(token),
            self._delta.rel_new.get(token, 0.0),
        )

    def idf(self, token: str) -> float:
        import math

        df = self.element_document_frequency(token)
        count = self.element_doc_count
        if df == 0 or count == 0:
            return 0.0
        return math.log(count / df)

    def max_tfidf(self, token: str) -> float:
        return self.max_relative_tf(token) * self.idf(token)

    def export_rows(self) -> Iterator[tuple[str, int, int, float]]:
        for token in self.tokens():
            yield (
                token,
                self.collection_frequency(token),
                self.element_document_frequency(token),
                self.max_relative_tf(token),
            )


def _stamped(cache: dict, delta: DeltaSegment, token: str, stamp: int,
             build):
    """``build(token)``, cached in ``cache`` until the token's stamp moves.

    An entry built at delta version v stays exact while the token's
    stamp is at most v: no later record changed its posting list.
    """
    cached = cache.get(token)
    if cached is not None and cached[0] >= stamp:
        return cached[1]
    value = build(token)
    cache[token] = (delta.version, value)
    return value


class OverlayInvertedIndex:
    """Token → tuple posting list view for the offline readers.

    Untouched tokens are served zero-copy from the base; a touched
    token's list is its packed overlay list (:class:`OverlayPackedView`)
    unpacked, cached until the token's stamp moves.
    """

    def __init__(self, overlay: "DeltaOverlayCorpus"):
        self._overlay = overlay
        self._cache: dict[str, tuple[int, InvertedList | None]] = {}

    def get(self, token: str) -> InvertedList | None:
        overlay = self._overlay
        stamp = overlay.delta.touched.get(token)
        if stamp is None:
            return overlay.base.inverted.get(token)
        return _stamped(
            self._cache, overlay.delta, token, stamp, self._unpack
        )

    def _unpack(self, token: str) -> InvertedList | None:
        view = self._overlay.packed_view()
        packed = view.get(token)
        if packed is None:
            return None
        unpack = view.packer.unpack
        return InvertedList(
            token,
            [
                (unpack(key), pid, tf)
                for key, pid, tf in zip(
                    packed.keys, packed.path_ids, packed.tfs
                )
            ],
        )

    def list_for(self, token: str) -> InvertedList:
        found = self.get(token)
        if found is None:
            return InvertedList(token, [])
        return found

    def __contains__(self, token: str) -> bool:
        return self.get(token) is not None

    def tokens(self) -> Iterator[str]:
        delta = self._overlay.delta
        for token in self._overlay.base.inverted.tokens():
            if token in delta.touched:
                if self.get(token) is not None:
                    yield token
            else:
                yield token
        base = self._overlay.base.inverted
        for token in delta.postings_add:
            if token not in base and self.get(token) is not None:
                yield token

    def __len__(self) -> int:
        return sum(1 for _ in self.tokens())

    def total_postings(self) -> int:
        return sum(
            len(self.list_for(token)) for token in self.tokens()
        )


class OverlayPathIndex:
    """f_w^p counts: recomputed for touched tokens, else pass-through.

    Recomputation prefix-scans the token's packed overlay list, the
    same scan the index builder runs over tuples, so counts are exact
    — not adjusted approximations.  Cached until the token's stamp
    moves.
    """

    def __init__(self, overlay: "DeltaOverlayCorpus"):
        self._overlay = overlay
        self._cache: dict[str, tuple[int, dict[int, int]]] = {}

    def counts_for(self, token: str) -> dict[int, int]:
        overlay = self._overlay
        stamp = overlay.delta.touched.get(token)
        if stamp is None:
            return overlay.base.path_index.counts_for(token)
        return _stamped(
            self._cache, overlay.delta, token, stamp, self._count
        )

    def _count(self, token: str) -> dict[int, int]:
        view = self._overlay.packed_view()
        packed = view.get(token)
        if packed is None:
            return {}
        return path_counts_from_packed(
            packed.keys, packed.path_ids, view.packer,
            self._overlay.path_table,
        )

    def f(self, token: str, path_id: int) -> int:
        return self.counts_for(token).get(path_id, 0)

    def __contains__(self, token: str) -> bool:
        return bool(self.counts_for(token))

    def tokens(self) -> Iterator[str]:
        return self._overlay.inverted.tokens()


class _OverlayLengths:
    """Packed-key |D(r)| map: the base map plus the delta's adjustments.

    ``codes`` maps packed keys to the Dewey codes of ``adjust`` (the
    segment's live ``subtree_delta``), so a later record's adjustment
    of a known code is visible without re-packing anything.
    """

    __slots__ = ("_base", "_codes", "_adjust")

    def __init__(self, base, codes: dict[int, DeweyCode],
                 adjust: dict[DeweyCode, int]):
        self._base = base
        self._codes = codes
        self._adjust = adjust

    def get(self, key: int, default: int = 0) -> int:
        value = self._base.get(key, 0)
        code = self._codes.get(key)
        if code is not None:
            value += self._adjust[code]
        return value if value > 0 else default


def _gather(sources, segments, typecode: str | None):
    """Concatenate ``sources[s][start:end]`` for each segment, in order.

    Array and memoryview columns are copied as raw bytes (C-level);
    keys wider than 64 bits live in plain lists (``typecode`` None).
    """
    if typecode is None:
        out: list[int] = []
        for source, start, end in segments:
            out.extend(sources[source][start:end])
        return out
    column = array(typecode)
    for source, start, end in segments:
        if end > start:
            column.frombytes(
                memoryview(sources[source])[start:end].cast("B")
            )
    return column


def _splice_postings(
    token: str,
    base: PackedInvertedList | None,
    packer: DeweyPacker,
    cuts: Iterable[DeweyCode],
    added: Iterable[tuple[DeweyCode, int, int]],
) -> PackedInvertedList | None:
    """``base`` with each cut subtree removed and ``added`` merged in.

    A subtree is one contiguous packed key range
    (``DeweyPacker.group_bounds``), so each cut costs two bisects and
    the kept runs are copied whole; the added postings are packed,
    sorted and slotted between them by bisect.  Added and kept keys
    never collide: every added node lies under a tombstone or at a
    fresh ordinal.  Returns ``None`` when nothing is left.
    """
    if not cuts and not added:
        return base
    pack = packer.pack
    if base is None:
        base_columns: tuple = ((), (), ())
    else:
        base_columns = (base.keys, base.path_ids, base.tfs)
    keys = base_columns[0]
    kept = []
    position = 0
    for lo, hi in sorted(
        packer.group_bounds(pack(root), len(root)) for root in cuts
    ):
        start = bisect_left(keys, lo, position)
        end = bisect_left(keys, hi, start)
        if start > position:
            kept.append((position, start))
        position = max(position, end)
    if position < len(keys):
        kept.append((position, len(keys)))

    typecode = "q" if packer.fits_int64 else None
    new = sorted((pack(code), pid, tf) for code, pid, tf in added)
    new_keys = [row[0] for row in new]
    new_columns = (
        new_keys if typecode is None else array(typecode, new_keys),
        array("i", (row[1] for row in new)),
        array("i", (row[2] for row in new)),
    )
    # (source, start, end) runs in key order: 0 = base, 1 = added.
    segments = []
    j = 0
    for start, end in kept:
        while j < len(new_keys) and new_keys[j] < keys[end - 1]:
            split = bisect_left(keys, new_keys[j], start, end)
            stop = bisect_left(new_keys, keys[split], j)
            segments += ((0, start, split), (1, j, stop))
            start, j = split, stop
        segments.append((0, start, end))
    segments.append((1, j, len(new_keys)))
    if not any(end > start for _source, start, end in segments):
        return None
    return PackedInvertedList(
        token,
        *(
            _gather(
                (base_columns[c], new_columns[c]), segments,
                typecode if c == 0 else "i",
            )
            for c in range(3)
        ),
    )


class OverlayPackedView:
    """Packed-engine view over the overlay; lives as long as its packer.

    Untouched tokens reuse the base packed columns zero-copy.  A
    touched token's list is spliced from the base columns in packed
    key space (:func:`_splice_postings`) and cached with the delta
    version it was built at, until the token's stamp moves.

    When the delta outgrows the base packer (a deeper tree or a wider
    fanout) the view re-keys the base into a packer wide enough for
    both; every list then goes through the same splice.  A later record
    that outgrows *this* packer makes :meth:`sync` fail, and the
    overlay replaces the view and bumps its generation.
    """

    def __init__(self, overlay: "DeltaOverlayCorpus"):
        self._overlay = overlay
        base_view = overlay.base.packed_view()
        self._base_view = base_view
        subtree_delta = overlay.delta.subtree_delta
        packer = base_view.packer
        lengths = base_view.subtree_lengths
        try:
            codes = {packer.pack(code): code for code in subtree_delta}
        except DeweyError:
            grown = DeweyPacker.for_codes(subtree_delta)
            wider = DeweyPacker(
                max(packer.max_depth, grown.max_depth),
                max(packer.component_bits, grown.component_bits),
            )
            lengths = {
                wider.pack(packer.unpack(key)): length
                for key, length in lengths.items()
            }
            codes = {wider.pack(code): code for code in subtree_delta}
            packer = wider
        self.packer = packer
        self.rekeyed = packer is not base_view.packer
        self._codes = codes
        self._synced = len(subtree_delta)
        self.subtree_lengths = _OverlayLengths(
            lengths, codes, subtree_delta
        )
        self._lists: dict[str, tuple[int, PackedInvertedList | None]] = {}

    def sync(self) -> bool:
        """Pack the subtree codes new since the last sync.

        Returns False when one does not fit the packer; the view is
        then unusable and must be replaced.
        """
        subtree_delta = self._overlay.delta.subtree_delta
        pack = self.packer.pack
        try:
            for code in islice(subtree_delta, self._synced, None):
                self._codes[pack(code)] = code
        except DeweyError:
            return False
        self._synced = len(subtree_delta)
        return True

    def get(self, token: str) -> PackedInvertedList | None:
        delta = self._overlay.delta
        stamp = delta.touched.get(token)
        if stamp is None and not self.rekeyed:
            return self._base_view.get(token)
        return _stamped(
            self._lists, delta, token, stamp or 0, self._splice
        )

    def _splice(self, token: str) -> PackedInvertedList | None:
        base = self._base_view.get(token)
        if base is not None and self.rekeyed:
            repack = self.packer.pack
            unpack = self._base_view.packer.unpack
            keys = [repack(unpack(key)) for key in base.keys]
            base = PackedInvertedList(
                token,
                array("q", keys) if self.packer.fits_int64 else keys,
                base.path_ids,
                base.tfs,
            )
        delta = self._overlay.delta
        return _splice_postings(
            token,
            base,
            self.packer,
            delta.cuts.get(token, ()),
            delta.postings_add.get(token, ()),
        )


class OverlayVariantGenerator:
    """Incremental var_ε(q) over the overlay vocabulary.

    Rebuilding a deletion-neighborhood index over the merged
    vocabulary after every update is O(|vocabulary|) — seconds on a
    large corpus for a single-record delta.  Instead this wrapper
    probes the *base* generator (typically served zero-copy from the
    snapshot's embedded FastSS sections) and a small FastSS index over
    the tokens the delta added to the vocabulary, and keeps only hits
    still in the overlay vocabulary.  The merged hit set is sorted
    ``(distance, token)``, so results are identical to a generator
    built from scratch over the merged vocabulary.

    One instance lives as long as its overlay (with its base generator
    and that generator's memo).  :meth:`sync`, run by each refresh,
    indexes only tokens that newly entered the vocabulary and clears
    the memo only when membership changed, so installing a suggester
    after an update costs nothing here.
    """

    def __init__(
        self,
        overlay: "DeltaOverlayCorpus",
        base_generator: VariantGenerator,
        max_errors: int = 2,
        cache_size: int = DEFAULT_VARIANT_CACHE_SIZE,
    ):
        self.max_errors = max_errors
        self._base = base_generator
        self._vocabulary = overlay.vocabulary
        self._base_vocabulary = overlay.base.vocabulary
        self._added = FastSSIndex((), max_errors=max_errors)
        #: Membership of each synced token at its last sync.
        self._present: dict[str, bool] = {}
        self.cache_size = cache_size
        self._cache: OrderedDict[
            tuple[str, int], tuple[Variant, ...]
        ] = OrderedDict()
        self.cache_hits = 0
        self.cache_misses = 0
        self.sync(overlay.delta.touched)

    def sync(self, tokens: Iterable[str]) -> None:
        """Follow the vocabulary membership of changed ``tokens``."""
        vocabulary = self._vocabulary
        in_base = self._base_vocabulary.collection_frequency
        changed = False
        for token in tokens:
            present = token in vocabulary
            if present == self._present.get(token, in_base(token) > 0):
                continue
            self._present[token] = present
            changed = True
            if present and in_base(token) == 0:
                self._added.add_token(token)
        if changed:
            self._cache.clear()

    def variants(
        self, keyword: str, max_errors: int | None = None
    ) -> tuple[Variant, ...]:
        """var_ε(q) over the merged vocabulary (shared tuple)."""
        eps = self.max_errors if max_errors is None else max_errors
        key = (keyword, eps)
        cache = self._cache
        cached = cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            cache.move_to_end(key)
            return cached
        self.cache_misses += 1
        vocabulary = self._vocabulary
        merged = [
            variant
            for variant in self._base.variants(keyword, eps)
            if variant.token in vocabulary
        ]
        if len(self._added):
            merged.extend(
                variant
                for variant in self._added.variants(keyword, eps)
                if variant.token in vocabulary
            )
            merged.sort()
        cached = tuple(merged)
        cache[key] = cached
        if len(cache) > self.cache_size:
            cache.popitem(last=False)
        return cached

    def variant_tokens(
        self, keyword: str, max_errors: int | None = None
    ) -> list[str]:
        """Just the token strings, sorted by (distance, token)."""
        return [v.token for v in self.variants(keyword, max_errors)]

    def distance_of(
        self, keyword: str, token: str, max_errors: int | None = None
    ) -> int | None:
        """Edit distance keyword→token if token ∈ var_ε(keyword)."""
        for variant in self.variants(keyword, max_errors):
            if variant.token == token:
                return variant.distance
        return None


class DeltaOverlayCorpus(QueryEngineMixin):
    """Base corpus + delta segment behind the standard query surface.

    Shares the base's (mutable, interning) path table so path ids are
    identical across base, overlay, and the eventual compacted
    snapshot of the same content.  Call :meth:`refresh` after folding
    records into the delta.  A refresh invalidates only what the new
    records touched: per-token caches (packed and tuple lists, f_w^p
    counts) check the token's stamp, and the merged-column memo and
    merge plans lose just the variant sets holding a changed token.
    The cache ``generation`` is bumped only when the delta outgrows the
    packer, because then every packed key changes; snapshot swaps and
    compaction install a different corpus object altogether.
    """

    def __init__(self, base, delta: DeltaSegment | None = None):
        self.base = base
        self.delta = delta if delta is not None else DeltaSegment()
        self.name = base.name
        self.tokenizer = base.tokenizer
        self.path_table = base.path_table
        self.vocabulary = OverlayVocabulary(base.vocabulary, self.delta)
        self.inverted = OverlayInvertedIndex(self)
        self.path_index = OverlayPathIndex(self)
        self._init_query_caches()
        self._packed_overlay: OverlayPackedView | None = None
        self._generators: dict[
            tuple[int, int], OverlayVariantGenerator
        ] = {}
        self._node_counts: dict[int, int] | None = None
        self._totals: dict[int, float] | None = None
        self._subtree_counts: dict[DeweyCode, int] | None = None
        self._stats_version = self.delta.version

    # -- cache lifecycle ------------------------------------------------

    def refresh(self) -> None:
        """Bring the caches up to date after the delta changed."""
        delta = self.delta
        since = self._stats_version
        if delta.version == since:
            return
        self._stats_version = delta.version
        self._node_counts = None
        self._totals = None
        self._subtree_counts = None
        changed = delta.changed_since(since)
        for generator in self._generators.values():
            generator.sync(changed)
        view = self._packed_overlay
        if view is not None and not view.sync():
            self._packed_overlay = None
            self.bump_generation()
        else:
            self.evict_tokens(changed)

    # -- corpus surface -------------------------------------------------

    @property
    def path_node_counts(self) -> dict[int, int]:
        self.refresh()
        found = self._node_counts
        if found is None:
            found = dict(self.base.path_node_counts)
            for pid, adjust in self.delta.path_node_delta.items():
                value = found.get(pid, 0) + adjust
                if value > 0:
                    found[pid] = value
                else:
                    found.pop(pid, None)
            self._node_counts = found
        return found

    @property
    def path_token_totals_map(self) -> dict[int, float]:
        self.refresh()
        found = self._totals
        if found is None:
            found = dict(self.base.path_token_totals())
            for pid, adjust in self.delta.path_total_delta.items():
                value = found.get(pid, 0.0) + adjust
                if value > 0:
                    found[pid] = value
                else:
                    found.pop(pid, None)
            self._totals = found
        return found

    @property
    def max_depth(self) -> int:
        return max(
            self.base.max_path_depth(), self.delta.max_new_depth
        )

    def subtree_length(self, dewey: DeweyCode) -> int:
        length = self.base.subtree_length(dewey) + (
            self.delta.subtree_delta.get(dewey, 0)
        )
        return length if length > 0 else 0

    @property
    def subtree_token_counts(self) -> dict[DeweyCode, int]:
        self.refresh()
        found = self._subtree_counts
        if found is None:
            found = dict(self.base.subtree_token_counts)
            for code, adjust in self.delta.subtree_delta.items():
                value = found.get(code, 0) + adjust
                if value > 0:
                    found[code] = value
                else:
                    found.pop(code, None)
            self._subtree_counts = found
        return found

    def packed_view(self) -> OverlayPackedView:
        self.refresh()
        view = self._packed_overlay
        if view is None:
            view = OverlayPackedView(self)
            self._packed_overlay = view
        return view

    def entity_count(self, path_id: int) -> int:
        return self.path_node_counts.get(path_id, 0)

    def variant_generator(
        self,
        max_errors: int = 2,
        cache_size: int = DEFAULT_VARIANT_CACHE_SIZE,
    ):
        """Variant generator over the overlay vocabulary.

        With no touched tokens the base generator (possibly served from
        embedded FastSS sections) is returned; otherwise this overlay's
        one :class:`OverlayVariantGenerator` for the radius, kept
        current by :meth:`refresh` — so added tokens are suggestible
        immediately, fully deleted tokens never are, and installing a
        fresh suggester after an update (under the serving tier's
        compute lock) costs O(1) here.
        """
        base = self.base
        if not hasattr(base, "variant_generator"):
            return VariantGenerator(
                self.vocabulary.tokens(),
                max_errors=max_errors,
                cache_size=cache_size,
            )
        if not self.delta.touched:
            return base.variant_generator(
                max_errors=max_errors, cache_size=cache_size
            )
        self.refresh()
        key = (max_errors, cache_size)
        generator = self._generators.get(key)
        if generator is None:
            generator = OverlayVariantGenerator(
                self,
                base.variant_generator(
                    max_errors=max_errors, cache_size=cache_size
                ),
                max_errors=max_errors,
                cache_size=cache_size,
            )
            self._generators[key] = generator
        return generator

    def describe(self) -> dict:
        base_describe = getattr(self.base, "describe", None)
        return {
            "overlay": self.delta.describe(),
            "base": base_describe() if base_describe else {},
        }

"""The merged-list abstraction (Section V-C), over packed columns.

Given the variants of one query keyword, Algorithm 1 reads their
inverted lists as if physically merged into one document-ordered list
and skips it to the start of each subtree group.  Packed Dewey keys
sort globally, so :class:`PackedMergedColumns` performs that merge once
per variant set (memoized on the corpus), and :class:`PackedMergedList`
is the cursor the merge kernel advances over it.

Each entry carries the originating token, because Algorithm 1 needs to
know *which variant* occurred at a position.
"""

from __future__ import annotations

from array import array
from typing import Iterable

from repro.index.inverted import PackedInvertedList

#: An entry of the packed merged list: (packed_key, path_id, tf, token).
PackedEntry = tuple[int, int, int, str]


def _concat(typecode: str, columns) -> array:
    """The columns end to end, copied as raw bytes (C-level)."""
    out = array(typecode)
    for column in columns:
        out.frombytes(memoryview(column).cast("B"))
    return out


class PackedMergedColumns:
    """The variant lists of one keyword, merged by key (immutable).

    Packed Dewey keys sort globally, so the member lists merge into one
    ascending key column.  Two consequences make the query-time cursor
    trivial:

    * skipping to a key is one galloping search over the key column —
      no per-member search, no heap rebuild;
    * every subtree is a *contiguous* key range (descendants of a node
      share its packed prefix and nothing else sorts between them), so
      draining a subtree group takes one slice found by a second search.

    The merge is C-level work only.  A one-member set *is* its member's
    columns (nothing is copied).  A larger set concatenates the member
    columns and sorts the positions once, stably by key: ties keep
    member order, so postings come out in (key, member) order, the
    order a (key, member) min-heap merge would yield.  ``order[j]`` is
    the concatenated position of merged position ``j``, and the side
    columns — ``path_ids``, ``tfs`` and the per-posting
    ``posting_tokens`` — stay in concatenated order: rows are built
    only by :meth:`slice_by_token`, for the groups the kernel drains.

    The merge is paid once per variant set and memoized on the corpus;
    :class:`PackedMergedList` cursors share the columns.
    """

    __slots__ = ("keys", "order", "path_ids", "tfs", "posting_tokens",
                 "tokens", "length")

    def __init__(self, lists: Iterable[PackedInvertedList]):
        members = list(lists)
        self.tokens = [lst.token for lst in members]
        if len(members) == 1:
            (only,) = members
            self.keys = only.keys
            self.path_ids = only.path_ids
            self.tfs = only.tfs
            self.order = self.posting_tokens = None
            self.length = len(only.keys)
            return
        # Snapshot-backed lists carry memoryview columns; they hold
        # int64 keys just like array('q'), so the merged keys stay a
        # machine-int column (only >63-bit packers fall through).
        if all(
            isinstance(lst.keys, (array, memoryview)) for lst in members
        ):
            concatenated = _concat("q", (lst.keys for lst in members))
            flat = concatenated.tolist()
        else:
            flat = [key for lst in members for key in lst.keys]
            concatenated = None
        order = sorted(range(len(flat)), key=flat.__getitem__)
        keys = [flat[i] for i in order]
        self.keys: list[int] | array = (
            keys if concatenated is None else array("q", keys)
        )
        self.order = array("i", order)
        self.path_ids = _concat("i", (lst.path_ids for lst in members))
        self.tfs = _concat("i", (lst.tfs for lst in members))
        posting_tokens: list[str] = []
        for lst in members:
            posting_tokens += [lst.token] * len(lst.keys)
        # A tuple of strs leaves the garbage collector's lists after
        # its first collection; a memoized list would stay tracked.
        self.posting_tokens = tuple(posting_tokens)
        self.length = len(flat)

    def slice_by_token(
        self, start: int, end: int
    ) -> dict[str, list[PackedEntry]]:
        """Materialize ``[start, end)`` grouped by originating token.

        The group-collection step of Algorithm 1 (Lines 9-11) in one
        call: tokens appear in the order of their first posting, and
        entries come out in column (document) order within each token
        list, which is what keeps candidate enumeration — and hence
        score accumulation — deterministic across live runs and the
        linear (no-skipping) mode.
        """
        keys = self.keys
        path_ids = self.path_ids
        tfs = self.tfs
        order = self.order
        if order is None:
            if start >= end:
                return {}
            token = self.tokens[0]
            return {
                token: [
                    (keys[j], path_ids[j], tfs[j], token)
                    for j in range(start, end)
                ]
            }
        posting_tokens = self.posting_tokens
        by_token: dict[str, list[PackedEntry]] = {}
        for j in range(start, end):
            i = order[j]
            token = posting_tokens[i]
            entry = (keys[j], path_ids[i], tfs[i], token)
            found = by_token.get(token)
            if found is None:
                by_token[token] = [entry]
            else:
                found.append(entry)
        return by_token


class PackedMergedList:
    """Cursor state over the physically merged variant lists of one keyword.

    The merge already happened at construction
    (:class:`PackedMergedColumns`); Algorithm 1's merge loop
    (``XCleanSuggester._merge_loop_kernel``) advances ``position`` over
    the shared columns itself and writes back the postings it read and
    skipped.
    """

    __slots__ = ("columns", "position", "reads", "skips")

    def __init__(self, columns: PackedMergedColumns):
        self.columns = columns
        self.position = 0
        self.reads = 0
        self.skips = 0

    @property
    def total_reads(self) -> int:
        """Postings the merge loop consumed."""
        return self.reads

    @property
    def total_skips(self) -> int:
        """Postings the merge loop jumped over."""
        return self.skips

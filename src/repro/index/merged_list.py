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


def _next_columns_uid(_counter=iter(range(1, 1 << 62)).__next__) -> int:
    """Process-wide unique id for PackedMergedColumns instances.

    Monotonic and never reused (unlike ``id()``), so a cache keyed on
    uids can never alias a dead columns object with a new one."""
    return _counter()


class PackedMergedColumns:
    """The variant lists of one keyword, physically merged (immutable).

    Packed Dewey keys sort globally, so the member lists can be merged
    once into four parallel columns sorted by key.  Two consequences
    make the query-time cursor trivial:

    * skipping to a key is one galloping search over the key column —
      no per-member search, no heap rebuild;
    * every subtree is a *contiguous* key range (descendants of a node
      share its packed prefix and nothing else sorts between them), so
      draining a subtree group takes one slice found by a second search.

    The merge is paid once per variant set and memoized on the corpus;
    :class:`PackedMergedList` cursors share the columns.
    """

    __slots__ = ("keys", "path_ids", "tfs", "token_ids", "tokens",
                 "length", "uid")

    def __init__(self, lists: Iterable[PackedInvertedList]):
        members = list(lists)
        self.tokens = [lst.token for lst in members]
        #: Never-reused identity for plan-cache keys: the corpus memoizes
        #: columns per variant set, so while an instance stays cached its
        #: uid names that variant set in O(1) — no token-tuple hashing on
        #: the query path.  A rebuilt instance gets a fresh uid and the
        #: old plans simply age out of the LRU.
        self.uid = _next_columns_uid()
        rows = [
            (lst.keys[i], member, lst.path_ids[i], lst.tfs[i])
            for member, lst in enumerate(members)
            for i in range(len(lst.keys))
        ]
        # Keys ascending, ties broken by member index — exactly the
        # order a (key, member) min-heap merge would yield.
        rows.sort()
        # Snapshot-backed lists carry memoryview columns; they hold
        # int64 keys just like array('q'), so the merged keys stay a
        # machine-int column (only >63-bit packers fall through).
        if all(
            isinstance(lst.keys, (array, memoryview)) for lst in members
        ):
            self.keys: list[int] | array = array(
                "q", (row[0] for row in rows)
            )
        else:
            self.keys = [row[0] for row in rows]
        self.token_ids = array("i", (row[1] for row in rows))
        self.path_ids = array("i", (row[2] for row in rows))
        self.tfs = array("i", (row[3] for row in rows))
        self.length = len(rows)

    def slice_by_token(
        self, start: int, end: int
    ) -> dict[str, list[PackedEntry]]:
        """Materialize ``[start, end)`` grouped by originating token.

        The group-collection step of Algorithm 1 (Lines 9-11) in one
        call: entries come out in column (document) order within each
        token list, which is what keeps candidate enumeration — and
        hence score accumulation — deterministic across live runs, the
        linear (no-skipping) mode, and plan replays.
        """
        keys = self.keys
        path_ids = self.path_ids
        tfs = self.tfs
        token_ids = self.token_ids
        tokens = self.tokens
        by_token: dict[str, list[PackedEntry]] = {}
        for j in range(start, end):
            token = tokens[token_ids[j]]
            entry = (keys[j], path_ids[j], tfs[j], token)
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

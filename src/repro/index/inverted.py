"""Dewey-coded inverted lists (Section V-C).

Each token maps to a list of postings sorted in document order.  A
posting is the tuple ``(dewey, path_id, tf)``: the Dewey code of the
*leaf* node that directly contains the token, the interned id of its
label path, and the token's frequency in that node.

Lists support positional cursors with ``skip_to`` implemented by
exponential (galloping) search followed by binary search, which is what
lets Algorithm 1 jump over whole subtrees that cannot contribute.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Iterator, Sequence

from repro.xmltree.dewey import DeweyCode
from repro.xmltree.dewey_packed import DeweyPacker

#: A posting: (dewey, path_id, term_frequency).
Posting = tuple[DeweyCode, int, int]


class InvertedList:
    """An immutable, document-ordered posting list for one token."""

    __slots__ = ("token", "postings")

    def __init__(self, token: str, postings: Sequence[Posting]):
        self.token = token
        self.postings: list[Posting] = list(postings)
        for i in range(1, len(self.postings)):
            if self.postings[i - 1][0] >= self.postings[i][0]:
                raise ValueError(
                    f"postings for {token!r} not strictly document-ordered"
                )

    def __len__(self) -> int:
        return len(self.postings)

    def __iter__(self) -> Iterator[Posting]:
        return iter(self.postings)

    def __getitem__(self, index: int) -> Posting:
        return self.postings[index]

    def first_at_or_after(self, dewey: DeweyCode, start: int = 0) -> int:
        """Index of the first posting with code >= ``dewey``.

        Uses galloping search from ``start`` (the cursor position), so a
        sequence of increasing ``skip_to`` targets costs O(log gap) each
        rather than O(log n).
        Returns ``len(self)`` when every remaining posting is smaller.
        """
        postings = self.postings
        n = len(postings)
        if start >= n or postings[start][0] >= dewey:
            return start
        # Gallop: find a window [lo, hi) with postings[lo] < dewey <= hi.
        step = 1
        lo = start
        hi = start + 1
        while hi < n and postings[hi][0] < dewey:
            lo = hi
            step *= 2
            hi = min(n, hi + step)
        return bisect_left(postings, dewey, lo + 1, hi, key=lambda p: p[0])


class InvertedIndex:
    """Token → :class:`InvertedList` mapping for one corpus."""

    def __init__(self):
        self._lists: dict[str, InvertedList] = {}

    def __contains__(self, token: str) -> bool:
        return token in self._lists

    def __len__(self) -> int:
        return len(self._lists)

    def tokens(self) -> Iterator[str]:
        return iter(self._lists)

    def add_list(self, inverted_list: InvertedList) -> None:
        """Register a completed list (construction-time only)."""
        self._lists[inverted_list.token] = inverted_list

    def get(self, token: str) -> InvertedList | None:
        """Posting list for ``token``, or ``None`` if absent."""
        return self._lists.get(token)

    def list_for(self, token: str) -> InvertedList:
        """Posting list for ``token``; empty list when absent."""
        found = self._lists.get(token)
        if found is None:
            return InvertedList(token, [])
        return found

    def total_postings(self) -> int:
        """Total number of postings across all lists (index size)."""
        return sum(len(lst) for lst in self._lists.values())


class ListCursor:
    """A read cursor over one inverted list.

    Tracks the current position and the number of postings actually
    *read* versus *skipped*, which the ablation benchmarks use to show
    the effect of Algorithm 1's skipping.
    """

    __slots__ = ("source", "position", "reads", "skips", "_postings",
                 "_length")

    def __init__(self, source: InvertedList):
        self.source = source
        self.position = 0
        self.reads = 0
        self.skips = 0
        # Hot-path locals: cursor operations run once per posting.
        self._postings = source.postings
        self._length = len(source.postings)

    def exhausted(self) -> bool:
        return self.position >= self._length

    def current(self) -> Posting | None:
        """Posting under the cursor, or ``None`` when exhausted."""
        if self.position >= self._length:
            return None
        return self._postings[self.position]

    def advance(self) -> Posting | None:
        """Return the current posting and move one step forward."""
        posting = self.current()
        if posting is not None:
            self.position += 1
            self.reads += 1
        return posting

    def skip_to(self, dewey: DeweyCode) -> Posting | None:
        """Discard postings with code < ``dewey``; return the new head."""
        new_position = self.source.first_at_or_after(dewey, self.position)
        self.skips += new_position - self.position
        self.position = new_position
        return self.current()


# ----------------------------------------------------------------------
# Columnar (packed) posting lists — the fast query engine
# ----------------------------------------------------------------------
#
# The tuple-based classes above serve the offline readers (NaiveCleaner,
# SLCA/ELCA, entity search); the packed class below stores the same
# postings as three parallel columns so the merge loop runs on machine
# integers:
#
# * ``keys``  — packed Dewey codes (``array('q')`` when they fit in 64
#   bits, else a plain list of big ints), numerically document-ordered;
# * ``path_ids`` / ``tfs`` — ``array('i')`` side columns.
#
# The merge loop gallops over the merged key column with C-level
# ``bisect`` (``index/merge_kernel.gallop_left``, no ``key=`` extractor).


class PackedInvertedList:
    """Columnar, document-ordered posting list for one token."""

    __slots__ = ("token", "keys", "path_ids", "tfs")

    def __init__(
        self,
        token: str,
        keys: Sequence[int],
        path_ids: Sequence[int],
        tfs: Sequence[int],
    ):
        if not (len(keys) == len(path_ids) == len(tfs)):
            raise ValueError("packed columns must have equal length")
        self.token = token
        self.keys = keys
        self.path_ids = path_ids
        self.tfs = tfs

    @classmethod
    def from_inverted(
        cls, source: InvertedList, packer: DeweyPacker
    ) -> "PackedInvertedList":
        """Pack a tuple-based list into columns (build-time only)."""
        packed = [packer.pack(code) for code, _pid, _tf in source]
        if packer.fits_int64:
            keys: Sequence[int] = array("q", packed)
        else:
            keys = packed
        path_ids = array("i", (pid for _c, pid, _tf in source))
        tfs = array("i", (tf for _c, _pid, tf in source))
        return cls(source.token, keys, path_ids, tfs)

    def __len__(self) -> int:
        return len(self.keys)

"""Dewey-coded inverted lists (Section V-C).

Each token maps to a list of postings sorted in document order.  A
posting is the tuple ``(dewey, path_id, tf)``: the Dewey code of the
*leaf* node that directly contains the token, the interned id of its
label path, and the token's frequency in that node.

The query engine reads the same postings as packed columns
(:class:`PackedInvertedList`); Algorithm 1 skips over those with a
galloping search (``index/merge_kernel.gallop_left``), which is what
lets it jump over whole subtrees that cannot contribute.
"""

from __future__ import annotations

from array import array
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


# ----------------------------------------------------------------------
# Columnar (packed) posting lists — the fast query engine
# ----------------------------------------------------------------------
#
# The tuple-based classes above serve the offline readers (NaiveCleaner,
# entity search, PY08); the packed class below stores the same
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

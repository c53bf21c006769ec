"""The path index: f_w^p counts for result-type inference (Section V-B).

For result-type inference (Eq. 7) XClean needs, for each keyword ``w``,
the list of label paths ``p`` with the count ``f_w^p`` — the number of
nodes whose label path is ``p`` and whose *subtree* contains ``w``.

Building this without materializing ancestor sets exploits document
order: in a sorted posting list, the ancestors-or-self of consecutive
postings share Dewey prefixes, so the number of distinct ancestors at
depth k equals the number of distinct length-k prefixes — countable in a
single scan by comparing each posting's Dewey code with its predecessor.
The label path of the depth-k ancestor is the posting's label path
truncated to k labels.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.index.inverted import Posting
from repro.xmltree.dewey_packed import DeweyPacker
from repro.xmltree.labelpath import PathTable


class PathIndex:
    """Token → { path_id: f_w^p } mapping."""

    def __init__(self):
        self._by_token: dict[str, dict[int, int]] = {}

    def __contains__(self, token: str) -> bool:
        return token in self._by_token

    def __len__(self) -> int:
        return len(self._by_token)

    def tokens(self) -> Iterable[str]:
        return self._by_token.keys()

    def set_counts(self, token: str, counts: dict[int, int]) -> None:
        """Install the completed count map for ``token``."""
        self._by_token[token] = counts

    def counts_for(self, token: str) -> Mapping[int, int]:
        """``{path_id: f_w^p}`` for a token; empty mapping if unknown."""
        return self._by_token.get(token, {})

    def f(self, token: str, path_id: int) -> int:
        """The single count f_w^p (0 when the pair never co-occurs)."""
        return self._by_token.get(token, {}).get(path_id, 0)


def path_counts_from_postings(
    postings: Iterable[Posting], path_table: PathTable
) -> dict[int, int]:
    """Compute ``{path_id: f_w^p}`` from one token's sorted postings.

    Counts distinct ancestor-or-self nodes per label path using the
    prefix-scan described in the module docstring.
    """
    counts: dict[int, int] = {}
    previous: tuple[int, ...] = ()
    for dewey, path_id, _tf in postings:
        # Length of the common prefix with the previous posting.
        limit = min(len(previous), len(dewey))
        shared = 0
        while shared < limit and previous[shared] == dewey[shared]:
            shared += 1
        # Ancestors at depths 1..shared were already counted for this
        # token; depths shared+1..len(dewey) are new distinct nodes.
        for depth in range(shared + 1, len(dewey) + 1):
            ancestor_path = path_table.prefix_id(path_id, depth)
            counts[ancestor_path] = counts.get(ancestor_path, 0) + 1
        previous = dewey
    return counts


def path_counts_from_packed(
    keys: Sequence[int],
    path_ids: Sequence[int],
    packer: DeweyPacker,
    path_table: PathTable,
) -> dict[int, int]:
    """:func:`path_counts_from_postings` over packed columns.

    The shared prefix of two consecutive codes is read off the highest
    differing bit of their component blocks instead of a tuple walk:
    zero padding never equals a real component, so the count of
    leading equal components is exactly the shared depth.  A node's
    depth is its label path's, so the new ancestors are the tail of the
    path's prefix chain past the shared depth.
    """
    counts: dict[int, int] = {}
    depth_bits = packer.depth_bits
    bits = packer.component_bits
    width = packer.max_depth
    chains: dict[int, tuple[int, ...]] = {}
    previous = 0
    for key, path_id in zip(keys, path_ids):
        components = key >> depth_bits
        diff = (components ^ previous).bit_length()
        shared = width - (diff + bits - 1) // bits
        chain = chains.get(path_id)
        if chain is None:
            chain = chains[path_id] = tuple(
                path_table.prefix_id(path_id, depth)
                for depth in range(1, path_table.depth_of(path_id) + 1)
            )
        for ancestor_path in chain[shared:]:
            counts[ancestor_path] = counts.get(ancestor_path, 0) + 1
        previous = components
    return counts


def build_path_index(
    lists: Iterable[tuple[str, Iterable[Posting]]], path_table: PathTable
) -> PathIndex:
    """Build a :class:`PathIndex` for all tokens from their postings."""
    index = PathIndex()
    for token, postings in lists:
        index.set_counts(
            token, path_counts_from_postings(postings, path_table)
        )
    return index

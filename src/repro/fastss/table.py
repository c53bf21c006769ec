"""FastSS bucket tables as sorted columns of signature digests.

A bucket table maps each deletion signature (Section V-A) to the ids
of the vocabulary tokens whose neighborhood holds it.  The same three
columns serve an in-memory index and a mapped snapshot
(``docs/index_format.md``):

* ``keys``   — distinct signature digests, ascending (int64);
* ``starts`` — ``len(keys) + 1`` offsets: bucket ``i`` is
  ``ids[starts[i]:starts[i + 1]]`` (int64);
* ``ids``    — token ids (int32).

A probe digests the signature and bisects ``keys``.  The digest is
stable across processes (the builtin ``hash()`` of a ``str`` is salted
per process), so a snapshot built by one process is probed by another.
Signatures whose digests collide share one bucket: a probe then yields
a superset of the candidates, and verification keeps the answer exact.

Tokens added after the columns were built go to a small digest-keyed
tail probed beside them, so an incremental ``add`` never rebuilds a
column.
"""

from __future__ import annotations

import struct
import sys
from array import array
from bisect import bisect_left
from hashlib import blake2b
from itertools import accumulate, chain
from typing import Iterable

_INT64 = struct.Struct("<q")


def signature_digest(signature: str) -> int:
    """``blake2b(signature, digest_size=8)`` as a little-endian int64."""
    return _INT64.unpack(
        blake2b(signature.encode("utf-8"), digest_size=8).digest()
    )[0]


class SignatureTable:
    """Signature → token ids over sorted digest columns (+ a tail)."""

    __slots__ = ("keys", "starts", "ids", "_tail")

    def __init__(self, keys, starts, ids):
        self.keys = keys
        self.starts = starts
        self.ids = ids
        self._tail: dict[int, list[int]] = {}

    @classmethod
    def from_buckets(
        cls, buckets: dict[str, list[int]]
    ) -> "SignatureTable":
        """Columns for a ``signature → token ids`` dict."""
        keys = list(map(signature_digest, buckets))
        merged = dict(zip(keys, buckets.values()))
        if len(merged) < len(buckets):
            # Colliding digests: their buckets become one.
            merged = {}
            for key, members in zip(keys, buckets.values()):
                merged[key] = merged.get(key, []) + members
        return cls._from_digests(merged)

    @classmethod
    def _from_digests(
        cls, merged: dict[int, list[int]]
    ) -> "SignatureTable":
        keys = sorted(merged)
        members = [merged[key] for key in keys]
        starts = array("q", [0])
        starts.extend(accumulate(map(len, members)))
        ids = array("i", chain.from_iterable(members))
        return cls(array("q", keys), starts, ids)

    def add(self, signature: str, token_id: int) -> None:
        """File one more (signature, token) pair; columns stay as built."""
        self._tail.setdefault(signature_digest(signature), []).append(
            token_id
        )

    def frozen(self) -> "SignatureTable":
        """This table with its tail folded into the columns."""
        if not self._tail:
            return self
        keys, starts, ids = self.keys, self.starts, self.ids
        merged = {
            keys[position]: list(
                ids[starts[position] : starts[position + 1]]
            )
            for position in range(len(keys))
        }
        for key, members in self._tail.items():
            merged[key] = merged.get(key, []) + members
        return self._from_digests(merged)

    def lookup(self, signatures: Iterable[str]) -> set[int]:
        """Ids in the buckets of ``signatures`` (a superset on collision)."""
        keys, starts, ids, tail = (
            self.keys, self.starts, self.ids, self._tail,
        )
        count = len(keys)
        digest = signature_digest
        found: set[int] = set()
        for signature in signatures:
            key = digest(signature)
            position = bisect_left(keys, key)
            if position < count and keys[position] == key:
                found.update(ids[starts[position] : starts[position + 1]])
            if tail:
                found.update(tail.get(key, ()))
        return found

    def __len__(self) -> int:
        """Number of buckets (distinct digests)."""
        return len(self.frozen().keys)

    @property
    def nbytes(self) -> int:
        """Bytes of the columns, plus an estimate for a non-empty tail."""
        total = sum(
            len(column) * column.itemsize
            for column in (self.keys, self.starts, self.ids)
        )
        if self._tail:
            sizeof = sys.getsizeof
            total += sizeof(self._tail) + sum(
                sizeof(key) + sizeof(members)
                for key, members in self._tail.items()
            )
        return total

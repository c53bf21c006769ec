"""FastSS variant indexes: generating var_ε(q) (Section V-A).

Two interchangeable index structures produce the variant set of a query
keyword — every vocabulary token within edit distance ε:

* :class:`FastSSIndex` — the plain scheme: index the ε-deletion
  neighborhood of every vocabulary token; probe with the query's
  neighborhood; verify candidates with a bit-parallel edit distance.

* :class:`PartitionedFastSSIndex` — the paper's partitioned variant for
  long tokens.  Tokens longer than a threshold are split into two
  halves; by pigeonhole, ed(q, w) <= ε implies one half aligns with a
  query prefix/suffix within ⌊ε/2⌋ errors, so only ⌊ε/2⌋-deletion
  neighborhoods of the halves are indexed.  This trades a slightly
  larger candidate set for neighborhood sizes that stay polynomial in
  the half length — the paper's O(min(l^ε, ε²·l_p)·|V|) space bound.

* :class:`BruteForceVariants` — scans the vocabulary; the correctness
  oracle in tests.

Both indexes keep their buckets in :class:`~repro.fastss.table.
SignatureTable` columns of token ids, the layout a snapshot maps
unchanged (``over_table``/``over_tables`` wrap mapped columns).

All three share the interface ``variants(query, max_errors=None) ->
list[Variant]``, returning ``(token, distance)`` pairs sorted by
(distance, token) so results are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Protocol

from repro.exceptions import ConfigurationError
from repro.fastss.edit_distance import masked_distance, match_masks
from repro.fastss.neighborhood import deletion_neighborhood
from repro.fastss.table import SignatureTable


@dataclass(frozen=True, order=True)
class Variant:
    """One member of var_ε(q): a vocabulary token and its edit distance."""

    distance: int
    token: str


class VariantIndex(Protocol):
    """Common protocol of the variant-generation indexes."""

    max_errors: int

    def variants(
        self, query: str, max_errors: int | None = None
    ) -> list[Variant]:
        """All vocabulary tokens within the given edit distance."""
        ...  # pragma: no cover - protocol


def _verify(
    query: str, candidates: Iterable[str], max_errors: int
) -> list[Variant]:
    """Filter candidates by true edit distance; sort deterministically.

    The query's match masks are built once; a candidate whose length
    differs from the query's by more than ``max_errors`` is dropped
    before the bit-parallel distance runs.
    """
    length = len(query)
    masks = match_masks(query)
    verified = []
    for token in candidates:
        if abs(len(token) - length) <= max_errors:
            distance = masked_distance(masks, length, token, max_errors)
            if distance <= max_errors:
                verified.append(Variant(distance, token))
    verified.sort()
    return verified


def _check_radius(max_errors: int) -> None:
    if max_errors < 0:
        raise ConfigurationError("max_errors must be >= 0")


class _TableIndex:
    """What both FastSS layouts share: token ids, decoding, verifying.

    Bucket tables hold token ids; ``_token`` decodes one id (a list of
    the indexed tokens in memory, the vocabulary table of a mapped
    snapshot).  A probe collects ids as a set, so each distinct
    candidate is decoded once per query.
    """

    max_errors: int
    _token: Callable[[int], str]

    def tables(self) -> dict[str, SignatureTable]:
        """The bucket tables by snapshot tag (s/p/x)."""
        raise NotImplementedError

    @property
    def bucket_count(self) -> int:
        """Number of distinct deletion signatures (index size)."""
        return sum(len(table) for table in self.tables().values())

    def candidates(self, query: str, max_errors: int) -> set[int]:
        """Unverified candidate token ids."""
        raise NotImplementedError

    def variants(
        self, query: str, max_errors: int | None = None
    ) -> list[Variant]:
        """var_ε(q): verified vocabulary tokens within ``max_errors``."""
        eps = self.max_errors if max_errors is None else max_errors
        if eps > self.max_errors:
            raise ConfigurationError(
                f"index built for <= {self.max_errors} errors, asked {eps}"
            )
        return _verify(
            query, map(self._token, self.candidates(query, eps)), eps
        )


def _distinct(tokens: Iterable[str]) -> list[str]:
    return list(dict.fromkeys(tokens))


class FastSSIndex(_TableIndex):
    """Plain FastSS: full ε-deletion neighborhoods of every token."""

    def __init__(self, tokens: Iterable[str], max_errors: int = 2):
        _check_radius(max_errors)
        self.max_errors = max_errors
        self._tokens = _distinct(tokens)
        self._ids = {token: tid for tid, token in enumerate(self._tokens)}
        self._token = self._tokens.__getitem__
        buckets: dict[str, list[int]] = {}
        for tid, token in enumerate(self._tokens):
            for signature in deletion_neighborhood(token, max_errors):
                buckets.setdefault(signature, []).append(tid)
        self._table = SignatureTable.from_buckets(buckets)

    @classmethod
    def over_table(
        cls,
        table: SignatureTable,
        max_errors: int,
        token: Callable[[int], str],
    ) -> "FastSSIndex":
        """A read-only index over existing columns (a mapped snapshot)."""
        index = cls.__new__(cls)
        index.max_errors = max_errors
        index._tokens = None
        index._token = token
        index._table = table
        return index

    def add_token(self, token: str) -> None:
        """Index one vocabulary token (idempotent; columns stay as built)."""
        if token in self._ids:
            return
        tid = self._ids[token] = len(self._tokens)
        self._tokens.append(token)
        for signature in deletion_neighborhood(token, self.max_errors):
            self._table.add(signature, tid)

    def __len__(self) -> int:
        return len(self._tokens)

    def tables(self) -> dict[str, SignatureTable]:
        return {"s": self._table}

    def candidates(self, query: str, max_errors: int) -> set[int]:
        """Ids of the tokens sharing a deletion signature with ``query``."""
        return self._table.lookup(deletion_neighborhood(query, max_errors))


class PartitionedFastSSIndex(_TableIndex):
    """FastSS with half-token partitioning for long tokens.

    Tokens of length <= ``partition_threshold`` go into a plain FastSS
    bucket table.  Longer tokens are split into halves w = w1·w2 with
    |w1| = ceil(|w|/2); the ⌊ε/2⌋-deletion neighborhoods of w1 and w2
    are indexed in separate prefix/suffix tables.  At query time both
    tables are probed with the deletion neighborhoods of query prefixes
    and suffixes whose lengths fall in the pigeonhole window (see
    :meth:`_long_candidates`), and every candidate is verified.
    """

    def __init__(
        self,
        tokens: Iterable[str],
        max_errors: int = 2,
        partition_threshold: int = 9,
    ):
        _check_radius(max_errors)
        if partition_threshold < 2:
            raise ConfigurationError("partition_threshold must be >= 2")
        half_errors = max_errors // 2
        self._tokens = _distinct(tokens)
        short: dict[str, list[int]] = {}
        prefix: dict[str, list[int]] = {}
        suffix: dict[str, list[int]] = {}
        long_lengths: set[int] = set()
        for tid, token in enumerate(self._tokens):
            if len(token) <= partition_threshold:
                for sig in deletion_neighborhood(token, max_errors):
                    short.setdefault(sig, []).append(tid)
                continue
            long_lengths.add(len(token))
            half = (len(token) + 1) // 2
            for sig in deletion_neighborhood(token[:half], half_errors):
                prefix.setdefault(sig, []).append(tid)
            for sig in deletion_neighborhood(token[half:], half_errors):
                suffix.setdefault(sig, []).append(tid)
        self._install(
            SignatureTable.from_buckets(short),
            SignatureTable.from_buckets(prefix),
            SignatureTable.from_buckets(suffix),
            max_errors,
            partition_threshold,
            long_lengths,
            self._tokens.__getitem__,
        )

    @classmethod
    def over_tables(
        cls,
        short: SignatureTable,
        prefix: SignatureTable,
        suffix: SignatureTable,
        max_errors: int,
        partition_threshold: int,
        long_lengths: Iterable[int],
        token: Callable[[int], str],
    ) -> "PartitionedFastSSIndex":
        """A read-only index over existing columns (a mapped snapshot)."""
        index = cls.__new__(cls)
        index._tokens = None
        index._install(
            short, prefix, suffix, max_errors, partition_threshold,
            long_lengths, token,
        )
        return index

    def _install(
        self, short, prefix, suffix, max_errors, partition_threshold,
        long_lengths, token,
    ) -> None:
        self.max_errors = max_errors
        self.partition_threshold = partition_threshold
        self._short = short
        self._prefix = prefix
        self._suffix = suffix
        self._long_lengths = frozenset(long_lengths)
        self._token = token

    def tables(self) -> dict[str, SignatureTable]:
        return {"s": self._short, "p": self._prefix, "x": self._suffix}

    def _long_candidates(self, query: str, eps: int) -> set[int]:
        """Probe the prefix/suffix tables for long-token candidates.

        The window is the pigeonhole bound.  Let w = w1·w2 with
        h = |w1| = ⌈|w|/2⌉.  An optimal alignment of q to w splits q at
        some j with ed(q[:j], w1) = e1, ed(q[j:], w2) = e2 and
        e1 + e2 = ed(q, w) <= ε, so one half has at most ⌊ε/2⌋ errors.
        If e1 <= ⌊ε/2⌋, the lengths of q[:j] and w1 differ by at most
        e1, so |j − h| <= ⌊ε/2⌋, and q[:j] shares a ⌊ε/2⌋-deletion
        signature with w1.  The suffix case is the same with
        |q| − j and |w| − h.  The tables hold the ⌊ε_built/2⌋-deletion
        neighborhoods of the halves, a superset of the ⌊ε/2⌋ ones, so
        probing the ⌊ε/2⌋-deletion neighborhoods of the prefixes and
        suffixes whose lengths are in the window finds every w with
        ed(q, w) <= ε.
        """
        q_len = len(query)
        half_eps = eps // 2
        prefix_lengths: set[int] = set()
        suffix_lengths: set[int] = set()
        for length in self._long_lengths:
            # Feasible word lengths differ from |q| by at most eps.
            if abs(length - q_len) > eps:
                continue
            half = (length + 1) // 2
            for centre, lengths in (
                (half, prefix_lengths), (length - half, suffix_lengths)
            ):
                lo = max(0, centre - half_eps)
                hi = min(q_len, centre + half_eps)
                lengths.update(range(lo, hi + 1))
        found = self._prefix.lookup(
            {
                sig
                for j in prefix_lengths
                for sig in deletion_neighborhood(query[:j], half_eps)
            }
        )
        found |= self._suffix.lookup(
            {
                sig
                for j in suffix_lengths
                for sig in deletion_neighborhood(
                    query[q_len - j :], half_eps
                )
            }
        )
        return found

    def candidates(self, query: str, max_errors: int) -> set[int]:
        """Candidate token ids over both short and long tokens."""
        found = self._long_candidates(query, max_errors)
        if len(query) <= self.partition_threshold + max_errors:
            found |= self._short.lookup(
                deletion_neighborhood(query, max_errors)
            )
        return found


class BruteForceVariants:
    """Reference variant generator: a linear scan with the verifier."""

    def __init__(self, tokens: Iterable[str], max_errors: int = 2):
        self.max_errors = max_errors
        self._tokens = sorted(set(tokens))

    def variants(
        self, query: str, max_errors: int | None = None
    ) -> list[Variant]:
        eps = self.max_errors if max_errors is None else max_errors
        return _verify(query, self._tokens, eps)

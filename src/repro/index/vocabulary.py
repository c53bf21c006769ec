"""Vocabulary and collection statistics.

The vocabulary V is the set of all tokens occurring in the document
(Section III).  Besides membership it carries the statistics needed by

* the background language model P(w|B) of Eq. 6 (collection frequency
  over total token count);
* the PY08 baseline's tf·idf (Section II): per-token document frequency
  over *element documents* and the maximum relative term frequency.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator


class Vocabulary:
    """Token statistics for one corpus.

    Attributes are exposed read-only through methods; mutation happens
    only through :meth:`add_occurrence` / :meth:`register_element_doc`
    during index construction.
    """

    def __init__(self):
        self._collection_freq: dict[str, int] = {}
        self._element_df: dict[str, int] = {}
        self._max_rel_tf: dict[str, float] = {}
        self._total_tokens = 0
        self._element_doc_count = 0

    # ------------------------------------------------------------------
    # Construction API (used by the index builder)
    # ------------------------------------------------------------------

    def add_occurrence(self, token: str, count: int = 1) -> None:
        """Record ``count`` occurrences of ``token`` in the collection."""
        self._collection_freq[token] = (
            self._collection_freq.get(token, 0) + count
        )
        self._total_tokens += count

    def register_element_doc(self, token_counts: dict[str, int]) -> None:
        """Record one element-level document (for PY08's tf·idf).

        ``token_counts`` maps each token in the element to its frequency;
        the element's length is the sum of the counts.
        """
        self._element_doc_count += 1
        length = sum(token_counts.values())
        if length == 0:
            return
        for token, count in token_counts.items():
            self._element_df[token] = self._element_df.get(token, 0) + 1
            rel = count / length
            if rel > self._max_rel_tf.get(token, 0.0):
                self._max_rel_tf[token] = rel

    # ------------------------------------------------------------------
    # Membership / iteration
    # ------------------------------------------------------------------

    def __contains__(self, token: str) -> bool:
        return token in self._collection_freq

    def __len__(self) -> int:
        return len(self._collection_freq)

    def __iter__(self) -> Iterator[str]:
        return iter(self._collection_freq)

    def tokens(self) -> Iterable[str]:
        """All distinct tokens (arbitrary but stable iteration order)."""
        return self._collection_freq.keys()

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    @property
    def total_tokens(self) -> int:
        """Total number of token occurrences in the collection."""
        return self._total_tokens

    @property
    def element_doc_count(self) -> int:
        """Number of element-level documents registered (PY08's N)."""
        return self._element_doc_count

    def collection_frequency(self, token: str) -> int:
        """Occurrences of ``token`` across the whole collection."""
        return self._collection_freq.get(token, 0)

    def background_probability(self, token: str) -> float:
        """P(w|B) of Eq. 6 — relative collection frequency.

        Unknown tokens get probability 0; Dirichlet smoothing in the
        language model handles the rest.
        """
        if self._total_tokens == 0:
            return 0.0
        return self._collection_freq.get(token, 0) / self._total_tokens

    def element_document_frequency(self, token: str) -> int:
        """df(w) over element documents (PY08 idf denominator)."""
        return self._element_df.get(token, 0)

    def max_relative_tf(self, token: str) -> float:
        """max_t count(w,t)/|t| over element documents (PY08 numerator)."""
        return self._max_rel_tf.get(token, 0.0)

    def idf(self, token: str) -> float:
        """log(N / df(w)); 0 when the token is unknown."""
        df = self._element_df.get(token, 0)
        if df == 0 or self._element_doc_count == 0:
            return 0.0
        return math.log(self._element_doc_count / df)

    def max_tfidf(self, token: str) -> float:
        """PY08's score_IR(w) = max_t tfidf(w, t) (Section II)."""
        return self.max_relative_tf(token) * self.idf(token)

    # ------------------------------------------------------------------
    # Persistence hooks (snapshot and v2 binary codecs)
    # ------------------------------------------------------------------

    def export_rows(self) -> Iterator[tuple[str, int, int, float]]:
        """Yield ``(token, cf, element_df, max_rel_tf)`` rows."""
        for token, cf in self._collection_freq.items():
            yield (
                token,
                cf,
                self._element_df.get(token, 0),
                self._max_rel_tf.get(token, 0.0),
            )

    @classmethod
    def from_rows(
        cls,
        rows: Iterable[tuple[str, int, int, float]],
        element_doc_count: int,
    ) -> "Vocabulary":
        """Rebuild a vocabulary from persisted rows."""
        vocab = cls()
        total = 0
        for token, cf, df, max_rel in rows:
            vocab._collection_freq[token] = cf
            if df:
                vocab._element_df[token] = df
            if max_rel:
                vocab._max_rel_tf[token] = max_rel
            total += cf
        vocab._total_tokens = total
        vocab._element_doc_count = element_doc_count
        return vocab

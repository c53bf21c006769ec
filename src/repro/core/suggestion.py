"""Public result types shared by all suggesters."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol


@dataclass(frozen=True)
class Suggestion:
    """One suggested alternative query.

    Attributes:
        tokens: the candidate query C as a token tuple.
        score: the suggester's score (for XClean: P(C|Q,T) up to the
            query-constant κ of Eq. 2); comparable only within one
            suggester's output for one query.
        result_type: the inferred result node type p_C as a path string
            (XClean-family suggesters only).
    """

    tokens: tuple[str, ...]
    score: float
    result_type: str | None = None

    @property
    def text(self) -> str:
        """The suggestion as a plain query string."""
        return " ".join(self.tokens)

    def __str__(self) -> str:  # pragma: no cover - display helper
        return self.text


class Suggester(Protocol):
    """Anything that can clean a keyword query."""

    def suggest(self, query: str, k: int = 10) -> list[Suggestion]:
        """Top-k alternative queries for ``query``, best first."""
        ...  # pragma: no cover - protocol


@dataclass
class CleaningStats:
    """Work counters of one ``suggest`` call (benchmarks/ablations).

    All counters are cumulative over the single query evaluation that
    produced them.
    """

    keywords: int = 0
    space_size: int = 0
    groups_processed: int = 0
    candidates_evaluated: int = 0
    entities_scored: int = 0
    postings_read: int = 0
    postings_skipped: int = 0
    accumulator_evictions: int = 0
    #: Result types computed *during this query* (type-cache misses);
    #: cached lookups are counted in ``result_type_cache_hits``.
    result_types_computed: int = 0
    #: Per-query hit/miss deltas of the bounded ResultTypeFinder LRU.
    result_type_cache_hits: int = 0
    result_type_cache_misses: int = 0
    #: var_ε(q) memo hits/misses during this call (VariantGenerator).
    variant_cache_hits: int = 0
    variant_cache_misses: int = 0
    #: Variant-set → posting-list resolution memo (CorpusIndex).
    merged_cache_hits: int = 0
    merged_cache_misses: int = 0
    #: Always 0: the merge loop keeps no plan cache.  Kept so readers
    #: of the stats (benchmark reports) still find the fields.
    intersection_cache_hits: int = 0
    intersection_cache_misses: int = 0
    #: Candidates the kernel's in-loop γ-pruning skipped because their
    #: score upper bound fell below the saturated accumulator floor —
    #: never materialized, never scored, and provably the same adds the
    #: pool would have rejected.
    kernel_pruned: int = 0
    #: Whole-result LRU of the serving layer (SuggestionService); a hit
    #: means Algorithm 1 never ran for the query.
    result_cache_hits: int = 0
    result_cache_misses: int = 0
    #: True when a deadline expired mid-query and the suggestions are
    #: the best-so-far top-k rather than the exact answer (the anytime
    #: contract of ``core/deadline.py``).  Partial results are served
    #: but never cached.
    partial: bool = False
    #: Trace id of the span tree covering this query, when a live
    #: tracer was attached (``repro.obs.trace``); correlates batch
    #: output, flight-recorder entries, and exported traces.
    trace_id: str | None = None
    extra: dict[str, float] = field(default_factory=dict)

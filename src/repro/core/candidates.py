"""The candidate query space (Section IV-A).

Candidate queries are elements of the Cartesian product
``var_ε(q_1) × … × var_ε(q_l)``.  :class:`CandidateSpace` holds the
per-keyword variant lists with their error-model weights and provides
the restricted enumeration Algorithm 1 performs inside each subtree
group (only variants actually occurring in the subtree participate).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.core.error_model import ErrorModel
from repro.fastss.generator import VariantGenerator
from repro.fastss.index import Variant

#: A candidate query: one variant token per query keyword position.
CandidateQuery = tuple[str, ...]


@dataclass(frozen=True)
class KeywordVariants:
    """var_ε(q_i) with the error-model weights of each variant."""

    keyword: str
    variants: tuple[Variant, ...]
    weights: dict[str, float]

    @property
    def tokens(self) -> tuple[str, ...]:
        return tuple(v.token for v in self.variants)

    def weight_of(self, token: str) -> float:
        return self.weights[token]


class CandidateSpace:
    """Variant lists, error weights, and enumeration for one query."""

    def __init__(
        self,
        keywords: Sequence[str],
        generator: VariantGenerator,
        error_model: ErrorModel,
        max_errors: int | None = None,
        ctx=None,
    ):
        """``ctx`` (a ``repro.obs.context.Context``), when given, times
        each keyword's var_ε(q) as a ``variant`` stage."""
        self.keywords = tuple(keywords)
        self.per_keyword: list[KeywordVariants] = []
        for keyword in self.keywords:
            if ctx is None:
                variants = generator.variants(keyword, max_errors)
            else:
                with ctx.stage("variant", keyword=keyword):
                    variants = generator.variants(keyword, max_errors)
                    ctx.annotate(variants=len(variants))
            weights = error_model.variant_weights(keyword, variants)
            self.per_keyword.append(
                KeywordVariants(keyword, tuple(variants), weights)
            )

    def __len__(self) -> int:
        return len(self.per_keyword)

    @property
    def is_viable(self) -> bool:
        """True when every keyword has at least one variant.

        A keyword with an empty variant set admits no candidate query at
        all (Section IV-A's Cartesian product is empty).
        """
        return all(kv.variants for kv in self.per_keyword)

    def space_size(self) -> int:
        """|C| = ∏ |var_ε(q_i)| — the full candidate space size."""
        size = 1
        for kv in self.per_keyword:
            size *= len(kv.variants)
        return size

    def variant_tokens(self, position: int) -> tuple[str, ...]:
        """Variant tokens of keyword ``position``."""
        return self.per_keyword[position].tokens

    def error_weight(self, candidate: CandidateQuery) -> float:
        """P(Q|C) = ∏_j P(q_j|C[j]) for a full candidate."""
        weight = 1.0
        for position, token in enumerate(candidate):
            weight *= self.per_keyword[position].weights[token]
        return weight

    def enumerate_all(self) -> Iterator[CandidateQuery]:
        """The full Cartesian product (used by the naive oracle)."""
        return itertools.product(
            *(kv.tokens for kv in self.per_keyword)
        )

    def enumerate_present(
        self, present: Sequence[Iterable[str]]
    ) -> Iterator[CandidateQuery]:
        """Candidates formed only from variants present in a subtree.

        ``present[i]`` is the set of variants of keyword i observed in
        the current group (Algorithm 1, Line 12).  Tokens are ordered
        deterministically regardless of the input container.
        """
        pools = []
        for position, tokens in enumerate(present):
            allowed = set(tokens)
            pool = [
                t
                for t in self.per_keyword[position].tokens
                if t in allowed
            ]
            if not pool:
                return iter(())
            pools.append(pool)
        return itertools.product(*pools)

"""Result-type inference: which label path defines a candidate's entities.

Section IV-B2 adopts XReal's *specific node type* semantics: for each
candidate query C the most probable result node type p_C is chosen by

    U(C, p) = log(1 + ∏_{w ∈ C} f_w^p) · r^{depth(p)}         (Eq. 7)

— users like popular node types containing *all* keywords, but not types
so deep they carry no information beyond the keywords themselves
(the r^depth factor, r < 1, penalizes depth).

Section V-B adds the *minimal depth threshold* d: types shallower than d
are never considered (everything is connected at the root, which is not
a meaningful connection), and — in Algorithm 1 — result-type computation
for a candidate is delayed until some subtree at depth >= d actually
contains all its keywords.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Sequence

from repro.exceptions import ConfigurationError
from repro.index.corpus import CorpusIndex
from repro.obs.context import Context

#: The paper's depth reduction factor in the worked example (Example 3).
DEFAULT_REDUCTION = 0.8

#: "d = 2 is usually enough" (Section V-B).
DEFAULT_MIN_DEPTH = 2

#: Bound of the per-candidate result-type LRU.  A long-lived service
#: sees an unbounded stream of distinct candidates, so the cache must
#: not grow with uptime; 64k entries of a few machine words each keep
#: the hit rate near 100% on skewed traffic.
DEFAULT_TYPE_CACHE_SIZE = 65536

_MISSING = object()


@dataclass(frozen=True)
class ResultTypeConfig:
    """Knobs of the result-type inference (Eq. 7 / Section V-B)."""

    reduction: float = DEFAULT_REDUCTION
    min_depth: int = DEFAULT_MIN_DEPTH

    def __post_init__(self):
        if not 0.0 < self.reduction <= 1.0:
            raise ConfigurationError("reduction must be in (0, 1]")
        if self.min_depth < 1:
            raise ConfigurationError("min_depth must be >= 1")


class ResultTypeFinder:
    """FindResultType(C) of Section V-B, with per-candidate caching.

    The cache is an LRU bounded by :data:`DEFAULT_TYPE_CACHE_SIZE`:
    entries refresh on hit and the least recently used candidate is
    dropped on overflow, so memory stays flat on a long-lived service.
    The
    cumulative ``cache_hits``/``cache_misses``/``cache_evictions``
    counters let callers (``XCleanSuggester._run``) report per-query
    deltas.
    """

    def __init__(
        self,
        corpus: CorpusIndex,
        config: ResultTypeConfig | None = None,
    ):
        self.corpus = corpus
        self.config = config or ResultTypeConfig()
        #: Keyed on (corpus generation, candidate).  Generation bumps
        #: only when an overlay outgrows its packer; live updates and
        #: swaps are covered because the serving tier builds a fresh
        #: suggester, hence a fresh finder, on every install.
        self._cache: OrderedDict[
            tuple[int, tuple[str, ...]], int | None
        ] = OrderedDict()
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_evictions = 0

    def utility(self, candidate: Sequence[str], path_id: int) -> float:
        """U(C, p) of Eq. 7; 0 when some keyword never occurs under p."""
        product = 1
        for token in candidate:
            f = self.corpus.path_index.f(token, path_id)
            if f == 0:
                return 0.0
            product *= f
        depth = self.corpus.path_table.depth_of(path_id)
        return math.log1p(product) * (self.config.reduction ** depth)

    def find(
        self, candidate: Sequence[str], ctx: Context | None = None
    ) -> int | None:
        """Best result type p_C, or ``None`` when no type contains all
        keywords at depth >= min_depth (such candidates have no valid
        entities and are dropped).

        Ties break on the lexicographically smallest path string so the
        choice — and everything downstream — is deterministic.  A cache
        miss is timed as ``ctx``'s ``type_infer`` stage.
        """
        candidate_key = tuple(candidate)
        key = (
            getattr(self.corpus, "generation", 0), candidate_key
        )
        cache = self._cache
        found = cache.get(key, _MISSING)
        if found is not _MISSING:
            self.cache_hits += 1
            cache.move_to_end(key)
            return found
        self.cache_misses += 1
        ctx = ctx or Context()
        with ctx.stage("type_infer") as stage:
            best = self._compute(candidate_key)
        if stage.span is not None:
            stage.span.attributes.update(
                candidate=" ".join(candidate_key),
                result_type=(
                    self.corpus.path_table.string_of(best)
                    if best is not None
                    else None
                ),
            )
        cache[key] = best
        if len(cache) > DEFAULT_TYPE_CACHE_SIZE:
            cache.popitem(last=False)
            self.cache_evictions += 1
        return best

    def _shared_paths(self, candidate: tuple[str, ...]) -> list[int]:
        """Path ids containing every keyword at depth >= min_depth.

        Intersects the path sets, starting from the keyword with the
        fewest distinct paths.
        """
        count_maps = [
            self.corpus.path_index.counts_for(token) for token in candidate
        ]
        if not count_maps or any(not m for m in count_maps):
            return []
        count_maps.sort(key=len)
        table = self.corpus.path_table
        min_depth = self.config.min_depth
        return [
            pid
            for pid in count_maps[0]
            if table.depth_of(pid) >= min_depth
            and all(pid in m for m in count_maps[1:])
        ]

    def _compute(self, candidate: tuple[str, ...]) -> int | None:
        shared = self._shared_paths(candidate)
        if not shared:
            return None
        table = self.corpus.path_table
        best_pid: int | None = None
        best_score = -1.0
        best_path = ""
        for pid in shared:
            score = self.utility(candidate, pid)
            path = table.string_of(pid)
            better = score > best_score or (
                score == best_score and path < best_path
            )
            if best_pid is None or better:
                best_pid, best_score, best_path = pid, score, path
        return best_pid

    def explain_paths(
        self, candidate: Sequence[str]
    ) -> list[tuple[int, str, int, float]]:
        """The full U(C, p) table of Eq. 7 for a candidate.

        Rows are ``(path_id, path_string, depth, utility)`` sorted by
        utility descending (path string ascending on ties — the same
        order :meth:`find` effectively ranks by).  This is the table
        the winner "won against" in explain output; it bypasses the
        result cache and is not part of the hot path.
        """
        key = tuple(candidate)
        table = self.corpus.path_table
        rows = [
            (
                pid,
                table.string_of(pid),
                table.depth_of(pid),
                self.utility(key, pid),
            )
            for pid in self._shared_paths(key)
        ]
        rows.sort(key=lambda row: (-row[3], row[1]))
        return rows

    def cached_candidates(self) -> int:
        """Number of candidates currently held in the LRU cache."""
        return len(self._cache)

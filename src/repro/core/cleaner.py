"""The XClean algorithm — Algorithm 1 of the paper.

A single pass over the merged variant lists computes the scores of all
candidate queries simultaneously:

1. *Anchor selection* (Lines 4, 5, 16): the anchor is the largest
   current head across the per-keyword merged lists; its Dewey code
   truncated to the minimal depth d identifies the subtree group g to
   process next.  The loop terminates as soon as any merged list is
   exhausted — a candidate query needs a variant occurrence for every
   keyword, so no later group can contribute.

2. *Skipping* (Lines 7–8): every merged list skips to g, jumping over
   whole subtrees that cannot contain a full candidate match
   (galloping search; ``use_skipping=False`` steps linearly instead,
   the Section V-C ablation).

3. *Group collection* (Lines 9–11): all variant occurrences inside g
   are drained into per-keyword hash tables.

4. *Candidate enumeration and scoring* (Lines 12–15): candidates are
   formed only from variants observed in g; each candidate's result
   type is resolved once (cached FindResultType); entity roots of that
   type containing every keyword are scored with the Dirichlet language
   model and accumulated in the (optionally γ-bounded) score table.

The final score of a candidate is Eq. 10:

    P(C|Q,T) ∝ P(Q|C) · (1/N_C) · Σ_{r of type p_C} ∏_{w ∈ C} p(w|D(r))

restricted to entities containing at least one instance of every
keyword (Line 14) — which is what guarantees suggested queries have
non-empty results.
"""

from __future__ import annotations

import logging
from time import perf_counter

from repro.core.candidates import CandidateQuery, CandidateSpace
from repro.core.config import XCleanConfig
from repro.core.deadline import Deadline
from repro.core.error_model import ErrorModel, ExponentialErrorModel
from repro.core.language_model import DirichletLanguageModel
from repro.core.pruning import AccumulatorPool
from repro.core.result_type import ResultTypeConfig, ResultTypeFinder
from repro.core.suggestion import CleaningStats, Suggestion
from repro.exceptions import QueryError
from repro.fastss.generator import VariantGenerator
from repro.fastss.index import Variant
from repro.index.corpus import CorpusIndex
from repro.index.merge_kernel import gallop_left, scan_left
from repro.index.merged_list import PackedEntry, PackedMergedList
from repro.obs.context import Context
from repro.obs.explain import (
    EntityContribution,
    GroupContribution,
    ScoreRecorder,
    TermFactor,
    build_explanation,
)
from repro.obs.faults import active as _active_faults
from repro.obs.metrics import NULL_METRICS
from repro.obs.trace import Tracer
from repro.xmltree.dewey import format_code


logger = logging.getLogger(__name__)


class XCleanSuggester:
    """Top-k XML keyword query cleaning via Algorithm 1."""

    def __init__(
        self,
        corpus: CorpusIndex,
        generator: VariantGenerator | None = None,
        error_model: ErrorModel | None = None,
        config: XCleanConfig | None = None,
        metrics=None,
        tracer: Tracer | None = None,
    ):
        self.corpus = corpus
        self.config = config or XCleanConfig()
        if hasattr(corpus, "configure_query_caches"):
            # Apply the config's cache bounds to the shared corpus
            # caches (idempotent: same bounds touch nothing, so many
            # suggesters over one corpus keep each other's warm state).
            corpus.configure_query_caches(
                merged_cache_size=self.config.merged_cache_size,
            )
        #: Built on first use (:attr:`generator`): a shard leg handed
        #: its variants by the coordinator never builds one.
        self._generator = generator
        self.error_model = error_model or ExponentialErrorModel(
            self.config.beta
        )
        self.language_model = DirichletLanguageModel(
            corpus.vocabulary, self.config.mu
        )
        #: Observability hooks; NULL_METRICS (no-op, near-zero cost)
        #: unless a serving layer hands in a live registry.
        self.metrics = metrics or NULL_METRICS
        #: Tracing switch for direct API use: with a tracer, a query
        #: called without a context roots its own ``suggest`` trace
        #: and publishes it as ``tracer.last_trace``.  Services pass
        #: each query its request's context instead.
        self.tracer = tracer
        #: Wall-clock budget of the query in flight (``core/deadline``);
        #: ``None`` unless ``config.deadline_seconds`` is set, in which
        #: case ``_run`` arms a fresh one per query.
        self._deadline: Deadline | None = None
        self.type_finder = ResultTypeFinder(
            corpus,
            ResultTypeConfig(
                reduction=self.config.reduction,
                min_depth=self.config.min_depth,
            ),
        )
        self.last_stats = CleaningStats()

    @property
    def generator(self) -> VariantGenerator:
        """The variant generator behind var_ε(q), built on first use.

        Snapshot-backed corpora serve FastSS buckets straight from the
        mapped file; a corpus without them builds a fresh index over
        the whole vocabulary, which is why nothing is built until a
        query asks for variants.
        """
        generator = self._generator
        if generator is None:
            corpus_generator = getattr(
                self.corpus, "variant_generator", None
            )
            if corpus_generator is not None:
                generator = corpus_generator(self.config.max_errors)
            else:
                generator = VariantGenerator(
                    self.corpus.vocabulary.tokens(),
                    max_errors=self.config.max_errors,
                )
            self._generator = generator
        return generator

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def suggest(
        self, query: str, k: int = 10, ctx: Context | None = None
    ) -> list[Suggestion]:
        """Top-k alternative queries for ``query``, best first.

        ``ctx`` is the serving request's instrumentation context (see
        ``repro.obs.context``); without one the suggester builds its
        own from its registry and tracer.

        Raises:
            QueryError: when the query has no usable keywords after
                tokenization.
        """
        pool = self._run(query, ctx)
        table = self.corpus.path_table
        return [
            Suggestion(
                tokens=candidate,
                score=score,
                result_type=table.string_of(entry.result_type),
            )
            for candidate, score, entry in pool.top_k(k)
        ]

    def score_all(self, query: str) -> dict[CandidateQuery, float]:
        """Scores of all surviving candidates (oracle-equivalence tests)."""
        return self._run(query).final_scores()

    def partial_rows(
        self,
        query: str,
        ctx: Context | None = None,
        variants: tuple[tuple[Variant, ...], ...] | None = None,
    ):
        """The full γ-bounded accumulator table, serialized for gather.

        Runs the same Algorithm 1 pass as :meth:`suggest` but returns
        every surviving accumulator as a picklable row

            ``(candidate, partials, error_weight, normalizer,
               result_type, samples)``

        where ``partials`` is the accumulator's exact-summation
        expansion (see ``core/pruning.add_partial``).  A scatter-gather
        coordinator concatenates the per-shard expansions and recovers
        score masses bit-identical to a single-index run — candidates
        may hold mass on several shards, so shipping whole tables (not
        per-shard top-k) is what makes the merged top-k exact.
        ``result_type`` travels as the path *string* so the gather side
        needs no shard-local path table.

        ``variants`` — var_ε(q) of each query keyword, as
        :func:`~repro.core.candidates.keyword_variants` returns them —
        is how a coordinator hands every leg the variants it computed
        once: the candidate space is built from them, and this
        suggester's generator is never asked (nor built), and the
        returned stats' ``variant_cache_*`` counters read 0.
        """
        pool = self._run(query, ctx, variants=variants)
        table = self.corpus.path_table
        rows = tuple(
            (
                candidate,
                tuple(entry.partials),
                entry.error_weight,
                entry.normalizer,
                table.string_of(entry.result_type),
                entry.samples,
            )
            for candidate, entry in pool.items()
        )
        return rows, self.last_stats

    def suggest_explained(self, query: str, k: int = 10):
        """Top-k suggestions with full score provenance.

        Runs the exact same Algorithm 1 pass as :meth:`suggest` with a
        :class:`~repro.obs.explain.ScoreRecorder` attached and folds
        the record into an :class:`~repro.obs.explain.Explanation`
        whose per-candidate ``reconstructed_score`` re-derives the
        engine's score bit for bit from the logged Eq. 4–9 factors.
        """
        recorder = ScoreRecorder()
        pool = self._run(query, recorder=recorder)
        return build_explanation(query, self, recorder, pool, k)

    # ------------------------------------------------------------------
    # Algorithm 1
    # ------------------------------------------------------------------

    def _run(
        self,
        query: str,
        ctx: Context | None = None,
        recorder: ScoreRecorder | None = None,
        variants: tuple[tuple[Variant, ...], ...] | None = None,
    ) -> AccumulatorPool:
        if ctx is not None:
            return self._run_inner(query, ctx, variants)
        # No service owns this query: the suggester builds its own
        # context (and roots its own trace when it has a tracer).
        with Context.request(
            self.metrics, self.tracer, "suggest", recorder=recorder,
            query=query,
        ) as ctx:
            return self._run_inner(query, ctx, variants)

    def _run_inner(
        self,
        query: str,
        ctx: Context,
        variants: tuple[tuple[Variant, ...], ...] | None = None,
    ) -> AccumulatorPool:
        with ctx.stage("tokenize"):
            keywords = self.corpus.tokenizer.tokenize(query)
        if not keywords:
            raise QueryError(f"query {query!r} has no usable keywords")
        deadline_seconds = self.config.deadline_seconds
        self._deadline = (
            Deadline(deadline_seconds)
            if deadline_seconds is not None
            else None
        )
        faults = _active_faults()
        if faults.enabled:
            faults.hit("variant.gen")
        # Given variants, no generator is asked (or built); its
        # counter deltas below then read 0.
        generator = self.generator if variants is None else None
        variant_hits = getattr(generator, "cache_hits", 0)
        variant_misses = getattr(generator, "cache_misses", 0)
        merged_hits = self.corpus.merged_cache_hits
        merged_misses = self.corpus.merged_cache_misses
        type_finder = self.type_finder
        type_hits = type_finder.cache_hits
        type_misses = type_finder.cache_misses
        with ctx.stage("variant_gen"):
            space = CandidateSpace(
                keywords, generator, self.error_model,
                self.config.max_errors, ctx, variants=variants,
            )
            ctx.annotate(space_size=space.space_size())
        stats = CleaningStats(
            keywords=len(keywords), space_size=space.space_size(),
            trace_id=ctx.trace_id,
        )
        self.last_stats = stats
        recorder = ctx.recorder
        if recorder is not None:
            recorder.space = space
        pool = AccumulatorPool(
            self.config.gamma,
            observer=(
                ctx if recorder is not None or ctx.trace is not None
                else None
            ),
        )
        if space.is_viable:
            # The merge stage covers the whole Algorithm 1 loop, entity
            # scoring included.  Scoring runs inside the loop in many
            # small bursts; the aggregated "score" stage sums them into
            # one observation and one child span of "merge".
            with ctx.stage("merge"):
                merged = [
                    self.corpus.merged_list_packed(space.variant_tokens(i))
                    for i in range(len(keywords))
                ]
                with ctx.stage("score", aggregated=True) as score:
                    self._merge_loop_kernel(
                        merged, space, pool, stats, ctx, score
                    )
                ctx.annotate(
                    groups=stats.groups_processed,
                    candidates=stats.candidates_evaluated,
                    entities=stats.entities_scored,
                )
            # postings_read/postings_skipped are set *inside* the merge
            # loop, atomically with the cursor write-back at loop exit
            # — re-summing here (after the stage timer closed) could
            # observe a half-consumed list on a deadline-expired
            # partial, inconsistent with groups_processed.
        stats.accumulator_evictions = pool.evictions
        # Per-query deltas: on a long-lived service the finder's
        # counters (and cache) span many queries.
        stats.result_type_cache_hits = (
            type_finder.cache_hits - type_hits
        )
        stats.result_type_cache_misses = (
            type_finder.cache_misses - type_misses
        )
        stats.result_types_computed = stats.result_type_cache_misses
        stats.variant_cache_hits = (
            getattr(generator, "cache_hits", 0) - variant_hits
        )
        stats.variant_cache_misses = (
            getattr(generator, "cache_misses", 0) - variant_misses
        )
        stats.merged_cache_hits = (
            self.corpus.merged_cache_hits - merged_hits
        )
        stats.merged_cache_misses = (
            self.corpus.merged_cache_misses - merged_misses
        )
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug(
                "xclean query=%r space=%d groups=%d candidates=%d "
                "read=%d skipped=%d survivors=%d",
                query,
                stats.space_size,
                stats.groups_processed,
                stats.candidates_evaluated,
                stats.postings_read,
                stats.postings_skipped,
                len(pool),
            )
        return pool

    def _group_contribution(
        self,
        group_label: str,
        candidate: CandidateQuery,
        roots: list,
        per_keyword: list[dict],
        length_prior: bool,
        mass: float,
        length_of,
        probability,
        format_root,
    ) -> GroupContribution:
        """Recompute one group's per-entity factors for the recorder.

        Off the hot path (explain runs only).  The per-entity products
        repeat the scoring loop's float operations in the same order,
        so the recorded masses re-sum to the engine's group mass bit
        for bit.
        """
        entities = []
        for root in roots:
            length = length_of(root)
            factors = []
            product = 1.0
            for position, token in enumerate(candidate):
                count = per_keyword[position][root]
                p = probability(token, count, length)
                product *= p
                factors.append(
                    TermFactor(
                        position=position,
                        token=token,
                        count=count,
                        probability=p,
                    )
                )
            prior_weight = (length if length_prior else 1.0)
            entities.append(
                EntityContribution(
                    entity=format_root(root),
                    length=length,
                    prior_weight=prior_weight,
                    factors=tuple(factors),
                    mass=prior_weight * product,
                )
            )
        return GroupContribution(
            group=group_label,
            entities=tuple(entities),
            mass=mass,
        )

    # ------------------------------------------------------------------
    # The merge loop
    # ------------------------------------------------------------------
    #
    # Every Dewey code is a packed int: anchor selection compares
    # machine ints, the group test is a shift, prefix truncation is a
    # mask, and subtree lengths are read from an int-keyed dict.

    def _merge_loop_kernel(
        self,
        merged: list[PackedMergedList],
        space: CandidateSpace,
        pool: AccumulatorPool,
        stats: CleaningStats,
        ctx: Context,
        score,
    ) -> None:
        """Algorithm 1 over the packed merged lists, as whole-group runs.

        The only merge loop; neither of its two accelerations is
        visible in the output:

        * **Galloping intersection** — cursors advance by exponential
          probe from the current position plus a bisect in the probed
          bracket (``merge_kernel.gallop_left``), so the cost per skip
          is O(log distance-moved) rather than O(log remaining), which
          compounds across the many short hops of clustered postings.
        * **In-loop γ-pruning** — once the accumulator table is
          saturated, candidates whose score upper bound falls strictly
          below the table's floor are dropped before materializing
          entity counts (see ``_score_group_packed``).

        ``use_skipping=False`` (the Section V-C ablation) swaps the
        advance for ``merge_kernel.scan_left``, which steps one key at
        a time: every posting a cursor passes counts as read, so
        ``postings_skipped`` stays 0.

        ``score`` is the query's aggregated score stage: each scored
        group adds its burst to ``score.seconds``.
        """
        view = self.corpus.packed_view()
        packer = view.packer
        min_depth = self.config.min_depth
        depth_mask = (1 << packer.depth_bits) - 1
        num = len(merged)
        columns = [ml.columns for ml in merged]
        skipping = self.config.use_skipping
        advance = gallop_left if skipping else scan_left
        group_bounds = packer.group_bounds
        key_columns = [c.keys for c in columns]
        lengths = [c.length for c in columns]
        positions = [ml.position for ml in merged]
        reads = [0] * num
        skips = [0] * num
        starts = [0] * num
        score_group = self._score_group_packed
        indices = range(num)
        deadline = self._deadline
        faults = _active_faults()
        faults_enabled = faults.enabled
        try:
            while True:
                if deadline is not None and deadline.expired():
                    stats.partial = True
                    ctx.event("deadline_expired", stage="merge")
                    return
                if faults_enabled:
                    faults.hit("merge.step")
                anchor = -1
                exhausted = False
                for i in indices:
                    position = positions[i]
                    if position >= lengths[i]:
                        # Some keyword exhausted: no group helps.
                        exhausted = True
                        break
                    head = key_columns[i][position]
                    if head > anchor:
                        anchor = head
                if exhausted:
                    break
                if (anchor & depth_mask) < min_depth:
                    # Shallow head: it is some list's head by
                    # construction; consume it and move on.
                    for i in indices:
                        if key_columns[i][positions[i]] == anchor:
                            positions[i] += 1
                            reads[i] += 1
                            break
                    continue
                group, upper = group_bounds(anchor, min_depth)
                missing = False
                for i in indices:
                    keys = key_columns[i]
                    start = advance(
                        keys, group, positions[i], lengths[i]
                    )
                    end = advance(keys, upper, start, lengths[i])
                    skips[i] += start - positions[i]
                    reads[i] += end - start
                    starts[i] = start
                    positions[i] = end
                    if end == start:
                        missing = True
                if missing:
                    # Some keyword absent from the group: no candidate
                    # can form here; never materialize the entries.
                    continue
                occurrences = [
                    columns[i].slice_by_token(starts[i], positions[i])
                    for i in indices
                ]
                stats.groups_processed += 1
                score_group(
                    occurrences, space, pool, stats, view, group, ctx,
                    score,
                )
        finally:
            if not skipping:
                # A linear advance reads every posting it passes.
                reads = [r + s for r, s in zip(reads, skips)]
                skips = [0] * num
            for i in indices:
                ml = merged[i]
                ml.position = positions[i]
                ml.reads += reads[i]
                ml.skips += skips[i]
            stats.postings_read = sum(ml.total_reads for ml in merged)
            stats.postings_skipped = sum(ml.total_skips for ml in merged)

    def _score_group_packed(
        self,
        occurrences: list[dict[str, list[PackedEntry]]],
        space: CandidateSpace,
        pool: AccumulatorPool,
        stats: CleaningStats,
        view,
        group: int,
        ctx: Context,
        score,
    ) -> None:
        """Enumerate and score the group's candidates (Lines 12–15).

        With ``kernel_pruning`` on, the γ-bound of Section V-D is
        applied *before* materializing entity counts: once the
        accumulator table is saturated, its floor — the minimal
        estimate among resident candidates, a monotone non-decreasing
        quantity — is a permanent lower bound on admission.  A
        non-resident candidate whose score upper bound

            error_weight(C) × min_k |occurrences[k][c_k]| / N_p

        is strictly below the floor would be scanned and rejected by
        ``pool.add`` without changing the table, so it is skipped
        outright.  Valid under the uniform prior only (each Dirichlet
        term and each entity's tf-sum bound ≤ 1 per posting); the
        length prior weights entities by subtree size, so the bound
        does not hold and pruning self-disables.  With an explain
        recorder attached, each prune also logs the estimate the
        unpruned path would have handed ``pool.add``.
        """
        # One burst of the aggregated "score" stage: timed only when
        # the context records stage time at all.
        timed = ctx.timed
        score_began = perf_counter() if timed else 0.0
        table = self.corpus.path_table
        packer = view.packer
        depth_bits = packer.depth_bits
        depth_mask = (1 << depth_bits) - 1
        component_bits = packer.component_bits
        max_depth = packer.max_depth
        subtree_lengths = view.subtree_lengths
        entity_cache: dict[tuple[int, str, int], dict[int, int]] = {}

        def entity_counts(
            position: int, token: str, pid: int, depth: int
        ) -> dict[int, int]:
            key = (position, token, pid)
            cached = entity_cache.get(key)
            if cached is not None:
                return cached
            counts: dict[int, int] = {}
            shift = depth_bits + (max_depth - depth) * component_bits
            prefix_id = table.prefix_id
            for packed, path_id, tf, _token in occurrences[position][token]:
                if (packed & depth_mask) < depth:
                    continue
                if prefix_id(path_id, depth) != pid:
                    continue
                root = ((packed >> shift) << shift) | depth
                counts[root] = counts.get(root, 0) + tf
            entity_cache[key] = counts
            return counts

        deadline = self._deadline
        recorder = ctx.recorder
        kernel_pruning = (
            self.config.kernel_pruning
            and pool.capacity is not None
            and self.config.prior == "uniform"
        )
        entity_count = self.corpus.entity_count
        error_weight_of = space.error_weight
        present = [list(by_token) for by_token in occurrences]
        for candidate in space.enumerate_present(present):
            if deadline is not None and deadline.expired():
                # Accumulator boundary: stop scoring further candidates
                # of this group; whatever was added already is valid.
                stats.partial = True
                ctx.event("deadline_expired", stage="score")
                break
            stats.candidates_evaluated += 1
            pid = self.type_finder.find(candidate, ctx)
            if pid is None:
                continue
            if (
                kernel_pruning
                and pool.at_capacity
                and candidate not in pool
            ):
                floor = pool.prune_floor()
                if floor > 0.0:
                    normalizer_bound = float(entity_count(pid))
                    if normalizer_bound > 0.0:
                        posting_bound = min(
                            len(occurrences[position][token])
                            for position, token in enumerate(candidate)
                        )
                        upper = (
                            error_weight_of(candidate)
                            * posting_bound
                            / normalizer_bound
                        )
                        if upper < floor:
                            # Guaranteed rejection: never materialize
                            # the entity counts or score a thing.
                            stats.kernel_pruned += 1
                            if recorder is not None:
                                recorder.kernel_pruned(
                                    candidate, upper, floor,
                                    self._unpruned_estimate(
                                        candidate, pid, entity_counts,
                                        error_weight_of(candidate),
                                        subtree_lengths,
                                    ),
                                )
                            continue
            depth = table.depth_of(pid)
            per_keyword = [
                entity_counts(position, token, pid, depth)
                for position, token in enumerate(candidate)
            ]
            if any(not counts for counts in per_keyword):
                continue
            entities = set(min(per_keyword, key=len))
            for counts in per_keyword:
                entities &= counts.keys()
            if not entities:
                continue
            length_prior = self.config.prior == "length"
            probability = self.language_model.probability
            mass = 0.0
            # Packed keys sort exactly like their Dewey tuples: entities
            # accumulate in document order, so cold and memoized runs
            # and the linear mode produce bit-identical sums.
            for root in sorted(entities):
                stats.entities_scored += 1
                length = subtree_lengths.get(root, 0)
                product = 1.0
                for position, token in enumerate(candidate):
                    product *= probability(
                        token, per_keyword[position][root], length
                    )
                mass += (length if length_prior else 1.0) * product
            if length_prior:
                normalizer = self.corpus.path_token_totals().get(
                    pid, 0.0
                )
            else:
                normalizer = float(self.corpus.entity_count(pid))
            error_weight = space.error_weight(candidate)
            if recorder is not None:
                unpack = packer.unpack
                recorder.group(
                    candidate,
                    pid,
                    error_weight,
                    normalizer,
                    self._group_contribution(
                        format_code(unpack(group)),
                        candidate,
                        sorted(entities),
                        per_keyword,
                        length_prior,
                        mass,
                        lambda root: subtree_lengths.get(root, 0),
                        probability,
                        lambda root: format_code(unpack(root)),
                    ),
                )
            pool.add(candidate, mass, error_weight, normalizer, pid)
        if timed:
            score.seconds += perf_counter() - score_began

    def _unpruned_estimate(
        self, candidate, pid, entity_counts, error_weight, subtree_lengths
    ) -> float:
        """The estimate a kernel-pruned candidate would have reached.

        Explain runs only: scores the pruned group the way the
        unpruned path does (uniform prior — the only prior pruning
        runs under) and returns ``error_weight × mass / normalizer``,
        the incoming estimate ``pool.add`` would have compared against
        the accumulator floor.  0.0 when no entity holds every keyword
        (the unpruned path would not have called ``add`` at all).
        """
        depth = self.corpus.path_table.depth_of(pid)
        per_keyword = [
            entity_counts(position, token, pid, depth)
            for position, token in enumerate(candidate)
        ]
        entities = set(per_keyword[0])
        for counts in per_keyword[1:]:
            entities &= counts.keys()
        probability = self.language_model.probability
        mass = 0.0
        for root in sorted(entities):
            length = subtree_lengths.get(root, 0)
            product = 1.0
            for position, token in enumerate(candidate):
                product *= probability(
                    token, per_keyword[position][root], length
                )
            mass += product
        return error_weight * mass / float(self.corpus.entity_count(pid))

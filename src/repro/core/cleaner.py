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
from repro.index.corpus import CorpusIndex
from repro.index.merge_kernel import (
    GroupRun,
    MergePlan,
    gallop_left,
    scan_left,
)
from repro.index.merged_list import PackedEntry, PackedMergedList
from repro.obs.explain import (
    EntityContribution,
    GroupContribution,
    PruningObserver,
    ScoreRecorder,
    TermFactor,
    build_explanation,
)
from repro.obs.faults import active as _active_faults
from repro.obs.metrics import NULL_METRICS
from repro.obs.trace import NULL_TRACER, Span
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
        tracer=None,
    ):
        self.corpus = corpus
        self.config = config or XCleanConfig()
        if hasattr(corpus, "configure_query_caches"):
            # Apply the config's cache bounds to the shared corpus
            # caches (idempotent: same bounds touch nothing, so many
            # suggesters over one corpus keep each other's warm state).
            corpus.configure_query_caches(
                merged_cache_size=self.config.merged_cache_size,
                intersection_cache_size=(
                    self.config.intersection_cache_size
                ),
            )
        if generator is None:
            # Snapshot-backed corpora serve FastSS buckets straight
            # from the mapped file; building a fresh index would read
            # the whole vocabulary for nothing.
            corpus_generator = getattr(corpus, "variant_generator", None)
            if corpus_generator is not None:
                generator = corpus_generator(self.config.max_errors)
            else:
                generator = VariantGenerator(
                    corpus.vocabulary.tokens(),
                    max_errors=self.config.max_errors,
                )
        self.generator = generator
        self.error_model = error_model or ExponentialErrorModel(
            self.config.beta
        )
        self.language_model = DirichletLanguageModel(
            corpus.vocabulary, self.config.mu
        )
        #: Observability hooks; NULL_METRICS (no-op, near-zero cost)
        #: unless a serving layer hands in a live registry.
        self.metrics = metrics or NULL_METRICS
        #: Per-query span tracer; NULL_TRACER (no-op) by default.
        self.tracer = tracer or NULL_TRACER
        #: Score-provenance recorder, attached only for the duration
        #: of a ``suggest_explained`` call; the hot path pays one
        #: ``is None`` check per scored candidate.
        self._recorder: ScoreRecorder | None = None
        #: Scoring time of the current query, summed over the many
        #: per-group scoring calls and observed once per query.
        self._score_seconds = 0.0
        #: Wall-clock budget of the query in flight (``core/deadline``);
        #: ``None`` unless ``config.deadline_seconds`` is set, in which
        #: case ``_run`` arms a fresh one per query.
        self._deadline: Deadline | None = None
        self.type_finder = ResultTypeFinder(
            corpus,
            ResultTypeConfig(
                reduction=self.config.reduction,
                min_depth=self.config.min_depth,
                cache_size=self.config.type_cache_size,
            ),
            metrics=self.metrics,
        )
        self.type_finder.tracer = self.tracer
        self.last_stats = CleaningStats()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def suggest(self, query: str, k: int = 10) -> list[Suggestion]:
        """Top-k alternative queries for ``query``, best first.

        Raises:
            QueryError: when the query has no usable keywords after
                tokenization.
        """
        pool = self._run(query)
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

    def partial_rows(self, query: str):
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
        """
        pool = self._run(query)
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
        self._recorder = recorder
        try:
            pool = self._run(query)
        finally:
            self._recorder = None
        return build_explanation(query, self, recorder, pool, k)

    def bind_tracer(self, tracer) -> None:
        """Swap the tracer (serving layer / pool workers)."""
        self.tracer = tracer or NULL_TRACER
        self.type_finder.tracer = self.tracer

    # ------------------------------------------------------------------
    # Algorithm 1
    # ------------------------------------------------------------------

    def _run(self, query: str) -> AccumulatorPool:
        tracer = self.tracer
        if tracer.enabled and tracer.current() is None:
            # No service owns a trace for this query: the suggester
            # roots its own (in-process / direct API use).
            tracer.begin("suggest", query=query)
            try:
                return self._run_inner(query)
            finally:
                tracer.end()
        return self._run_inner(query)

    def _run_inner(self, query: str) -> AccumulatorPool:
        metrics = self.metrics
        tracer = self.tracer
        with metrics.stage("tokenize"), tracer.span("tokenize"):
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
        generator = self.generator
        variant_hits = getattr(generator, "cache_hits", 0)
        variant_misses = getattr(generator, "cache_misses", 0)
        merged_hits = self.corpus.merged_cache_hits
        merged_misses = self.corpus.merged_cache_misses
        type_finder = self.type_finder
        type_hits = type_finder.cache_hits
        type_misses = type_finder.cache_misses
        with metrics.stage("variant_gen"), tracer.span("variant_gen"):
            space = CandidateSpace(
                keywords, self.generator, self.error_model,
                self.config.max_errors,
                tracer=tracer if tracer.enabled else None,
            )
            if tracer.enabled:
                tracer.annotate(space_size=space.space_size())
        stats = CleaningStats(
            keywords=len(keywords), space_size=space.space_size()
        )
        if tracer.enabled:
            stats.trace_id = tracer.trace_id
        self.last_stats = stats
        recorder = self._recorder
        if recorder is not None:
            recorder.space = space
        if recorder is not None or tracer.enabled:
            observer = PruningObserver(
                recorder, tracer if tracer.enabled else None
            )
        else:
            observer = None
        pool = AccumulatorPool(self.config.gamma, observer=observer)
        self._score_seconds = 0.0
        if space.is_viable:
            # The merge stage covers the whole Algorithm 1 loop, entity
            # scoring included; "score" reports the scoring share.
            with metrics.stage("merge"), tracer.span("merge") as span:
                merged = [
                    self.corpus.merged_list_packed(space.variant_tokens(i))
                    for i in range(len(keywords))
                ]
                self._merge_loop_kernel(merged, space, pool, stats)
                if tracer.enabled:
                    tracer.annotate(
                        groups=stats.groups_processed,
                        candidates=stats.candidates_evaluated,
                        entities=stats.entities_scored,
                    )
                    if self._score_seconds:
                        # Scoring runs inside the merge loop in many
                        # small bursts; one aggregated child of "merge"
                        # shows how much of the merge time it took.
                        tracer.attach(
                            Span(
                                "score",
                                start=(
                                    span.start if span is not None
                                    else None
                                ),
                                duration=self._score_seconds,
                                attributes={"aggregated": True},
                            )
                        )
            # postings_read/postings_skipped are set *inside* the merge
            # loop, atomically with the cursor write-back at loop exit
            # — re-summing here (after the stage timer closed) could
            # observe a half-consumed list on a deadline-expired
            # partial, inconsistent with groups_processed.
            if metrics.enabled and self._score_seconds:
                metrics.observe_stage("score", self._score_seconds)
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
    ) -> None:
        """Algorithm 1 over the packed merged lists, as whole-group runs.

        The only merge loop; none of its three accelerations is
        visible in the output:

        * **Galloping intersection** — cursors advance by exponential
          probe from the current position plus a bisect in the probed
          bracket (``merge_kernel.gallop_left``), so the cost per skip
          is O(log distance-moved) rather than O(log remaining), which
          compounds across the many short hops of clustered postings.
        * **Plan cache** — the sequence of subtree-group runs for a
          variant-set combination is deterministic per snapshot
          generation, so it is recorded on first evaluation and
          replayed from the corpus's ``IntersectionCache`` afterwards
          (``_replay_plan``), skipping the intersection entirely.
        * **In-loop γ-pruning** — once the accumulator table is
          saturated, candidates whose score upper bound falls strictly
          below the table's floor are dropped before materializing
          entity counts (see ``_score_group_packed``).

        ``use_skipping=False`` (the Section V-C ablation) swaps the
        advance for ``merge_kernel.scan_left``, which steps one key at
        a time: every posting a cursor passes counts as read, so
        ``postings_skipped`` stays 0, and the plan cache is neither
        read nor written — a replay would hide the linear scan the
        ablation exists to time.

        Counter contract: per-run read/skip *deltas* are recorded in
        the plan so a replay — even one cut short by a deadline —
        reports exactly the postings a live run would have consumed up
        to the same group.
        """
        corpus = self.corpus
        view = corpus.packed_view()
        packer = view.packer
        min_depth = self.config.min_depth
        depth_mask = (1 << packer.depth_bits) - 1
        num = len(merged)
        columns = [ml.columns for ml in merged]
        skipping = self.config.use_skipping
        advance = gallop_left if skipping else scan_left
        cache = getattr(corpus, "intersection_cache", None)
        plan_key = None
        if (
            skipping
            and cache is not None
            and cache.enabled
            and not any(ml.position for ml in merged)
        ):
            # Plans always start at position 0; a cursor mid-list
            # (defensive — _run_inner builds fresh lists) is simply
            # not cacheable.  Column uids name the variant sets in
            # O(#keywords); the generation is embedded anyway so a
            # hot-swap invalidates plans even if uids survived.
            plan_key = (
                corpus.generation,
                min_depth,
                tuple(c.uid for c in columns),
            )
            plan = cache.get(plan_key)
            if plan is not None:
                stats.intersection_cache_hits += 1
                self.metrics.inc("intersection_cache_hits_total")
                self._replay_plan(plan, merged, space, pool, stats, view)
                return
            stats.intersection_cache_misses += 1
            self.metrics.inc("intersection_cache_misses_total")
        group_bounds = packer.group_bounds
        key_columns = [c.keys for c in columns]
        lengths = [c.length for c in columns]
        positions = [ml.position for ml in merged]
        reads = [0] * num
        skips = [0] * num
        starts = [0] * num
        # Deltas since the last *complete* group: shallow heads and
        # groups some keyword missed are charged to the next run.
        run_reads = [0] * num
        run_skips = [0] * num
        runs: list[GroupRun] = []
        score_group = self._score_group_packed
        indices = range(num)
        deadline = self._deadline
        faults = _active_faults()
        faults_enabled = faults.enabled
        try:
            while True:
                if deadline is not None and deadline.expired():
                    stats.partial = True
                    self.tracer.event(
                        "deadline_expired", stage="merge"
                    )
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
                            run_reads[i] += 1
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
                    skipped = start - positions[i]
                    consumed = end - start
                    skips[i] += skipped
                    run_skips[i] += skipped
                    reads[i] += consumed
                    run_reads[i] += consumed
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
                if plan_key is not None:
                    runs.append(
                        GroupRun(
                            group,
                            tuple(positions),
                            tuple(run_reads),
                            tuple(run_skips),
                            tuple(occurrences),
                        )
                    )
                    run_reads = [0] * num
                    run_skips = [0] * num
                stats.groups_processed += 1
                score_group(occurrences, space, pool, stats, view, group)
            if plan_key is not None and not stats.partial:
                # Only cleanly exhausted intersections are cached; a
                # deadline or fault exit leaves the loop via return or
                # raise and never reaches this line.
                cache.put(
                    plan_key,
                    MergePlan(
                        runs,
                        tuple(positions),
                        tuple(run_reads),
                        tuple(run_skips),
                    ),
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

    def _replay_plan(
        self,
        plan: MergePlan,
        merged: list[PackedMergedList],
        space: CandidateSpace,
        pool: AccumulatorPool,
        stats: CleaningStats,
        view,
    ) -> None:
        """Re-run a cached merge plan against the accumulator pool.

        The intersection is already done: each recorded run carries its
        subtree-group key, materialized occurrences, and the cursor
        deltas the live loop accrued producing it, so replay is a walk
        over the runs with the same deadline/fault checks at group
        granularity.  Counters advance run by run — a deadline that
        fires after run *j* leaves exactly the postings_read/skipped a
        live run stopped at the same group would report.
        """
        num = len(merged)
        indices = range(num)
        positions = [ml.position for ml in merged]
        reads = [0] * num
        skips = [0] * num
        score_group = self._score_group_packed
        deadline = self._deadline
        faults = _active_faults()
        faults_enabled = faults.enabled
        try:
            for run in plan.runs:
                if deadline is not None and deadline.expired():
                    stats.partial = True
                    self.tracer.event(
                        "deadline_expired", stage="merge"
                    )
                    return
                if faults_enabled:
                    faults.hit("merge.step")
                run_ends = run.ends
                run_reads = run.reads
                run_skips = run.skips
                for i in indices:
                    reads[i] += run_reads[i]
                    skips[i] += run_skips[i]
                    positions[i] = run_ends[i]
                stats.groups_processed += 1
                score_group(
                    list(run.occurrences), space, pool, stats, view,
                    run.key,
                )
            # Trailing entries past the last complete group (shallow
            # heads, partial groups, exhaustion tail).
            tail_ends = plan.tail_ends
            tail_reads = plan.tail_reads
            tail_skips = plan.tail_skips
            for i in indices:
                reads[i] += tail_reads[i]
                skips[i] += tail_skips[i]
                positions[i] = tail_ends[i]
        finally:
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
        does not hold and pruning self-disables.
        """
        # Timed for the "score" stage histogram and the aggregated
        # "score" span alike.
        timed = self.metrics.enabled or self.tracer.enabled
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
        recorder = self._recorder
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
                self.tracer.event("deadline_expired", stage="score")
                break
            stats.candidates_evaluated += 1
            pid = self.type_finder.find(candidate)
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
                                    candidate, upper, floor
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
            # accumulate in document order, so live runs, replays and
            # the linear mode produce bit-identical sums.
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
            self._score_seconds += perf_counter() - score_began

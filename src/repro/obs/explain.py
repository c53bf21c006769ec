"""Score provenance: why a candidate got the score it got.

``XCleanSuggester.suggest_explained`` runs the normal Algorithm 1 pass
with a :class:`ScoreRecorder` attached; the merge loop feeds it, per
candidate and per subtree group, the exact factors that entered the
accumulator — error-model probabilities (Eq. 4/5), per-entity
Dirichlet-smoothed term contributions (Eq. 6/8/9), the result-type
utility table the winner beat (Eq. 7), and every pruning decision the
γ-bounded accumulator made (who evicted whom, at what Hoeffding
estimate).  :func:`build_explanation` then folds the record into an
:class:`Explanation` whose per-candidate ``reconstructed_score`` is
computed from the logged factors alone, in the engine's own
accumulation order — it therefore matches the engine's reported score
bit for bit (asserted to 1e-9 in ``tests/obs/test_explain.py``, with
skipping on and off).

The recorder is only ever attached for explain runs, carried by the
query's :class:`~repro.obs.context.Context`; the hot path carries a
``recorder is None`` check per scored candidate and nothing else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.core.pruning import add_partial, hoeffding_confidence

#: ε at which eviction notes report their Hoeffding confidence.
EXPLAIN_EPSILON = 0.05


# ----------------------------------------------------------------------
# The recorded factors
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ErrorFactor:
    """One P(q_j|w) factor of the error model (Eq. 4/5)."""

    position: int
    keyword: str
    variant: str
    distance: int
    probability: float

    def as_dict(self) -> dict[str, Any]:
        return {
            "position": self.position,
            "keyword": self.keyword,
            "variant": self.variant,
            "distance": self.distance,
            "probability": self.probability,
        }


@dataclass(frozen=True)
class TermFactor:
    """One Dirichlet-smoothed p(w|D(r)) factor (Eq. 6)."""

    position: int
    token: str
    count: int
    probability: float

    def as_dict(self) -> dict[str, Any]:
        return {
            "position": self.position,
            "token": self.token,
            "count": self.count,
            "probability": self.probability,
        }


@dataclass(frozen=True)
class EntityContribution:
    """One entity r of the result type: ∏_w p(w|D(r)) times its prior.

    ``mass`` is ``prior_weight * ∏ factors`` computed with the same
    float operations, in the same order, as the engine's scoring loop.
    """

    entity: str
    length: int
    prior_weight: float
    factors: tuple[TermFactor, ...]
    mass: float

    def as_dict(self) -> dict[str, Any]:
        return {
            "entity": self.entity,
            "length": self.length,
            "prior_weight": self.prior_weight,
            "factors": [f.as_dict() for f in self.factors],
            "mass": self.mass,
        }


@dataclass(frozen=True)
class GroupContribution:
    """Mass one subtree group added to a candidate's accumulator.

    ``mass`` is the engine's own group sum (what ``pool.add`` got);
    the per-entity rows drill into it and re-sum to the same value.
    """

    group: str
    entities: tuple[EntityContribution, ...]
    mass: float

    def as_dict(self) -> dict[str, Any]:
        return {
            "group": self.group,
            "mass": self.mass,
            "entities": [e.as_dict() for e in self.entities],
        }


@dataclass(frozen=True)
class UtilityRow:
    """One row of the U(C, p) table of Eq. 7."""

    path_id: int
    path: str
    depth: int
    utility: float
    winner: bool

    def as_dict(self) -> dict[str, Any]:
        return {
            "path_id": self.path_id,
            "path": self.path,
            "depth": self.depth,
            "utility": self.utility,
            "winner": self.winner,
        }


@dataclass(frozen=True)
class EvictionNote:
    """One γ-pruning decision of the accumulator pool (Section V-D)."""

    #: ``"evicted"`` — an in-table candidate lost its mass to a
    #: stronger newcomer; ``"rejected"`` — the newcomer itself was the
    #: weakest and never entered the table.
    kind: str
    candidate: tuple[str, ...]
    #: The Hoeffding (sample-mean) estimate at decision time.
    estimate: float
    #: Mass additions the estimate is based on.
    samples: int
    #: Hoeffding confidence of the estimate at ε=EXPLAIN_EPSILON.
    confidence: float
    #: The candidate whose arrival triggered the decision.
    evicted_by: tuple[str, ...] | None
    incoming_estimate: float

    def as_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "candidate": list(self.candidate),
            "estimate": self.estimate,
            "samples": self.samples,
            "confidence": self.confidence,
            "evicted_by": (
                list(self.evicted_by) if self.evicted_by else None
            ),
            "incoming_estimate": self.incoming_estimate,
        }


@dataclass(frozen=True)
class KernelPruneNote:
    """One in-loop γ-prune of the batch merge kernel.

    The kernel skipped the candidate before scoring because its score
    upper bound was strictly below the saturated accumulator floor —
    a guaranteed rejection, so the table (and the top-k) are provably
    what they would have been without the skip.
    """

    candidate: tuple[str, ...]
    #: error_weight × min-postings bound / normalizer at skip time.
    upper_bound: float
    #: The accumulator floor the bound failed to reach.
    floor: float
    #: The incoming estimate ``pool.add`` would have seen had the
    #: group been scored the unpruned way (error_weight × mass /
    #: normalizer): a sound prune has ``exact <= upper_bound`` and
    #: ``exact < floor``, so the add would have been rejected.
    exact: float

    def as_dict(self) -> dict[str, Any]:
        return {
            "candidate": list(self.candidate),
            "upper_bound": self.upper_bound,
            "floor": self.floor,
            "exact": self.exact,
        }


# ----------------------------------------------------------------------
# The recorder the merge loop feeds
# ----------------------------------------------------------------------


@dataclass
class _CandidateRecord:
    """Everything recorded for one candidate across the merge loop."""

    result_type: int
    error_weight: float
    normalizer: float
    #: Groups per accumulator *epoch*: an eviction wipes the mass, so
    #: a new epoch starts and only the last epoch's groups are in the
    #: final score.
    epochs: list[list[GroupContribution]] = field(
        default_factory=lambda: [[]]
    )
    evictions: int = 0
    rejections: int = 0


class ScoreRecorder:
    """Collects score provenance during one explain run.

    The merge loop calls :meth:`group` immediately *before* ``pool.add``
    for the same candidate; the pool's pruning observer (the query's
    :class:`~repro.obs.context.Context`) then fixes the record up if
    the add was rejected or evicted somebody.
    """

    def __init__(self):
        self.candidates: dict[tuple[str, ...], _CandidateRecord] = {}
        self.events: list[EvictionNote] = []
        self.kernel_prunes: list[KernelPruneNote] = []
        #: The query's CandidateSpace (set by the engine) — source of
        #: the per-keyword variant distances and error weights.
        self.space = None

    def kernel_pruned(
        self,
        candidate: tuple[str, ...],
        upper_bound: float,
        floor: float,
        exact: float,
    ) -> None:
        """The merge kernel skipped ``candidate`` before scoring."""
        self.kernel_prunes.append(
            KernelPruneNote(
                candidate=candidate,
                upper_bound=upper_bound,
                floor=floor,
                exact=exact,
            )
        )

    def group(
        self,
        candidate: tuple[str, ...],
        result_type: int,
        error_weight: float,
        normalizer: float,
        contribution: GroupContribution,
    ) -> None:
        record = self.candidates.get(candidate)
        if record is None:
            record = _CandidateRecord(
                result_type=result_type,
                error_weight=error_weight,
                normalizer=normalizer,
            )
            self.candidates[candidate] = record
        record.epochs[-1].append(contribution)

    # -- pruning-observer callbacks -----------------------------------

    def note_eviction(
        self,
        victim: tuple[str, ...],
        estimate: float,
        samples: int,
        incoming: tuple[str, ...],
        incoming_estimate: float,
    ) -> None:
        self.events.append(
            EvictionNote(
                kind="evicted",
                candidate=victim,
                estimate=estimate,
                samples=samples,
                confidence=hoeffding_confidence(
                    samples, EXPLAIN_EPSILON
                ),
                evicted_by=incoming,
                incoming_estimate=incoming_estimate,
            )
        )
        record = self.candidates.get(victim)
        if record is not None:
            record.evictions += 1
            record.epochs.append([])

    def note_rejection(
        self, incoming: tuple[str, ...], estimate: float
    ) -> None:
        self.events.append(
            EvictionNote(
                kind="rejected",
                candidate=incoming,
                estimate=estimate,
                samples=1,
                confidence=hoeffding_confidence(1, EXPLAIN_EPSILON),
                evicted_by=None,
                incoming_estimate=estimate,
            )
        )
        record = self.candidates.get(incoming)
        if record is not None:
            record.rejections += 1
            # The group recorded just before the rejected add never
            # entered the accumulator; drop it from the record too.
            if record.epochs[-1]:
                record.epochs[-1].pop()


# ----------------------------------------------------------------------
# The assembled explanation
# ----------------------------------------------------------------------


@dataclass
class CandidateExplanation:
    """Provenance of one suggested candidate's final score."""

    tokens: tuple[str, ...]
    rank: int
    score: float
    #: The score re-derived from the logged factors alone, in the
    #: engine's accumulation order (bit-identical to ``score``).
    reconstructed_score: float
    result_type: str
    error_weight: float
    error_factors: tuple[ErrorFactor, ...]
    normalizer: float
    prior: str
    groups: tuple[GroupContribution, ...]
    utilities: tuple[UtilityRow, ...]
    evictions: int
    rejections: int

    @property
    def text(self) -> str:
        return " ".join(self.tokens)

    def as_dict(self) -> dict[str, Any]:
        return {
            "tokens": list(self.tokens),
            "rank": self.rank,
            "score": self.score,
            "reconstructed_score": self.reconstructed_score,
            "result_type": self.result_type,
            "error_weight": self.error_weight,
            "error_factors": [
                f.as_dict() for f in self.error_factors
            ],
            "normalizer": self.normalizer,
            "prior": self.prior,
            "groups": [g.as_dict() for g in self.groups],
            "utilities": [u.as_dict() for u in self.utilities],
            "evictions": self.evictions,
            "rejections": self.rejections,
        }


@dataclass
class Explanation:
    """Full provenance of one ``suggest_explained`` call."""

    query: str
    trace_id: str | None
    partial: bool
    suggestions: tuple[CandidateExplanation, ...]
    #: Every pruning decision of the run, in decision order.
    events: tuple[EvictionNote, ...]
    #: Candidates the merge kernel's in-loop γ-pruning skipped before
    #: scoring (empty at γ=None or with ``kernel_pruning=False``).
    kernel_prunes: tuple[KernelPruneNote, ...]
    stats: dict[str, Any]

    def as_dict(self) -> dict[str, Any]:
        return {
            "query": self.query,
            "trace_id": self.trace_id,
            "partial": self.partial,
            "suggestions": [
                s.as_dict() for s in self.suggestions
            ],
            "events": [e.as_dict() for e in self.events],
            "kernel_prunes": [
                p.as_dict() for p in self.kernel_prunes
            ],
            "stats": self.stats,
        }

    def render(self, max_entities: int = 5) -> str:
        """Human-readable multi-section text (the CLI view)."""
        lines = [f"query: {self.query!r}"]
        if self.trace_id:
            lines[0] += f"  trace: {self.trace_id}"
        if self.partial:
            lines.append("  !! partial: deadline expired mid-query")
        for cand in self.suggestions:
            lines.append("")
            lines.append(
                f"#{cand.rank}  {cand.text!r}  "
                f"score={cand.score:.6e}  "
                f"(reconstructed {cand.reconstructed_score:.6e})"
            )
            lines.append(
                f"    result type: {cand.result_type}  "
                f"normalizer={cand.normalizer:g} ({cand.prior} prior)"
            )
            factors = "  ".join(
                f"{f.keyword}->{f.variant} (ed={f.distance}, "
                f"p={f.probability:.4f})"
                for f in cand.error_factors
            )
            lines.append(
                f"    P(Q|C)={cand.error_weight:.6e}: {factors}"
            )
            for utility in cand.utilities:
                marker = "*" if utility.winner else " "
                lines.append(
                    f"    {marker} U(C, {utility.path}) = "
                    f"{utility.utility:.6f}  (depth {utility.depth})"
                )
            for group in cand.groups:
                lines.append(
                    f"    group {group.group}: mass={group.mass:.6e} "
                    f"from {len(group.entities)} entities"
                )
                for entity in group.entities[:max_entities]:
                    terms = " * ".join(
                        f"p({f.token}|D)={f.probability:.6f}"
                        for f in entity.factors
                    )
                    lines.append(
                        f"        {entity.entity} (|D|={entity.length}"
                        f", prior={entity.prior_weight:g}): {terms}"
                        f" -> {entity.mass:.6e}"
                    )
                hidden = len(group.entities) - max_entities
                if hidden > 0:
                    lines.append(
                        f"        ... {hidden} more entities"
                    )
            if cand.evictions or cand.rejections:
                lines.append(
                    f"    pruning: evicted {cand.evictions}x, "
                    f"rejected {cand.rejections}x (mass restarted)"
                )
        if self.events:
            lines.append("")
            lines.append(f"pruning events ({len(self.events)}):")
            for event in self.events:
                target = " ".join(event.candidate)
                if event.kind == "evicted":
                    by = " ".join(event.evicted_by or ())
                    lines.append(
                        f"    {target!r} evicted by {by!r}: estimate "
                        f"{event.estimate:.3e} (n={event.samples}, "
                        f"confidence {event.confidence:.2f} at "
                        f"eps={EXPLAIN_EPSILON}) < "
                        f"{event.incoming_estimate:.3e}"
                    )
                else:
                    lines.append(
                        f"    {target!r} rejected on arrival: "
                        f"estimate {event.estimate:.3e} below every "
                        f"accumulator"
                    )
        hits = self.stats.get("intersection_cache_hits", 0)
        misses = self.stats.get("intersection_cache_misses", 0)
        pruned = self.stats.get("kernel_pruned", 0)
        if hits or misses or pruned:
            lines.append("")
            lines.append(
                f"merge kernel: plan cache {hits} hit(s) / "
                f"{misses} miss(es), {pruned} candidate(s) pruned "
                f"in-loop"
            )
        if self.kernel_prunes:
            for note in self.kernel_prunes:
                target = " ".join(note.candidate)
                lines.append(
                    f"    {target!r} skipped before scoring: upper "
                    f"bound {note.upper_bound:.3e} < floor "
                    f"{note.floor:.3e}"
                )
        return "\n".join(lines)


def build_explanation(
    query: str,
    suggester,
    recorder: ScoreRecorder,
    pool,
    k: int,
) -> Explanation:
    """Fold a finished run's record into an :class:`Explanation`.

    ``reconstructed_score`` re-derives each candidate's score purely
    from the recorded factors: the epoch's group masses are folded
    through the same exact-summation expansion ``Accumulator.mass``
    uses (``add_partial`` + ``fsum``) and scaled by the recorded error
    weight and normalizer — the same float operations the engine
    performed, hence bit-identical.
    """
    stats = suggester.last_stats
    space = recorder.space
    candidates = []
    for rank, (tokens, score, entry) in enumerate(pool.top_k(k), 1):
        record = recorder.candidates.get(tokens)
        groups: tuple[GroupContribution, ...] = ()
        reconstructed = 0.0
        error_weight = 0.0
        normalizer = 0.0
        evictions = rejections = 0
        if record is not None:
            groups = tuple(record.epochs[-1])
            partials: list[float] = []
            for group in groups:
                add_partial(partials, group.mass)
            mass = math.fsum(partials)
            error_weight = record.error_weight
            normalizer = record.normalizer
            reconstructed = (
                error_weight * mass / normalizer if normalizer else 0.0
            )
            evictions = record.evictions
            rejections = record.rejections
        error_factors = tuple(
            _error_factors(space, tokens)
        ) if space is not None else ()
        path_table = suggester.corpus.path_table
        utilities = tuple(
            UtilityRow(
                path_id=pid,
                path=path,
                depth=depth,
                utility=utility,
                winner=pid == entry.result_type,
            )
            for pid, path, depth, utility
            in suggester.type_finder.explain_paths(tokens)
        )
        candidates.append(
            CandidateExplanation(
                tokens=tokens,
                rank=rank,
                score=score,
                reconstructed_score=reconstructed,
                result_type=path_table.string_of(entry.result_type),
                error_weight=error_weight,
                error_factors=error_factors,
                normalizer=normalizer,
                prior=suggester.config.prior,
                groups=groups,
                utilities=utilities,
                evictions=evictions,
                rejections=rejections,
            )
        )
    return Explanation(
        query=query,
        trace_id=stats.trace_id,
        partial=stats.partial,
        suggestions=tuple(candidates),
        events=tuple(recorder.events),
        kernel_prunes=tuple(recorder.kernel_prunes),
        stats=_stats_dict(stats),
    )


def _error_factors(space, tokens: Sequence[str]):
    """Per-position Eq. 4/5 factors of a candidate, engine order."""
    for position, token in enumerate(tokens):
        kv = space.per_keyword[position]
        distance = 0
        for variant in kv.variants:
            if variant.token == token:
                distance = variant.distance
                break
        yield ErrorFactor(
            position=position,
            keyword=kv.keyword,
            variant=token,
            distance=distance,
            probability=kv.weights[token],
        )


def _stats_dict(stats) -> dict[str, Any]:
    from dataclasses import asdict

    return asdict(stats)

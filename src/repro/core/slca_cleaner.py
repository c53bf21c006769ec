"""XClean under the SLCA query semantics (Section VI-B).

Instead of a single inferred result type per candidate, each candidate
query's entities are its SLCA nodes — the smallest subtrees containing
every keyword.  Scoring stays Eq. 8/9 with those entities:

    P(C|T) = (1/N_C) Σ_{r ∈ SLCA(C)} ∏_{w ∈ C} p(w|D(r))

where N_C = |SLCA(C)| (every SLCA entity contains all keywords by
definition, so none is dropped).

Only the entity step of Algorithm 1 differs, so both suggesters here
run :class:`~repro.core.cleaner.XCleanSuggester`'s merge kernel —
anchors, minimal depth d, skipping (or the linear ablation), plan
replay, deadlines, fault sites and spans — and override the per-group
scoring alone.  SLCAs are computed *within* each depth-d group;
connections that exist only above depth d are deliberately excluded —
the same "connected only through the root is not meaningful" argument
of Section V-B.  The paper notes this semantics works as well as node
types on data-centric DBLP but worse on document-centric INEX, which
the ablation benchmark reproduces.
"""

from __future__ import annotations

from repro.core.candidates import CandidateQuery, CandidateSpace
from repro.core.cleaner import XCleanSuggester
from repro.core.config import XCleanConfig
from repro.core.error_model import ErrorModel
from repro.core.pruning import AccumulatorPool
from repro.core.suggestion import CleaningStats, Suggestion
from repro.exceptions import ConfigurationError
from repro.fastss.generator import VariantGenerator
from repro.index.corpus import CorpusIndex
from repro.index.merged_list import PackedEntry
from repro.slca.elca import elca
from repro.slca.multiway import slca
from repro.xmltree.dewey import DeweyCode


class SLCACleanSuggester(XCleanSuggester):
    """Top-k query cleaning with SLCA entity semantics.

    Scores are exact: the γ-bounded accumulator table and the length
    prior are node-type features, so ``config.gamma`` and
    ``config.prior`` are ignored.  :meth:`partial_rows` and
    :meth:`suggest_explained` serialize node-type accumulators and
    raise :class:`~repro.exceptions.ConfigurationError` here.
    """

    #: Display label used in Suggestion.result_type.
    semantics_label = "SLCA"

    def __init__(
        self,
        corpus: CorpusIndex,
        generator: VariantGenerator | None = None,
        error_model: ErrorModel | None = None,
        config: XCleanConfig | None = None,
    ):
        super().__init__(corpus, generator, error_model, config)
        #: Score table of the query in flight: candidate →
        #: [Σ entity mass, N_C, P(Q|C)], filled group by group.
        self._table: dict[CandidateQuery, list] = {}

    def suggest(self, query: str, k: int = 10) -> list[Suggestion]:
        """Top-k alternative queries under SLCA semantics."""
        scores = self.score_all(query)
        ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
        return [
            Suggestion(
                tokens=candidate,
                score=score,
                result_type=self.semantics_label,
            )
            for candidate, score in ranked[:k]
        ]

    def score_all(self, query: str) -> dict[CandidateQuery, float]:
        """Scores of all candidates with at least one SLCA entity."""
        self._table = {}
        self._run(query)
        return {
            candidate: error_weight * mass / count
            for candidate, (mass, count, error_weight) in self._table.items()
        }

    def partial_rows(self, query: str):
        raise ConfigurationError(
            f"{self.semantics_label} semantics has no node-type "
            "accumulator rows to scatter-gather"
        )

    def suggest_explained(self, query: str, k: int = 10):
        raise ConfigurationError(
            f"score provenance is recorded for node-type semantics "
            f"only, not {self.semantics_label}"
        )

    def _entities(
        self, lists: list[list[DeweyCode]]
    ) -> list[DeweyCode]:
        """Entity roots of one candidate within the current group."""
        return slca(lists)

    def _score_group_packed(
        self,
        occurrences: list[dict[str, list[PackedEntry]]],
        space: CandidateSpace,
        pool: AccumulatorPool,
        stats: CleaningStats,
        view,
        group: int,
        ctx,
        score,
    ) -> None:
        """Score the group's candidates over their entity roots (Eq. 8/9).

        Replaces only the node-type entity step of the merge kernel;
        ``pool`` (the γ table) stays empty.  Each group's mass is added
        to :attr:`_table` in group order, so cold runs, plan replays and
        the linear mode sum the same floats in the same order.
        """
        unpack = view.packer.unpack
        deweys = [
            {
                token: [unpack(entry[0]) for entry in entries]
                for token, entries in by_token.items()
            }
            for by_token in occurrences
        ]
        probability = self.language_model.probability
        subtree_length = self.corpus.subtree_length
        table = self._table
        present = [list(by_token) for by_token in occurrences]
        for candidate in space.enumerate_present(present):
            stats.candidates_evaluated += 1
            lists = [
                deweys[position][token]
                for position, token in enumerate(candidate)
            ]
            roots = self._entities(lists)
            if not roots:
                continue
            total = 0.0
            for root in roots:
                stats.entities_scored += 1
                depth = len(root)
                length = subtree_length(root)
                product = 1.0
                for position, token in enumerate(candidate):
                    count = sum(
                        entry[2]
                        for code, entry in zip(
                            lists[position], occurrences[position][token]
                        )
                        if code[:depth] == root
                    )
                    product *= probability(token, count, length)
                total += product
            entry = table.get(candidate)
            if entry is None:
                table[candidate] = [
                    total, len(roots), space.error_weight(candidate)
                ]
            else:
                entry[0] += total
                entry[1] += len(roots)


class ELCACleanSuggester(SLCACleanSuggester):
    """Top-k query cleaning with ELCA entity semantics.

    A further demonstration of the framework's generality: entities are
    the Exclusive LCAs [XRANK] of the candidate's keyword occurrences.
    ELCAs are a superset of the SLCAs — ancestors with their own
    exclusive keyword witnesses also become entities, so broader
    contexts contribute score mass.  Like SLCA, it ignores γ and the
    length prior.
    """

    semantics_label = "ELCA"

    def _entities(
        self, lists: list[list[DeweyCode]]
    ) -> list[DeweyCode]:
        return elca(lists)

"""Tests for score provenance (repro.obs.explain).

The acceptance bar: ``suggest_explained`` must reconstruct the top-1
score from the logged factors alone to 1e-9 (relative) on a DBLP
workload — in practice the reconstruction is bit-identical because it
replays the engine's own float operations in the engine's own order.
"""

import math

import pytest

from repro.core.cleaner import XCleanSuggester
from repro.core.config import XCleanConfig
from repro.eval.experiments import dblp_setting
from repro.index.corpus import build_corpus_index
from repro.obs.explain import ScoreRecorder
from repro.xmltree.builder import paper_example_tree
from repro.xmltree.document import XMLDocument

@pytest.fixture(scope="module")
def corpus():
    return build_corpus_index(XMLDocument(paper_example_tree()))


@pytest.fixture(scope="module")
def setting():
    return dblp_setting("small")


def make_suggester(corpus, **overrides):
    defaults = dict(max_errors=2)
    defaults.update(overrides)
    return XCleanSuggester(corpus, config=XCleanConfig(**defaults))


class TestReconstructionPaperExample:
    def test_scores_reconstruct_exactly(self, corpus):
        suggester = make_suggester(corpus)
        explanation = suggester.suggest_explained("icdt tre", 5)
        assert explanation.suggestions, "expected candidates"
        for cand in explanation.suggestions:
            assert cand.reconstructed_score == cand.score

    def test_skipping_modes_agree_on_explanations(self, corpus):
        # The linear (no-skipping) mode walks the same groups in the
        # same order, so every recorded factor is identical; only the
        # read/skip counters in ``stats`` differ.
        skipping = make_suggester(corpus).suggest_explained("icdt tre", 5)
        linear = make_suggester(
            corpus, use_skipping=False
        ).suggest_explained("icdt tre", 5)
        assert skipping.suggestions
        assert [c.as_dict() for c in skipping.suggestions] == [
            c.as_dict() for c in linear.suggestions
        ]
        assert skipping.events == linear.events
        assert skipping.kernel_prunes == linear.kernel_prunes


class TestReconstructionDblpWorkload:
    """The acceptance criterion, on real workload queries."""

    def test_top1_reconstructs_to_1e9(self, setting):
        suggester = setting.xclean()
        records = next(iter(setting.workloads.values()))
        checked = 0
        for record in records[:5]:
            explanation = suggester.suggest_explained(
                record.dirty_text, 5
            )
            if not explanation.suggestions:
                continue
            top = explanation.suggestions[0]
            assert top.reconstructed_score == pytest.approx(
                top.score, rel=1e-9
            )
            checked += 1
        assert checked > 0, "no workload query produced suggestions"

    def test_explained_ranking_matches_plain_suggest(self, setting):
        suggester = setting.xclean()
        record = next(iter(setting.workloads.values()))[0]
        plain = suggester.suggest(record.dirty_text, 5)
        explanation = suggester.suggest_explained(
            record.dirty_text, 5
        )
        assert [s.tokens for s in plain] == [
            c.tokens for c in explanation.suggestions
        ]
        assert [s.score for s in plain] == [
            c.score for c in explanation.suggestions
        ]


class TestFactorInternals:
    def test_error_factors_multiply_to_error_weight(self, corpus):
        suggester = make_suggester(corpus)
        explanation = suggester.suggest_explained("icdt tre", 5)
        for cand in explanation.suggestions:
            product = 1.0
            for factor in cand.error_factors:
                product *= factor.probability
            assert product == pytest.approx(
                cand.error_weight, rel=1e-12
            )
            # Eq. 4/5 shape: p proportional to exp(-beta * ed), so an
            # exact-match variant can never have lower probability than
            # a farther one for the same keyword position.
            for factor in cand.error_factors:
                assert 0.0 < factor.probability <= 1.0
                assert factor.distance <= suggester.config.max_errors

    def test_entity_masses_resum_to_group_mass(self, corpus):
        suggester = make_suggester(corpus)
        explanation = suggester.suggest_explained("icdt tre", 5)
        for cand in explanation.suggestions:
            for group in cand.groups:
                total = math.fsum(e.mass for e in group.entities)
                assert total == pytest.approx(group.mass, rel=1e-9)
                for entity in group.entities:
                    product = entity.prior_weight
                    for factor in entity.factors:
                        product *= factor.probability
                    assert product == pytest.approx(
                        entity.mass, rel=1e-12
                    )

    def test_utility_winner_matches_result_type(self, corpus):
        suggester = make_suggester(corpus)
        explanation = suggester.suggest_explained("icdt tre", 5)
        for cand in explanation.suggestions:
            winners = [u for u in cand.utilities if u.winner]
            assert len(winners) == 1
            assert winners[0].path == cand.result_type
            # The winner maximizes U(C, p) (Eq. 7).
            best = max(u.utility for u in cand.utilities)
            assert winners[0].utility == pytest.approx(best)

    def test_length_prior_flows_into_prior_weight(self, corpus):
        suggester = make_suggester(corpus, prior="length")
        explanation = suggester.suggest_explained("icdt tre", 5)
        cand = explanation.suggestions[0]
        assert explanation.suggestions[0].prior == "length"
        weights = [
            entity.prior_weight
            for group in cand.groups
            for entity in group.entities
        ]
        assert all(w >= 1.0 for w in weights)
        assert cand.reconstructed_score == cand.score


class TestPruningEpochs:
    def test_tiny_gamma_records_events_and_still_reconstructs(
        self, setting
    ):
        suggester = setting.xclean(gamma=1)
        records = next(iter(setting.workloads.values()))
        saw_events = False
        checked = 0
        for record in records[:8]:
            explanation = suggester.suggest_explained(
                record.dirty_text, 3
            )
            saw_events = saw_events or bool(explanation.events)
            for event in explanation.events:
                assert event.kind in ("evicted", "rejected")
                assert 0.0 <= event.confidence <= 1.0
                if event.kind == "evicted":
                    assert event.evicted_by is not None
                    assert (
                        event.incoming_estimate >= event.estimate
                    )
            for cand in explanation.suggestions:
                # Mass epochs restarted by evictions must still fold
                # to the exact engine score.
                assert cand.reconstructed_score == pytest.approx(
                    cand.score, rel=1e-9
                )
                checked += 1
        assert checked > 0
        assert saw_events, "gamma=1 should force pruning decisions"

    def test_stats_counts_match_events(self, setting):
        suggester = setting.xclean(gamma=1)
        record = next(iter(setting.workloads.values()))[0]
        explanation = suggester.suggest_explained(
            record.dirty_text, 3
        )
        assert explanation.stats["accumulator_evictions"] == sum(
            1 for e in explanation.events if e.kind == "evicted"
        )


class TestExplanationShape:
    def test_as_dict_is_json_ready(self, corpus):
        import json

        suggester = make_suggester(corpus)
        explanation = suggester.suggest_explained("icdt tre", 3)
        data = json.loads(json.dumps(explanation.as_dict()))
        assert data["query"] == "icdt tre"
        top = data["suggestions"][0]
        assert top["score"] == top["reconstructed_score"]
        assert top["groups"][0]["entities"]

    def test_render_mentions_every_candidate(self, corpus):
        suggester = make_suggester(corpus)
        explanation = suggester.suggest_explained("icdt tre", 3)
        text = explanation.render()
        for cand in explanation.suggestions:
            assert repr(cand.text) in text
        assert "P(Q|C)" in text
        assert "U(C," in text

    def test_recorder_detaches_after_explain(self, corpus, monkeypatch):
        fed = []
        original = ScoreRecorder.group

        def group(recorder, *args):
            fed.append(recorder)
            original(recorder, *args)

        monkeypatch.setattr(ScoreRecorder, "group", group)
        suggester = make_suggester(corpus)
        suggester.suggest_explained("icdt tre", 3)
        assert fed
        explained = len(fed)
        # The recorder rode the explain run's own context: a later
        # plain suggest is unaffected and feeds no recorder.
        assert suggester.suggest("icdt tre", 3)
        assert len(fed) == explained

    def test_unanswerable_query_has_no_candidates(self, corpus):
        suggester = make_suggester(corpus)
        explanation = suggester.suggest_explained("zzzzzz", 3)
        assert explanation.suggestions == ()

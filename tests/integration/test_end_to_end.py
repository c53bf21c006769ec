"""End-to-end integration: datasets → index → suggesters → metrics."""

import pytest

from repro.core.naive import NaiveCleaner
from repro.core.config import XCleanConfig
from repro.eval.experiments import (
    dblp_setting,
    eps_for,
    wiki_setting,
)
from repro.eval.runner import evaluate_suggester
from repro.index.snapshot import build_snapshot, load_snapshot


@pytest.fixture(scope="module")
def dblp():
    return dblp_setting("small")


@pytest.fixture(scope="module")
def wiki():
    return wiki_setting("small")


class TestWorkloadQuality:
    def test_xclean_beats_py08_on_rule(self, dblp):
        # RULE is where the baselines separate decisively even at the
        # tiny test scale (the RAND gap needs the benchmark scale).
        eps = eps_for("RULE")
        records = dblp.workloads["RULE"]
        xclean = evaluate_suggester(dblp.xclean(max_errors=eps), records)
        py08 = evaluate_suggester(dblp.py08(max_errors=eps), records)
        assert xclean.mrr > py08.mrr

    def test_xclean_beats_py08_on_clean(self, dblp):
        records = dblp.workloads["CLEAN"]
        xclean = evaluate_suggester(dblp.xclean(), records)
        py08 = evaluate_suggester(dblp.py08(), records)
        assert xclean.mrr > py08.mrr

    def test_xclean_recovers_most_rand_queries(self, dblp):
        result = evaluate_suggester(
            dblp.xclean(), dblp.workloads["RAND"]
        )
        assert result.mrr >= 0.6

    def test_clean_queries_not_broken(self, dblp):
        result = evaluate_suggester(
            dblp.xclean(), dblp.workloads["CLEAN"]
        )
        assert result.mrr >= 0.7

    def test_wiki_pipeline(self, wiki):
        result = evaluate_suggester(
            wiki.xclean(), wiki.workloads["RAND"]
        )
        assert result.mrr >= 0.6

    def test_rule_uses_larger_eps(self, wiki):
        eps = eps_for("RULE")
        result = evaluate_suggester(
            wiki.xclean(max_errors=eps), wiki.workloads["RULE"]
        )
        assert result.mrr >= 0.5

    def test_se1_silent_on_clean(self, dblp):
        result = evaluate_suggester(
            dblp.se1(), dblp.workloads["CLEAN"], k=1
        )
        assert result.mrr == 1.0


class TestSuggestionValidity:
    """The headline guarantee: suggestions have non-empty results."""

    def test_every_suggestion_has_results(self, dblp):
        suggester = dblp.xclean(gamma=None)
        for record in dblp.workloads["RAND"][:6]:
            for suggestion in suggester.suggest(record.dirty_text, 5):
                hit = any(
                    all(
                        token in entity.subtree_text().split()
                        for token in suggestion.tokens
                    )
                    for entity in dblp.document.root.children
                )
                assert hit, suggestion.text


class TestAlgorithmEquivalenceOnRealData:
    def test_xclean_matches_naive_on_dblp(self, dblp):
        fast = dblp.xclean(gamma=None)
        slow = NaiveCleaner(
            dblp.corpus,
            generator=dblp.generator,
            config=XCleanConfig(max_errors=2, gamma=None),
        )
        for record in dblp.workloads["RAND"][:5]:
            fast_scores = fast.score_all(record.dirty_text)
            naive_scores = {
                c: s
                for c, s in slow.score_all(record.dirty_text).items()
                if s > 0
            }
            assert set(fast_scores) == set(naive_scores)
            for candidate, score in fast_scores.items():
                assert score == pytest.approx(
                    naive_scores[candidate], rel=1e-9
                )

    def test_slca_runs_on_both_datasets(self, dblp, wiki):
        for setting in (dblp, wiki):
            suggester = setting.xclean_slca()
            record = setting.workloads["RAND"][0]
            suggestions = suggester.suggest(record.dirty_text, 5)
            assert isinstance(suggestions, list)


class TestIndexPersistenceIntegration:
    def test_loaded_index_gives_identical_suggestions(self, dblp, tmp_path):
        path = str(tmp_path / "dblp.xcs3")
        build_snapshot(dblp.corpus, path)
        loaded = load_snapshot(path)
        from repro.core.cleaner import XCleanSuggester

        original = dblp.xclean(gamma=None)
        reloaded = XCleanSuggester(
            loaded, config=XCleanConfig(max_errors=2, gamma=None)
        )
        for record in dblp.workloads["RAND"][:4]:
            a = [
                (s.tokens, pytest.approx(s.score))
                for s in original.suggest(record.dirty_text, 5)
            ]
            b = [
                (s.tokens, s.score)
                for s in reloaded.suggest(record.dirty_text, 5)
            ]
            assert b == a


class TestDeterminism:
    def test_settings_are_cached(self):
        assert dblp_setting("small") is dblp_setting("small")

    def test_suggestions_deterministic_across_instances(self, dblp):
        record = dblp.workloads["RULE"][0]
        first = dblp.xclean().suggest(record.dirty_text, 5)
        second = dblp.xclean().suggest(record.dirty_text, 5)
        assert [s.tokens for s in first] == [s.tokens for s in second]

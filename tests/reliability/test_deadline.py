"""Deadline-aware execution: anytime answers, never a raise.

The contract (docs/serving.md → Reliability): with no deadline the
merge loop behaves byte-identically to the pre-deadline code, with
skipping on and off; a generous
deadline returns the exact top-k; an expired deadline returns the
best-so-far top-k with ``CleaningStats.partial=True`` — and partial
answers are served but never cached.
"""

import time

import pytest

from repro.core.cleaner import XCleanSuggester
from repro.core.config import XCleanConfig
from repro.core.deadline import Deadline
from repro.core.server import SuggestionService
from repro.index.corpus import build_corpus_index
from repro.obs.faults import injected
from repro.xmltree.builder import paper_example_tree
from repro.xmltree.document import XMLDocument


@pytest.fixture(scope="module")
def corpus():
    return build_corpus_index(XMLDocument(paper_example_tree()))


class TestDeadlineClock:
    def test_generous_deadline_not_expired(self):
        deadline = Deadline(60.0)
        assert not deadline.expired()
        assert not deadline.expired_now()
        assert deadline.remaining() > 59.0

    def test_zero_budget_expires_on_first_check(self):
        deadline = Deadline(0.0)
        assert deadline.expired()

    def test_negative_budget_clamped_to_zero(self):
        deadline = Deadline(-5.0)
        assert deadline.expired()
        assert deadline.remaining() == 0.0

    def test_expiry_is_sticky(self):
        deadline = Deadline(0.01, stride=1)
        time.sleep(0.02)
        assert deadline.expired()
        # Later checks never un-expire, whatever the stride counter says.
        assert all(deadline.expired() for _ in range(10))

    def test_amortized_checks_eventually_observe_expiry(self):
        deadline = Deadline(0.01, stride=4)
        time.sleep(0.02)
        # At most ``stride`` calls between clock reads.
        assert any(deadline.expired() for _ in range(5))


@pytest.mark.parametrize("use_skipping", [True, False])
class TestEquivalence:
    QUERIES = ["tree icdt", "databas", "tree icde"]

    @staticmethod
    def _answers(corpus, use_skipping, deadline_seconds):
        suggester = XCleanSuggester(
            corpus,
            config=XCleanConfig(
                max_errors=1,
                use_skipping=use_skipping,
                deadline_seconds=deadline_seconds,
            ),
        )
        out = []
        for query in TestEquivalence.QUERIES:
            suggestions = suggester.suggest(query, 5)
            assert suggester.last_stats.partial is False
            out.append(
                [(s.tokens, s.score, s.result_type) for s in suggestions]
            )
        return out

    def test_generous_deadline_matches_no_deadline(
        self, corpus, use_skipping
    ):
        exact = self._answers(corpus, use_skipping, None)
        budgeted = self._answers(corpus, use_skipping, 60.0)
        assert budgeted == exact


@pytest.mark.parametrize("use_skipping", [True, False])
class TestPartialResults:
    def test_expired_deadline_returns_partial_not_raises(
        self, corpus, use_skipping
    ):
        suggester = XCleanSuggester(
            corpus,
            config=XCleanConfig(
                max_errors=1,
                use_skipping=use_skipping,
                deadline_seconds=0.01,
            ),
        )
        # Burn the whole budget before the merge loop starts: the first
        # deadline check (the Deadline reads the clock on its first
        # call) then sees expiry, so the answer must come back partial.
        with injected("variant.gen:delay=0.05"):
            suggestions = suggester.suggest("tree icdt", 5)
        assert suggester.last_stats.partial is True
        assert isinstance(suggestions, list)

    def test_partial_never_cached_serial(self, corpus, use_skipping):
        config = XCleanConfig(
            max_errors=1, use_skipping=use_skipping, deadline_seconds=0.01
        )
        service = SuggestionService(corpus, config=config)
        with injected("variant.gen:delay=0.05"):
            service.suggest("tree icdt", 5)
            service.suggest("tree icdt", 5)
        assert service.stats.partial_results == 2
        assert service.stats.result_cache_hits == 0
        assert service.stats.result_cache_misses == 2
        assert len(service._result_cache) == 0
        # With the fault lifted and the deadline relaxed, the exact
        # answer is computed, cached, and identical to an undeadlined
        # reference.
        relaxed = SuggestionService(
            corpus,
            config=XCleanConfig(max_errors=1, use_skipping=use_skipping),
        )
        exact = relaxed.suggest("tree icdt", 5)
        assert [s.tokens for s in exact]
        assert relaxed.stats.partial_results == 0


def test_partial_never_cached_parallel(corpus):
    # The fault plan and deadline travel to pool workers through the
    # picklable config; each occurrence of the partial answer is served
    # as an uncached miss.
    config = XCleanConfig(
        max_errors=1,
        deadline_seconds=0.01,
        fault_plan="variant.gen:delay=0.05",
    )
    with SuggestionService(corpus, config=config) as service:
        batch = service.suggest_batch(
            ["tree icdt", "tree icdt"], 5, workers=2
        )
    assert len(batch) == 2
    assert service.stats.partial_results == 2
    assert service.stats.result_cache_hits == 0
    assert len(service._result_cache) == 0
    assert service.last_stats.partial is True

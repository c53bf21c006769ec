"""Tests for result-type inference (Eq. 7 / Example 3)."""

import math

import pytest

from repro.core import result_type
from repro.core.result_type import (
    DEFAULT_TYPE_CACHE_SIZE,
    ResultTypeConfig,
    ResultTypeFinder,
)
from repro.exceptions import ConfigurationError
from repro.index.corpus import build_corpus_index
from repro.xmltree.builder import paper_example_tree
from repro.xmltree.document import XMLDocument


@pytest.fixture
def corpus():
    return build_corpus_index(XMLDocument(paper_example_tree()))


@pytest.fixture
def finder(corpus):
    return ResultTypeFinder(
        corpus, ResultTypeConfig(reduction=0.8, min_depth=2)
    )


def path_string(corpus, pid):
    return corpus.path_table.string_of(pid)


class TestExample3:
    """The paper's worked utility computation, verbatim."""

    def test_utilities(self, corpus, finder):
        table = corpus.path_table
        candidate = ("trie", "icde")
        r = 0.8
        u1 = finder.utility(candidate, table.id_of(("a", "c")))
        u2 = finder.utility(candidate, table.id_of(("a", "c", "x")))
        u3 = finder.utility(candidate, table.id_of(("a", "d")))
        u4 = finder.utility(candidate, table.id_of(("a", "d", "x")))
        assert u1 == pytest.approx(math.log(1 + 2 * 1) * r**2)
        assert u2 == pytest.approx(math.log(1 + 3 * 1) * r**3)
        assert u3 == pytest.approx(math.log(1 + 2 * 2) * r**2)
        assert u4 == pytest.approx(math.log(1 + 2 * 2) * r**3)
        assert u3 == max(u1, u2, u3, u4)

    def test_best_type_is_a_d(self, corpus, finder):
        pid = finder.find(("trie", "icde"))
        assert path_string(corpus, pid) == "/a/d"

    def test_example5_types(self, corpus, finder):
        # "tree icde" resolves to /a/c; "trie icdt" resolves to /a/d.
        assert path_string(corpus, finder.find(("tree", "icde"))) == "/a/c"
        assert path_string(corpus, finder.find(("trie", "icdt"))) == "/a/d"


class TestUtility:
    def test_zero_when_keyword_absent(self, corpus, finder):
        table = corpus.path_table
        # 'icdt' never occurs under /a/c.
        assert finder.utility(
            ("trie", "icdt"), table.id_of(("a", "c"))
        ) == 0.0

    def test_single_keyword(self, corpus, finder):
        table = corpus.path_table
        value = finder.utility(("trie",), table.id_of(("a", "d")))
        assert value == pytest.approx(math.log(1 + 2) * 0.8**2)


class TestFind:
    def test_no_shared_path_returns_none(self, corpus, finder):
        # trees (only under /a/b) and icdt (only under /a/d) never share
        # a type at depth >= 2.
        assert finder.find(("trees", "icdt")) is None

    def test_unknown_token_returns_none(self, corpus, finder):
        assert finder.find(("trie", "notaword")) is None

    def test_min_depth_excludes_root(self, corpus):
        # At min_depth=2 the only common type of trees+icde would be the
        # root /a, which is excluded...
        finder2 = ResultTypeFinder(
            corpus, ResultTypeConfig(reduction=0.8, min_depth=2)
        )
        assert finder2.find(("trees", "icde")) is None
        # ...but min_depth=1 admits it.
        finder1 = ResultTypeFinder(
            corpus, ResultTypeConfig(reduction=0.8, min_depth=1)
        )
        pid = finder1.find(("trees", "icde"))
        assert path_string(corpus, pid) == "/a"

    def test_cache(self, finder):
        first = finder.find(("trie", "icde"))
        assert finder.cached_candidates() == 1
        second = finder.find(("trie", "icde"))
        assert second == first
        assert finder.cached_candidates() == 1

    def test_none_results_cached_too(self, finder):
        finder.find(("trees", "icdt"))
        assert finder.cached_candidates() == 1

    def test_empty_candidate_returns_none(self, finder):
        assert finder.find(()) is None

    def test_deterministic_tie_break(self, corpus):
        # With reduction == 1 depth does not matter, making ties likely;
        # the finder must still return a stable answer.
        finder = ResultTypeFinder(
            corpus, ResultTypeConfig(reduction=1.0, min_depth=2)
        )
        assert finder.find(("trie", "icde")) == finder.find(
            ("trie", "icde")
        )


class TestConfigValidation:
    def test_reduction_bounds(self):
        with pytest.raises(ConfigurationError):
            ResultTypeConfig(reduction=0.0)
        with pytest.raises(ConfigurationError):
            ResultTypeConfig(reduction=1.5)

    def test_min_depth_bound(self):
        with pytest.raises(ConfigurationError):
            ResultTypeConfig(min_depth=0)

    def test_cache_size_bound(self):
        # The LRU bound is a constant, not a knob: no config sets it.
        assert DEFAULT_TYPE_CACHE_SIZE >= 1
        with pytest.raises(TypeError):
            ResultTypeConfig(cache_size=1)


class TestCacheLRU:
    @pytest.fixture(autouse=True)
    def _monkeypatch(self, monkeypatch):
        self.monkeypatch = monkeypatch

    def bounded(self, corpus, size):
        """A finder whose LRU holds ``size`` entries (``None``: the
        production bound, far above what these tests insert)."""
        if size is not None:
            self.monkeypatch.setattr(
                result_type, "DEFAULT_TYPE_CACHE_SIZE", size
            )
        return ResultTypeFinder(
            corpus, ResultTypeConfig(reduction=0.8, min_depth=2)
        )

    def test_eviction_keeps_bound(self, corpus):
        finder = self.bounded(corpus, 2)
        finder.find(("tree", "icde"))
        finder.find(("trie", "icde"))
        finder.find(("trie", "icdt"))
        assert finder.cached_candidates() == 2
        assert finder.cache_evictions == 1
        assert (0, ("tree", "icde")) not in finder._cache

    def test_hit_refreshes_recency(self, corpus):
        finder = self.bounded(corpus, 2)
        finder.find(("tree", "icde"))
        finder.find(("trie", "icde"))
        finder.find(("tree", "icde"))  # hit: most recently used now
        finder.find(("trie", "icdt"))  # evicts ("trie", "icde")
        assert (0, ("tree", "icde")) in finder._cache
        assert (0, ("trie", "icde")) not in finder._cache

    def test_evicted_candidate_recomputes(self, corpus):
        finder = self.bounded(corpus, 1)
        first = finder.find(("trie", "icde"))
        finder.find(("trie", "icdt"))  # evicts the first entry
        again = finder.find(("trie", "icde"))
        assert again == first
        assert finder.cache_misses == 3
        assert finder.cache_hits == 0

    def test_hit_miss_counters(self, corpus):
        finder = self.bounded(corpus, None)
        finder.find(("tree", "icde"))
        finder.find(("tree", "icde"))
        finder.find(("trie", "icdt"))
        assert finder.cache_misses == 2
        assert finder.cache_hits == 1
        assert finder.cache_evictions == 0

    def test_none_answers_participate_in_lru(self, corpus):
        # None ("no valid type") is a first-class cached value: a
        # second lookup is a hit, not a recompute.
        finder = self.bounded(corpus, 2)
        assert finder.find(("trees", "icdt")) is None
        assert finder.find(("trees", "icdt")) is None
        assert finder.cache_misses == 1
        assert finder.cache_hits == 1

    def test_unbounded_when_none(self, corpus):
        finder = self.bounded(corpus, None)
        finder.find(("tree", "icde"))
        finder.find(("trie", "icde"))
        finder.find(("trie", "icdt"))
        finder.find(("tree", "icdt"))
        assert finder.cached_candidates() == 4
        assert finder.cache_evictions == 0

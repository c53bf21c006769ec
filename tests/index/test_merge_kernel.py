"""Tests for the batch merge kernel (``repro.index.merge_kernel``).

Two layers:

* the galloping and linear search primitives (must agree with
  ``bisect_left`` on every sorted input);
* the kernel merge loop end to end — byte-identical output against its
  own linear (``use_skipping=False``) mode and the ``NaiveCleaner``
  oracle, and the in-loop γ-pruning fast path.
"""

from bisect import bisect_left

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.cleaner import XCleanSuggester
from repro.core.config import XCleanConfig
from repro.core.naive import NaiveCleaner
from repro.index.corpus import build_corpus_index
from repro.index.merge_kernel import gallop_left, scan_left
from repro.xmltree.builder import build_tree, paper_example_tree
from repro.xmltree.dewey_packed import DeweyPacker
from repro.xmltree.document import XMLDocument


# ----------------------------------------------------------------------
# gallop_left
# ----------------------------------------------------------------------


class TestGallopLeft:
    @given(
        st.lists(st.integers(min_value=0, max_value=100), max_size=50),
        st.integers(min_value=-5, max_value=105),
    )
    def test_agrees_with_bisect_left(self, values, target):
        keys = sorted(values)
        assert gallop_left(keys, target, 0, len(keys)) == bisect_left(
            keys, target
        )

    @given(
        st.lists(
            st.integers(min_value=0, max_value=100),
            min_size=3,
            max_size=50,
        ),
        st.integers(min_value=-5, max_value=105),
        st.data(),
    )
    def test_agrees_on_subranges(self, values, target, data):
        keys = sorted(values)
        lo = data.draw(st.integers(0, len(keys)))
        hi = data.draw(st.integers(lo, len(keys)))
        assert gallop_left(keys, target, lo, hi) == bisect_left(
            keys, target, lo, hi
        )

    def test_empty_range_returns_lo(self):
        assert gallop_left([1, 2, 3], 2, 2, 2) == 2
        assert gallop_left([], 7, 0, 0) == 0

    def test_target_at_cursor_is_free(self):
        # The common Algorithm 1 case: no probe loop at all.
        assert gallop_left([5, 6, 7], 5, 0, 3) == 0
        assert gallop_left([5, 6, 7], 4, 0, 3) == 0

    def test_target_beyond_all_keys(self):
        assert gallop_left([1, 2, 3], 99, 0, 3) == 3

    def test_duplicates_find_leftmost(self):
        keys = [1, 3, 3, 3, 9]
        assert gallop_left(keys, 3, 0, 5) == 1


class TestScanLeft:
    @given(
        st.lists(st.integers(min_value=0, max_value=100), max_size=50),
        st.integers(min_value=-5, max_value=105),
        st.data(),
    )
    def test_agrees_with_gallop_left(self, values, target, data):
        keys = sorted(values)
        lo = data.draw(st.integers(0, len(keys)))
        hi = data.draw(st.integers(lo, len(keys)))
        assert scan_left(keys, target, lo, hi) == gallop_left(
            keys, target, lo, hi
        )


# ----------------------------------------------------------------------
# DeweyPacker.group_bounds
# ----------------------------------------------------------------------


class TestGroupBounds:
    def test_bounds_bracket_exactly_the_subtree(self):
        packer = DeweyPacker(max_depth=4, component_bits=3)
        inside = [
            (1, 2), (1, 2, 1), (1, 2, 7), (1, 2, 7, 7),
        ]
        outside = [(1,), (1, 1, 7, 7), (1, 3), (2, 1)]
        lower, upper = packer.group_bounds(packer.pack((1, 2, 5)), 2)
        assert lower == packer.pack((1, 2))
        for code in inside:
            assert lower <= packer.pack(code) < upper, code
        for code in outside:
            packed = packer.pack(code)
            assert packed < lower or packed >= upper, code


# ----------------------------------------------------------------------
# Kernel merge loop: equivalence, edge shapes
# ----------------------------------------------------------------------


def suggester(corpus, **overrides) -> XCleanSuggester:
    return XCleanSuggester(corpus, config=XCleanConfig(**overrides))


def output_of(sugg, query, k=10):
    return [
        (s.tokens, s.score, s.result_type)
        for s in sugg.suggest(query, k)
    ]


def assert_kernel_equivalent(corpus, queries, **overrides):
    """Kernel == its linear mode (strict, same walk), == oracle (1e-9).

    The linear mode passes over exactly the postings the galloping run
    reads or skips, and counts them all as read.  At γ=None the scores
    must also match ``NaiveCleaner``, the Section IV model.
    """
    kernel = suggester(corpus, **overrides)
    linear = suggester(corpus, use_skipping=False, **overrides)
    oracle = None
    if "gamma" in overrides and overrides["gamma"] is None:
        oracle = NaiveCleaner(corpus, config=XCleanConfig(**overrides))
    for query in queries:
        got = output_of(kernel, query)
        assert got == output_of(linear, query), query
        ks, ls = kernel.last_stats, linear.last_stats
        assert ls.postings_skipped == 0, query
        assert (
            ls.postings_read == ks.postings_read + ks.postings_skipped
        ), query
        assert ls.groups_processed == ks.groups_processed, query
        if oracle is not None:
            fast = kernel.score_all(query)
            naive = {
                c: s for c, s in oracle.score_all(query).items() if s > 0
            }
            assert set(fast) == set(naive), query
            for candidate, score in fast.items():
                assert score == pytest.approx(
                    naive[candidate], rel=1e-9
                ), query


@pytest.fixture()
def paper_corpus():
    return build_corpus_index(XMLDocument(paper_example_tree()))


class TestKernelEquivalence:
    QUERIES = ["trie icde", "tree", "tria icda", "trees icde"]

    def test_matches_linear_mode(self, paper_corpus):
        assert_kernel_equivalent(
            paper_corpus, self.QUERIES, max_errors=1
        )

    def test_matches_with_pruning_disabled(self, paper_corpus):
        assert_kernel_equivalent(
            paper_corpus,
            self.QUERIES,
            max_errors=1,
            kernel_pruning=False,
        )

    def test_matches_without_gamma(self, paper_corpus):
        assert_kernel_equivalent(
            paper_corpus, self.QUERIES, max_errors=1, gamma=None
        )

    def test_matches_under_length_prior(self, paper_corpus):
        # Pruning self-disables under the length prior; output must
        # still match the linear mode exactly.
        assert_kernel_equivalent(
            paper_corpus, self.QUERIES, max_errors=1, prior="length"
        )


def corpus_of(spec):
    return build_corpus_index(XMLDocument(build_tree(spec)))


class TestEdgeShapes:
    def test_keyword_with_no_postings(self):
        # One keyword's variant set resolves to an empty merged list:
        # the kernel must exhaust immediately with empty output.
        corpus = corpus_of(
            ("lib", [("item", [("t", "alpha")])])
        )
        assert_kernel_equivalent(
            corpus, ["alpha zzzzqq"], max_errors=0
        )
        sugg = suggester(corpus, max_errors=0)
        assert sugg.suggest("alpha zzzzqq", 5) == []

    def test_single_posting_lists(self):
        corpus = corpus_of(
            (
                "lib",
                [
                    ("item", [("t", "alpha"), ("t", "beta")]),
                    ("item", [("t", "gamma")]),
                ],
            )
        )
        assert_kernel_equivalent(
            corpus, ["alpha beta", "alpha gamma", "gamma"],
            max_errors=1,
        )

    def test_all_postings_in_one_subtree(self):
        corpus = corpus_of(
            (
                "lib",
                [
                    (
                        "item",
                        [("t", w) for w in (
                            "alpha", "beta", "alpha", "beta", "alpha"
                        )],
                    )
                ],
            )
        )
        assert_kernel_equivalent(
            corpus, ["alpha beta", "alpha", "beta beta"], max_errors=1
        )

    def test_max_depth_keys_at_component_boundary(self):
        # A chain down to the document's max depth with sibling fans
        # wide enough to exercise every component bit of the packer.
        def item(word):
            return ("w", [("x", [("y", [("t", word)])])])

        corpus = corpus_of(
            (
                "lib",
                [
                    ("shelf", [item("alpha")] * 7 + [item("beta")]),
                    ("shelf", [item("beta"), item("alpha")]),
                ],
            )
        )
        view = corpus.packed_view()
        packer = view.packer
        # The fixture must actually place postings at the packer's max
        # depth, or the boundary is not exercised.
        depth_mask = (1 << packer.depth_bits) - 1
        assert any(
            (key & depth_mask) == packer.max_depth
            for key in view.get("alpha").keys
        )
        assert_kernel_equivalent(
            corpus, ["alpha beta", "alpha", "beta alpha"], max_errors=1
        )

    def test_duplicate_keys_across_variants(self):
        # "bool" and "book" under the same leaf: the merged column
        # carries duplicate packed keys from different variant lists.
        corpus = corpus_of(
            (
                "lib",
                [
                    ("item", [("t", "book bool")]),
                    ("item", [("t", "book")]),
                ],
            )
        )
        assert_kernel_equivalent(corpus, ["book", "bool"], max_errors=1)


# ----------------------------------------------------------------------
# In-loop γ-pruning
# ----------------------------------------------------------------------


def pruning_corpus():
    """Corpus where a γ=1 pool saturates early and far variants of the
    query appear only in later document-order groups — the exact shape
    the in-loop prune is built for."""

    def shelf(*words):
        return ("shelf", [("item", [("t", w)]) for w in words])

    return corpus_of(
        (
            "lib",
            [
                shelf("book", "book", "book"),
                shelf("book", "book"),
                shelf("book"),
                shelf("boot"),
                shelf("bool"),
            ],
        )
    )


class TestKernelPruning:
    def test_prunes_without_changing_output(self):
        corpus = pruning_corpus()
        pruned = suggester(corpus, max_errors=1, gamma=1)
        plain = suggester(
            corpus, max_errors=1, gamma=1, kernel_pruning=False
        )
        got = output_of(pruned, "book")
        assert got == output_of(plain, "book")
        assert pruned.last_stats.kernel_pruned > 0
        assert plain.last_stats.kernel_pruned == 0

    def test_pruned_candidates_still_counted_as_evaluated(self):
        corpus = pruning_corpus()
        pruned = suggester(corpus, max_errors=1, gamma=1)
        plain = suggester(
            corpus, max_errors=1, gamma=1, kernel_pruning=False
        )
        output_of(pruned, "book")
        output_of(plain, "book")
        assert (
            pruned.last_stats.candidates_evaluated
            == plain.last_stats.candidates_evaluated
        )

    def test_prune_disabled_under_length_prior(self):
        corpus = pruning_corpus()
        sugg = suggester(
            corpus, max_errors=1, gamma=1, prior="length"
        )
        plain = suggester(
            corpus,
            max_errors=1,
            gamma=1,
            prior="length",
            kernel_pruning=False,
        )
        assert output_of(sugg, "book") == output_of(plain, "book")
        assert sugg.last_stats.kernel_pruned == 0

    def test_prune_replays_identically(self):
        # The second run reads memoized columns and prunes the same.
        corpus = pruning_corpus()
        sugg = suggester(corpus, max_errors=1, gamma=1)
        cold = output_of(sugg, "book")
        cold_pruned = sugg.last_stats.kernel_pruned
        warm = output_of(sugg, "book")
        assert warm == cold
        assert sugg.last_stats.merged_cache_hits >= 1
        assert sugg.last_stats.kernel_pruned == cold_pruned

    def test_explain_reports_kernel_prunes(self):
        corpus = pruning_corpus()
        sugg = suggester(corpus, max_errors=1, gamma=1)
        explanation = sugg.suggest_explained("book", 5)
        assert explanation.stats["kernel_pruned"] > 0
        assert explanation.kernel_prunes
        note = explanation.kernel_prunes[0]
        assert note.upper_bound < note.floor
        assert "pruned" in explanation.render()


# ----------------------------------------------------------------------
# Corpus-level cache bounds
# ----------------------------------------------------------------------


class TestMergedCacheBounds:
    def test_lru_bound_evicts_and_counts(self, paper_corpus):
        paper_corpus.configure_query_caches(merged_cache_size=1)
        paper_corpus.merged_list_packed(("trie",))
        paper_corpus.merged_list_packed(("tree",))
        assert paper_corpus.merged_cache_evictions >= 1
        # The survivor is the most recent entry.
        misses = paper_corpus.merged_cache_misses
        paper_corpus.merged_list_packed(("tree",))
        assert paper_corpus.merged_cache_misses == misses

    def test_configure_is_idempotent(self, paper_corpus):
        paper_corpus.merged_list_packed(("trie",))
        hits = paper_corpus.merged_cache_hits
        paper_corpus.configure_query_caches()  # same (default) bounds
        paper_corpus.merged_list_packed(("trie",))
        assert paper_corpus.merged_cache_hits == hits + 1

    def test_config_knob_validation(self):
        with pytest.raises(Exception):
            XCleanConfig(merged_cache_size=0)
        XCleanConfig(merged_cache_size=None)

"""Tests for edit distance: exact values, metric axioms, bounded variant."""

from hypothesis import example, given
from hypothesis import strategies as st

from repro.fastss.edit_distance import (
    bounded_edit_distance,
    edit_distance,
    within_distance,
)

words = st.text(alphabet="abcde", max_size=10)


class TestExactValues:
    def test_identical(self):
        assert edit_distance("tree", "tree") == 0

    def test_single_substitution(self):
        assert edit_distance("icde", "icdt") == 1

    def test_single_insertion(self):
        assert edit_distance("tree", "trees") == 1

    def test_single_deletion(self):
        assert edit_distance("trees", "tree") == 1

    def test_transposition_costs_two(self):
        # Plain Levenshtein (no Damerau transposition).
        assert edit_distance("gerat", "great") == 2

    def test_paper_examples(self):
        assert edit_distance("tree", "trie") == 1
        assert edit_distance("insurence", "insurance") == 1
        assert edit_distance("insurence", "instance") == 3

    def test_empty_strings(self):
        assert edit_distance("", "") == 0
        assert edit_distance("", "abc") == 3
        assert edit_distance("abc", "") == 3


class TestMetricAxioms:
    @given(words, words)
    def test_symmetry(self, s, t):
        assert edit_distance(s, t) == edit_distance(t, s)

    @given(words)
    def test_identity(self, s):
        assert edit_distance(s, s) == 0

    @given(words, words)
    def test_positivity(self, s, t):
        d = edit_distance(s, t)
        assert d >= 0
        assert (d == 0) == (s == t)

    @given(words, words, words)
    def test_triangle_inequality(self, s, t, u):
        assert edit_distance(s, u) <= edit_distance(s, t) + edit_distance(
            t, u
        )

    @given(words, words)
    def test_length_difference_lower_bound(self, s, t):
        assert edit_distance(s, t) >= abs(len(s) - len(t))

    @given(words, words)
    def test_max_length_upper_bound(self, s, t):
        assert edit_distance(s, t) <= max(len(s), len(t))


class TestBounded:
    def test_within_limit_returns_distance(self):
        assert bounded_edit_distance("tree", "trie", 2) == 1

    def test_beyond_limit_returns_none(self):
        assert bounded_edit_distance("tree", "xyzw", 2) is None

    def test_length_gap_short_circuit(self):
        assert bounded_edit_distance("ab", "abcdef", 2) is None

    def test_zero_limit(self):
        assert bounded_edit_distance("abc", "abc", 0) == 0
        assert bounded_edit_distance("abc", "abd", 0) is None

    def test_negative_limit(self):
        assert bounded_edit_distance("a", "a", -1) is None

    def test_exactly_at_limit(self):
        assert bounded_edit_distance("gerat", "great", 2) == 2

    @given(words, words, st.integers(min_value=0, max_value=4))
    def test_agrees_with_exact(self, s, t, limit):
        exact = edit_distance(s, t)
        bounded = bounded_edit_distance(s, t, limit)
        if exact <= limit:
            assert bounded == exact
        else:
            assert bounded is None

    @given(words, words, st.integers(min_value=0, max_value=4))
    def test_within_distance_consistent(self, s, t, limit):
        assert within_distance(s, t, limit) == (
            edit_distance(s, t) <= limit
        )


#: Empty strings, non-ASCII letters, and lengths past one 64-bit word.
wide = st.text(alphabet="abcéü日", max_size=90)


class TestBitParallel:
    @given(wide, wide, st.integers(min_value=0, max_value=6))
    @example("", "", 0)
    @example("", "é日", 2)
    @example("a" * 70, "a" * 69 + "b", 1)
    @example("ab" * 40, "ba" * 40, 3)
    @example("日本語", "日本", 1)
    def test_agrees_with_exact_dp(self, s, t, limit):
        exact = edit_distance(s, t)
        bounded = bounded_edit_distance(s, t, limit)
        assert bounded == (exact if exact <= limit else None)

    @given(wide, wide)
    def test_symmetric(self, s, t):
        assert bounded_edit_distance(s, t, 90) == bounded_edit_distance(
            t, s, 90
        )

    def test_long_strings_exact(self):
        s = "x" * 100 + "abc"
        t = "x" * 100 + "acb"
        assert bounded_edit_distance(s, t, 2) == 2
        assert bounded_edit_distance(s, t, 1) is None

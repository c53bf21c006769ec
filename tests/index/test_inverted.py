"""Tests for inverted lists and the galloping skip over their keys."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.cleaner import XCleanSuggester
from repro.core.config import XCleanConfig
from repro.index.corpus import build_corpus_index
from repro.index.inverted import (
    InvertedIndex,
    InvertedList,
    PackedInvertedList,
)
from repro.index.merge_kernel import gallop_left
from repro.xmltree.builder import build_tree
from repro.xmltree.dewey_packed import DeweyPacker
from repro.xmltree.document import XMLDocument

#: Holds every code below (depth <= 5, components <= 7).
PACKER = DeweyPacker(max_depth=5, component_bits=3)

deweys = st.lists(
    st.integers(min_value=1, max_value=5), min_size=1, max_size=5
).map(tuple)


def make_list(codes) -> InvertedList:
    return InvertedList("tok", [(c, 0, 1) for c in codes])


def first_at_or_after(codes, dewey, start=0) -> int:
    """Index of the first posting >= ``dewey``, galloping from ``start``.

    The skip of Algorithm 1 (Lines 7–8) over a packed list's keys.
    """
    keys = PackedInvertedList.from_inverted(make_list(codes), PACKER).keys
    return gallop_left(keys, PACKER.pack(dewey), start, len(keys))


class TestInvertedList:
    def test_preserves_order(self):
        lst = make_list([(1, 1), (1, 2), (2,)])
        assert [p[0] for p in lst] == [(1, 1), (1, 2), (2,)]

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            make_list([(1, 2), (1, 1)])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            make_list([(1, 1), (1, 1)])

    def test_len_and_getitem(self):
        lst = make_list([(1,), (2,)])
        assert len(lst) == 2
        assert lst[1][0] == (2,)

    def test_first_at_or_after_exact(self):
        codes = [(1, 1), (1, 3), (1, 5)]
        assert first_at_or_after(codes, (1, 3)) == 1

    def test_first_at_or_after_between(self):
        codes = [(1, 1), (1, 3), (1, 5)]
        assert first_at_or_after(codes, (1, 2)) == 1

    def test_first_at_or_after_past_end(self):
        assert first_at_or_after([(1, 1)], (2,)) == 1

    def test_first_at_or_after_from_start_position(self):
        codes = [(1, 1), (1, 3), (1, 5), (1, 7)]
        assert first_at_or_after(codes, (1, 2), start=2) == 2

    def test_prefix_target_before_descendants(self):
        # skip_to(1.2) must land on the first node inside subtree 1.2.
        codes = [(1, 1, 1), (1, 2, 1), (1, 3, 1)]
        assert first_at_or_after(codes, (1, 2)) == 1

    @given(st.lists(deweys, min_size=0, max_size=30), deweys)
    def test_matches_linear_scan(self, codes, target):
        codes = sorted(set(codes))
        expected = next(
            (i for i, c in enumerate(codes) if c >= target), len(codes)
        )
        assert first_at_or_after(codes, target) == expected

    @given(st.lists(deweys, min_size=1, max_size=30), deweys, st.integers(0, 29))
    def test_start_position_respected(self, codes, target, start):
        codes = sorted(set(codes))
        start = min(start, len(codes))
        result = first_at_or_after(codes, target, start)
        assert result >= start
        expected = next(
            (i for i in range(start, len(codes)) if codes[i] >= target),
            len(codes),
        )
        assert result == expected


class TestListCursor:
    def test_skip_counts(self):
        # The merge kernel's cursors: "beta" first occurs under group
        # 1.2, so the three "alpha" postings under 1.1 are skipped, not
        # read.
        corpus = build_corpus_index(
            XMLDocument(
                build_tree(
                    (
                        "lib",
                        [
                            ("item", [("t", "alpha")] * 3),
                            ("item", [("t", "alpha"), ("t", "beta")]),
                        ],
                    )
                )
            )
        )
        sugg = XCleanSuggester(
            corpus, config=XCleanConfig(max_errors=0, gamma=None)
        )
        sugg.suggest("alpha beta")
        assert sugg.last_stats.postings_skipped == 3
        assert sugg.last_stats.postings_read == 2

    def test_skip_to_current_is_noop(self):
        codes = [(1,), (2,), (3,)]
        assert first_at_or_after(codes, (2,), start=1) == 1


class TestInvertedIndex:
    def test_add_and_get(self):
        index = InvertedIndex()
        index.add_list(make_list([(1,)]))
        assert "tok" in index
        assert index.get("tok") is not None

    def test_get_missing(self):
        assert InvertedIndex().get("nope") is None

    def test_list_for_missing_is_empty(self):
        lst = InvertedIndex().list_for("nope")
        assert len(lst) == 0

    def test_total_postings(self):
        index = InvertedIndex()
        index.add_list(InvertedList("a", [((1,), 0, 1)]))
        index.add_list(InvertedList("b", [((1,), 0, 1), ((2,), 0, 1)]))
        assert index.total_postings() == 3
        assert len(index) == 2

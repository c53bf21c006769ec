"""Tests for the merged list of Section V-C over packed columns.

``PackedMergedColumns`` merges the variant lists of one keyword once,
in document order; the merge kernel skips over the merged keys with
``merge_kernel.gallop_left``, drains a subtree group as the key range
``DeweyPacker.group_bounds`` gives, and accounts every posting it
passes as read or skipped.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.cleaner import XCleanSuggester
from repro.core.config import XCleanConfig
from repro.index.corpus import build_corpus_index
from repro.index.inverted import InvertedList, PackedInvertedList
from repro.index.merge_kernel import gallop_left
from repro.index.merged_list import PackedMergedColumns
from repro.xmltree.builder import build_tree
from repro.xmltree.dewey_packed import DeweyPacker
from repro.xmltree.document import XMLDocument

#: Holds every code below (depth <= 5, components <= 15).
PACKER = DeweyPacker(max_depth=5, component_bits=4)

deweys = st.lists(
    st.integers(min_value=1, max_value=4), min_size=1, max_size=4
).map(tuple)


def merged(spec: dict[str, list]) -> PackedMergedColumns:
    return PackedMergedColumns(
        PackedInvertedList.from_inverted(
            InvertedList(token, [(c, 0, 1) for c in sorted(set(codes))]),
            PACKER,
        )
        for token, codes in spec.items()
    )


def entries(columns, start=0, end=None):
    """``(dewey, token)`` of the rows in ``[start, end)``, column order."""
    end = columns.length if end is None else end
    return [
        (
            PACKER.unpack(columns.keys[j]),
            columns.tokens[columns.token_ids[j]],
        )
        for j in range(start, end)
    ]


def skip(columns, dewey, position=0):
    """Where a skip to ``dewey`` lands (Lines 7–8 of Algorithm 1)."""
    return gallop_left(
        columns.keys, PACKER.pack(dewey), position, columns.length
    )


def subtree(columns, group, position=0):
    """``[start, end)`` of ``group``'s subtree, as the kernel drains it."""
    lower, upper = PACKER.group_bounds(PACKER.pack(group), len(group))
    start = gallop_left(columns.keys, lower, position, columns.length)
    return start, gallop_left(columns.keys, upper, start, columns.length)


def kernel_stats(spec, query):
    """Work counters of one exact Algorithm 1 run over ``spec``'s tree."""
    corpus = build_corpus_index(XMLDocument(build_tree(spec)))
    sugg = XCleanSuggester(
        corpus, config=XCleanConfig(max_errors=0, gamma=None)
    )
    sugg.suggest(query)
    return sugg.last_stats


class TestMerge:
    def test_interleaves_in_document_order(self):
        columns = merged({"a": [(1,), (3,)], "b": [(2,), (4,)]})
        order = [dewey for dewey, _token in entries(columns)]
        assert order == [(1,), (2,), (3,), (4,)]

    def test_entries_carry_tokens(self):
        columns = merged({"a": [(1,)], "b": [(2,)]})
        assert [token for _dewey, token in entries(columns)] == ["a", "b"]
        grouped = columns.slice_by_token(0, columns.length)
        assert [e[3] for e in grouped["a"]] == ["a"]
        assert [e[3] for e in grouped["b"]] == ["b"]

    def test_empty_merge(self):
        columns = PackedMergedColumns([])
        assert columns.length == 0
        assert len(columns.keys) == 0
        assert columns.slice_by_token(0, 0) == {}

    def test_duplicate_positions_across_lists(self):
        # Two variants occurring at the same leaf are both reported,
        # the tie broken by member index.
        columns = merged({"a": [(1, 1)], "b": [(1, 1)]})
        assert entries(columns) == [((1, 1), "a"), ((1, 1), "b")]

    @given(
        st.dictionaries(
            st.sampled_from(["a", "b", "c"]),
            st.lists(deweys, max_size=10),
            max_size=3,
        )
    )
    def test_equals_sorted_concatenation(self, spec):
        columns = merged(spec)
        members = list(spec)
        expected = sorted(
            (code, members.index(token))
            for token, codes in spec.items()
            for code in set(codes)
        )
        assert entries(columns) == [
            (code, members[member]) for code, member in expected
        ]
        assert list(columns.keys) == sorted(columns.keys)


class TestSkipTo:
    def test_skip_discards_smaller(self):
        columns = merged({"a": [(1, 1), (1, 3)], "b": [(1, 2), (1, 4)]})
        landed = skip(columns, (1, 3))
        remaining = [dewey for dewey, _ in entries(columns, landed)]
        assert remaining == [(1, 3), (1, 4)]

    def test_skip_to_subtree_root(self):
        # Example 5: skip_to(1.2) lands on the first occurrence in the
        # subtree of 1.2.
        columns = merged(
            {"tree": [(1, 1, 2), (1, 2, 2)], "trie": [(1, 2, 1)]}
        )
        landed = skip(columns, (1, 2))
        assert entries(columns, landed, landed + 1) == [
            ((1, 2, 1), "trie")
        ]

    def test_skip_exhausts_list(self):
        columns = merged({"trees": [(1, 1, 1)]})
        assert skip(columns, (1, 2)) == columns.length

    def test_skip_counters(self):
        # "beta" first occurs under item 1.2, so the kernel skips the
        # two "alpha" postings under 1.1 without reading them.
        stats = kernel_stats(
            (
                "lib",
                [
                    ("item", [("t", "alpha"), ("t", "alpha")]),
                    ("item", [("t", "alpha"), ("t", "beta")]),
                ],
            ),
            "alpha beta",
        )
        assert stats.postings_skipped == 2
        assert stats.postings_read == 2

    @given(
        st.dictionaries(
            st.sampled_from(["a", "b"]),
            st.lists(deweys, max_size=10),
            max_size=2,
        ),
        deweys,
    )
    def test_skip_equals_filtered_merge(self, spec, target):
        columns = merged(spec)
        drained = sorted(entries(columns, skip(columns, target)))
        expected = sorted(
            (code, token)
            for token, codes in spec.items()
            for code in set(codes)
            if code >= target
        )
        assert drained == expected


class TestHeadDewey:
    def test_none_when_exhausted(self):
        # "alpha" is exhausted after the first group: the loop stops
        # there, and the later "beta" postings are never touched.
        stats = kernel_stats(
            (
                "lib",
                [
                    ("item", [("t", "alpha"), ("t", "beta")]),
                    ("item", [("t", "beta")]),
                    ("item", [("t", "beta")]),
                ],
            ),
            "alpha beta",
        )
        assert stats.groups_processed == 1
        assert stats.postings_read == 2
        assert stats.postings_skipped == 0


class TestPopSubtree:
    def test_pops_only_group_members(self):
        columns = merged(
            {"a": [(1, 1, 1), (1, 2, 1)], "b": [(1, 1, 2), (1, 3, 1)]}
        )
        start, end = subtree(columns, (1, 1))
        assert entries(columns, start, end) == [
            ((1, 1, 1), "a"),
            ((1, 1, 2), "b"),
        ]
        # The rest follows, in order.
        assert entries(columns, end, end + 1) == [((1, 2, 1), "a")]

    def test_group_equal_to_entry(self):
        columns = merged({"a": [(1, 1)]})
        start, end = subtree(columns, (1, 1))
        assert entries(columns, start, end) == [((1, 1), "a")]

    def test_empty_when_head_outside(self):
        columns = merged({"a": [(1, 2, 1)]})
        start, end = subtree(columns, (1, 1))
        assert start == end == 0
        assert entries(columns, start, start + 1) == [((1, 2, 1), "a")]

    def test_counts_as_reads(self):
        stats = kernel_stats(
            (
                "lib",
                [("item", [("t", "alpha"), ("t", "alpha"), ("t", "beta")])],
            ),
            "alpha beta",
        )
        assert stats.groups_processed == 1
        assert stats.postings_read == 3
        assert stats.postings_skipped == 0

    @given(
        st.dictionaries(
            st.sampled_from(["a", "b"]),
            st.lists(deweys, max_size=10),
            max_size=2,
        ),
        deweys,
    )
    def test_equivalent_to_manual_loop(self, spec, group):
        # Subtree contiguity: the group's key range holds exactly the
        # codes under the group, nothing else.
        columns = merged(spec)
        start, end = subtree(columns, group)
        manual = [
            (code, token)
            for code, token in entries(columns)
            if code[: len(group)] == group
        ]
        assert entries(columns, start, end) == manual

"""Tests for the merged list of Section V-C over packed columns.

``PackedMergedColumns`` merges the variant lists of one keyword once,
in document order; the merge kernel skips over the merged keys with
``merge_kernel.gallop_left``, drains a subtree group as the key range
``DeweyPacker.group_bounds`` gives, and accounts every posting it
passes as read or skipped.  The merge itself is checked against the
tuple-per-posting sort it replaced.
"""

from array import array

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
    rows = []
    for j in range(start, end):
        ((token, [entry]),) = columns.slice_by_token(j, j + 1).items()
        rows.append((PACKER.unpack(entry[0]), token))
    return rows


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


# ----------------------------------------------------------------------
# The argsort merge against a tuple-per-posting sort
# ----------------------------------------------------------------------


def tuple_sort_rows(members):
    """Every posting as ``(key, path_id, tf, token)``, in merged order.

    The oracle: one tuple per posting, sorted by (key, member), the way
    the merge was built before it became an argsort.
    """
    rows = sorted(
        (lst.keys[i], member, lst.path_ids[i], lst.tfs[i])
        for member, lst in enumerate(members)
        for i in range(len(lst.keys))
    )
    return [(key, pid, tf, members[m].token) for key, m, pid, tf in rows]


def tuple_sort_slice(rows, start, end):
    """The oracle's group collection: tokens in first-posting order."""
    by_token = {}
    for entry in rows[start:end]:
        by_token.setdefault(entry[3], []).append(entry)
    return by_token


def mapped(typecode, values):
    """``values`` as a snapshot column: a slice of a larger mapped view."""
    padded = array(typecode, [0, *values, 0])
    return memoryview(padded.tobytes()).cast(typecode)[1:-1]


#: Keys of the packers wider than 63 bits, which keep plain lists.
WIDE = 1 << 70


@st.composite
def member_lists(draw, layout):
    """One variant's columns; keys from a small pool, so members share
    keys, and may be empty."""
    keys = sorted(draw(st.sets(st.integers(0, 30), max_size=12)))
    size = len(keys)
    path_ids = draw(st.lists(st.integers(0, 9), min_size=size,
                             max_size=size))
    tfs = draw(st.lists(st.integers(1, 5), min_size=size, max_size=size))
    if layout == "list":
        wide = [WIDE + key for key in keys]
        return wide, array("i", path_ids), array("i", tfs)
    if layout == "mixed":
        layout = draw(st.sampled_from(("array", "memoryview")))
    if layout == "memoryview":
        return mapped("q", keys), mapped("i", path_ids), mapped("i", tfs)
    return array("q", keys), array("i", path_ids), array("i", tfs)


@st.composite
def variant_sets(draw, min_size=0, max_size=5):
    layout = draw(st.sampled_from(("array", "memoryview", "mixed", "list")))
    count = draw(st.integers(min_size, max_size))
    return [
        PackedInvertedList(f"t{member}", *draw(member_lists(layout)))
        for member in range(count)
    ]


class TestArgsortMerge:
    @given(variant_sets(), st.data())
    def test_matches_tuple_sort(self, members, data):
        columns = PackedMergedColumns(members)
        rows = tuple_sort_rows(members)
        assert columns.length == len(rows)
        assert list(columns.keys) == [row[0] for row in rows]
        assert columns.tokens == [lst.token for lst in members]
        for _ in range(3):
            start = data.draw(st.integers(0, len(rows)))
            end = data.draw(st.integers(start, len(rows)))
            got = columns.slice_by_token(start, end)
            want = tuple_sort_slice(rows, start, end)
            # Dict order is the candidate enumeration order: compare it.
            assert list(got.items()) == list(want.items())

    @given(variant_sets(min_size=1, max_size=1))
    def test_one_member_reuses_its_columns(self, members):
        (member,) = members
        columns = PackedMergedColumns(members)
        assert columns.keys is member.keys
        assert columns.path_ids is member.path_ids
        assert columns.tfs is member.tfs

"""Edge-case coverage for skipping and subtree draining over merged
packed columns: empty member lists, duplicate heads across variants,
skip targets beyond all postings, and groups deeper than every head.

The packed merge loop's edge shapes are covered by
``tests/index/test_merge_kernel.py::TestEdgeShapes``."""

from repro.index.inverted import InvertedList, PackedInvertedList
from repro.index.merge_kernel import gallop_left
from repro.index.merged_list import PackedMergedColumns
from repro.xmltree.dewey_packed import DeweyPacker

PACKER = DeweyPacker(max_depth=4, component_bits=4)


def merged_list(spec: dict[str, list]) -> PackedMergedColumns:
    return PackedMergedColumns(
        PackedInvertedList.from_inverted(
            InvertedList(token, [(c, 0, 1) for c in sorted(set(codes))]),
            PACKER,
        )
        for token, codes in spec.items()
    )


def codes(columns, start=0, end=None):
    end = columns.length if end is None else end
    return [PACKER.unpack(columns.keys[j]) for j in range(start, end)]


def skip(columns, dewey):
    return gallop_left(columns.keys, PACKER.pack(dewey), 0, columns.length)


def subtree(columns, group, position=0):
    lower, upper = PACKER.group_bounds(PACKER.pack(group), len(group))
    start = gallop_left(columns.keys, lower, position, columns.length)
    return start, gallop_left(columns.keys, upper, start, columns.length)


class TestEmptyMemberLists:
    def test_all_members_empty(self):
        columns = merged_list({"a": [], "b": []})
        assert columns.tokens == ["a", "b"]
        assert columns.length == 0
        assert skip(columns, (1,)) == 0
        assert subtree(columns, (1,)) == (0, 0)

    def test_some_members_empty(self):
        columns = merged_list({"a": [], "b": [(1, 1), (2, 1)], "c": []})
        assert codes(columns) == [(1, 1), (2, 1)]
        assert columns.slice_by_token(0, columns.length).keys() == {"b"}

    def test_no_members_at_all(self):
        columns = PackedMergedColumns([])
        assert columns.tokens == []
        assert skip(columns, (1,)) == 0


class TestDuplicateHeads:
    def test_same_head_across_variants_pops_both(self):
        columns = merged_list(
            {"a": [(1, 2)], "b": [(1, 2)], "c": [(1, 3)]}
        )
        start, end = subtree(columns, (1, 2))
        assert sorted(columns.slice_by_token(start, end)) == ["a", "b"]
        # The non-group head survives.
        start, end = subtree(columns, (1, 3), end)
        assert end - start == 1

    def test_duplicate_heads_skip_together(self):
        columns = merged_list(
            {"a": [(1, 1), (2, 2)], "b": [(1, 1), (3, 1)]}
        )
        landed = skip(columns, (2,))
        assert codes(columns, landed, landed + 1) == [(2, 2)]
        # Both copies of the shared head 1.1 were jumped over.
        assert landed == 2


class TestSkipBeyondAll:
    def test_skip_to_past_everything_exhausts(self):
        columns = merged_list({"a": [(1, 1)], "b": [(1, 2), (2, 4)]})
        assert skip(columns, (9,)) == columns.length == 3
        # An exhausted cursor drains nothing.
        assert subtree(columns, (9,), columns.length) == (3, 3)


class TestGroupDeeperThanHeads:
    def test_pop_subtree_with_deeper_group_pops_nothing(self):
        # Every posting is an ancestor of the group, never inside it.
        columns = merged_list({"a": [(1,)], "b": [(1, 2)]})
        start, end = subtree(columns, (1, 2, 3))
        assert start == end

    def test_skip_to_deeper_group_consumes_ancestors(self):
        # Document order puts ancestors strictly before the group, so
        # skipping to the group jumps over them.
        columns = merged_list(
            {"a": [(1,), (1, 2, 3, 1)], "b": [(1, 2)]}
        )
        landed = skip(columns, (1, 2, 3))
        assert codes(columns, landed, landed + 1) == [(1, 2, 3, 1)]
        start, end = subtree(columns, (1, 2, 3), landed)
        assert codes(columns, start, end) == [(1, 2, 3, 1)]
        assert end == columns.length

"""Edge-case coverage for MergedList skip_to and pop_subtree: empty
member lists, duplicate heads across variants, skip targets beyond all
postings, and groups deeper than every head.

The packed merge loop's edge shapes are covered by
``tests/index/test_merge_kernel.py::TestEdgeShapes``."""

from repro.index.inverted import InvertedList
from repro.index.merged_list import MergedList


def merged_list(spec: dict[str, list]) -> MergedList:
    return MergedList(
        InvertedList(token, [(c, 0, 1) for c in sorted(set(codes))])
        for token, codes in spec.items()
    )


class TestEmptyMemberLists:
    def test_all_members_empty(self):
        merged = merged_list({"a": [], "b": []})
        assert not merged
        assert merged.cur_pos() is None
        assert merged.next() is None
        assert merged.skip_to((1,)) is None
        assert merged.pop_subtree((1,)) == []

    def test_some_members_empty(self):
        merged = merged_list({"a": [], "b": [(1, 1), (2, 1)], "c": []})
        assert [e[0] for e in merged.drain()] == [(1, 1), (2, 1)]

    def test_no_members_at_all(self):
        merged = MergedList([])
        assert not merged
        assert merged.next() is None


class TestDuplicateHeads:
    def test_same_head_across_variants_pops_both(self):
        merged = merged_list({"a": [(1, 2)], "b": [(1, 2)], "c": [(1, 3)]})
        popped = merged.pop_subtree((1, 2))
        assert sorted(e[3] for e in popped) == ["a", "b"]
        # The non-group head survives.
        assert len(merged.pop_subtree((1, 3))) == 1

    def test_duplicate_heads_skip_together(self):
        merged = merged_list({"a": [(1, 1), (2, 2)], "b": [(1, 1), (3, 1)]})
        head = merged.skip_to((2,))
        assert head[0] == (2, 2)
        assert merged.total_skips == 2


class TestSkipBeyondAll:
    def test_skip_to_past_everything_exhausts(self):
        merged = merged_list({"a": [(1, 1)], "b": [(1, 2), (2, 4)]})
        assert merged.skip_to((9,)) is None
        assert not merged
        assert merged.total_skips == 3
        # Exhausted lists stay exhausted.
        assert merged.next() is None
        assert merged.pop_subtree((9,)) == []


class TestGroupDeeperThanHeads:
    def test_pop_subtree_with_deeper_group_pops_nothing(self):
        # Every head is an ancestor of the group, never inside it.
        merged = merged_list({"a": [(1,)], "b": [(1, 2)]})
        assert merged.pop_subtree((1, 2, 3)) == []
        # Heads are untouched.
        assert merged.cur_pos()[0] == (1,)

    def test_skip_to_deeper_group_consumes_ancestors(self):
        # Document order puts ancestors strictly before the group, so
        # skip_to(group) jumps over them.
        merged = merged_list({"a": [(1,), (1, 2, 3, 1)], "b": [(1, 2)]})
        head = merged.skip_to((1, 2, 3))
        assert head[0] == (1, 2, 3, 1)
        popped = merged.pop_subtree((1, 2, 3))
        assert [e[0] for e in popped] == [(1, 2, 3, 1)]
        assert merged.cur_pos() is None

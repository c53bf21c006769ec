"""Tests for corpus index construction."""

import pytest

from repro.index.corpus import build_corpus_index
from repro.xmltree.builder import paper_example_tree
from repro.xmltree.document import XMLDocument


@pytest.fixture
def corpus():
    return build_corpus_index(XMLDocument(paper_example_tree()))


class TestInvertedLists:
    def test_tokens_present(self, corpus):
        for token in ("tree", "trees", "trie", "icde", "icdt"):
            assert token in corpus.inverted

    def test_trie_postings_in_document_order(self, corpus):
        postings = list(corpus.inverted.list_for("trie"))
        deweys = [p[0] for p in postings]
        assert deweys == [
            (1, 2, 1, 1),
            (1, 3, 2, 1),
            (1, 4, 1, 1),
            (1, 5, 1, 1),
            (1, 5, 2, 1),
        ]

    def test_posting_paths(self, corpus):
        postings = list(corpus.inverted.list_for("icde"))
        paths = {corpus.path_table.string_of(p[1]) for p in postings}
        assert paths == {"/a/c/x/t", "/a/d/x/t"}

    def test_term_frequency_is_per_leaf(self, corpus):
        for posting in corpus.inverted.list_for("trie"):
            assert posting[2] == 1


class TestSubtreeCounts:
    def test_root_count_is_total(self, corpus):
        assert corpus.subtree_length((1,)) == corpus.vocabulary.total_tokens

    def test_leaf_count(self, corpus):
        assert corpus.subtree_length((1, 2, 1, 1)) == 1

    def test_internal_count(self, corpus):
        # Subtree 1.2 holds trie, tree, icde.
        assert corpus.subtree_length((1, 2)) == 3

    def test_missing_node_is_zero(self, corpus):
        assert corpus.subtree_length((1, 9)) == 0


class TestPathNodeCounts:
    def test_entity_counts(self, corpus):
        table = corpus.path_table
        assert corpus.entity_count(table.id_of(("a", "d"))) == 2
        assert corpus.entity_count(table.id_of(("a", "c"))) == 2
        assert corpus.entity_count(table.id_of(("a",))) == 1

    def test_leaf_type_count(self, corpus):
        table = corpus.path_table
        # x nodes: 1 under b + 3 under c(1.2) + 3 + 2 under d + 2 under c(1.5)
        assert corpus.entity_count(table.id_of(("a", "c", "x"))) == 5

    def test_unknown_path_is_zero(self, corpus):
        assert corpus.entity_count(9999) == 0


class TestVocabularyIntegration:
    def test_total_tokens(self, corpus):
        assert corpus.vocabulary.total_tokens == 11

    def test_collection_frequency(self, corpus):
        assert corpus.vocabulary.collection_frequency("trie") == 5
        assert corpus.vocabulary.collection_frequency("icde") == 3

    def test_element_docs_are_leaves(self, corpus):
        assert corpus.vocabulary.element_doc_count == 11


class TestHelpers:
    def test_merged_list_skips_unknown_tokens(self, corpus):
        merged = corpus.merged_list_packed(["trie", "notaword"])
        assert merged.columns.tokens == ["trie"]
        assert merged.columns.length == 5

    def test_max_path_depth(self, corpus):
        assert corpus.max_path_depth() == 4

    def test_describe_keys(self, corpus):
        description = corpus.describe()
        assert description["tokens"] == 5
        assert description["postings"] > 0

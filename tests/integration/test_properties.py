"""Cross-module property tests on randomly generated documents."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.cleaner import XCleanSuggester
from repro.core.config import XCleanConfig
from repro.index import storage_binary
from repro.index.corpus import build_corpus_index
from repro.xmltree.builder import build_tree
from repro.xmltree.document import XMLDocument
from repro.xmltree.parser import parse_document, serialize

TOKENS = ["tree", "trie", "icde", "icdt", "data", "mining", "query"]
LABELS = ["sec", "div", "item"]


@st.composite
def random_document(draw):
    """A random 2-4 level document with text leaves."""
    sections = draw(
        st.lists(
            st.tuples(
                st.sampled_from(LABELS),
                st.lists(
                    st.tuples(
                        st.sampled_from(LABELS),
                        st.lists(
                            st.sampled_from(TOKENS),
                            min_size=1,
                            max_size=4,
                        ),
                    ),
                    min_size=1,
                    max_size=3,
                ),
            ),
            min_size=1,
            max_size=4,
        )
    )
    spec = (
        "root",
        [
            (
                label,
                [
                    (leaf_label, " ".join(words))
                    for leaf_label, words in leaves
                ],
            )
            for label, leaves in sections
        ],
    )
    return XMLDocument(build_tree(spec))


class TestStorageRoundTripProperty:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(random_document())
    def test_index_roundtrip(self, document):
        corpus = build_corpus_index(document)
        loaded = storage_binary.loads_binary(
            storage_binary.dumps_binary(corpus)
        )
        assert loaded.path_node_counts == corpus.path_node_counts
        assert loaded.subtree_token_counts == corpus.subtree_token_counts
        for token in corpus.inverted.tokens():
            assert list(loaded.inverted.list_for(token)) == list(
                corpus.inverted.list_for(token)
            )
            assert dict(loaded.path_index.counts_for(token)) == dict(
                corpus.path_index.counts_for(token)
            )


class TestParserRoundTripProperty:
    @settings(max_examples=25, deadline=None)
    @given(random_document())
    def test_serialize_parse_identity(self, document):
        reparsed = parse_document(serialize(document.root))
        original = [
            (n.label, n.text) for n in document.root.iter_subtree()
        ]
        restored = [(n.label, n.text) for n in reparsed.iter_subtree()]
        assert restored == original


class TestNonEmptyResultsProperty:
    """The paper's headline guarantee, on arbitrary documents."""

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        random_document(),
        st.lists(st.sampled_from(TOKENS), min_size=1, max_size=2),
    )
    def test_every_suggestion_has_results(self, document, query_tokens):
        corpus = build_corpus_index(document)
        suggester = XCleanSuggester(
            corpus, config=XCleanConfig(max_errors=1, gamma=None)
        )
        suggestions = suggester.suggest(" ".join(query_tokens), k=10)
        for suggestion in suggestions:
            # Some node of the claimed result type contains all tokens.
            found = False
            for node, path in document.iter_with_paths():
                if "/" + "/".join(path) != suggestion.result_type:
                    continue
                text = set(node.subtree_text().split())
                if all(t in text for t in suggestion.tokens):
                    found = True
                    break
            assert found, suggestion

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        random_document(),
        st.lists(st.sampled_from(TOKENS), min_size=1, max_size=2),
        st.integers(min_value=1, max_value=5),
    )
    def test_pruned_results_subset_of_exact(
        self, document, query_tokens, gamma
    ):
        corpus = build_corpus_index(document)
        query = " ".join(query_tokens)
        exact = XCleanSuggester(
            corpus, config=XCleanConfig(max_errors=1, gamma=None)
        ).score_all(query)
        pruned = XCleanSuggester(
            corpus, config=XCleanConfig(max_errors=1, gamma=gamma)
        ).score_all(query)
        assert set(pruned) <= set(exact)
        for candidate, score in pruned.items():
            # A surviving accumulator saw at most all of the exact mass.
            assert score <= exact[candidate] * (1 + 1e-9)

"""Round-trip of the precomputed Eq. 8 normalizers (v2 binary codec)."""

import pytest

from repro.index import storage_binary
from repro.index.corpus import build_corpus_index
from repro.xmltree.builder import paper_example_tree
from repro.xmltree.document import XMLDocument


@pytest.fixture(scope="module")
def index():
    return build_corpus_index(XMLDocument(paper_example_tree()))


class TestBinaryFormat:
    def test_totals_round_trip(self, index):
        loaded = storage_binary.loads_binary(
            storage_binary.dumps_binary(index)
        )
        assert loaded.path_token_totals() == index.path_token_totals()
        assert loaded.max_path_depth() == index.max_path_depth()

    def test_formats_agree(self, index):
        # The loaded totals arrive from the file, not a post-load
        # derivation, and agree with the source corpus's.
        loaded = storage_binary.loads_binary(
            storage_binary.dumps_binary(index)
        )
        assert loaded.path_token_totals() is loaded.path_token_totals_map
        assert loaded.path_token_totals_map == index.path_token_totals()
        assert loaded.max_path_depth() == index.max_path_depth()

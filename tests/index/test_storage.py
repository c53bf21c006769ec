"""Round-trip of an index through its on-disk (v3 snapshot) form.

The field-by-field checks (name, postings, path table, subtree counts,
path statistics, path index, vocabulary) live in
``tests/index/test_snapshot.py::TestRoundTrip``.
"""

import pytest

from repro.index.corpus import build_corpus_index
from repro.index.snapshot import build_snapshot, load_snapshot
from repro.xmltree.builder import paper_example_tree
from repro.xmltree.document import XMLDocument


@pytest.fixture
def corpus():
    return build_corpus_index(
        XMLDocument(paper_example_tree(), name="paper-example")
    )


class TestRoundTrip:
    def test_file_roundtrip(self, corpus, tmp_path):
        path = str(tmp_path / "index.xcs3")
        build_snapshot(corpus, path)
        loaded = load_snapshot(path).describe()
        expected = corpus.describe()
        del expected["approx_bytes"]  # in-memory sizes, not persisted
        assert {key: loaded[key] for key in expected} == expected

"""Regression test for shallow heads in Algorithm 1's merge loop.

An occurrence shallower than the minimal depth d cannot sit under any
valid entity, so the merge loop consumes it wherever it is and moves
on.  An early implementation silently did nothing when no merged-list
head equaled the anchor; since the outer loop recomputes the same
anchor from unchanged heads, that would spin forever.
"""

from repro.core.cleaner import XCleanSuggester
from repro.core.config import XCleanConfig
from repro.index.corpus import build_corpus_index
from repro.xmltree.builder import paper_example_tree
from repro.xmltree.document import XMLDocument


class TestEndToEnd:
    def test_deep_min_depth_terminates(self):
        # With min_depth above every leaf, every anchor takes the
        # shallow path; the query must still terminate and return
        # nothing rather than loop — with skipping on and off.
        corpus = build_corpus_index(XMLDocument(paper_example_tree()))
        for use_skipping in (True, False):
            suggester = XCleanSuggester(
                corpus,
                config=XCleanConfig(
                    max_errors=1, min_depth=30, use_skipping=use_skipping
                ),
            )
            assert suggester.suggest("tree icdt", 5) == []
            # Every head was consumed as shallow: nothing skipped.
            assert suggester.last_stats.groups_processed == 0
            assert suggester.last_stats.postings_skipped == 0

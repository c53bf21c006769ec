"""Merge kernel ≡ the reference model.

``NaiveCleaner`` scores the Section IV model by exhaustive evaluation;
the merge kernel is the one Algorithm-1 loop.  At γ=None, for any
query, the kernel must return the reference's top-k — same candidate
tokens, same result types, scores within 1e-9 — with skipping on and
off.  The two skipping modes must also do the same work: the linear
mode reads every posting the galloping run reads or skips, over the
same groups.

``tests/differential/`` checks the same model across every execution
path (snapshot, service, shards); this module pins the fixed queries.
"""

import pytest

from repro.core.cleaner import XCleanSuggester
from repro.core.config import XCleanConfig
from repro.core.naive import NaiveCleaner
from repro.eval.experiments import dblp_setting
from repro.index.corpus import build_corpus_index
from repro.xmltree.builder import paper_example_tree
from repro.xmltree.document import XMLDocument


def kernel_and_reference(corpus, generator=None, **overrides):
    config = XCleanConfig(gamma=None, **overrides)
    kernel = XCleanSuggester(corpus, generator=generator, config=config)
    reference = NaiveCleaner(corpus, generator=generator, config=config)
    return kernel, reference


def assert_same_output(kernel, reference, query, k=10):
    fast = kernel.suggest(query, k)
    want = reference.suggest(query, k)
    assert [(s.tokens, s.result_type) for s in fast] == [
        (s.tokens, s.result_type) for s in want
    ]
    for got, expected in zip(fast, want):
        assert got.score == pytest.approx(expected.score, rel=1e-9)


def assert_same_work(suggester, galloping, query, k=10):
    """Reads plus skips do not depend on the skipping mode."""
    suggester.suggest(query, k)
    galloping.suggest(query, k)
    got, base = suggester.last_stats, galloping.last_stats
    if not suggester.config.use_skipping:
        assert got.postings_skipped == 0
    assert got.postings_read + got.postings_skipped == (
        base.postings_read + base.postings_skipped
    )
    assert got.groups_processed == base.groups_processed


class TestPaperExample:
    @pytest.fixture(scope="class")
    def corpus(self):
        return build_corpus_index(XMLDocument(paper_example_tree()))

    @pytest.mark.parametrize(
        "query", ["tree icdt", "tre icd", "databas", "xml tree"]
    )
    def test_same_topk(self, corpus, query):
        kernel, reference = kernel_and_reference(corpus, max_errors=1)
        assert_same_output(kernel, reference, query)

    def test_score_all_identical(self, corpus):
        kernel, reference = kernel_and_reference(corpus, max_errors=1)
        fast = kernel.score_all("tree icdt")
        naive = {
            c: s
            for c, s in reference.score_all("tree icdt").items()
            if s > 0
        }
        assert fast
        assert set(fast) == set(naive)
        for candidate, score in fast.items():
            assert score == pytest.approx(naive[candidate], rel=1e-9)

    def test_length_prior_equivalent(self, corpus):
        kernel, reference = kernel_and_reference(
            corpus, max_errors=1, prior="length"
        )
        assert_same_output(kernel, reference, "tree icdt")

    def test_no_skipping_equivalent(self, corpus):
        kernel, reference = kernel_and_reference(
            corpus, max_errors=1, use_skipping=False
        )
        assert_same_output(kernel, reference, "tree icdt")
        galloping, _ = kernel_and_reference(corpus, max_errors=1)
        assert_same_work(kernel, galloping, "tree icdt")


class TestSyntheticDBLP:
    @pytest.fixture(scope="class")
    def setting(self):
        return dblp_setting("small")

    # use_skipping=True runs the kernel with galloping advances, False
    # with the linear one-key-at-a-time scan —
    # both must match the reference on every workload query.
    @pytest.mark.parametrize("use_skipping", [True, False])
    @pytest.mark.parametrize("kind", ["CLEAN", "RAND", "RULE"])
    def test_workload_equivalence(self, setting, kind, use_skipping):
        generator = setting.generator.fresh_cache()
        kernel, reference = kernel_and_reference(
            setting.corpus, generator=generator, use_skipping=use_skipping
        )
        galloping = XCleanSuggester(
            setting.corpus,
            generator=generator,
            config=XCleanConfig(gamma=None),
        )
        answered = 0
        for record in setting.workloads[kind]:
            assert_same_output(
                kernel, reference, record.dirty_text, k=10
            )
            answered += bool(kernel.suggest(record.dirty_text, 10))
            assert_same_work(kernel, galloping, record.dirty_text)
        assert answered

"""The delta overlay (index/delta.py) against a from-scratch rebuild.

The load-bearing invariant of live updates: after any sequence of
subtree add/update/delete records, the overlay corpus must be
*indistinguishable* from an index built from scratch over the applied
logical document — same postings, same Eq. 6/8 statistics, and (the
acceptance bar) byte-identical top-k from the merge loop with skipping
on and off.
"""

import dataclasses
import random

import pytest

from repro.core.cleaner import XCleanSuggester
from repro.core.config import XCleanConfig
from repro.core.server import SuggestionService
from repro.exceptions import UpdateError
from repro.fastss.generator import VariantGenerator
from repro.index.corpus import build_corpus_index
from repro.index.delta import (
    DeltaOverlayCorpus,
    DeltaSegment,
    apply_record,
    document_from_json,
    document_to_json,
    node_to_json,
)
from repro.index.snapshot import build_snapshot, load_snapshot
from repro.index.wal import WalRecord
from repro.obs import faults
from repro.xmltree.document import XMLDocument
from repro.xmltree.node import XMLNode

WORDS = (
    "xml keyword search spelling suggestion database query tree "
    "index valid clean icde entity ranking dewey"
).split()


def el(label, *children, text=""):
    node = XMLNode(label, text=text)
    for child in children:
        node.add_child(child)
    return node


def book(title: str, author: str) -> XMLNode:
    return el(
        "book",
        el("title", text=title),
        el("author", text=author),
    )


def base_document() -> XMLDocument:
    root = el(
        "bib",
        book("database systems", "codd"),
        book("xml keyword search", "lu"),
        book("valid spelling suggestion", "chen"),
        book("query ranking", "salton"),
    )
    return XMLDocument(root, name="overlay-test")


OPS = [
    WalRecord(
        op="add", dewey=(1,),
        subtree=node_to_json(book("dewey index clean", "knuth")),
    ),
    WalRecord(op="delete", dewey=(1, 1)),
    WalRecord(
        op="update", dewey=(1, 2, 1),
        subtree=node_to_json(el("title", text="entity tree search")),
    ),
    WalRecord(
        op="add", dewey=(1, 3),
        subtree=node_to_json(el("year", text="2011")),
    ),
    WalRecord(op="delete", dewey=(1, 5)),
    WalRecord(
        op="add", dewey=(1,),
        subtree=node_to_json(book("icde spelling", "lu")),
    ),
]

QUERIES = (
    "speling sugestion",
    "xml serach",
    "databse",
    "icde speling",
    "entitee tree",
    "dewei clean",
)


def applied_copy(document, records):
    """A deep copy of ``document`` with ``records`` applied."""
    copy = document_from_json(document_to_json(document))
    results = []
    for record in records:
        results.append(apply_record(copy, record))
    return copy, results


def overlay_over(base, document, records):
    copy, results = applied_copy(document, records)
    segment = DeltaSegment()
    for result in results:
        segment.apply(result, base.tokenizer, base.path_table)
    return DeltaOverlayCorpus(base, segment), copy


def topk(corpus, query, use_skipping, k=5):
    config = XCleanConfig(use_skipping=use_skipping)
    suggester = XCleanSuggester(corpus, config=config)
    return [
        dataclasses.astuple(s) for s in suggester.suggest(query, k)
    ]


#: Both advance modes of the merge loop: galloping and linear.
SKIPPING = (True, False)


class TestStatEquivalence:
    """Raw index surfaces: postings and every scored statistic."""

    def assert_equivalent(self, overlay, reference):
        vocabulary = overlay.vocabulary
        ref_vocab = reference.vocabulary
        assert set(vocabulary.tokens()) == set(ref_vocab.tokens())
        for token in sorted(ref_vocab.tokens()):
            mine = overlay.inverted.get(token)
            theirs = reference.inverted.get(token)
            assert (mine is None) == (theirs is None), token
            if mine is not None:
                assert mine.postings == theirs.postings, token
            assert vocabulary.collection_frequency(token) == (
                ref_vocab.collection_frequency(token)
            ), token
            assert vocabulary.element_document_frequency(token) == (
                ref_vocab.element_document_frequency(token)
            ), token
            assert dict(overlay.path_index.counts_for(token)) == dict(
                reference.path_index.counts_for(token)
            ), token
        assert vocabulary.total_tokens == ref_vocab.total_tokens
        assert vocabulary.element_doc_count == (
            ref_vocab.element_doc_count
        )
        assert dict(overlay.path_node_counts) == dict(
            reference.path_node_counts
        )
        assert dict(overlay.path_token_totals_map) == dict(
            reference.path_token_totals_map
        )
        assert dict(overlay.subtree_token_counts) == dict(
            reference.subtree_token_counts
        )
        assert overlay.max_path_depth() == reference.max_path_depth()
        packed = overlay.packed_view()
        for code, length in reference.subtree_token_counts.items():
            key = packed.packer.pack(code)
            assert packed.subtree_lengths.get(key, 0) == length, code

    def test_scripted_sequence(self):
        document = base_document()
        base = build_corpus_index(document)
        overlay, applied = overlay_over(base, document, OPS)
        self.assert_equivalent(overlay, build_corpus_index(applied))

    def test_incremental_refresh_stays_exact(self):
        document = base_document()
        base = build_corpus_index(document)
        copy = document_from_json(document_to_json(document))
        segment = DeltaSegment()
        overlay = DeltaOverlayCorpus(base, segment)
        for record in OPS:
            result = apply_record(copy, record)
            segment.apply(result, base.tokenizer, base.path_table)
            overlay.refresh()
            self.assert_equivalent(overlay, build_corpus_index(copy))

    def test_randomized_sequences(self):
        rng = random.Random(20110411)
        for _ in range(5):
            document = base_document()
            base = build_corpus_index(document)
            copy = document_from_json(document_to_json(document))
            segment = DeltaSegment()
            live = []  # deweys of live (non-placeholder) books
            next_child = len(copy.root.children)
            for _ in range(rng.randrange(3, 9)):
                choice = rng.random()
                if choice < 0.5 or not live:
                    title = " ".join(rng.sample(WORDS, 3))
                    record = WalRecord(
                        op="add", dewey=(1,),
                        subtree=node_to_json(
                            book(title, rng.choice(WORDS))
                        ),
                    )
                    next_child += 1
                    live.append((1, next_child))
                elif choice < 0.75:
                    target = live.pop(rng.randrange(len(live)))
                    record = WalRecord(op="delete", dewey=target)
                else:
                    target = live[rng.randrange(len(live))]
                    title = " ".join(rng.sample(WORDS, 2))
                    record = WalRecord(
                        op="update", dewey=target,
                        subtree=node_to_json(
                            book(title, rng.choice(WORDS))
                        ),
                    )
                result = apply_record(copy, record)
                segment.apply(
                    result, base.tokenizer, base.path_table
                )
            overlay = DeltaOverlayCorpus(base, segment)
            self.assert_equivalent(overlay, build_corpus_index(copy))


class TestSuggestionEquivalence:
    """The acceptance bar: byte-identical top-k, both skipping modes."""

    @pytest.mark.parametrize("use_skipping", SKIPPING)
    def test_memory_base(self, use_skipping):
        document = base_document()
        base = build_corpus_index(document)
        overlay, applied = overlay_over(base, document, OPS)
        reference = build_corpus_index(applied)
        for query in QUERIES:
            assert topk(overlay, query, use_skipping) == (
                topk(reference, query, use_skipping)
            ), query

    @pytest.mark.parametrize("use_skipping", SKIPPING)
    def test_snapshot_base(self, tmp_path, use_skipping):
        document = base_document()
        index = build_corpus_index(document)
        path = str(tmp_path / "base.xcs3")
        build_snapshot(index, path)
        base = load_snapshot(path)
        try:
            overlay, applied = overlay_over(base, document, OPS)
            reference = build_corpus_index(applied)
            for query in QUERIES:
                assert topk(overlay, query, use_skipping) == (
                    topk(reference, query, use_skipping)
                ), query
        finally:
            base.close()


def answers(suggestions):
    return [dataclasses.astuple(s) for s in suggestions]


def snapshot_service(tmp_path, document):
    """A live-update service over a v3 snapshot of ``document``."""
    path = str(tmp_path / "live.xcs3")
    build_snapshot(build_corpus_index(document), path)
    service = SuggestionService(
        load_snapshot(path), config=XCleanConfig(max_errors=2)
    )
    service.enable_live_updates(document)
    return service


def random_record(rng, document, protected):
    """One random add/update/delete against the current document.

    Books in ``protected`` are never updated or deleted.  Adds under a
    deleted book's placeholder reuse the Dewey codes of the base nodes
    it replaced; retitles of a replaced book nest a tombstone under an
    earlier one.
    """
    words = WORDS + ["zephyr", "quasar", "nebula"]
    books = document.root.children
    live = [
        ordinal for ordinal, node in enumerate(books, 1)
        if node.children and ordinal not in protected
    ]
    choice = rng.random()
    if choice < 0.35 or not live:
        return WalRecord(
            op="add", dewey=(1,),
            subtree=node_to_json(
                book(" ".join(rng.sample(words, 3)), rng.choice(words))
            ),
        )
    if choice < 0.45:
        return WalRecord(
            op="add", dewey=(1, rng.randrange(1, len(books) + 1)),
            subtree=node_to_json(
                el("note", text=" ".join(rng.sample(words, 2)))
            ),
        )
    target = (1, rng.choice(live))
    if choice < 0.65:
        return WalRecord(op="delete", dewey=target)
    if choice < 0.8:
        return WalRecord(
            op="update", dewey=target + (1,),
            subtree=node_to_json(
                el("title", text=" ".join(rng.sample(words, 2)))
            ),
        )
    return WalRecord(
        op="update", dewey=target,
        subtree=node_to_json(
            book(" ".join(rng.sample(words, 2)), rng.choice(words))
        ),
    )


def path_counts(corpus, token):
    """f_w^p of ``token`` keyed by label path string."""
    string_of = corpus.path_table.string_of
    return {
        string_of(pid): count
        for pid, count in corpus.path_index.counts_for(token).items()
    }


class TestInterleavedUpdates:
    """Overlay caches that span many delta versions stay exact.

    Records go one at a time through ``SuggestionService.apply_updates``
    over a snapshot base, so each version's queries read merged
    columns, per-token lists, f_w^p counts and variant memos built at
    earlier versions.
    """

    QUERIES = QUERIES + ("zanziber quasr", "cod", "nebla zephir")
    PROBES = (
        "speling", "sugestion", "serach", "databse", "dewei", "cod",
        "codd", "zanziber", "zanzibar", "quaser", "nebla", "notte",
    )

    def test_every_version_matches_rebuild(self, tmp_path):
        rng = random.Random(20110413)
        document = base_document()
        service = snapshot_service(tmp_path, document)
        try:
            live = service.live
            base_vocabulary = live.base.vocabulary
            assert base_vocabulary.collection_frequency("codd") > 0
            zanzibar = len(document.root.children) + 1
            scripted = {
                # Book 1.1 is the only home of "codd".
                0: WalRecord(op="delete", dewey=(1, 1)),
                1: WalRecord(
                    op="add", dewey=(1,),
                    subtree=node_to_json(book("zanzibar quasar", "pat")),
                ),
                24: WalRecord(op="delete", dewey=(1, zanzibar)),
                30: WalRecord(
                    op="add", dewey=(1,),
                    subtree=node_to_json(book("codd relational", "ted")),
                ),
            }
            protected = {zanzibar}
            overlay = generator = None
            for step in range(40):
                record = scripted.get(step) or random_record(
                    rng, live.document, protected
                )
                if step == 24:
                    protected.clear()
                assert service.apply_updates([record]) == 1
                if overlay is None:
                    overlay = service.corpus
                    generator = overlay.variant_generator(max_errors=2)
                assert service.corpus is overlay
                # One generator serves every install.
                assert service.suggester.generator is generator
                assert overlay.variant_generator(max_errors=2) is generator
                reference = build_corpus_index(live.document)
                for token in reference.vocabulary.tokens():
                    # Path ids differ once the delta interns new paths
                    # in another order; compare by path string.
                    assert path_counts(overlay, token) == (
                        path_counts(reference, token)
                    ), (step, token)
                expected = VariantGenerator(
                    reference.vocabulary.tokens(), max_errors=2
                )
                for keyword in self.PROBES:
                    assert generator.variants(keyword) == (
                        expected.variants(keyword)
                    ), (step, keyword)
                for use_skipping in SKIPPING:
                    config = XCleanConfig(use_skipping=use_skipping)
                    mine = XCleanSuggester(overlay, config=config)
                    theirs = XCleanSuggester(reference, config=config)
                    for query in self.QUERIES:
                        assert answers(mine.suggest(query, 5)) == (
                            answers(theirs.suggest(query, 5))
                        ), (step, use_skipping, query)
                for query in self.QUERIES:
                    assert answers(service.suggest(query, 5)) == (
                        answers(XCleanSuggester(reference).suggest(
                            query, 5
                        ))
                    ), (step, query)
                vocabulary = overlay.vocabulary
                if step == 1:
                    assert "codd" not in vocabulary
                    assert "zanzibar" in vocabulary
                elif step == 24:
                    assert "zanzibar" not in vocabulary
                elif step == 30:
                    assert "codd" in vocabulary
            # Columns merged at earlier versions were read again.
            assert overlay.merged_cache_hits > 0
        finally:
            service.close()


class TestTargetedEviction:
    """A refresh evicts only what the new records changed."""

    def test_untouched_variant_set_stays_warm(self, tmp_path):
        service = snapshot_service(tmp_path, base_document())
        try:
            service.apply_updates([OPS[0]])
            overlay = service.corpus
            generation = overlay.generation

            def suggest(query):
                return XCleanSuggester(overlay).suggest(query, 5)

            def columns(keyword):
                tokens = overlay.variant_generator(
                    max_errors=2
                ).variant_tokens(keyword)
                return overlay.merged_list_packed(tokens).columns

            suggest("salton")
            suggest("speling")
            warm, cold = columns("salton"), columns("speling")
            # Retitle book 1.3: "spelling" moves (its posting is cut
            # and re-added) but stays in the vocabulary, so "speling"
            # keeps its variant set; "salton" is untouched.
            service.apply_updates([
                WalRecord(
                    op="update", dewey=(1, 3, 1),
                    subtree=node_to_json(
                        el("title", text="valid spelling hints")
                    ),
                )
            ])
            assert service.corpus is overlay
            assert overlay.generation == generation

            def memo():
                return overlay.merged_cache_hits, overlay.merged_cache_misses

            hits, misses = memo()
            suggest("salton")
            assert memo() == (hits + 1, misses)
            suggest("speling")
            assert memo() == (hits + 1, misses + 1)
            assert columns("salton") is warm
            assert columns("speling") is not cold
        finally:
            service.close()

    def test_outgrown_packer_rekeys_and_bumps_generation(self, tmp_path):
        document = base_document()
        path = str(tmp_path / "grow.xcs3")
        build_snapshot(build_corpus_index(document), path)
        base = load_snapshot(path)
        try:
            # Four books: root child ordinals fit in three bits.
            assert base.packed_view().packer.component_bits == 3
            copy = document_from_json(document_to_json(document))
            segment = DeltaSegment()
            overlay = DeltaOverlayCorpus(base, segment)
            for ordinal in range(5, 10):
                record = WalRecord(
                    op="add", dewey=(1,),
                    subtree=node_to_json(
                        book(f"{WORDS[ordinal]} clean", "knuth")
                    ),
                )
                result = apply_record(copy, record)
                assert result.new.dewey == (1, ordinal)
                segment.apply(result, base.tokenizer, base.path_table)
                overlay.refresh()
                # Ordinal 8 needs a fourth bit: re-key, bump once.
                assert overlay.generation == (1 if ordinal >= 8 else 0)
                assert overlay.packed_view().rekeyed == (ordinal >= 8)
                reference = build_corpus_index(copy)
                for query in QUERIES:
                    for use_skipping in SKIPPING:
                        assert topk(overlay, query, use_skipping) == (
                            topk(reference, query, use_skipping)
                        ), (ordinal, query, use_skipping)
        finally:
            base.close()


class TestOverlayVariantGenerator:
    """Incremental var_ε(q): O(|touched|) to build, exact output.

    Installing a fresh suggester after every update batch must not
    rebuild a deletion-neighborhood index over the whole merged
    vocabulary (that build runs under the serving tier's compute lock);
    the incremental generator wraps the base index and must return the
    *identical* sorted variant sets a from-scratch rebuild would.
    """

    PROBES = (
        "speling", "sugestion", "serach", "databse", "dewei",
        "knutt", "cod", "codd", "entitee", "indx", "quer",
    )

    def overlay_on_snapshot(self, tmp_path, records):
        document = base_document()
        path = str(tmp_path / "vg.xcs3")
        build_snapshot(build_corpus_index(document), path)
        base = load_snapshot(path)
        overlay, applied = overlay_over(base, document, records)
        return base, overlay, applied

    def test_matches_full_rebuild(self, tmp_path):
        from repro.index.delta import OverlayVariantGenerator

        base, overlay, applied = self.overlay_on_snapshot(
            tmp_path, OPS
        )
        try:
            generator = overlay.variant_generator(max_errors=2)
            assert isinstance(generator, OverlayVariantGenerator)
            reference = VariantGenerator(
                build_corpus_index(applied).vocabulary.tokens(),
                max_errors=2,
            )
            for keyword in self.PROBES:
                assert generator.variants(keyword) == (
                    reference.variants(keyword)
                ), keyword
                assert generator.variant_tokens(keyword) == (
                    reference.variant_tokens(keyword)
                ), keyword
        finally:
            base.close()

    def test_added_and_deleted_tokens(self, tmp_path):
        records = [
            WalRecord(
                op="add", dewey=(1,),
                subtree=node_to_json(book("zanzibar", "pat")),
            ),
            # Deletes book 1.1 — the only home of "codd".
            WalRecord(op="delete", dewey=(1, 1)),
        ]
        base, overlay, _ = self.overlay_on_snapshot(tmp_path, records)
        try:
            generator = overlay.variant_generator(max_errors=2)
            # Brand-new token: suggestible through the delta index.
            assert "zanzibar" in generator.variant_tokens("zanziber")
            # Fully deleted token: filtered out of base hits.
            assert "codd" not in generator.variant_tokens("codd")
            assert generator.distance_of("zanziber", "zanzibar") == 1
            assert generator.distance_of("codd", "codd") is None
        finally:
            base.close()

    def test_clean_overlay_returns_base_generator(self, tmp_path):
        from repro.index.delta import OverlayVariantGenerator

        base, overlay, _ = self.overlay_on_snapshot(tmp_path, [])
        try:
            generator = overlay.variant_generator(max_errors=2)
            assert not isinstance(generator, OverlayVariantGenerator)
        finally:
            base.close()

    def test_variant_memo_counts(self, tmp_path):
        base, overlay, _ = self.overlay_on_snapshot(tmp_path, OPS)
        try:
            generator = overlay.variant_generator(max_errors=2)
            first = generator.variants("speling")
            assert generator.variants("speling") is first
            assert generator.cache_hits == 1
            assert generator.cache_misses == 1
        finally:
            base.close()


class TestVisibilitySemantics:
    def test_new_tokens_are_suggestable(self):
        document = base_document()
        base = build_corpus_index(document)
        record = WalRecord(
            op="add", dewey=(1,),
            subtree=node_to_json(book("zanzibar consistency", "pat")),
        )
        overlay, _ = overlay_over(base, document, [record])
        answers = topk(overlay, "zanziber", "packed", True)
        assert answers, "brand-new token must be reachable"
        assert "zanzibar" in answers[0][0]

    def test_deleted_content_is_masked(self):
        document = base_document()
        base = build_corpus_index(document)
        # "codd" occurs only under book 1.1; delete it.
        record = WalRecord(op="delete", dewey=(1, 1))
        overlay, _ = overlay_over(base, document, [record])
        assert overlay.inverted.get("codd") is None
        assert not topk(overlay, "codd", "packed", True)

    def test_base_postings_untouched_pass_through(self):
        document = base_document()
        base = build_corpus_index(document)
        record = WalRecord(op="delete", dewey=(1, 1))
        overlay, _ = overlay_over(base, document, [record])
        # "salton" lives only under an untouched subtree: zero-copy.
        assert overlay.inverted.get("salton") is (
            base.inverted.get("salton")
        )

    def test_delete_keeps_sibling_deweys_stable(self):
        document = base_document()
        copy, results = applied_copy(
            document, [WalRecord(op="delete", dewey=(1, 2))]
        )
        # The placeholder keeps ordinal addressing intact: 1.3 still
        # resolves to the third book.
        node = copy.node_at((1, 3))
        assert node is not None
        assert node.children[0].text == "valid spelling suggestion"

    def test_update_of_root_rejected(self):
        document = base_document()
        copy = document_from_json(document_to_json(document))
        with pytest.raises(UpdateError):
            apply_record(
                copy, WalRecord(op="delete", dewey=(1,))
            )

    def test_missing_target_rejected(self):
        document = base_document()
        copy = document_from_json(document_to_json(document))
        with pytest.raises(UpdateError):
            apply_record(
                copy, WalRecord(op="delete", dewey=(1, 99))
            )


class TestFaultSite:
    def test_delta_apply_site_fires(self):
        document = base_document()
        base = build_corpus_index(document)
        copy, results = applied_copy(document, OPS[:1])
        segment = DeltaSegment()
        with faults.injected("delta.apply:raise"):
            with pytest.raises(Exception):
                segment.apply(
                    results[0], base.tokenizer, base.path_table
                )
        # The crash window is covered by WAL replay; the segment
        # itself must not have half-applied the record.
        assert not segment.dirty

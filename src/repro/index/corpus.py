"""The corpus index: everything XClean needs at query time, in one object.

Built from an :class:`~repro.xmltree.document.XMLDocument` in a single
document-order pass, the :class:`CorpusIndex` bundles:

* the interned :class:`PathTable` of label paths;
* the Dewey-coded :class:`InvertedIndex` (Section V-C);
* the :class:`PathIndex` with the f_w^p counts (Section V-B);
* the :class:`Vocabulary` with background-model and PY08 statistics;
* subtree token counts ``|D(r)|`` for every node whose subtree contains
  at least one token (the virtual-document lengths of Eq. 6);
* per-path node counts (the normalizer N of Eq. 8).

The index is self-contained: suggesters never touch the original tree.
"""

from __future__ import annotations

import itertools
import sys
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterable

from repro.index.inverted import (
    InvertedIndex,
    InvertedList,
    PackedInvertedList,
)
from repro.index.merge_kernel import (
    DEFAULT_INTERSECTION_CACHE_SIZE,
    IntersectionCache,
)
from repro.index.merged_list import PackedMergedColumns, PackedMergedList
from repro.index.path_index import PathIndex, path_counts_from_postings
from repro.index.tokenizer import Tokenizer
from repro.index.vocabulary import Vocabulary
from repro.obs.context import Context
from repro.obs.metrics import NULL_METRICS
from repro.xmltree.dewey import DeweyCode
from repro.xmltree.dewey_packed import DeweyPacker
from repro.xmltree.document import XMLDocument
from repro.xmltree.labelpath import PathTable


#: Default LRU bound of the merged-columns memo (per variant set).
DEFAULT_MERGED_CACHE_SIZE = 256


class PackedIndex:
    """The packed (columnar) view of a corpus — the fast query engine.

    Built once per corpus on first use and cached: a
    :class:`DeweyPacker` sized to the corpus, per-token columnar lists
    (packed lazily, so only tokens that queries actually touch pay the
    conversion), and the subtree token lengths re-keyed by packed Dewey
    so the scoring loop never materializes a tuple.
    """

    __slots__ = ("packer", "_inverted", "_lists", "_subtree_lengths",
                 "_empty")

    def __init__(self, inverted: InvertedIndex,
                 subtree_token_counts: dict[DeweyCode, int]):
        self.packer = DeweyPacker.for_codes(
            itertools.chain(
                (
                    code
                    for token in inverted.tokens()
                    for code, _pid, _tf in inverted.list_for(token)
                ),
                subtree_token_counts,
            )
        )
        self._inverted = inverted
        self._lists: dict[str, PackedInvertedList] = {}
        pack = self.packer.pack
        self._subtree_lengths: dict[int, int] = {
            pack(code): count
            for code, count in subtree_token_counts.items()
        }
        self._empty = PackedInvertedList("", [], [], [])

    @property
    def subtree_lengths(self) -> dict[int, int]:
        """|D(r)| keyed by packed Dewey code."""
        return self._subtree_lengths

    def get(self, token: str) -> PackedInvertedList | None:
        """Packed posting list for ``token``, or ``None`` if absent."""
        packed = self._lists.get(token)
        if packed is None:
            source = self._inverted.get(token)
            if source is None:
                return None
            packed = PackedInvertedList.from_inverted(source, self.packer)
            self._lists[token] = packed
        return packed


class QueryEngineMixin:
    """The query-time engine API shared by every corpus flavour.

    Both the in-memory :class:`CorpusIndex` and the mmap-backed
    :class:`~repro.index.snapshot.SnapshotCorpusIndex` expose the same
    accessors to the suggesters: memoized merged packed columns (the
    merge loop), precomputed Eq. 8 normalizers, and a metrics binding
    for the cache counters.  Subclasses must provide
    ``path_node_counts``, ``path_token_totals_map``, ``max_depth``, and
    ``packed_view()``; the mixin owns the caches.
    """

    def _init_query_caches(self) -> None:
        # Query-time caches; `= None` sentinels keep CorpusIndex
        # picklable and the packed view lazily built.  The merged-columns
        # memo is LRU-bounded and keyed by (generation, variant set), so
        # a snapshot hot-swap that bumps the generation can never serve
        # stale columns.
        self._packed_merged_cache: OrderedDict[
            tuple, PackedMergedColumns
        ] = OrderedDict()
        self.merged_cache_size: int | None = DEFAULT_MERGED_CACHE_SIZE
        self.merged_cache_hits = 0
        self.merged_cache_misses = 0
        self.merged_cache_evictions = 0
        #: Generation number of the data this index serves.  Bumped
        #: when every packed key may have changed — a delta overlay
        #: outgrowing its packer (see ``bump_generation``); every
        #: generation-keyed cache entry from before the bump becomes
        #: unreachable.  Narrower changes use ``evict_tokens``.
        self.generation = 0
        #: Merge-kernel plan cache (``index/merge_kernel``): the
        #: precomputed group runs per variant-set intersection.
        self.intersection_cache = IntersectionCache(
            DEFAULT_INTERSECTION_CACHE_SIZE
        )
        self._metrics = NULL_METRICS

    def configure_query_caches(
        self,
        merged_cache_size: int | None = DEFAULT_MERGED_CACHE_SIZE,
        intersection_cache_size: int | None = (
            DEFAULT_INTERSECTION_CACHE_SIZE
        ),
    ) -> None:
        """Apply cache bounds from an :class:`XCleanConfig`.

        Idempotent: re-applying the current bounds touches nothing, so
        several suggesters sharing one corpus (the normal serving
        arrangement) do not thrash each other's warm caches.  Shrinking
        trims LRU-first; the last caller's bounds win.
        """
        if merged_cache_size != self.merged_cache_size:
            self.merged_cache_size = merged_cache_size
            self._trim_merged_caches()
        if intersection_cache_size != self.intersection_cache.capacity:
            self.intersection_cache.resize(intersection_cache_size)

    def bump_generation(self) -> None:
        """Invalidate every generation-keyed cache.

        The old entries are dropped eagerly — they are unreachable
        anyway (all lookups embed the new generation) and holding them
        would pin the previous snapshot's columns in memory.
        """
        self.generation += 1
        self._packed_merged_cache.clear()
        self.intersection_cache.clear()

    def evict_tokens(self, tokens: Iterable[str]) -> None:
        """Drop the memo entries and merge plans over changed tokens.

        The live-update refresh path: a variant set holding none of
        ``tokens`` keeps its merged columns and plans.  That is exact
        because plans hold only posting data (``GroupRun.occurrences``)
        — scoring reads lengths, entity counts and the language model
        at replay time.
        """
        changed = set(tokens)
        if not changed:
            return
        packed_cache = self._packed_merged_cache
        stale = {
            packed_cache.pop(key).uid
            for key in [
                k for k in packed_cache if not changed.isdisjoint(k[1])
            ]
        }
        self.intersection_cache.evict_columns(stale)

    def _trim_merged_caches(self) -> None:
        cap = self.merged_cache_size
        if cap is None:
            return
        cache = self._packed_merged_cache
        while len(cache) > cap:
            cache.popitem(last=False)
            self.merged_cache_evictions += 1
            self._metrics.inc("merged_cache_evictions_total")

    def bind_metrics(self, metrics) -> None:
        """Attach a MetricsRegistry to the cache hooks.

        One registry per corpus (the last binding wins): a
        ``SuggestionService`` binds its own registry so the
        ``merged_cache_*`` counters and packed-view build time show up
        in its snapshot.  Pass ``None`` to detach.
        """
        self._metrics = metrics or NULL_METRICS

    # ------------------------------------------------------------------
    # Query-time accessors
    # ------------------------------------------------------------------

    def entity_count(self, path_id: int) -> int:
        """N — number of nodes of the given type in the document."""
        return self.path_node_counts.get(path_id, 0)

    def merged_list_packed(self, tokens: Iterable[str]) -> PackedMergedList:
        """Packed merged list over the given variants.

        The *physical merge* of the variant columns is memoized, not
        just the list lookup: the same keyword recurs across queries,
        and re-merging costs O(postings log postings) while a cursor
        over cached columns costs O(1).
        """
        cache = self._packed_merged_cache
        key = (self.generation, tuple(tokens))
        columns = cache.get(key)
        if columns is None:
            self.merged_cache_misses += 1
            self._metrics.inc("merged_cache_misses_total")
            view = self.packed_view()
            lists = []
            for token in key[1]:
                found = view.get(token)
                if found is not None:
                    lists.append(found)
            columns = PackedMergedColumns(lists)
            cache[key] = columns
            self._trim_merged_caches()
        else:
            cache.move_to_end(key)
            self.merged_cache_hits += 1
            self._metrics.inc("merged_cache_hits_total")
        return PackedMergedList(columns=columns)

    def path_token_totals(self) -> dict[int, float]:
        """Σ |D(r)| over the nodes r of each label path.

        The normalizer W_p of Eq. 8 under the *length* entity prior
        (P(r|T) ∝ |D(r)|): longer entities are a priori more likely
        search targets.  Precomputed at construction (see
        ``path_token_totals_map``) so the query path is a dict lookup.
        """
        assert self.path_token_totals_map is not None
        return self.path_token_totals_map

    def max_path_depth(self) -> int:
        """Deepest label path in the corpus (precomputed)."""
        assert self.max_depth is not None
        return self.max_depth


@dataclass
class CorpusIndex(QueryEngineMixin):
    """All index structures for one corpus (see module docstring)."""

    name: str
    path_table: PathTable
    inverted: InvertedIndex
    path_index: PathIndex
    vocabulary: Vocabulary
    subtree_token_counts: dict[DeweyCode, int]
    path_node_counts: dict[int, int]
    tokenizer: Tokenizer = field(default_factory=Tokenizer)
    #: W_p of Eq. 8 per path id; precomputed at build time (and
    #: persisted), derived here only for hand-assembled indexes.
    path_token_totals_map: dict[int, float] | None = None
    #: Deepest label path; precomputed for the same reason.
    max_depth: int | None = None

    def __post_init__(self):
        if self.path_token_totals_map is None:
            self.path_token_totals_map = self._derive_path_token_totals()
        if self.max_depth is None:
            self.max_depth = max(
                (len(labels) for labels in self.path_table), default=0
            )
        self._packed: PackedIndex | None = None
        self._init_query_caches()

    def subtree_length(self, dewey: DeweyCode) -> int:
        """|D(r)| — token count of the virtual document rooted at r."""
        return self.subtree_token_counts.get(dewey, 0)

    def packed_view(self) -> PackedIndex:
        """The columnar view used by the packed engine (built once)."""
        packed = self._packed
        if packed is None:
            with Context(self._metrics).stage("pack_index"):
                packed = PackedIndex(
                    self.inverted, self.subtree_token_counts
                )
            self._packed = packed
        return packed

    def _derive_path_token_totals(self) -> dict[int, float]:
        """One-pass derivation of W_p from the postings (build time)."""
        # Leaf lengths: total tokens per text-bearing node.
        leaf_lengths: dict[DeweyCode, int] = {}
        leaf_paths: dict[DeweyCode, int] = {}
        for token in self.inverted.tokens():
            for dewey, path_id, tf in self.inverted.list_for(token):
                leaf_lengths[dewey] = leaf_lengths.get(dewey, 0) + tf
                leaf_paths[dewey] = path_id
        totals: dict[int, float] = {}
        table = self.path_table
        for dewey, length in leaf_lengths.items():
            path_id = leaf_paths[dewey]
            for depth in range(1, len(dewey) + 1):
                ancestor = table.prefix_id(path_id, depth)
                totals[ancestor] = totals.get(ancestor, 0.0) + length
        return totals

    def describe(self, generator=None) -> dict:
        """Summary counters (used in logs and benchmark headers).

        Besides the classic counts, the ``approx_bytes`` sub-dict gives
        an approximate in-memory size breakdown — tuple postings,
        packed columns (when built), vocabulary, subtree lengths, and
        (when a :class:`~repro.fastss.generator.VariantGenerator` is
        passed) its FastSS deletion-neighborhood buckets — so snapshot
        savings are verifiable number against number.
        """
        return {
            "tokens": len(self.vocabulary),
            "postings": self.inverted.total_postings(),
            "paths": len(self.path_table),
            "total_occurrences": self.vocabulary.total_tokens,
            "approx_bytes": approximate_index_bytes(
                self, generator=generator
            ),
        }


#: Amortized bytes per dict entry (key/value slots, hash, and the
#: boxed small value), calibrated against CPython 3.10-3.12 dicts at
#: typical fill factors.  An estimate, not an audit: ``describe`` only
#: needs the breakdown to be *comparable* across corpus flavours.
_DICT_ENTRY_BYTES = 104


def fastss_bucket_bytes(generator) -> int:
    """Bytes held by a generator's FastSS bucket tables.

    Accepts a :class:`~repro.fastss.generator.VariantGenerator` or a
    bare variant index; sums the digest, start and id columns of every
    table (one plain table, or short + prefix + suffix).
    """
    index = getattr(generator, "_index", generator)
    tables = getattr(index, "tables", None)
    if tables is None:
        return 0
    return sum(table.nbytes for table in tables().values())


def approximate_index_bytes(index, generator=None) -> dict[str, int]:
    """Approximate in-memory footprint of the index structures (bytes).

    Deterministic for equal indexes: every term derives from element
    counts and ``sys.getsizeof`` of the stored objects, both of which
    survive a persistence round-trip — which is what lets the
    round-trip tests compare ``describe()`` outputs with ``==``.

    ``postings_packed`` is the footprint the columnar engine pays (one
    int64 key plus two int32 side columns per posting), reported
    whether or not the packed view has been built yet, so the tuple vs
    packed vs snapshot comparison is always available.
    """
    sizeof = sys.getsizeof
    inverted = index.inverted

    postings_tuple = 0
    postings_packed = 0
    for token in inverted.tokens():
        lst = inverted.list_for(token)
        n = len(lst)
        postings_tuple += sizeof(lst.postings)
        postings_packed += 16 * n + 3 * 64
        if n == 0:
            continue
        first = lst[0]
        # Per posting: the 3-tuple, its Dewey tuple, and the list slot.
        # Dewey components are small ints (interned), charged nothing.
        postings_tuple += n * (sizeof(first) + sizeof(first[0]) + 8)

    vocabulary = 0
    for token, _cf, df, max_rel in index.vocabulary.export_rows():
        vocabulary += sizeof(token) + _DICT_ENTRY_BYTES
        if df:
            vocabulary += _DICT_ENTRY_BYTES
        if max_rel:
            vocabulary += _DICT_ENTRY_BYTES + sizeof(max_rel)

    subtree_lengths = sizeof(index.subtree_token_counts)
    for dewey in index.subtree_token_counts:
        subtree_lengths += sizeof(dewey) + _DICT_ENTRY_BYTES

    path_index_bytes = 0
    for token in index.path_index.tokens():
        counts = index.path_index.counts_for(token)
        path_index_bytes += (
            sizeof(token)
            + sizeof(counts)
            + len(counts) * _DICT_ENTRY_BYTES
        )

    # Merge-kernel plan cache (bounded LRU; zero until queries populate
    # it) — surfaced so its budget is auditable next to the structures
    # it shadows.
    plan_cache = getattr(index, "intersection_cache", None)
    breakdown = {
        "postings_tuple": postings_tuple,
        "postings_packed": postings_packed,
        "vocabulary": vocabulary,
        "subtree_lengths": subtree_lengths,
        "path_index": path_index_bytes,
        "merge_plans": (
            plan_cache.approx_bytes() if plan_cache is not None else 0
        ),
    }
    if generator is not None:
        breakdown["fastss_buckets"] = fastss_bucket_bytes(generator)
    breakdown["total"] = sum(breakdown.values())
    return breakdown


def build_corpus_index(
    document: XMLDocument, tokenizer: Tokenizer | None = None
) -> CorpusIndex:
    """Index an XML document in one document-order pass.

    Tokenization follows the supplied tokenizer (default: the paper's
    conventions — lowercase, no stop words, no numbers, length >= 3).
    """
    tokenizer = tokenizer or Tokenizer()
    path_table = PathTable()
    vocabulary = Vocabulary()
    postings_by_token: dict[str, list[tuple[DeweyCode, int, int]]] = {}
    subtree_counts: dict[DeweyCode, int] = {}
    path_node_counts: dict[int, int] = {}

    for node, path in document.iter_with_paths():
        path_id = path_table.intern(path)
        path_node_counts[path_id] = path_node_counts.get(path_id, 0) + 1
        if not node.text:
            continue
        counts: dict[str, int] = {}
        for token in tokenizer.iter_tokens(node.text):
            counts[token] = counts.get(token, 0) + 1
        if not counts:
            continue
        dewey = node.dewey
        assert dewey is not None
        for token, tf in counts.items():
            postings_by_token.setdefault(token, []).append(
                (dewey, path_id, tf)
            )
            vocabulary.add_occurrence(token, tf)
        vocabulary.register_element_doc(counts)
        length = sum(counts.values())
        for depth in range(1, len(dewey) + 1):
            prefix = dewey[:depth]
            subtree_counts[prefix] = subtree_counts.get(prefix, 0) + length

    inverted = InvertedIndex()
    path_index = PathIndex()
    for token, postings in postings_by_token.items():
        inverted.add_list(InvertedList(token, postings))
        path_index.set_counts(
            token, path_counts_from_postings(postings, path_table)
        )

    return CorpusIndex(
        name=document.name,
        path_table=path_table,
        inverted=inverted,
        path_index=path_index,
        vocabulary=vocabulary,
        subtree_token_counts=subtree_counts,
        path_node_counts=path_node_counts,
        tokenizer=tokenizer,
    )

"""Indexing substrate: tokenizer, vocabulary, inverted lists, path index.

Implements the data structures of Sections V-B and V-C of the paper: the
Dewey-coded inverted index, its packed columns (merged per keyword by
``index/merged_list`` for Algorithm 1), and the path index that feeds
result-type inference.
"""

from repro.index.corpus import CorpusIndex, build_corpus_index
from repro.index.inverted import InvertedIndex, InvertedList, Posting
from repro.index.path_index import (
    PathIndex,
    build_path_index,
    path_counts_from_postings,
)
from repro.index.storage_binary import (
    dumps_binary,
    load_index_binary,
    loads_binary,
    save_index_binary,
)
from repro.index.tokenizer import (
    DEFAULT_STOPWORDS,
    Tokenizer,
    TokenizerConfig,
)
from repro.index.vocabulary import Vocabulary

__all__ = [
    "CorpusIndex",
    "DEFAULT_STOPWORDS",
    "InvertedIndex",
    "InvertedList",
    "PathIndex",
    "Posting",
    "Tokenizer",
    "TokenizerConfig",
    "Vocabulary",
    "build_corpus_index",
    "build_path_index",
    "dumps_binary",
    "load_index_binary",
    "loads_binary",
    "path_counts_from_postings",
    "save_index_binary",
]

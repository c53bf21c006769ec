"""XClean: valid spelling suggestions for XML keyword queries.

A full reproduction of *"XClean: Providing Valid Spelling Suggestions
for XML Keyword Queries"* (Lu, Wang, Li, Liu — ICDE 2011), including
every substrate the paper depends on: the XML tree model with Dewey
codes, a Dewey-coded inverted index with packed merged-list skipping,
FastSS variant generation, the probabilistic scoring framework,
Algorithm 1, the SLCA-semantics variant, the PY08 baseline, and the complete
evaluation harness.

Quickstart::

    from repro import XCleanSuggester, XMLDocument, build_corpus_index

    doc = XMLDocument.from_string("<dblp>...</dblp>")
    corpus = build_corpus_index(doc)
    suggester = XCleanSuggester(corpus)
    for s in suggester.suggest("tree icdt", k=3):
        print(s.text, s.score)
"""

from repro.baselines import (
    DictionaryCorrector,
    LogBasedCorrector,
    PY08Config,
    PY08Suggester,
)
from repro.core import (
    DirichletLanguageModel,
    ELCACleanSuggester,
    EntitySearch,
    ExponentialErrorModel,
    MaysErrorModel,
    NaiveCleaner,
    ResultTypeFinder,
    SearchResult,
    SLCACleanSuggester,
    SpaceAwareSuggester,
    Suggester,
    Suggestion,
    XCleanConfig,
    XCleanSuggester,
)
from repro.exceptions import (
    ConfigurationError,
    QueryError,
    ReproError,
    StorageError,
    XMLParseError,
)
from repro.fastss import (
    CompositeVariantGenerator,
    PhoneticIndex,
    VariantGenerator,
    edit_distance,
    soundex,
)
from repro.index import CorpusIndex, Tokenizer, build_corpus_index
from repro.xmltree import XMLDocument, XMLNode, build_tree, parse_document

__version__ = "1.0.0"

__all__ = [
    "CompositeVariantGenerator",
    "ConfigurationError",
    "CorpusIndex",
    "DictionaryCorrector",
    "DirichletLanguageModel",
    "ELCACleanSuggester",
    "EntitySearch",
    "ExponentialErrorModel",
    "LogBasedCorrector",
    "MaysErrorModel",
    "NaiveCleaner",
    "PY08Config",
    "PY08Suggester",
    "PhoneticIndex",
    "QueryError",
    "ReproError",
    "ResultTypeFinder",
    "SearchResult",
    "SLCACleanSuggester",
    "SpaceAwareSuggester",
    "StorageError",
    "Suggester",
    "Suggestion",
    "Tokenizer",
    "VariantGenerator",
    "XCleanConfig",
    "XCleanSuggester",
    "XMLDocument",
    "XMLNode",
    "XMLParseError",
    "__version__",
    "build_corpus_index",
    "build_tree",
    "edit_distance",
    "soundex",
    "parse_document",
]

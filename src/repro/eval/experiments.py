"""The standard experimental setting of Section VII, assembled once.

Benchmarks and examples share the two datasets (synthetic DBLP and
Wikipedia/INEX substitutes), their indexes, the six query workloads, and
the suggester factories through this module.  Everything is memoized per
process and per scale, so the bench suite builds each corpus exactly
once.

Scales:

* ``small`` — seconds to build; used by integration tests.
* ``default`` — the benchmark scale; large enough that every shape the
  paper reports (speedups, workload orderings) is visible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.baselines.dictionary import (
    LogBasedCorrector,
)
from repro.baselines.py08 import PY08Config, PY08Suggester
from repro.core.cleaner import XCleanSuggester
from repro.core.config import XCleanConfig
from repro.core.naive import NaiveCleaner
from repro.core.slca_cleaner import SLCACleanSuggester
from repro.datasets.misspellings import COMMON_MISSPELLINGS
from repro.datasets.queries import QueryRecord, build_query_workloads
from repro.datasets.synthetic_dblp import DBLPConfig, generate_dblp
from repro.datasets.synthetic_wiki import WikiConfig, generate_wiki
from repro.fastss.generator import VariantGenerator
from repro.index.corpus import CorpusIndex, build_corpus_index
from repro.xmltree.document import XMLDocument

#: ε for the CLEAN and RAND workloads (RAND injects single edits).
EVAL_MAX_ERRORS = 2

#: ε for the RULE workloads: common human misspellings are often
#: further from their correction, so "we need to explore a larger space
#: of variants … than the RAND ones" (Section VII-A).  This is also
#: what makes RULE queries the slowest rows of Table VI.
RULE_MAX_ERRORS = 3


def eps_for(kind: str) -> int:
    """Variant-generation radius for a workload kind."""
    return RULE_MAX_ERRORS if kind == "RULE" else EVAL_MAX_ERRORS

_SCALES = {
    "small": {
        "dblp": DBLPConfig(publications=250, extra_vocabulary=80),
        "wiki": WikiConfig(articles=40, extra_vocabulary=400),
        "queries": 12,
    },
    "default": {
        "dblp": DBLPConfig(publications=12000, extra_vocabulary=350),
        "wiki": WikiConfig(articles=1000, extra_vocabulary=4000),
        "queries": 40,
    },
}

#: Query length ranges per dataset.  The paper's DBLP queries are an
#: author last name plus contribution keywords (2-4 words); the INEX
#: topics range from 1 to 7 words with average 2.5 — we sample 2-4 so
#: the multi-keyword machinery is exercised on every query while the
#: average stays near the paper's.
_QUERY_WORDS = {
    "DBLP": (2, 3),
    "INEX": (2, 4),
}


@dataclass
class DatasetSetting:
    """One dataset's complete experimental context."""

    label: str
    document: XMLDocument
    corpus: CorpusIndex
    workloads: dict[str, list[QueryRecord]]
    generator: VariantGenerator

    # ------------------------------------------------------------------
    # Suggester factories (sharing the expensive variant generator)
    # ------------------------------------------------------------------

    def xclean(
        self,
        gamma: int | None = 1000,
        beta: float = 5.0,
        min_depth: int = 2,
        use_skipping: bool = True,
        max_errors: int = EVAL_MAX_ERRORS,
        **overrides,
    ) -> XCleanSuggester:
        return XCleanSuggester(
            self.corpus,
            generator=self.generator.fresh_cache(),
            config=XCleanConfig(
                max_errors=max_errors,
                beta=beta,
                gamma=gamma,
                min_depth=min_depth,
                use_skipping=use_skipping,
                **overrides,
            ),
        )

    def xclean_slca(
        self,
        gamma: int | None = 1000,
        beta: float = 5.0,
        max_errors: int = EVAL_MAX_ERRORS,
    ) -> SLCACleanSuggester:
        return SLCACleanSuggester(
            self.corpus,
            generator=self.generator.fresh_cache(),
            config=XCleanConfig(
                max_errors=max_errors, beta=beta, gamma=gamma
            ),
        )

    def naive(
        self, beta: float = 5.0, max_errors: int = EVAL_MAX_ERRORS
    ) -> NaiveCleaner:
        return NaiveCleaner(
            self.corpus,
            generator=self.generator.fresh_cache(),
            config=XCleanConfig(
                max_errors=max_errors, beta=beta, gamma=None
            ),
        )

    def py08(
        self, gamma: int = 100, max_errors: int = EVAL_MAX_ERRORS
    ) -> PY08Suggester:
        return PY08Suggester(
            self.corpus,
            generator=self.generator.fresh_cache(),
            config=PY08Config(max_errors=max_errors, gamma=gamma),
        )

    def se1(self, max_errors: int = EVAL_MAX_ERRORS) -> LogBasedCorrector:
        return LogBasedCorrector(
            self.corpus,
            misspelling_map=self.query_log_map(),
            generator=self.generator.fresh_cache(),
            max_errors=max_errors,
        )

    def se2(self, max_errors: int = EVAL_MAX_ERRORS) -> LogBasedCorrector:
        return LogBasedCorrector(
            self.corpus,
            misspelling_map=self.query_log_map(coverage=0.65),
            generator=self.generator.fresh_cache(),
            max_errors=max_errors,
        )

    def query_log_map(self, coverage: float = 0.75) -> dict[str, str]:
        """A search engine's simulated query-log knowledge.

        A real engine's logs contain the misspellings humans commonly
        type — i.e. most of what the RULE perturbation produces — plus
        the public common-misspellings list.  We give each engine the
        list and a deterministic ``coverage`` share of the RULE
        workload's per-word corrections (logs are broad but not
        omniscient; SE1's is broader than SE2's), reproducing the
        paper's observation that the SEs handle RULE noticeably better
        than RAND.
        """
        log: dict[str, str] = dict(COMMON_MISSPELLINGS)
        for record in self.workloads.get("RULE", ()):
            for dirty_word, clean_word in zip(
                record.dirty, record.golden[0]
            ):
                if dirty_word == clean_word:
                    continue
                # Stable pseudo-random subset selection.
                if (sum(map(ord, dirty_word)) % 100) >= coverage * 100:
                    continue
                log.setdefault(dirty_word, clean_word)
        return log


def _build_setting(
    label: str,
    document: XMLDocument,
    query_count: int,
    seed: int,
    query_style: str = "generic",
) -> DatasetSetting:
    corpus = build_corpus_index(document)
    min_words, max_words = _QUERY_WORDS.get(label, (2, 3))
    workloads = build_query_workloads(
        corpus,
        document,
        count=query_count,
        seed=seed,
        style=query_style,
        min_words=min_words,
        max_words=max_words,
    )
    generator = VariantGenerator(
        corpus.vocabulary.tokens(),
        max_errors=RULE_MAX_ERRORS,
        partition_threshold=6,
    )
    return DatasetSetting(
        label=label,
        document=document,
        corpus=corpus,
        workloads=workloads,
        generator=generator,
    )


@lru_cache(maxsize=4)
def dblp_setting(scale: str = "default") -> DatasetSetting:
    """The DBLP-substitute dataset at the requested scale."""
    params = _SCALES[scale]
    corpus = generate_dblp(params["dblp"])
    return _build_setting(
        "DBLP",
        corpus.document,
        params["queries"],
        seed=101,
        query_style="dblp",
    )


@lru_cache(maxsize=4)
def wiki_setting(scale: str = "default") -> DatasetSetting:
    """The INEX-substitute dataset at the requested scale."""
    params = _SCALES[scale]
    corpus = generate_wiki(params["wiki"])
    return _build_setting(
        "INEX", corpus.document, params["queries"], seed=202
    )


def all_settings(scale: str = "default") -> list[DatasetSetting]:
    """Both datasets, DBLP first (the paper's presentation order)."""
    return [dblp_setting(scale), wiki_setting(scale)]


def workload_label(setting: DatasetSetting, kind: str) -> str:
    """Names like "DBLP-RAND" used across the paper's tables."""
    return f"{setting.label}-{kind}"

"""Differential harness: every execution path of Algorithm 1 agrees.

Inputs are seeded small corpora — synthetic DBLP, synthetic Wikipedia,
the paper's example tree, and the small DBLP evaluation setting with
its CLEAN/RAND/RULE workloads — plus seeded queries of 1–3 tokens that
co-occur in one leaf, each token misspelled by
``misspellings.rule_misspell``.  At γ=None the paths are:

* the merge kernel, cold (merged-columns memo cleared first);
* the same suggester again, over the columns the cold run memoized;
* the linear mode (``use_skipping=False``);
* a v3 snapshot of the same corpus;
* ``SuggestionService.suggest_detailed``;
* in-process 2-shard and 4-shard ``ShardedSuggestionService``
  coordinators, whose legs score with the coordinator's variants.

Checks: byte-identical top-k (tokens, score, result type) on every
path; ``score_all`` equal to the ``NaiveCleaner`` oracle (the Section
IV model) to a relative 1e-9; every suggestion returns at least one
``EntitySearch`` result (the paper's validity guarantee); the linear
mode reads exactly what the galloping run reads plus skips; the memo
run finds every variant set memoized and repeats the cold counters;
and at γ ∈ {1, 4} in-loop pruning changes nothing — every prune,
scored the unpruned way, would have been rejected by the accumulator.

The SLCA and ELCA suggesters (Section VI-B) run the same loop: their
``score_all`` is identical cold, over memoized columns, in linear mode
and over the snapshot, matches a brute-force Eq. 8/9 over LCA entities
to a relative 1e-9, and reads and skips exactly what the node-type run
does.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import pytest

from repro.core.candidates import CandidateSpace
from repro.core.cleaner import XCleanSuggester
from repro.core.config import XCleanConfig
from repro.core.language_model import DEFAULT_MU
from repro.core.naive import NaiveCleaner
from repro.core.search import EntitySearch
from repro.core.server import SuggestionService
from repro.core.shards import ShardedSuggestionService
from repro.core.slca_cleaner import ELCACleanSuggester, SLCACleanSuggester
from repro.datasets.misspellings import rule_misspell
from repro.datasets.synthetic_dblp import DBLPConfig, generate_dblp
from repro.datasets.synthetic_wiki import WikiConfig, generate_wiki
from repro.eval.experiments import dblp_setting
from repro.exceptions import ConfigurationError
from repro.index.corpus import build_corpus_index
from repro.index.sharding import build_sharded_snapshot
from repro.index.snapshot import build_snapshot, load_snapshot
from repro.slca.elca import elca_brute_force
from repro.slca.multiway import slca_brute_force
from repro.xmltree.builder import paper_example_tree
from repro.xmltree.document import XMLDocument

K = 10
QUERIES_PER_CORPUS = 20
#: Queries per corpus also run under the length prior.
LENGTH_PRIOR_QUERIES = 6
#: Fixed queries over the paper's example tree (Fig. 1).
PAPER_QUERIES = ("tree icdt", "tre icd", "databas", "xml tree")
#: Query seed per generated corpus.
QUERY_SEEDS = {"dblp": 11, "wiki": 12, "paper": 13}
CORPORA = ("dblp", "wiki", "paper", "dblp-small")


def rows_of(suggestions):
    return [(s.tokens, s.score, s.result_type) for s in suggestions]


def seeded_queries(document, tokenizer, seed, count):
    """``count`` distinct queries of 1-3 tokens sharing one leaf.

    Tokens of one leaf co-occur in every entity above it, so the
    intended query is always answerable; each token is misspelled.
    """
    rng = random.Random(seed)
    leaves = []
    for node in document.iter_nodes():
        tokens = sorted(
            {t for t in tokenizer.tokenize(node.text or "") if len(t) > 3}
        )
        if tokens:
            leaves.append(tokens)
    queries: list[str] = []
    while len(queries) < count:
        tokens = rng.choice(leaves)
        picked = rng.sample(tokens, rng.randint(1, min(3, len(tokens))))
        query = " ".join(rule_misspell(token, rng) for token in picked)
        if tokenizer.tokenize(query) and query not in queries:
            queries.append(query)
    return queries


def load_case(name):
    """(corpus, queries) of one harness corpus."""
    if name == "dblp-small":
        setting = dblp_setting("small")
        queries = [
            record.dirty_text
            for kind in ("CLEAN", "RAND", "RULE")
            for record in setting.workloads[kind]
        ]
        return setting.corpus, list(dict.fromkeys(queries))
    if name == "paper":
        document = XMLDocument(paper_example_tree(), name="paper-example")
    elif name == "dblp":
        document = generate_dblp(
            DBLPConfig(publications=150, seed=1501)
        ).document
    else:
        document = generate_wiki(
            WikiConfig(articles=25, extra_vocabulary=400, seed=1502)
        ).document
    corpus = build_corpus_index(document)
    queries = seeded_queries(
        document, corpus.tokenizer, QUERY_SEEDS[name], QUERIES_PER_CORPUS
    )
    if name == "paper":
        queries = list(PAPER_QUERIES) + queries
    return corpus, queries


@dataclass
class Run:
    """One query's answers and stats on every path."""

    rows: dict[str, list] = field(default_factory=dict)
    stats: dict[str, object] = field(default_factory=dict)


@dataclass
class Case:
    corpus: object
    queries: list[str]
    runs: dict[str, Run]
    snapshot_path: str


@pytest.fixture(scope="module", params=CORPORA)
def case(request, tmp_path_factory):
    name = request.param
    corpus, queries = load_case(name)
    config = XCleanConfig(gamma=None)
    directory = tmp_path_factory.mktemp(f"differential-{name}")
    snapshot_path = str(directory / "index.xcs3")
    build_snapshot(corpus, snapshot_path)
    manifests = {}
    for count in (2, 4):
        shard_dir = directory / f"shards{count}"
        shard_dir.mkdir()
        manifests[count] = build_sharded_snapshot(
            corpus, str(shard_dir), count
        )
    snapshot = load_snapshot(snapshot_path)
    kernel = XCleanSuggester(corpus, config=config)
    linear = XCleanSuggester(
        corpus, config=XCleanConfig(gamma=None, use_skipping=False)
    )
    from_snapshot = XCleanSuggester(snapshot, config=config)
    runs: dict[str, Run] = {}
    try:
        with SuggestionService(
            corpus, config=config
        ) as service, ShardedSuggestionService(
            manifests[2], config=config
        ) as sharded, ShardedSuggestionService(
            manifests[4], config=config
        ) as sharded4:
            for query in queries:
                run = runs[query] = Run()
                # A cold run merges its own columns, whatever came
                # before.
                corpus.bump_generation()
                for path, suggester in (
                    ("cold", kernel),
                    ("memo", kernel),
                    ("linear", linear),
                    ("snapshot", from_snapshot),
                ):
                    run.rows[path] = rows_of(suggester.suggest(query, K))
                    run.stats[path] = suggester.last_stats
                for path, server in (
                    ("service", service),
                    ("sharded", sharded),
                    ("sharded4", sharded4),
                ):
                    got, stats = server.suggest_detailed(query, K)
                    run.rows[path] = rows_of(got)
                    run.stats[path] = stats
    finally:
        snapshot.close()
    return Case(corpus, queries, runs, snapshot_path)


class TestPaths:
    def test_topk_identical_on_every_path(self, case):
        answered = 0
        for query, run in case.runs.items():
            reference = run.rows["cold"]
            answered += bool(reference)
            for path, rows in run.rows.items():
                assert rows == reference, (query, path)
        # The harness must exercise scoring, not agree on emptiness.
        assert answered >= len(case.queries) // 2

    def test_scores_match_naive_oracle(self, case):
        config = XCleanConfig(gamma=None)
        kernel = XCleanSuggester(case.corpus, config=config)
        oracle = NaiveCleaner(case.corpus, config=config)
        for query in case.queries:
            fast = kernel.score_all(query)
            naive = {
                c: s for c, s in oracle.score_all(query).items() if s > 0
            }
            assert set(fast) == set(naive), query
            for candidate, score in fast.items():
                assert score == pytest.approx(
                    naive[candidate], rel=1e-9
                ), (query, candidate)

    def test_every_suggestion_has_results(self, case):
        search = EntitySearch(case.corpus)
        for query, run in case.runs.items():
            for tokens, _score, _type in run.rows["cold"]:
                assert search.search(" ".join(tokens), 1), (query, tokens)

    def test_linear_mode_reads_what_galloping_passes(self, case):
        for query, run in case.runs.items():
            cold, linear = run.stats["cold"], run.stats["linear"]
            assert linear.postings_skipped == 0, query
            assert linear.postings_read == (
                cold.postings_read + cold.postings_skipped
            ), query
            assert linear.groups_processed == cold.groups_processed, query

    def test_replay_repeats_cold_counters(self, case):
        # Run again, the query reads the columns its cold run memoized.
        memoized = 0
        for query, run in case.runs.items():
            cold, memo = run.stats["cold"], run.stats["memo"]
            built = cold.merged_cache_hits + cold.merged_cache_misses
            if built:
                assert cold.merged_cache_misses >= 1, query
            assert memo.merged_cache_misses == 0, query
            assert memo.merged_cache_hits == built, query
            memoized += memo.merged_cache_hits >= 1
            for counter in (
                "postings_read",
                "postings_skipped",
                "groups_processed",
                "candidates_evaluated",
                "entities_scored",
                "kernel_pruned",
            ):
                assert getattr(memo, counter) == getattr(cold, counter), (
                    query,
                    counter,
                )
        assert memoized >= len(case.queries) // 2

    def test_length_prior_paths_agree(self, case):
        config = XCleanConfig(gamma=None, prior="length")
        kernel = XCleanSuggester(case.corpus, config=config)
        linear = XCleanSuggester(
            case.corpus,
            config=XCleanConfig(
                gamma=None, prior="length", use_skipping=False
            ),
        )
        oracle = NaiveCleaner(case.corpus, config=config)
        for query in case.queries[:LENGTH_PRIOR_QUERIES]:
            cold = rows_of(kernel.suggest(query, K))
            assert rows_of(kernel.suggest(query, K)) == cold, query
            assert rows_of(linear.suggest(query, K)) == cold, query
            naive = oracle.score_all(query)
            for tokens, score, _type in cold:
                assert score == pytest.approx(naive[tokens], rel=1e-9)

    @pytest.mark.parametrize("gamma", (1, 4))
    def test_pruning_changes_nothing(self, case, gamma):
        pruned = XCleanSuggester(
            case.corpus, config=XCleanConfig(gamma=gamma)
        )
        plain = XCleanSuggester(
            case.corpus,
            config=XCleanConfig(gamma=gamma, kernel_pruning=False),
        )
        pruned_total = 0
        for query in case.queries:
            assert rows_of(pruned.suggest(query, K)) == rows_of(
                plain.suggest(query, K)
            ), query
            pruned_total += pruned.last_stats.kernel_pruned
            assert plain.last_stats.kernel_pruned == 0
        if gamma == 1:
            # A one-slot table saturates at once: the prune must fire.
            assert pruned_total > 0


    @pytest.mark.parametrize("mu", (DEFAULT_MU, 1e-6))
    @pytest.mark.parametrize("gamma", (1, 4))
    def test_every_prune_is_exact(self, case, gamma, mu):
        # Each in-loop prune, scored the unpruned way, would have been
        # rejected by ``pool.add``: its exact incoming estimate is under
        # both the bound that pruned it and the accumulator floor.  At
        # the default μ the Dirichlet terms sit far below 1 and the
        # bound is loose; near μ=0 a one-token entity's term is ~1, the
        # bound is nearly tight, and an unsound one shows.
        suggester = XCleanSuggester(
            case.corpus, config=XCleanConfig(gamma=gamma, mu=mu)
        )
        prunes = 0
        for query in case.queries:
            explanation = suggester.suggest_explained(query, K)
            notes = explanation.kernel_prunes
            assert len(notes) == suggester.last_stats.kernel_pruned
            for note in notes:
                assert note.exact <= note.upper_bound, (query, note)
                assert note.exact < note.floor, (query, note)
            prunes += len(notes)
        if gamma == 1:
            assert prunes > 0

#: Section VI-B semantics: suggester and brute-force entity roots.
LCA_SEMANTICS = {
    "SLCA": (SLCACleanSuggester, slca_brute_force),
    "ELCA": (ELCACleanSuggester, elca_brute_force),
}
LCA_PATHS = ("cold", "memo", "linear", "snapshot")


@pytest.fixture(scope="module")
def lca_runs(case):
    """``(score_all, last_stats)`` per (semantics, query, path)."""
    config = XCleanConfig(gamma=None)
    snapshot = load_snapshot(case.snapshot_path)
    runs = {}
    try:
        for label, (cls, _brute_force) in LCA_SEMANTICS.items():
            kernel = cls(case.corpus, config=config)
            paths = (
                ("cold", kernel),
                ("memo", kernel),
                (
                    "linear",
                    cls(
                        case.corpus,
                        config=XCleanConfig(gamma=None, use_skipping=False),
                    ),
                ),
                ("snapshot", cls(snapshot, config=config)),
            )
            for query in case.queries:
                case.corpus.bump_generation()
                for path, suggester in paths:
                    runs[label, query, path] = (
                        suggester.score_all(query),
                        suggester.last_stats,
                    )
    finally:
        snapshot.close()
    return runs


def lca_reference(corpus, query, entities_of, config):
    """Eq. 8/9 over LCA entities, straight from the tuple postings.

    Every candidate of the full space; its entities are the LCA roots
    of its occurrences inside each depth-d group, d = ``min_depth``.
    """
    oracle = NaiveCleaner(corpus, config=config)
    space = CandidateSpace(
        corpus.tokenizer.tokenize(query),
        oracle.generator,
        oracle.error_model,
        config.max_errors,
    )
    depth = config.min_depth
    grouped = {}
    for position in range(len(space)):
        for token in space.variant_tokens(position):
            groups = grouped.setdefault(token, {})
            for dewey, _pid, tf in corpus.inverted.list_for(token):
                if len(dewey) >= depth:
                    groups.setdefault(dewey[:depth], []).append((dewey, tf))
    probability = oracle.language_model.probability
    scores = {}
    for candidate in space.enumerate_all():
        per_token = [grouped[token] for token in candidate]
        mass, count = 0.0, 0
        for group in sorted(set.intersection(*map(set, per_token))):
            postings = [groups[group] for groups in per_token]
            roots = entities_of([[d for d, _tf in p] for p in postings])
            for root in roots:
                length = corpus.subtree_length(root)
                product = 1.0
                for token, post in zip(candidate, postings):
                    tf = sum(t for d, t in post if d[: len(root)] == root)
                    product *= probability(token, tf, length)
                mass += product
            count += len(roots)
        if count:
            scores[candidate] = space.error_weight(candidate) * mass / count
    return scores


@pytest.mark.parametrize("label", LCA_SEMANTICS)
class TestLCASemantics:
    def test_paths_identical(self, case, lca_runs, label):
        answered = 0
        for query in case.queries:
            cold, cold_stats = lca_runs[label, query, "cold"]
            answered += bool(cold)
            memo_stats = lca_runs[label, query, "memo"][1]
            assert memo_stats.merged_cache_misses == 0, query
            assert memo_stats.merged_cache_hits == (
                cold_stats.merged_cache_hits + cold_stats.merged_cache_misses
            ), query
            for path in LCA_PATHS:
                assert lca_runs[label, query, path][0] == cold, (query, path)
        assert answered >= len(case.queries) // 2

    def test_scores_match_brute_force(self, case, lca_runs, label):
        config = XCleanConfig(gamma=None)
        entities_of = LCA_SEMANTICS[label][1]
        for query in case.queries:
            got = lca_runs[label, query, "cold"][0]
            expected = lca_reference(case.corpus, query, entities_of, config)
            assert set(got) == set(expected), query
            for candidate, score in got.items():
                assert score == pytest.approx(
                    expected[candidate], rel=1e-9
                ), (query, candidate)

    def test_counters_match_node_type(self, case, lca_runs, label):
        # One intersection serves every semantics: only scoring differs.
        for query, run in case.runs.items():
            for path in LCA_PATHS:
                node = run.stats[path]
                lca = lca_runs[label, query, path][1]
                for counter in (
                    "groups_processed",
                    "postings_read",
                    "postings_skipped",
                ):
                    assert getattr(lca, counter) == getattr(node, counter), (
                        query,
                        path,
                        counter,
                    )

    def test_node_type_entry_points_refuse(self, label):
        # Shard rows and score provenance are node-type accumulators.
        corpus = build_corpus_index(XMLDocument(paper_example_tree()))
        suggester = LCA_SEMANTICS[label][0](corpus)
        with pytest.raises(ConfigurationError):
            suggester.partial_rows("tree icdt")
        with pytest.raises(ConfigurationError):
            suggester.suggest_explained("tree icdt")

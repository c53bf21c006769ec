"""Command-line interface: build indexes, get suggestions, run evals.

Installed as the ``xclean`` console script::

    xclean generate --dataset dblp --out dblp.xml
    xclean index --xml dblp.xml --out dblp.xcs3
    xclean index --xml dblp.xml --out shards/ --shards 4
    xclean verify --index shards/            # or a single .xcs3 path
    xclean suggest --index dblp.xcs3 --query "keywrod serach" -k 5
    xclean explain --index dblp.xcs3 --query "keywrod serach" -k 5
    xclean trace --index dblp.xcs3 --query "keywrod serach" --format chrome
    xclean batch --index dblp.xcs3 --queries queries.txt --workers 4
    xclean batch --index shards/ --queries queries.txt --replicas 2
    xclean metrics --index dblp.xcs3 --queries queries.txt --format prometheus
    xclean search --index dblp.xcs3 --query "keyword search" --xml dblp.xml
    xclean evaluate --dataset dblp --scale small
    xclean chaos --index dblp.xcs3 --queries queries.txt \
        --plan "worker.query:raise@2;merge.step:delay=0.001"
    xclean serve --index dblp.xcs3 --port 8080 --access-log access.jsonl
    xclean status --index dblp.xcs3 [--watch]
    xclean update --index dblp.xcs3 --ops updates.json --source dblp.xml
    xclean compact --index dblp.xcs3
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Sequence

from repro.core.cleaner import XCleanSuggester
from repro.core.config import XCleanConfig
from repro.core.search import EntitySearch
from repro.core.server import SuggestionService
from repro.core.slca_cleaner import (
    ELCACleanSuggester,
    SLCACleanSuggester,
)
from repro.datasets.synthetic_dblp import DBLPConfig, generate_dblp
from repro.datasets.synthetic_wiki import WikiConfig, generate_wiki
from repro.eval.experiments import dblp_setting, wiki_setting
from repro.eval.reporting import format_table
from repro.eval.runner import evaluate_suggester
from repro.exceptions import ConfigurationError, Overloaded, ReproError
from repro.index.corpus import build_corpus_index
from repro.index.sharding import is_manifest, resolve_manifest_path
from repro.index.snapshot import build_snapshot, load_snapshot
from repro.obs import MetricsRegistry
from repro.obs import faults
from repro.obs.export import chrome_trace, trace_to_json_line
from repro.obs.trace import Tracer, format_trace
from repro.xmltree.document import XMLDocument


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xclean",
        description="XML keyword query cleaning (XClean, ICDE 2011)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser(
        "generate", help="generate a synthetic XML dataset"
    )
    generate.add_argument(
        "--dataset", choices=("dblp", "wiki"), default="dblp"
    )
    generate.add_argument("--out", required=True, help="output XML path")
    generate.add_argument("--seed", type=int, default=42)
    generate.add_argument(
        "--size", type=int, default=0,
        help="publications / articles (0 = default scale)",
    )

    index = sub.add_parser("index", help="index an XML file (v3 snapshot)")
    index.add_argument("--xml", required=True, help="input XML path")
    index.add_argument("--out", required=True, help="output .xcs3 path")
    index.add_argument(
        "--workers", type=int, default=None,
        help="parallel workers for the snapshot build "
        "(default: serial; output is byte-identical either way)",
    )
    index.add_argument(
        "--shards", type=int, default=0,
        help="partition into this many v3 snapshot shards under "
        "--out (a directory) with a CRC-checked manifest; 0 builds "
        "a single snapshot",
    )
    index.add_argument(
        "--partition-depth", type=int, default=None,
        help="subtree depth of the shard partition boundary "
        "(default: 2; must not exceed the query-time min_depth)",
    )
    index.add_argument(
        "--strategy", choices=("range", "hash"), default="range",
        help="entity-to-shard assignment: token-balanced contiguous "
        "ranges or crc32 hashing",
    )

    suggest = sub.add_parser(
        "suggest", help="suggest alternative queries"
    )
    suggest.add_argument("--index", required=True, help="index path")
    suggest.add_argument("--query", required=True)
    suggest.add_argument("-k", type=int, default=5)
    suggest.add_argument("--beta", type=float, default=5.0)
    suggest.add_argument("--max-errors", type=int, default=2)
    suggest.add_argument("--gamma", type=int, default=1000)
    suggest.add_argument(
        "--semantics",
        choices=("node-type", "slca", "elca"),
        default="node-type",
        help="entity semantics for scoring (Section IV-B2 / VI-B)",
    )
    suggest.add_argument(
        "--prior",
        choices=("uniform", "length"),
        default="uniform",
        help="entity prior of Eq. 8 (node-type semantics only)",
    )

    explain = sub.add_parser(
        "explain",
        help="show full score provenance for each suggested candidate "
        "(error factors, per-entity contributions, U(C,p) table, "
        "pruning events)",
    )
    explain.add_argument("--index", required=True, help="index path")
    explain.add_argument("--query", required=True)
    explain.add_argument("-k", type=int, default=5)
    explain.add_argument("--beta", type=float, default=5.0)
    explain.add_argument("--max-errors", type=int, default=2)
    explain.add_argument("--gamma", type=int, default=1000)
    explain.add_argument(
        "--prior", choices=("uniform", "length"), default="uniform"
    )
    explain.add_argument(
        "--format",
        choices=("table", "json"),
        default="table",
        help="human-readable tables or the full provenance as JSON",
    )
    explain.add_argument(
        "--max-entities", type=int, default=5,
        help="entity contributions shown per candidate (table format)",
    )

    trace = sub.add_parser(
        "trace",
        help="run one query under a live tracer and export its span "
        "tree",
    )
    trace.add_argument("--index", required=True, help="index path")
    trace.add_argument("--query", required=True)
    trace.add_argument("-k", type=int, default=5)
    trace.add_argument("--beta", type=float, default=5.0)
    trace.add_argument("--max-errors", type=int, default=2)
    trace.add_argument("--gamma", type=int, default=1000)
    trace.add_argument(
        "--format",
        choices=("text", "chrome", "jsonl"),
        default="text",
        help="text outline, Chrome trace event JSON "
        "(chrome://tracing / Perfetto), or one-line JSON",
    )
    trace.add_argument(
        "--out", default=None,
        help="write the export to this path instead of stdout",
    )

    batch = sub.add_parser(
        "batch", help="answer a file of queries through the service"
    )
    batch.add_argument(
        "--index", required=True,
        help="index path or shard-manifest directory",
    )
    batch.add_argument(
        "--queries", required=True,
        help="text file with one query per line",
    )
    batch.add_argument("-k", type=int, default=5)
    batch.add_argument("--beta", type=float, default=5.0)
    batch.add_argument("--max-errors", type=int, default=2)
    batch.add_argument("--gamma", type=int, default=1000)
    batch.add_argument(
        "--workers", type=int, default=None,
        help="process-pool width (default: in-process serial)",
    )
    batch.add_argument(
        "--worker-timeout", type=float, default=None,
        help="per-query worker timeout in seconds; a timed-out query "
        "is retried once, then answered in-process",
    )
    batch.add_argument(
        "--recycle-after", type=int, default=None,
        help="recycle pool workers after this many dispatched queries",
    )
    batch.add_argument(
        "--replicas", type=int, default=0,
        help="replica pools per shard when --index is a shard "
        "manifest (0 = in-process scatter)",
    )
    batch.add_argument(
        "--routing", choices=("round-robin", "least-loaded"),
        default="round-robin",
        help="replica routing policy (shard manifest only)",
    )
    batch.add_argument(
        "--format",
        choices=("table", "json"),
        default="table",
        help="table prints top suggestions; json carries per-query "
        "stats (partial flag, cache counters, trace id) — json "
        "attaches a live tracer so trace ids are populated",
    )

    metrics = sub.add_parser(
        "metrics",
        help="answer a file of queries, then export serving metrics",
    )
    metrics.add_argument("--index", required=True, help="index path")
    metrics.add_argument(
        "--queries", required=True,
        help="text file with one query per line",
    )
    metrics.add_argument("-k", type=int, default=5)
    metrics.add_argument("--beta", type=float, default=5.0)
    metrics.add_argument("--max-errors", type=int, default=2)
    metrics.add_argument("--gamma", type=int, default=1000)
    metrics.add_argument(
        "--workers", type=int, default=None,
        help="process-pool width (default: in-process serial)",
    )
    metrics.add_argument(
        "--format",
        choices=("json", "prometheus"),
        default="json",
        help="export format: JSON snapshot or Prometheus text",
    )
    metrics.add_argument(
        "--ops", default=None,
        help="JSON update-ops file to apply first, so the live-update "
        "stage timers (wal_append, delta_apply, compact) land in the "
        "same export as the query stages",
    )
    metrics.add_argument(
        "--source", default=None,
        help="XML source backing --ops subtree inserts",
    )
    metrics.add_argument(
        "--compact", action="store_true",
        help="fold the applied --ops into a new generation before "
        "serving, timing the compact stage",
    )

    search = sub.add_parser(
        "search", help="execute a keyword query (no spell correction)"
    )
    search.add_argument("--index", required=True, help="index path")
    search.add_argument("--query", required=True)
    search.add_argument("-k", type=int, default=5)
    search.add_argument(
        "--xml", default=None,
        help="original XML file, for result snippets",
    )

    evaluate = sub.add_parser(
        "evaluate", help="run the MRR evaluation on a synthetic dataset"
    )
    evaluate.add_argument(
        "--dataset", choices=("dblp", "wiki"), default="dblp"
    )
    evaluate.add_argument(
        "--scale", choices=("small", "default"), default="small"
    )

    chaos = sub.add_parser(
        "chaos",
        help="replay queries through the service under an injected "
        "fault plan and report how each degradation resolved",
    )
    chaos.add_argument("--index", required=True, help="index path")
    chaos.add_argument(
        "--queries", required=True,
        help="text file with one query per line",
    )
    chaos.add_argument(
        "--plan", required=True,
        help="fault plan spec, e.g. "
        "'worker.query:raise@2;merge.step:delay=0.01x3' "
        "(sites: snapshot.load, worker.init, worker.query, "
        "merge.step, variant.gen, shard.query, wal.append, "
        "delta.apply, compact.swap)",
    )
    chaos.add_argument(
        "--seed", type=int, default=0,
        help="seed for deterministic fault corruption offsets",
    )
    chaos.add_argument("-k", type=int, default=5)
    chaos.add_argument(
        "--workers", type=int, default=None,
        help="process-pool width (default: in-process serial)",
    )
    chaos.add_argument(
        "--worker-timeout", type=float, default=None,
        help="per-query worker timeout in seconds",
    )
    chaos.add_argument(
        "--deadline", type=float, default=None,
        help="per-query deadline in seconds; an expired query returns "
        "its best-so-far top-k marked partial",
    )
    chaos.add_argument(
        "--max-pending", type=int, default=None,
        help="admission-control bound; excess queries are shed with "
        "a typed Overloaded error",
    )

    serve = sub.add_parser(
        "serve",
        help="run the asyncio HTTP front-end over an index "
        "(see docs/http_api.md)",
    )
    serve.add_argument(
        "--index", required=True,
        help="index path or shard-manifest directory",
    )
    serve.add_argument(
        "--replicas", type=int, default=0,
        help="replica pools per shard when --index is a shard "
        "manifest (0 = in-process scatter)",
    )
    serve.add_argument(
        "--routing", choices=("round-robin", "least-loaded"),
        default="round-robin",
        help="replica routing policy (shard manifest only)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8080,
        help="TCP port; 0 binds an ephemeral port",
    )
    serve.add_argument(
        "--threads", type=int, default=4,
        help="executor threads running service calls",
    )
    serve.add_argument(
        "--max-pending", type=int, default=64,
        help="admission-control bound; excess requests get HTTP 503 "
        "with a Retry-After header (pass 0 for unbounded)",
    )
    serve.add_argument(
        "--deadline", type=float, default=None,
        help="per-query deadline in seconds; an expired query is "
        "answered with its best-so-far top-k and \"partial\": true",
    )
    serve.add_argument("-k", type=int, default=10,
                       help="default k when a request omits it")
    serve.add_argument("--beta", type=float, default=5.0)
    serve.add_argument("--max-errors", type=int, default=2)
    serve.add_argument("--gamma", type=int, default=1000)
    serve.add_argument(
        "--result-cache-size", type=int, default=None,
        help="whole-result LRU capacity (default: service default; "
        "0 disables caching)",
    )
    serve.add_argument(
        "--no-single-flight", action="store_true",
        help="disable coalescing of concurrent identical requests",
    )
    serve.add_argument(
        "--keep-alive-timeout", type=float, default=30.0,
        help="seconds an idle keep-alive connection is retained",
    )
    serve.add_argument(
        "--drain-grace", type=float, default=10.0,
        help="seconds a SIGTERM drain waits for in-flight requests",
    )
    serve.add_argument(
        "--max-body-bytes", type=int, default=64 * 1024,
        help="reject request bodies larger than this (HTTP 413)",
    )
    serve.add_argument(
        "--access-log", default=None,
        help="append one JSONL line per request to this path "
        "(schema: docs/observability.md, Ops plane)",
    )
    serve.add_argument(
        "--plan", default=None,
        help="fault plan spec to arm while serving (smoke/chaos "
        "testing); same grammar as 'xclean chaos --plan'",
    )
    serve.add_argument(
        "--seed", type=int, default=0,
        help="seed for deterministic fault corruption offsets",
    )
    serve.add_argument(
        "--breaker-cooldown", type=float, default=None,
        help="seconds the circuit breaker stays open before the "
        "half-open probe (default 30; smoke tests shrink it so "
        "degraded /readyz verdicts clear quickly)",
    )

    status = sub.add_parser(
        "status",
        help="report service health, data generation, WAL depth, and "
        "process gauges for an index (the /statusz payload, offline)",
    )
    status.add_argument(
        "--index", required=True,
        help="index path or shard-manifest directory",
    )
    status.add_argument(
        "--replicas", type=int, default=0,
        help="replica pools per shard when --index is a shard manifest",
    )
    status.add_argument(
        "--routing", choices=("round-robin", "least-loaded"),
        default="round-robin",
    )
    status.add_argument(
        "--watch", action="store_true",
        help="refresh a one-line summary every --interval seconds "
        "until interrupted",
    )
    status.add_argument(
        "--interval", type=float, default=2.0,
        help="seconds between --watch refreshes",
    )

    verify = sub.add_parser(
        "verify",
        help="deep-verify a v3 snapshot or every shard of a manifest "
        "(per-section CRCs, manifest checksums); non-zero exit on "
        "any failure",
    )
    verify.add_argument(
        "--index", required=True,
        help="v3 snapshot path or shard-manifest directory",
    )

    update = sub.add_parser(
        "update",
        help="durably apply live subtree updates to an index "
        "(WAL-acknowledged; see docs/index_format.md, Live updates)",
    )
    update.add_argument(
        "--index", required=True,
        help="v3 snapshot path or shard-manifest directory",
    )
    update.add_argument(
        "--ops", required=True,
        help="JSON file with a list of update records "
        '({"op": "add"|"update"|"delete", "dewey": [...], '
        '"subtree": {...}})',
    )
    update.add_argument(
        "--source", default=None,
        help="the XML file the index was built from; required only "
        "on the first update of an index (seeds the live-source "
        "sidecar)",
    )
    update.add_argument(
        "--compact", action="store_true",
        help="fold into a fresh snapshot generation immediately "
        "after applying",
    )
    update.add_argument(
        "--plan", default=None,
        help="fault plan spec to arm while applying (chaos testing); "
        "same grammar as 'xclean chaos --plan'",
    )
    update.add_argument(
        "--seed", type=int, default=0,
        help="seed for deterministic fault corruption offsets",
    )

    compact = sub.add_parser(
        "compact",
        help="fold WAL'd live updates into a fresh snapshot "
        "generation (atomic swap; bumps the generation stamp)",
    )
    compact.add_argument(
        "--index", required=True,
        help="v3 snapshot path or shard-manifest directory",
    )
    compact.add_argument(
        "--source", default=None,
        help="the XML file the index was built from (first-open "
        "seeding only; normally recovered from the sidecar)",
    )
    compact.add_argument(
        "--workers", type=int, default=None,
        help="parallel shard build width (manifest indexes only)",
    )
    compact.add_argument(
        "--plan", default=None,
        help="fault plan spec to arm while compacting (chaos "
        "testing)",
    )
    compact.add_argument(
        "--seed", type=int, default=0,
        help="seed for deterministic fault corruption offsets",
    )
    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.dataset == "dblp":
        config = (
            DBLPConfig(publications=args.size, seed=args.seed)
            if args.size
            else DBLPConfig(seed=args.seed)
        )
        document = generate_dblp(config).document
    else:
        config = (
            WikiConfig(articles=args.size, seed=args.seed)
            if args.size
            else WikiConfig(seed=args.seed)
        )
        document = generate_wiki(config).document
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(document.serialize())
    stats = document.stats
    print(
        f"wrote {args.out}: {stats.node_count} nodes, "
        f"max depth {stats.max_depth}"
    )
    return 0


def _cmd_index(args: argparse.Namespace) -> int:
    document = XMLDocument.from_file(args.xml)
    corpus = build_corpus_index(document)
    if args.shards:
        from repro.index.sharding import build_sharded_snapshot

        kwargs = {}
        if args.partition_depth is not None:
            kwargs["partition_depth"] = args.partition_depth
        manifest = build_sharded_snapshot(
            corpus, args.out, args.shards,
            strategy=args.strategy, workers=args.workers, **kwargs,
        )
        print(
            f"wrote {args.out}: {len(manifest.shards)} shards, "
            f"{manifest.entities} entities, "
            f"{manifest.postings} postings "
            f"({args.strategy} assignment at depth "
            f"{manifest.partition_depth})"
        )
        return 0
    build_snapshot(corpus, args.out, workers=args.workers)
    description = corpus.describe()
    print(
        f"wrote {args.out}: {description['tokens']} tokens, "
        f"{description['postings']} postings"
    )
    return 0


def _open_service(args, registry, config, **kwargs):
    """The serving object behind ``--index``: single or sharded.

    A shard-manifest path (directory or ``manifest.json``) opens a
    :class:`~repro.core.shards.ShardedSuggestionService`; anything
    else loads as a single v3 snapshot behind
    :class:`SuggestionService`.
    Both expose the same serving surface, so callers don't branch.
    """
    if is_manifest(args.index):
        from repro.core.shards import ShardedSuggestionService

        kwargs.pop("worker_recycle_after", None)
        return ShardedSuggestionService(
            resolve_manifest_path(args.index),
            config=config,
            replicas=getattr(args, "replicas", 0),
            routing=getattr(args, "routing", "round-robin"),
            metrics=registry,
            **kwargs,
        )
    return SuggestionService(
        _load_corpus(args, registry), config=config, metrics=registry,
        **kwargs,
    )


def _load_corpus(args, registry=None):
    """The one snapshot behind ``--index``, for commands that need one.

    ``explain``, ``trace``, ``search``, ``chaos`` and the SLCA/ELCA
    suggesters run over a single corpus, so a shard manifest is
    refused with a one-line error instead of failing on the directory.
    """
    if is_manifest(args.index):
        raise ConfigurationError(
            f"{args.command} needs a single snapshot, but "
            f"{args.index!r} is a shard manifest"
        )
    return load_snapshot(args.index, metrics=registry)


def _cmd_suggest(args: argparse.Namespace) -> int:
    config = XCleanConfig(
        max_errors=args.max_errors,
        beta=args.beta,
        gamma=args.gamma,
        prior=args.prior,
    )
    if args.semantics == "node-type":
        with _open_service(args, None, config) as service:
            suggestions = service.suggest(args.query, args.k)
    else:
        entity_semantics = {
            "slca": SLCACleanSuggester, "elca": ELCACleanSuggester,
        }[args.semantics]
        suggester = entity_semantics(_load_corpus(args), config=config)
        suggestions = suggester.suggest(args.query, args.k)
    if not suggestions:
        print("(no suggestions)")
        return 0
    rows = [
        (rank, s.text, f"{s.score:.3g}", s.result_type or "")
        for rank, s in enumerate(suggestions, start=1)
    ]
    print(format_table(("#", "suggestion", "score", "result type"), rows))
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    corpus = _load_corpus(args)
    config = XCleanConfig(
        max_errors=args.max_errors,
        beta=args.beta,
        gamma=args.gamma,
        prior=args.prior,
    )
    suggester = XCleanSuggester(corpus, config=config)
    explanation = suggester.suggest_explained(args.query, args.k)
    if args.format == "json":
        print(json.dumps(
            explanation.as_dict(), indent=2, sort_keys=True
        ))
    else:
        print(explanation.render(max_entities=args.max_entities))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    corpus = _load_corpus(args)
    config = XCleanConfig(
        max_errors=args.max_errors,
        beta=args.beta,
        gamma=args.gamma,
    )
    tracer = Tracer()
    suggester = XCleanSuggester(corpus, config=config, tracer=tracer)
    suggestions = suggester.suggest(args.query, args.k)
    root = tracer.last_trace
    if root is None:  # pragma: no cover - begin/end always pair
        print("error: no trace recorded", file=sys.stderr)
        return 1
    if args.format == "chrome":
        payload = json.dumps(chrome_trace(root), indent=2)
    elif args.format == "jsonl":
        payload = trace_to_json_line(root)
    else:
        best = suggestions[0].text if suggestions else "(none)"
        payload = format_trace(root) + f"\ntop suggestion: {best}"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
        print(f"wrote {args.out}")
    else:
        print(payload)
    return 0


def _read_queries(path: str) -> list[str]:
    with open(path, "r", encoding="utf-8") as handle:
        return [line.strip() for line in handle if line.strip()]


def _cmd_batch(args: argparse.Namespace) -> int:
    registry = MetricsRegistry()
    queries = _read_queries(args.queries)
    if not queries:
        print("(no queries)")
        return 0
    service_kwargs = {}
    if args.recycle_after is not None:
        service_kwargs["worker_recycle_after"] = args.recycle_after
    if args.format == "json":
        # JSON output carries trace ids, so it runs under a tracer.
        service_kwargs["tracer"] = Tracer()
    with _open_service(
        args,
        registry,
        XCleanConfig(
            max_errors=args.max_errors,
            beta=args.beta,
            gamma=args.gamma,
        ),
        worker_timeout=args.worker_timeout,
        **service_kwargs,
    ) as service:
        started = time.perf_counter()
        detailed = service.suggest_batch_detailed(
            queries, args.k, workers=args.workers
        )
        elapsed = time.perf_counter() - started
    stats = service.stats
    qps = len(queries) / elapsed if elapsed > 0 else float("inf")
    if args.format == "json":
        payload = {
            "queries": [
                {
                    "query": query,
                    "suggestions": [
                        {
                            "text": s.text,
                            "score": s.score,
                            "result_type": s.result_type,
                        }
                        for s in suggestions
                    ],
                    "partial": query_stats.partial,
                    "result_cache_hits":
                        query_stats.result_cache_hits,
                    "result_cache_misses":
                        query_stats.result_cache_misses,
                    "trace_id": query_stats.trace_id,
                }
                for query, (suggestions, query_stats)
                in zip(queries, detailed)
            ],
            "elapsed_s": elapsed,
            "qps": qps,
            "service": {
                "queries_served": stats.queries_served,
                "result_cache_hits": stats.result_cache_hits,
                "result_cache_misses": stats.result_cache_misses,
                "partial_results": stats.partial_results,
                "degraded_queries": stats.degraded_queries,
                "unanswerable": stats.unanswerable,
            },
        }
        print(json.dumps(payload, indent=2))
        return 0
    rows = []
    for query, (suggestions, _stats) in zip(queries, detailed):
        best = suggestions[0] if suggestions else None
        rows.append(
            (
                query,
                best.text if best else "(none)",
                f"{best.score:.3g}" if best else "",
            )
        )
    print(format_table(("query", "top suggestion", "score"), rows))
    print(
        f"{len(queries)} queries in {elapsed:.3f}s ({qps:.1f} q/s), "
        f"cache hits {stats.result_cache_hits}, "
        f"misses {stats.result_cache_misses}, "
        f"partial {stats.partial_results}, "
        f"degraded {stats.degraded_queries}"
    )
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    # The registry exists before the load so the index_load stage (and
    # the pool_init_bytes counter) lands in the exported snapshot.
    registry = MetricsRegistry()
    if args.ops:
        from repro.index.compaction import LiveIndexManager

        document = (
            XMLDocument.from_file(args.source) if args.source else None
        )
        with open(args.ops, encoding="utf-8") as handle:
            ops = json.load(handle)
        if isinstance(ops, dict):
            ops = [ops]
        with LiveIndexManager(
            args.index, document=document, metrics=registry
        ) as live:
            live.apply(ops)
            if args.compact:
                live.compact()
    queries = _read_queries(args.queries)
    with _open_service(
        args,
        registry,
        XCleanConfig(
            max_errors=args.max_errors,
            beta=args.beta,
            gamma=args.gamma,
        ),
    ) as service:
        service.suggest_batch(queries, args.k, workers=args.workers)
        snapshot = service.metrics()
    if args.format == "prometheus":
        sys.stdout.write(snapshot.to_prometheus())
    else:
        print(snapshot.to_json())
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    corpus = _load_corpus(args)
    engine = EntitySearch(corpus)
    results = engine.search(args.query, args.k)
    if not results:
        print("(no results)")
        return 0
    document = (
        XMLDocument.from_file(args.xml) if args.xml else None
    )
    rows = []
    for rank, result in enumerate(results, start=1):
        snippet = result.render(document) if document else ""
        rows.append(
            (
                rank,
                ".".join(map(str, result.dewey)),
                result.result_type,
                f"{result.score:.3g}",
                snippet,
            )
        )
    print(
        format_table(
            ("#", "entity", "type", "score", "snippet"), rows
        )
    )
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    setting = (
        dblp_setting(args.scale)
        if args.dataset == "dblp"
        else wiki_setting(args.scale)
    )
    rows = []
    for kind, records in setting.workloads.items():
        result = evaluate_suggester(
            setting.xclean(),
            records,
            system="XClean",
            workload=f"{setting.label}-{kind}",
        )
        rows.append(
            (result.workload, result.mrr, result.precision[1],
             result.mean_time)
        )
    print(
        format_table(
            ("workload", "MRR", "P@1", "mean time (s)"),
            rows,
            title=f"XClean on {setting.label} ({args.scale} scale)",
        )
    )
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    registry = MetricsRegistry()
    corpus = _load_corpus(args, registry)
    queries = _read_queries(args.queries)
    if not queries:
        print("(no queries)")
        return 0
    config = XCleanConfig(
        deadline_seconds=args.deadline,
        fault_plan=args.plan,
        fault_seed=args.seed,
    )
    rows = []
    with SuggestionService(
        corpus,
        config=config,
        worker_timeout=args.worker_timeout,
        max_pending=args.max_pending,
        metrics=registry,
    ) as service:
        plan = faults.active()
        print(f"fault plan: {plan.describe()}")
        parallel = args.workers is not None and args.workers > 1
        for query in queries:
            try:
                if parallel:
                    # Route through the pool so the worker.* sites are
                    # actually exercised; a one-query batch keeps the
                    # per-query shed/error granularity.
                    suggestions = service.suggest_batch(
                        [query], args.k, workers=args.workers
                    )[0]
                else:
                    suggestions = service.suggest(query, args.k)
            except Overloaded as exc:
                rows.append((query, "(shed)", f"overloaded: {exc}"))
                continue
            except ReproError as exc:
                rows.append(
                    (query, "(error)", f"{type(exc).__name__}: {exc}")
                )
                continue
            outcome = (
                "partial" if service.last_stats.partial else "ok"
            )
            best = suggestions[0].text if suggestions else "(none)"
            rows.append((query, best, outcome))
        fired = plan.fired()
        stats = service.stats
        breaker_state = service.breaker.state
    print(format_table(("query", "top suggestion", "outcome"), rows))
    print(
        "fired: "
        + (
            ", ".join(
                f"{site}={count}" for site, count in sorted(fired.items())
            )
            or "(none)"
        )
    )
    print(
        f"shed {stats.shed_queries}, partial {stats.partial_results}, "
        f"degraded {stats.degraded_queries}, "
        f"quarantined {stats.snapshot_quarantined}, "
        f"breaker {breaker_state}"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.net.server import HTTPFrontEnd, ServeConfig

    registry = MetricsRegistry()
    service_kwargs = {}
    if args.result_cache_size is not None:
        service_kwargs["result_cache_size"] = args.result_cache_size
    if args.breaker_cooldown is not None:
        service_kwargs["breaker_cooldown"] = args.breaker_cooldown
    service = _open_service(
        args,
        registry,
        XCleanConfig(
            max_errors=args.max_errors,
            beta=args.beta,
            gamma=args.gamma,
            deadline_seconds=args.deadline,
            fault_plan=args.plan,
            fault_seed=args.seed,
        ),
        max_pending=args.max_pending or None,
        **service_kwargs,
    )
    request_log = None
    if args.access_log:
        from repro.obs.logging import RequestLog

        request_log = RequestLog(args.access_log, metrics=registry)
    front_end = HTTPFrontEnd(
        service,
        ServeConfig(
            host=args.host,
            port=args.port,
            threads=args.threads,
            default_k=args.k,
            max_body_bytes=args.max_body_bytes,
            keep_alive_timeout=args.keep_alive_timeout,
            drain_grace=args.drain_grace,
            single_flight=not args.no_single_flight,
        ),
        request_log=request_log,
    )

    async def _serve() -> None:
        await front_end.start()
        # The exact line load harnesses wait for before sending
        # traffic (the port matters when --port 0 picked one).
        print(
            f"listening on http://{front_end.host}:{front_end.port}",
            flush=True,
        )
        await front_end.run()

    with service:
        asyncio.run(_serve())
    print("drained; exiting", flush=True)
    return 0


def _status_line(payload: dict) -> str:
    """One ``--watch`` row: the fields an operator scans first."""
    health = payload["health"]
    service = payload["service"]
    process = payload["process"]
    live = service.get("live") or {}
    line = (
        f"{time.strftime('%H:%M:%S')} {health['state']:<9} "
        f"gen={service.get('data_generation')} "
        f"epoch={service.get('swap_epoch')} "
        f"inflight={service.get('inflight')} "
        f"wal={live.get('wal_records', 0)} "
        f"rss={process['rss_bytes'] // (1 << 20)}MiB"
    )
    if health["reasons"]:
        line += " " + ",".join(health["reasons"])
    return line


def _cmd_status(args: argparse.Namespace) -> int:
    from repro.obs.ops import status_payload

    registry = MetricsRegistry()
    service = _open_service(args, registry, XCleanConfig())
    with service:
        if not args.watch:
            print(json.dumps(
                status_payload(service), indent=2, sort_keys=True
            ))
            return 0
        try:
            while True:
                print(_status_line(status_payload(service)), flush=True)
                time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.index.sharding import verify_sharded

    if is_manifest(args.index):
        reports = verify_sharded(resolve_manifest_path(args.index))
        rows = [
            (
                report["shard_id"],
                report["path"],
                "ok" if report["ok"] else "FAIL",
                report["bytes"],
                report["error"] or "",
            )
            for report in reports
        ]
        print(format_table(
            ("shard", "path", "status", "bytes", "error"), rows
        ))
        failed = sum(1 for report in reports if not report["ok"])
        if failed:
            print(
                f"{failed} of {len(reports)} shards failed "
                "verification",
                file=sys.stderr,
            )
            return 1
        print(f"{len(reports)} shards verified")
        return 0
    from repro.index.snapshot import verify_snapshot

    verify_snapshot(args.index)
    print(f"{args.index}: ok")
    return 0


def _cmd_update(args: argparse.Namespace) -> int:
    from repro.index.compaction import LiveIndexManager

    if args.plan:
        faults.install_spec(args.plan, seed=args.seed)
    try:
        document = (
            XMLDocument.from_file(args.source) if args.source else None
        )
        with open(args.ops, encoding="utf-8") as handle:
            ops = json.load(handle)
        if isinstance(ops, dict):
            ops = [ops]
        with LiveIndexManager(args.index, document=document) as live:
            if live.recovered_records:
                print(
                    f"recovered {live.recovered_records} "
                    f"acknowledged record(s) from the WAL"
                )
            applied = live.apply(ops)
            line = (
                f"applied {applied} update(s) against generation "
                f"{live.generation}"
            )
            if args.compact:
                generation = live.compact()
                line += f"; compacted to generation {generation}"
            elif live.sharded:
                line += (
                    " (pending: run 'xclean compact' to fold into "
                    "the shards)"
                )
            print(line)
        return 0
    finally:
        if args.plan:
            faults.uninstall()


def _cmd_compact(args: argparse.Namespace) -> int:
    from repro.index.compaction import LiveIndexManager

    if args.plan:
        faults.install_spec(args.plan, seed=args.seed)
    try:
        document = (
            XMLDocument.from_file(args.source) if args.source else None
        )
        began = time.perf_counter()
        with LiveIndexManager(args.index, document=document) as live:
            pending = live.recovered_records
            generation = live.compact(workers=args.workers)
        elapsed = time.perf_counter() - began
        print(
            f"compacted {args.index} to generation {generation} "
            f"({pending} WAL record(s) folded, {elapsed:.2f}s)"
        )
        return 0
    finally:
        if args.plan:
            faults.uninstall()


_COMMANDS = {
    "generate": _cmd_generate,
    "index": _cmd_index,
    "suggest": _cmd_suggest,
    "explain": _cmd_explain,
    "trace": _cmd_trace,
    "batch": _cmd_batch,
    "metrics": _cmd_metrics,
    "search": _cmd_search,
    "evaluate": _cmd_evaluate,
    "chaos": _cmd_chaos,
    "serve": _cmd_serve,
    "status": _cmd_status,
    "verify": _cmd_verify,
    "update": _cmd_update,
    "compact": _cmd_compact,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""Scatter-gather serving over a sharded v3 index (``docs/sharding.md``).

:class:`ShardedSuggestionService` is the coordinator in front of a
shard manifest written by ``repro.index.sharding``: every query fans
out to one replica pool per shard, each shard answers with its full
γ-bounded partial accumulator table, and the gather side folds the
per-shard Shewchuk expansions back together — producing a top-k that
is **byte-identical** to a single-index run (same scores to the last
bit, same deterministic ``(-score, candidate)`` order).

Why whole tables and not k candidates per shard: a candidate's Eq. 8
mass is a *sum over entities*, and its entities are spread across
shards.  A candidate ranked k+1 everywhere can still be global top-1,
so per-shard top-k truncation is not exact.  Shipping the (γ-bounded)
partial tables is — see ``docs/sharding.md`` for the full argument
and the γ/no-eviction caveat.

Replication: each shard runs R single-worker process pools mapping
the same snapshot file (page cache shared).  Routing is round-robin
or least-loaded; every replica has its own circuit breaker, so a
tripped replica is skipped.  When a replica fails mid-query the
coordinator fails over to the next one, then (by default) degrades to
an in-process run of that shard, and only as a last resort omits the
shard and flags the answer ``partial``.

Everything around the scatter-gather — admission control, the result
LRU keyed on manifest identity + swap epoch, the batch API, metrics,
tracing and the flight recorder — is the serving core the single-index
service also runs on (:class:`~repro.core.serving.ServingCore`; see
``docs/serving.md`` → Serving core), so the HTTP front-end and the CLI
drive either one.
"""

from __future__ import annotations

import logging
import math
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from dataclasses import dataclass
from time import perf_counter
from typing import Sequence

from repro.core.cleaner import XCleanSuggester
from repro.core.config import XCleanConfig
from repro.core.pruning import add_partial
from repro.core.serving import (
    DEFAULT_BREAKER_COOLDOWN,
    DEFAULT_BREAKER_THRESHOLD,
    DEFAULT_CLOSE_GRACE,
    DEFAULT_RESULT_CACHE_SIZE,
    CircuitBreaker,
    ServingCore,
    _init_worker_snapshot,
    reap_processes,
    stop_pool,
    worker_task,
)
from repro.core.suggestion import CleaningStats, Suggestion
from repro.exceptions import ConfigurationError, QueryError, StorageError
from repro.index.sharding import ShardManifest, load_manifest
from repro.obs import MetricsRegistry
from repro.obs.context import Context
from repro.obs.recorder import FlightRecorder
from repro.obs.trace import Tracer

logger = logging.getLogger(__name__)

#: Replica routing policies.
ROUTING_POLICIES = ("round-robin", "least-loaded")

DEFAULT_ROUTING = "round-robin"


def _worker_shard_partials(task: tuple[str, dict | None, int]):
    """Answer one scatter leg: this shard's partial accumulator table.

    ``task`` is ``(query, trace_ctx, shard_id)``; the replica process
    runs it through ``serving.worker_task``.  Returns ``(rows, stats,
    extras)`` where ``rows`` is the shard's full partial table
    (``XCleanSuggester.partial_rows``), or ``None`` for an unanswerable
    query — tokenization is global, so one shard's ``QueryError`` means
    every shard's, and the coordinator re-raises.
    """
    query, trace_ctx, shard_id = task
    return worker_task(
        "shard.query", "shard.worker", trace_ctx,
        lambda suggester, ctx: suggester.partial_rows(query, ctx),
        query=query, shard=shard_id,
    )


# ----------------------------------------------------------------------
# The gather merge
# ----------------------------------------------------------------------


def merge_partial_tables(
    tables: Sequence, k: int
) -> tuple[list[Suggestion], int]:
    """Fold per-shard partial tables into the exact global top-k.

    Each table is a sequence of rows ``(candidate, partials,
    error_weight, normalizer, result_type, samples)`` as produced by
    ``XCleanSuggester.partial_rows``.  Candidates appearing on several
    shards have their Shewchuk expansions concatenated through
    :func:`~repro.core.pruning.add_partial`, so ``math.fsum`` over the
    merged expansion is the correctly rounded total of every entity
    mass regardless of which shard contributed it or in what order —
    the resulting score is bit-identical to a single-index run.

    ``error_weight``, ``normalizer`` and ``result_type`` depend only
    on global statistics (replicated into every shard), so the first
    occurrence wins.  The final sort uses the same ``(-score,
    candidate)`` total order as ``AccumulatorPool.top_k`` — ties break
    by candidate ascending — which is what makes the merged list
    stable across shard counts.

    Returns ``(top_k_suggestions, merged_candidate_count)``.
    """
    merged: dict[tuple[str, ...], list] = {}
    for rows in tables:
        for candidate, partials, weight, normalizer, rtype, _ in rows:
            entry = merged.get(candidate)
            if entry is None:
                merged[candidate] = [
                    list(partials), weight, normalizer, rtype,
                ]
            else:
                acc = entry[0]
                for value in partials:
                    add_partial(acc, value)
    scored = [
        (
            candidate,
            (weight * math.fsum(partials) / normalizer
             if normalizer else 0.0),
            rtype,
        )
        for candidate, (partials, weight, normalizer, rtype)
        in merged.items()
    ]
    scored.sort(key=lambda item: (-item[1], item[0]))
    return (
        [
            Suggestion(tokens=candidate, score=score, result_type=rtype)
            for candidate, score, rtype in scored[:k]
        ],
        len(merged),
    )


#: CleaningStats counters that sum across shards (work actually done).
_SUMMED_FIELDS = (
    "groups_processed",
    "candidates_evaluated",
    "entities_scored",
    "postings_read",
    "postings_skipped",
    "accumulator_evictions",
    "result_types_computed",
    "result_type_cache_hits",
    "result_type_cache_misses",
    "variant_cache_hits",
    "variant_cache_misses",
    "merged_cache_hits",
    "merged_cache_misses",
    "kernel_pruned",
)


def fold_cleaning_stats(
    per_shard: Sequence[CleaningStats],
    trace_id: str | None = None,
) -> CleaningStats:
    """One query's :class:`CleaningStats` from its per-shard legs.

    Work counters sum; ``keywords`` and ``space_size`` are global
    properties (identical on every shard — the candidate space is
    derived from the replicated global vocabulary) so the max is just
    defensive; ``partial`` is sticky.
    """
    folded = CleaningStats(trace_id=trace_id)
    for stats in per_shard:
        folded.keywords = max(folded.keywords, stats.keywords)
        folded.space_size = max(folded.space_size, stats.space_size)
        for field in _SUMMED_FIELDS:
            setattr(
                folded, field,
                getattr(folded, field) + getattr(stats, field),
            )
        if stats.partial:
            folded.partial = True
    return folded


@dataclass
class ShardedServiceStats:
    """Cumulative coordinator counters (whole service lifetime)."""

    queries_served: int = 0
    result_cache_hits: int = 0
    result_cache_misses: int = 0
    unanswerable: int = 0
    shed_queries: int = 0
    #: Answers missing at least one shard (all replicas and the
    #: in-process fallback failed); served flagged, never cached.
    partial_results: int = 0
    #: Shard legs that fell back to in-process execution.
    degraded_queries: int = 0
    #: Scatter legs handed to a replica pool.
    shard_dispatches: int = 0
    #: Legs answered by a later replica after an earlier one failed.
    replica_failovers: int = 0
    worker_timeouts: int = 0
    worker_failures: int = 0
    pool_starts: int = 0
    #: Shard legs dropped entirely (the ``partial`` answers' cause).
    shards_omitted: int = 0
    #: Live-update records durably applied via ``apply_updates``.
    updates_applied: int = 0
    #: Manifest swaps onto a freshly compacted generation.
    generation_swaps: int = 0


class _Replica:
    """One single-worker process pool serving one shard replica.

    The pool is started lazily on first dispatch and *retired*
    (shut down without waiting, restarted on next use) when its worker
    times out or crashes — with one process per pool, a hung worker
    poisons the whole pool, so retirement is the recycle policy.
    """

    def __init__(
        self,
        shard_id: int,
        replica_id: int,
        snapshot_path: str,
        config: XCleanConfig,
        breaker: CircuitBreaker,
        on_start=None,
    ):
        self.shard_id = shard_id
        self.replica_id = replica_id
        self.snapshot_path = snapshot_path
        self.breaker = breaker
        self.inflight = 0
        self._config = config
        self._on_start = on_start
        self._lock = threading.Lock()
        self._pool: ProcessPoolExecutor | None = None
        #: Workers of retired pools, reaped by :meth:`drain`'s caller.
        self._orphans: list = []

    def submit(self, task):
        """Dispatch one task; pairs with :meth:`done`."""
        with self._lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=1,
                    initializer=_init_worker_snapshot,
                    initargs=(self.snapshot_path, self._config),
                )
                if self._on_start is not None:
                    self._on_start()
            pool = self._pool
            self.inflight += 1
        try:
            return pool.submit(_worker_shard_partials, task)
        except Exception:
            with self._lock:
                self.inflight -= 1
            raise

    def done(self) -> None:
        with self._lock:
            self.inflight -= 1

    def retire(self) -> None:
        """Tear the pool down without waiting; next submit restarts it."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is None:
            return
        processes = stop_pool(pool)
        with self._lock:
            self._orphans.extend(p for p in processes if p.is_alive())

    def drain(self) -> list:
        """Shut down; returns processes for the caller to reap."""
        with self._lock:
            pool, self._pool = self._pool, None
            processes, self._orphans = self._orphans, []
        if pool is not None:
            processes.extend(stop_pool(pool))
        return processes


class ShardedSuggestionService(ServingCore):
    """Scatter-gather query serving over a shard manifest."""

    _mode = "sharded"

    def __init__(
        self,
        manifest: ShardManifest | str,
        config: XCleanConfig | None = None,
        replicas: int = 0,
        routing: str = DEFAULT_ROUTING,
        result_cache_size: int = DEFAULT_RESULT_CACHE_SIZE,
        workers: int | None = None,
        worker_timeout: float | None = None,
        metrics: MetricsRegistry | None = None,
        max_pending: int | None = None,
        breaker_threshold: int = DEFAULT_BREAKER_THRESHOLD,
        breaker_cooldown: float = DEFAULT_BREAKER_COOLDOWN,
        close_grace: float = DEFAULT_CLOSE_GRACE,
        tracer: Tracer | None = None,
        flight_recorder: FlightRecorder | None = None,
        flight_record_path: str | None = None,
        slow_threshold: float | None = None,
        degrade_in_process: bool = True,
    ):
        if isinstance(manifest, str):
            manifest = load_manifest(manifest)
        if routing not in ROUTING_POLICIES:
            raise ConfigurationError(
                f"unknown routing policy {routing!r}; "
                f"expected one of {ROUTING_POLICIES}"
            )
        if replicas < 0:
            raise ConfigurationError("replicas must be >= 0")
        min_depth = (config or XCleanConfig()).min_depth
        if manifest.partition_depth > min_depth:
            # Groups are rooted at min_depth; a coarser partition depth
            # keeps every group (hence every entity fold) on one shard.
            raise ConfigurationError(
                f"manifest partition_depth {manifest.partition_depth} "
                f"exceeds min_depth {min_depth}: subtree "
                "groups would span shards and the merge would not be "
                "exact"
            )
        super().__init__(
            stats=ShardedServiceStats(),
            config=config,
            result_cache_size=result_cache_size,
            workers=workers,
            worker_timeout=worker_timeout,
            metrics=metrics,
            max_pending=max_pending,
            close_grace=close_grace,
            tracer=tracer,
            flight_recorder=flight_recorder,
            flight_record_path=flight_record_path,
            slow_threshold=slow_threshold,
        )
        self.manifest = manifest
        self.replicas = replicas
        self.routing = routing
        self.degrade_in_process = degrade_in_process
        self._shard_paths = manifest.shard_paths()
        self.shard_count = len(self._shard_paths)
        #: Lazily built in-process suggesters, one per shard — the
        #: replicas=0 serving mode and the degrade fallback.
        self._local: dict[int, XCleanSuggester] = {}
        self._local_lock = threading.Lock()
        #: Per-shard replica pools and round-robin cursors (the cursors
        #: are guarded by ``_lock``).
        self._pools: list[list[_Replica]] = []
        self._rr = [0] * self.shard_count
        for shard_id, path in enumerate(self._shard_paths):
            row = []
            for replica_id in range(replicas):
                breaker = CircuitBreaker(
                    threshold=breaker_threshold,
                    cooldown=breaker_cooldown,
                    metrics=self.metrics_registry,
                    on_open=self._on_breaker_open,
                )
                row.append(_Replica(
                    shard_id, replica_id, path, self.config,
                    breaker, on_start=self._note_pool_start,
                ))
            self._pools.append(row)
        # Shard 0 eagerly: its corpus provides the tokenizer for cache
        # keys and the HTTP front-end, and validates the manifest's
        # first snapshot up front.
        self.corpus = self._local_suggester(0).corpus

    # Bound in this class body because perfbench's traced pass wraps
    # the service entry point through the class ``__dict__``.
    suggest_detailed = ServingCore.suggest_detailed

    def bump_generation(self) -> None:
        """Invalidate every cached answer (snapshot set replaced)."""
        with self._lock:
            self._swap_epoch += 1

    # ------------------------------------------------------------------
    # Serving-core hooks
    # ------------------------------------------------------------------

    def _index_identity(self) -> tuple[int, int]:
        """The manifest CRC and the swap epoch (see bump_generation)."""
        return (self.manifest.crc, self._swap_epoch)

    def _batch_width(self, workers: int | None) -> int:
        """Coordinator threads per batch; default ``replicas + 1``.

        Without replica pools (or once closed) every leg runs
        in-process under one lock, so a batch is served serially.
        """
        if self.replicas == 0 or self._closed:
            return 1
        workers = self.workers if workers is None else workers
        return self.replicas + 1 if workers is None else workers

    def _compute_misses(
        self, queries: list[str], k: int, width: int, cost: int,
        ctx: Context,
    ) -> list:
        """Scatter each unique miss from its own thread.

        Distinct queries overlap on distinct replicas.  Each runs on a
        fork of the batch's context — its own span stack under the
        batch's trace id — grafted back under the batch in query order
        once every thread is done.  Only ``QueryError`` makes a query
        unanswerable; a ``StorageError`` (every shard failed)
        propagates, as from the single-query path.
        """
        forks = [ctx.fork("query", query=query) for query in queries]

        def compute(query, fork):
            with fork:
                try:
                    return self._compute(query, k, fork)
                except QueryError:
                    return None

        with ThreadPoolExecutor(
            max_workers=min(width, len(queries))
        ) as executor:
            answers = list(executor.map(compute, queries, forks))
        for fork in forks:
            ctx.adopt(fork)
        return answers

    def _degraded_reasons(self) -> list[tuple[bool, str]]:
        """An open replica breaker degrades; a shard whose every
        replica breaker is open has fallen back to in-process execution
        entirely — degraded too (and named so).  A generation swap in
        progress is *ready*: the gate queues arrivals instead of
        shedding them, so routine live updates must not flap readiness.
        """
        degraded: list[tuple[bool, str]] = []
        for row in self._pools:
            open_replicas = 0
            for replica in row:
                if replica.breaker.state == "open":
                    open_replicas += 1
                    degraded.append((
                        True,
                        f"breaker_open shard={replica.shard_id} "
                        f"replica={replica.replica_id}",
                    ))
            if row and open_replicas == len(row):
                degraded.append((
                    True,
                    f"in_process_fallback shard={row[0].shard_id}",
                ))
        return degraded

    def _status_extras(self) -> dict:
        return {
            "swapping": self._swapping,
            "shard_count": self.shard_count,
            "replicas": self.replicas,
            "routing": self.routing,
            "shards": [
                {
                    "shard": shard_id,
                    "path": self._shard_paths[shard_id],
                    "replicas": [
                        {
                            "replica": replica.replica_id,
                            "breaker": replica.breaker.state,
                            "inflight": replica.inflight,
                        }
                        for replica in row
                    ],
                }
                for shard_id, row in enumerate(self._pools)
            ],
        }

    def _shutdown_workers(self) -> None:
        reap_processes(
            [
                process
                for row in self._pools
                for replica in row
                for process in replica.drain()
            ],
            self.close_grace,
        )

    def _span_attributes(self) -> dict:
        return {"shards": self.shard_count}

    def _note_pool_start(self) -> None:
        self._count("pool_starts")

    # ------------------------------------------------------------------
    # Live updates & the generation swap
    # ------------------------------------------------------------------
    #
    # The sharded tier folds updates *eagerly*: there is no per-shard
    # delta overlay (a coordinator-side overlay would have to straddle
    # the partition), so ``apply_updates`` WAL-acks the records against
    # the manifest directory, rebuilds every shard at generation N+1
    # through the atomic writer, and swaps the manifest in.  The core's
    # swap gate drains in-flight scatters first — a gathered answer
    # always merges partials of exactly one generation, and gated
    # arrivals are queued, never dropped.

    def enable_live_updates(
        self,
        document=None,
        *,
        fastss_max_errors: int | None = 3,
    ):
        """Attach the crash-safe live-update pipeline (see
        ``index/compaction.py``).  ``document`` seeds the logical
        document on the very first call; recovery-time opens need only
        the on-disk state.  When WAL replay finds acknowledged records
        that never reached a fold, they are compacted in (and the
        manifest swapped) before this returns.  Idempotent.
        """
        if self._live is not None:
            return self._live
        from repro.index.compaction import LiveIndexManager

        if not self.manifest.directory:
            raise ConfigurationError(
                "live updates need a manifest loaded from disk (the "
                "WAL and live source live next to it)"
            )
        live = LiveIndexManager(
            self.manifest.directory,
            document=document,
            base=self.manifest,
            metrics=self.metrics_registry,
            fastss_max_errors=fastss_max_errors,
        )
        self._live = live
        if live.recovered_records:
            # Acknowledged updates from before the crash: fold and
            # serve them now, not on the next apply.
            with self._update_lock:
                live.compact()
                self._swap_manifest_locked(live.base)
        elif live.generation != self.manifest.generation:
            # Recovery finished an interrupted compaction during the
            # open (no WAL records left to replay, but the manager's
            # manifest is a fresher generation than the one this
            # service loaded): swap it in so acknowledged updates are
            # served now, not after the next apply.
            with self._update_lock:
                self._swap_manifest_locked(live.base)
        return live

    def apply_updates(
        self, records, workers: int | None = None
    ) -> int:
        """Durably apply subtree updates; visible once this returns.

        Records are WAL-appended with an fsync (the acknowledge
        point), folded into every shard at generation N+1, and the
        manifest swapped — so the next admitted query is answered from
        the new generation on all shards.
        """
        live = self._require_live()
        error: Exception | None = None
        with self._update_lock:
            acked = live.acked_records
            folded = live.applied_records
            try:
                applied = live.apply(records)
            except Exception as exc:
                # Records before the bad one are already durable; fold
                # and serve them so "acknowledged" means "served" even
                # on the failure path.  Count only records that
                # actually reached the document — an acked record
                # whose fold failed is *not* applied, and compacting
                # now would reset the WAL and silently discard it, so
                # leave the log intact for replay-on-reopen instead.
                error = exc
                applied = live.applied_records - folded
                if live.acked_records - acked != applied:
                    applied = 0
            if applied:
                live.compact(workers=workers)
                self._swap_manifest_locked(live.base)
                self._count("updates_applied", applied)
        if error is not None:
            raise error
        return applied

    def compact(self, workers: int | None = None) -> int:
        """Fold any WAL'd records into a fresh generation and swap.

        With no pending records this still rolls the generation
        forward (a no-op fold), which is occasionally useful to force
        a clean base; returns the new generation number.
        """
        live = self._require_live()
        with self._update_lock:
            generation = live.compact(workers=workers)
            self._swap_manifest_locked(live.base)
        return generation

    def _swap_manifest_locked(self, manifest) -> None:
        """Install a freshly built manifest; zero dropped queries.

        Caller holds ``_update_lock``.  Closes the swap gate and waits
        for in-flight scatters to drain (their answers are entirely
        pre-swap; see :meth:`ServingCore._drained`), installs the new
        shard set, retires every replica pool (workers re-map the new
        snapshot files on next dispatch), and drops the in-process
        suggesters so the degrade path re-loads too.  The result cache
        rolls over via the manifest CRC + swap epoch in the cache key.
        """
        paths = manifest.shard_paths()
        if len(paths) != self.shard_count:
            raise ConfigurationError(
                f"generation swap cannot change the shard count "
                f"({self.shard_count} -> {len(paths)})"
            )
        ctx = Context(self.metrics_registry)
        with ctx.stage("swap"), self._drained(ctx):
            with self._local_lock:
                self._local = {}
            for row, path in zip(self._pools, paths):
                for replica in row:
                    replica.snapshot_path = path
                    replica.retire()
            with self._lock:
                self.manifest = manifest
                self._shard_paths = paths
                self._swap_epoch += 1
            self._count("generation_swaps")
            self.corpus = self._local_suggester(0).corpus

    # ------------------------------------------------------------------
    # Scatter / gather
    # ------------------------------------------------------------------

    def _compute(
        self, query: str, k: int, ctx: Context
    ) -> tuple[list[Suggestion], CleaningStats]:
        """One full scatter-gather pass (no caching, no admission)."""
        with ctx.stage("scatter", shards=self.shard_count):
            if self.replicas > 0 and not self._closed:
                legs = self._scatter_pooled(query, ctx)
            else:
                legs = [
                    self._query_shard_local(sid, query, ctx)
                    for sid in range(self.shard_count)
                ]
        if any(kind == "unanswerable" for kind, _, _ in legs):
            raise QueryError(
                f"query {query!r} has no usable keywords"
            )
        tables = [rows for kind, rows, _ in legs if kind == "ok"]
        omitted = sum(1 for kind, _, _ in legs if kind == "omitted")
        if not tables:
            raise StorageError(
                f"all {self.shard_count} shards failed; no answer "
                "possible"
            )
        with ctx.stage("gather", tables=len(tables)):
            suggestions, merged = merge_partial_tables(tables, k)
        stats = fold_cleaning_stats(
            [leg_stats for kind, _, leg_stats in legs
             if kind == "ok"],
            trace_id=ctx.trace_id,
        )
        stats.extra = dict(
            stats.extra or {},
            shards=self.shard_count,
            shards_omitted=omitted,
            merged_candidates=merged,
        )
        if omitted:
            stats.partial = True
        return suggestions, stats

    def _scatter_pooled(self, query: str, ctx: Context) -> list:
        """Fan one query to every shard's replicas; gather in order.

        Phase 1 dispatches one leg per shard so the shards overlap;
        phase 2 gathers each leg, walking that shard's failover ladder
        (next replica → in-process → omit) serially — failover is the
        cold path.
        """
        trace_ctx = (
            {"trace_id": ctx.trace_id} if ctx.trace is not None else None
        )
        orders = [
            self._replica_order(sid)
            for sid in range(self.shard_count)
        ]
        primaries: list[tuple | None] = []
        for sid, order in enumerate(orders):
            primary = None
            for replica in list(order):
                if not replica.breaker.allow():
                    continue
                order.remove(replica)
                primary = self._dispatch(replica, (query, trace_ctx, sid))
                break
            primaries.append(primary)
        return [
            self._gather_shard(
                sid, query, trace_ctx, orders[sid], primaries[sid], ctx
            )
            for sid in range(self.shard_count)
        ]

    def _dispatch(self, replica: _Replica, task) -> tuple | None:
        """Submit one leg; returns (replica, future, wall, perf)."""
        wall, perf = time.time(), perf_counter()
        try:
            future = replica.submit(task)
        except Exception:
            self._replica_failed(replica, "worker_failures")
            return None
        self._count("shard_dispatches", shard=str(replica.shard_id))
        return replica, future, wall, perf

    def _replica_failed(self, replica: _Replica, counter: str) -> None:
        self._count(counter)
        replica.breaker.record_failure()
        # One process per pool: a failed or hung worker poisons it, so
        # retire the pool and re-fork lazily on the next dispatch.
        replica.retire()

    def _gather_shard(
        self,
        sid: int,
        query: str,
        trace_ctx: dict | None,
        order: list,
        primary: tuple | None,
        ctx: Context,
    ) -> tuple:
        """One shard's answer: replica ladder → in-process → omitted."""
        task = (query, trace_ctx, sid)
        attempts = 0
        pending = primary
        while True:
            if pending is None:
                replica = None
                while order:
                    head = order.pop(0)
                    if head.breaker.allow():
                        replica = head
                        break
                if replica is None:
                    break
                pending = self._dispatch(replica, task)
                if pending is None:
                    continue
            replica, future, wall, perf = pending
            pending = None
            attempts += 1
            try:
                answer = future.result(self.worker_timeout)
            except (TimeoutError, _FuturesTimeout):
                future.cancel()
                replica.done()
                self._replica_failed(replica, "worker_timeouts")
                continue
            except Exception:
                replica.done()
                self._replica_failed(replica, "worker_failures")
                continue
            replica.done()
            replica.breaker.record_success()
            if attempts > 1:
                self._count(
                    "replica_failovers", attempts - 1, shard=str(sid)
                )
            if answer is None:
                return ("unanswerable", None, None)
            rows, stats, extras = answer
            # Scatter legs appear as sibling ``shard.task`` spans in
            # one trace tree, and hot shards per stage in metrics.
            ctx.absorb(
                extras["timings"], extras["span"], "shard.task", wall,
                perf, query=query, shard=sid,
                replica=replica.replica_id,
            )
            self._label_leg_timings(sid, extras["timings"])
            return ("ok", rows, stats)
        # Every replica refused or failed.
        if self.degrade_in_process:
            self._count("degraded_queries")
            try:
                return self._query_shard_local(sid, query, ctx)
            except StorageError as error:
                logger.warning(
                    "in-process fallback for shard %d failed: %s",
                    sid, error,
                )
        self._count("shards_omitted", shard=str(sid))
        logger.warning(
            "shard %d omitted from %r: every replica failed",
            sid, query,
        )
        return ("omitted", None, None)

    def _query_shard_local(
        self, sid: int, query: str, ctx: Context
    ) -> tuple:
        """One shard leg computed in-process (serial mode / fallback).

        The leg runs on its own context over the request's span stack:
        its stages land in the global histograms directly, and the
        timings it collects give the per-shard labeled totals.
        """
        suggester = self._local_suggester(sid)
        leg = Context(ctx.metrics, ctx.trace, ctx.recorder, timings=[])
        with self._compute_lock, ctx.stage("shard.local", shard=sid):
            try:
                rows, stats = suggester.partial_rows(query, leg)
            except QueryError:
                return ("unanswerable", None, None)
        self._label_leg_timings(sid, leg.timings)
        return ("ok", rows, stats)

    def _local_suggester(self, sid: int) -> XCleanSuggester:
        with self._local_lock:
            suggester = self._local.get(sid)
            if suggester is None:
                from repro.index.snapshot import load_snapshot

                suggester = XCleanSuggester(
                    load_snapshot(
                        self._shard_paths[sid],
                        metrics=self.metrics_registry,
                    ),
                    config=self.config,
                    metrics=self.metrics_registry,
                )
                self._local[sid] = suggester
            return suggester

    def _label_leg_timings(self, sid: int, timings) -> None:
        """Record a leg's stage totals under a per-shard counter."""
        totals: dict[str, float] = {}
        for stage, seconds in timings:
            totals[stage] = totals.get(stage, 0.0) + seconds
        metrics = self.metrics_registry
        for stage, total in totals.items():
            metrics.inc(
                "shard_stage_seconds_total", total,
                shard=str(sid), stage=stage,
            )

    def _replica_order(self, sid: int) -> list:
        """Replica preference order for one leg, per routing policy."""
        row = self._pools[sid]
        if not row:
            return []
        if self.routing == "least-loaded":
            return sorted(
                row, key=lambda r: (r.inflight, r.replica_id)
            )
        with self._lock:
            start = self._rr[sid]
            self._rr[sid] = (start + 1) % len(row)
        return row[start:] + row[:start]

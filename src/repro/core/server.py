"""The batch serving layer: one warm index, many queries.

:class:`SuggestionService` wraps an :class:`XCleanSuggester` with the
things a production front-end needs that a single ``suggest`` call
cannot provide.  Admission control, the whole-result LRU, the batch
API's de-duplication and accounting, tracing and the flight recorder
come from :class:`~repro.core.serving.ServingCore`, which it shares
with the sharded coordinator (``docs/serving.md`` → Serving core).
What this module adds is the single index's executor:

* a **persistent process pool** for batches: with ``workers`` > 1 the
  unique cache misses of a batch fan out over workers that share the
  read-only corpus index (a v3 snapshot is mapped by every worker from
  its path; otherwise, on POSIX, the fork inherits the parent's index
  pages copy-on-write, so workers start without re-building anything);
* **resilience**: the pool is started lazily, reused across batches
  (workers keep their warm caches), recycled after
  ``worker_recycle_after`` dispatched queries, and every dispatched
  query can carry a ``worker_timeout`` — on timeout the query is
  retried once and then *degraded* to in-process execution, so a hung
  or crashed worker slows one answer instead of losing it.  A suspect
  pool is torn down after the batch and restarted on demand;
* **self-healing** (see ``docs/serving.md`` → Reliability): a
  *circuit breaker* stops dispatching to a pool that keeps failing
  (open after ``breaker_threshold`` consecutive failures, half-open
  probe after ``breaker_cooldown`` seconds, transitions visible in
  metrics), and *snapshot quarantine* — when pool trouble coincides
  with a corrupt on-disk snapshot, the file is verified, moved aside,
  and the service degrades to the parent's still-valid mapping
  in-process;
* **pool observability**: each pool task runs on its own context and
  ships its raw stage timings back in the result payload, observed
  into the parent's registry; a traced worker returns its span
  subtree, stitched under a ``pool.task`` span.

Lifecycle: the service is a context manager; :meth:`close` shuts the
pool down.  A closed service still answers queries — parallel batches
simply degrade to in-process execution.
"""

from __future__ import annotations

import logging
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from dataclasses import dataclass
from time import perf_counter

from repro.core.cleaner import XCleanSuggester
from repro.core.config import XCleanConfig
from repro.core.serving import (
    DEFAULT_BREAKER_COOLDOWN,
    DEFAULT_BREAKER_THRESHOLD,
    DEFAULT_CLOSE_GRACE,
    DEFAULT_RESULT_CACHE_SIZE,
    CircuitBreaker,
    ServingCore,
    _init_worker,
    _init_worker_snapshot,
    reap_processes,
    stop_pool,
    worker_task,
)
from repro.core.suggestion import CleaningStats, Suggestion
from repro.exceptions import ConfigurationError, QueryError, StorageError
from repro.fastss.generator import VariantGenerator
from repro.index.corpus import CorpusIndex
from repro.obs import MetricsRegistry
from repro.obs.context import Context
from repro.obs.recorder import FlightRecorder
from repro.obs.trace import Tracer

logger = logging.getLogger(__name__)

#: Default number of dispatched queries after which the worker pool is
#: recycled (between batches).  Bounds slow leaks in long-lived
#: workers — fresh processes re-fork from the warm parent.
DEFAULT_RECYCLE_AFTER = 10_000


@dataclass
class ServiceStats:
    """Cumulative serving counters (whole service lifetime)."""

    queries_served: int = 0
    result_cache_hits: int = 0
    result_cache_misses: int = 0
    unanswerable: int = 0
    #: Process-pool lifecycle and resilience counters.
    pool_starts: int = 0
    pool_recycles: int = 0
    worker_timeouts: int = 0
    worker_failures: int = 0
    degraded_queries: int = 0
    #: Queries rejected with :class:`Overloaded` before any work ran
    #: (admission bound hit, or pool work refused by an open breaker).
    shed_queries: int = 0
    #: Answers served with ``CleaningStats.partial = True`` (deadline
    #: expired mid-query; best-so-far top-k, never cached).
    partial_results: int = 0
    #: Live-update records durably applied via :meth:`apply_updates`.
    updates_applied: int = 0
    #: Generation swaps: overlay installs, compactions, and snapshot
    #: hot-swaps (each one bumps the result-cache epoch).
    generation_swaps: int = 0
    #: Corrupt snapshot files moved aside (see ``index/snapshot.py``).
    snapshot_quarantined: int = 0
    #: Pickled size of the worker initializer payload (bytes).  With a
    #: snapshot-backed corpus this is a file path plus the config —
    #: constant in corpus size; the pickled-corpus fallback makes the
    #: O(corpus) transfer visible here.  0 until the first pool start.
    pool_init_bytes: int = 0


def _worker_suggest(task: tuple[str, int, dict | None]):
    """Answer one query in a pool worker (see ``serving.worker_task``).

    ``task`` is ``(query, k, trace_ctx)``.  Returns ``(suggestions,
    stats, extras)`` so the parent can keep the ``last_stats``
    contract, or ``None`` for an unanswerable query — the parent must
    *not* cache that (the serial path re-raises per occurrence, so a
    cached empty answer would diverge).
    """
    query, k, trace_ctx = task
    return worker_task(
        "worker.query", "worker", trace_ctx,
        lambda suggester, ctx: (
            tuple(suggester.suggest(query, k, ctx)), suggester.last_stats
        ),
        query=query,
    )


class SuggestionService(ServingCore):
    """Query-serving facade over one read-only :class:`CorpusIndex`."""

    _mode = "single"

    def __init__(
        self,
        corpus: CorpusIndex,
        config: XCleanConfig | None = None,
        generator: VariantGenerator | None = None,
        result_cache_size: int = DEFAULT_RESULT_CACHE_SIZE,
        workers: int | None = None,
        worker_timeout: float | None = None,
        worker_recycle_after: int = DEFAULT_RECYCLE_AFTER,
        metrics: MetricsRegistry | None = None,
        max_pending: int | None = None,
        breaker_threshold: int = DEFAULT_BREAKER_THRESHOLD,
        breaker_cooldown: float = DEFAULT_BREAKER_COOLDOWN,
        close_grace: float = DEFAULT_CLOSE_GRACE,
        tracer: Tracer | None = None,
        flight_recorder: FlightRecorder | None = None,
        flight_record_path: str | None = None,
        slow_threshold: float | None = None,
    ):
        super().__init__(
            stats=ServiceStats(),
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
        self.corpus = corpus
        corpus.bind_metrics(self.metrics_registry)
        self.suggester = XCleanSuggester(
            corpus,
            generator=generator,
            config=self.config,
            metrics=self.metrics_registry,
        )
        self.worker_recycle_after = worker_recycle_after
        self.breaker = CircuitBreaker(
            threshold=breaker_threshold,
            cooldown=breaker_cooldown,
            metrics=self.metrics_registry,
            on_open=self._on_breaker_open,
        )
        self._pool: ProcessPoolExecutor | None = None
        self._pool_workers = 0
        self._pool_tasks = 0
        self._pool_suspect = False
        #: Worker processes from suspect pools torn down without
        #: waiting; reaped (terminate/kill) by the next waiting
        #: shutdown so close() never leaks a hung worker.
        self._orphans: list = []
        #: Set when the backing snapshot file was quarantined: worker
        #: pools can no longer be initialized from it (and the mapped
        #: corpus is not picklable), so the service stays in-process on
        #: the parent's still-valid mapping.
        self._snapshot_degraded = False
        #: True while the serving corpus is a delta overlay: the
        #: overlay is not picklable and has no snapshot file, so the
        #: worker pool is pinned off until the next compaction swap.
        self._live_pinned = False

    # Bound in this class body because perfbench's traced pass wraps
    # the service entry point through ``SuggestionService.__dict__``.
    suggest_detailed = ServingCore.suggest_detailed

    # ------------------------------------------------------------------
    # Serving-core hooks
    # ------------------------------------------------------------------

    def _index_identity(self) -> tuple[int, int, int]:
        """Which index (and which generation of it) answers are from.

        ``_swap_epoch`` separates installs over the service lifetime —
        every ``apply_updates`` is one, so results never outlive an
        update even though the overlay corpus object stays the same
        (``id()`` alone can be reused by the allocator after the old
        index is collected); ``id(corpus)`` separates distinct index
        objects a long-lived service might be pointed at;
        ``generation`` (``QueryEngineMixin.bump_generation``, bumped
        only when an overlay outgrows its packer — live updates
        otherwise evict per token) separates packed key spaces of the
        *same* object.  Cached results keyed on a previous identity
        become unreachable rather than stale.
        """
        return (
            self._swap_epoch,
            id(self.corpus),
            getattr(self.corpus, "generation", 0),
        )

    def _compute(
        self, query: str, k: int, ctx: Context
    ) -> tuple[list[Suggestion], CleaningStats]:
        with self._compute_lock:
            suggestions = self.suggester.suggest(query, k, ctx)
            return suggestions, self.suggester.last_stats

    def _compute_misses(
        self, queries: list[str], k: int, width: int, cost: int,
        ctx: Context,
    ) -> list:
        """Answer unique misses on the process pool, degrading as needed."""
        if not self._closed and not self.breaker.allow():
            # Shed before any work: the pool keeps failing and the
            # parent must not absorb the whole batch in-process.
            raise self._shed(
                cost, "worker pool circuit breaker is open",
                self.breaker.retry_after(),
            )
        trace_ctx = (
            {"trace_id": ctx.trace_id} if ctx.trace is not None else None
        )
        return self._run_on_pool(
            [(query, k, trace_ctx) for query in queries], width, ctx
        )

    def _degraded_reasons(self) -> list[tuple[bool, str]]:
        """The pool breaker is open, the backing snapshot was
        quarantined, or the service is pinned to the in-process path
        (live overlay, or a suspect pool awaiting its re-fork)."""
        return [
            (self.breaker.state == "open", "breaker_open"),
            (self._snapshot_degraded, "snapshot_quarantined"),
            (self._live_pinned, "live_overlay_pinned"),
            (self._pool_suspect, "worker_pool_suspect"),
        ]

    def _status_extras(self) -> dict:
        return {
            "breaker": self.breaker.state,
            "live_pinned": self._live_pinned,
            "snapshot_quarantined": self._snapshot_degraded,
        }

    def _shutdown_workers(self) -> None:
        self._shutdown_pool(wait=True)

    # ------------------------------------------------------------------
    # Worker-pool plumbing (parent side)
    # ------------------------------------------------------------------

    def _run_on_pool(
        self, tasks: list[tuple[str, int, dict | None]], workers: int,
        ctx: Context,
    ) -> list:
        """Answer ``tasks`` on the pool, degrading where necessary."""
        pool = self._acquire_pool(workers)
        if pool is None:
            # No pool available (closed service or failed start):
            # everything runs in-process.
            return [self._degrade(task, ctx) for task in tasks]
        futures = []
        submitted_at = time.time()
        submitted_perf = perf_counter()
        for task in tasks:
            try:
                futures.append(pool.submit(_worker_suggest, task))
            except Exception:
                # Pool broke mid-submission; the remaining tasks (and
                # the failed submissions) degrade below.
                self._pool_suspect = True
                futures.append(None)
        self._pool_tasks += len(tasks)
        answers = [
            self._absorb_worker_answer(
                task, self._await_worker(task, future, ctx),
                submitted_at, submitted_perf, ctx,
            )
            for task, future in zip(tasks, futures)
        ]
        if self._pool_suspect:
            # A hung or crashed worker poisons the whole pool; tear it
            # down without waiting and re-fork on the next batch.
            self._shutdown_pool(wait=False)
            self._count("pool_recycles")
            # Pool trouble on a snapshot-backed corpus may mean the
            # file went bad under us (workers re-map it at init; the
            # parent's old mapping would not notice).  Verify and
            # quarantine before the next pool start re-maps garbage.
            self._check_snapshot_health()
        return answers

    def _check_snapshot_health(self) -> None:
        """Deep-verify the backing snapshot; quarantine on corruption.

        Only runs for snapshot-backed corpora that have not already
        been quarantined.  On a CRC (or injected) failure the file is
        moved aside, the ``snapshot_quarantined`` counters bump, and
        the service pins itself to in-process execution — the parent's
        mapping predates the corruption and POSIX keeps it valid
        across the rename, so answers stay correct.
        """
        if self._snapshot_degraded:
            return
        path = getattr(self.corpus, "snapshot_path", None)
        if path is None:
            return
        from repro.index.snapshot import (
            quarantine_snapshot,
            verify_snapshot,
        )

        try:
            verify_snapshot(path)
        except StorageError as error:
            logger.warning(
                "backing snapshot failed verification (%s); "
                "quarantining and degrading to in-process", error
            )
            quarantine_snapshot(path, metrics=self.metrics_registry)
            with self._lock:
                self.stats.snapshot_quarantined += 1
            self._snapshot_degraded = True
            self._auto_dump("snapshot_quarantine")
        except OSError:
            # File already rotated/removed: nothing to verify, but
            # workers cannot init from it either.
            self._snapshot_degraded = True

    def _absorb_worker_answer(self, task, answer, submitted_at: float,
                              submitted_perf: float, ctx: Context):
        """Fold a worker's extras into the batch; normalize the shape.

        Worker answers arrive as ``(suggestions, stats, extras)``;
        degraded (in-process) answers and unanswerable ``None``s pass
        through untouched.  The extras' stage timings are observed and
        the span subtree is stitched under a ``pool.task`` span covering
        submit → result (see :meth:`Context.absorb`).
        """
        if answer is None or len(answer) != 3:
            return answer
        suggestions, stats, extras = answer
        ctx.absorb(
            extras["timings"], extras["span"], "pool.task",
            submitted_at, submitted_perf, query=task[0],
        )
        return suggestions, stats

    def _await_worker(self, task: tuple[str, int, dict | None],
                      future, ctx: Context):
        """One worker answer: timeout → retry once → degrade.

        Every final outcome feeds the circuit breaker: a served answer
        (including a worker-side ``QueryError``) counts as success, an
        exhausted retry or a crash as one failure.
        """
        if future is not None:
            try:
                answer = future.result(self.worker_timeout)
                self.breaker.record_success()
                return answer
            except (TimeoutError, _FuturesTimeout):
                self._count("worker_timeouts")
                future.cancel()
                retry = self._resubmit(task)
                if retry is not None:
                    try:
                        answer = retry.result(self.worker_timeout)
                        self.breaker.record_success()
                        return answer
                    except (TimeoutError, _FuturesTimeout):
                        self._count("worker_timeouts")
                        retry.cancel()
                    except Exception:
                        self._count("worker_failures")
                self._pool_suspect = True
                self.breaker.record_failure()
            except Exception:
                # Worker crash / broken pool: degrade this answer and
                # let the batch finish.
                self._count("worker_failures")
                self._pool_suspect = True
                self.breaker.record_failure()
        return self._degrade(task, ctx)

    def _resubmit(self, task: tuple[str, int, dict | None]):
        pool = self._pool
        if pool is None:
            return None
        try:
            return pool.submit(_worker_suggest, task)
        except Exception:
            return None

    def _degrade(self, task: tuple[str, int, dict | None], ctx: Context):
        """In-process fallback, normalized to ``(suggestions, stats)``."""
        self._count("degraded_queries")
        query, k = task[0], task[1]
        try:
            with ctx.stage("degrade", query=query):
                suggestions, stats = self._compute(query, k, ctx)
        except QueryError:
            return None
        return tuple(suggestions), stats

    def _acquire_pool(
        self, workers: int
    ) -> ProcessPoolExecutor | None:
        """The persistent pool, started lazily and recycled when due."""
        if self._closed or self._snapshot_degraded or self._live_pinned:
            # Closed, the backing snapshot was quarantined (workers
            # cannot re-map it; the mapped corpus is not picklable), or
            # the service is serving a live delta overlay (in-memory
            # only — nothing on disk for a worker to map until the next
            # compaction): in-process execution on the parent's state.
            return None
        if self._pool is not None and (
            self._pool_workers != workers
            or self._pool_tasks >= self.worker_recycle_after
        ):
            self._shutdown_pool()
            self._count("pool_recycles")
        if self._pool is None:
            initializer, initargs = self._pool_init()
            try:
                self._pool = ProcessPoolExecutor(
                    max_workers=workers,
                    initializer=initializer,
                    initargs=initargs,
                )
            except Exception:
                return None
            self._pool_workers = workers
            self._pool_tasks = 0
            self._pool_suspect = False
            self._count("pool_starts")
        return self._pool

    def _pool_init(self):
        """Worker initializer and args — snapshot path when available.

        A snapshot-backed corpus ships only its file path; plain
        corpora fall back to pickling the whole index into every
        worker.  Either way the pickled payload size is recorded as
        ``pool_init_bytes`` (stat + counter) and logged — under the
        POSIX fork start method nothing is actually pickled, but the
        size is what a spawn-based start *would* transfer, which is
        the regression the metric exists to catch.
        """
        snapshot_path = getattr(self.corpus, "snapshot_path", None)
        if snapshot_path is not None:
            initializer = _init_worker_snapshot
            initargs: tuple = (snapshot_path, self.config)
        else:
            initializer = _init_worker
            initargs = (self.corpus, self.config)
        if self.stats.pool_init_bytes == 0:
            payload = len(pickle.dumps(initargs))
            self.stats.pool_init_bytes = payload
            self.metrics_registry.inc("pool_init_bytes", payload)
            if snapshot_path is None:
                logger.info(
                    "worker pool initialized with a pickled corpus "
                    "(%d bytes); build a v3 snapshot for constant-size "
                    "worker init",
                    payload,
                )
            else:
                logger.info(
                    "worker pool initialized from snapshot %s "
                    "(%d-byte init payload)",
                    snapshot_path,
                    payload,
                )
        return initializer, initargs

    def _shutdown_pool(self, wait: bool = True) -> None:
        """Tear the pool down; with ``wait``, never hang on it.

        Without ``wait`` (a suspect pool, or a retired generation) the
        workers are left to finish as orphans; a waiting shutdown reaps
        them together with the current pool's (see
        :func:`~repro.core.serving.reap_processes`).
        """
        pool, self._pool = self._pool, None
        self._pool_suspect = False
        processes = stop_pool(pool) if pool is not None else []
        if not wait:
            self._orphans.extend(p for p in processes if p.is_alive())
            return
        processes.extend(self._orphans)
        self._orphans = []
        reap_processes(processes, self.close_grace)

    # ------------------------------------------------------------------
    # Live updates & the generation swap
    # ------------------------------------------------------------------
    #
    # Serving follows the generation lifecycle of
    # ``index/compaction.py`` (build → serve → compact → swap →
    # retire).  Acknowledged updates become query-visible by swapping
    # the serving corpus to the delta overlay; a compaction folds them
    # into a fresh snapshot generation and swaps back to mapped
    # serving.  Every install happens under ``_compute_lock``, so no
    # in-process query ever straddles a swap: each answer is computed
    # entirely against exactly one generation.  In-flight *pooled*
    # queries ride the existing degrade ladder — the old pool is shut
    # down without waiting, running futures finish on the generation
    # they were admitted against, and cancelled ones re-run in-process
    # on the new one.  Zero queries are dropped either way.

    def enable_live_updates(
        self,
        document=None,
        *,
        index_path: str | None = None,
        max_records: int | None = None,
        fastss_max_errors: int | None = 3,
    ):
        """Attach a crash-safe live-update pipeline to this service.

        Opens (or recovers) the WAL and live-source sidecar next to
        the backing snapshot.  ``document`` seeds the logical document
        on the very first call against a fresh index; recovery-time
        opens need only the on-disk state.  When WAL replay finds
        acknowledged-but-unfolded records, the recovered overlay is
        installed immediately so those updates are query-visible from
        the first request.  Idempotent: repeat calls return the
        existing manager.
        """
        if self._live is not None:
            return self._live
        from repro.index.compaction import LiveIndexManager

        path = index_path or getattr(
            self.corpus, "snapshot_path", None
        )
        if path is None:
            raise ConfigurationError(
                "live updates need a snapshot-backed corpus (or an "
                "explicit index_path)"
            )
        kwargs: dict = {"fastss_max_errors": fastss_max_errors}
        if max_records is not None:
            kwargs["max_records"] = max_records
        base = (
            self.corpus
            if getattr(self.corpus, "snapshot_path", None) == path
            else None
        )
        live = LiveIndexManager(
            path,
            document=document,
            base=base,
            metrics=self.metrics_registry,
            **kwargs,
        )
        serving_generation = getattr(self.corpus, "data_generation", 0)
        self._live = live
        if live.delta.dirty:
            # Recovery replayed acknowledged records into the delta:
            # serve them now, not after the next apply.
            self._install(live.overlay, pin=True)
            self._after_swap()
        elif live.generation != serving_generation:
            # Recovery finished an interrupted compaction during the
            # open: the manager's base is a fresher generation than
            # the corpus this service loaded.  Install it — otherwise
            # the service would keep answering from the stale pre-fold
            # snapshot while ``data_generation`` already reports the
            # folded one.
            self._install(live.base, pin=False)
            self._after_swap()
        return live

    def apply_updates(self, records) -> int:
        """Durably apply subtree updates; visible once this returns.

        Each record is WAL-appended with an fsync before it is folded
        into the in-memory delta (see ``index/wal.py``), then the
        delta overlay is (re)installed as the serving corpus with a
        fresh suggester — so the very next request can both query and
        *misspell* the new content.  Raises ``UpdateError`` on an
        invalid record, in which case every record before it in
        ``records`` is already durable and served.
        """
        live = self._require_live()
        error: Exception | None = None
        with self._update_lock:
            with self._compute_lock:
                version = live.delta.version
                try:
                    applied = live.apply(records)
                except Exception as exc:
                    # Records before the bad one are already durable;
                    # install them so "acknowledged" means "served"
                    # even on the failure path.
                    error = exc
                    applied = live.delta.version - version
                if applied:
                    self._install_locked(live.corpus, pin=live.delta.dirty)
            if applied:
                self._count("updates_applied", applied)
        if applied:
            self._after_swap()
        if error is not None:
            raise error
        return applied

    def compact(self, workers: int | None = None) -> int:
        """Fold pending updates into a fresh snapshot generation.

        The build runs outside ``_compute_lock`` — queries keep being
        answered from the overlay the whole time — and only the final
        install takes the locks.  Returns the new generation number.
        """
        live = self._require_live()
        with self._update_lock:
            generation = live.compact(workers=workers)
            self._install(live.base, pin=False)
        self._after_swap()
        return generation

    def swap_snapshot(self, path: str | None = None):
        """Hot-swap serving onto a (new generation of a) snapshot.

        Loads ``path`` (default: the current snapshot's path, picking
        up an externally compacted generation) and installs it with
        zero dropped queries.  Returns the newly serving corpus.

        Runs under ``_update_lock`` so it serializes with
        :meth:`apply_updates` / :meth:`compact`: the snapshot is never
        read mid-replacement, and a swap can never re-install an older
        generation over one a concurrent compaction just installed.
        """
        from repro.index.snapshot import load_snapshot

        with self._update_lock:
            target = path or getattr(
                self.corpus, "snapshot_path", None
            )
            if target is None:
                raise ConfigurationError(
                    "swap_snapshot needs a snapshot-backed corpus or "
                    "an explicit path"
                )
            corpus = load_snapshot(
                target, metrics=self.metrics_registry
            )
            self._install(corpus, pin=False)
        self._after_swap()
        return corpus

    def _prepare_install(self, corpus) -> XCleanSuggester:
        """Build the per-generation serving state for ``corpus``.

        A suggester's variant generator can be expensive to build (it
        may build a deletion-neighborhood index), so it is built here,
        not on the first query, and writers call this *outside*
        ``_compute_lock`` (:meth:`_install`) whenever the target is not
        shared with in-flight queries — queries keep flowing on the old
        generation during the build.
        """
        corpus.bind_metrics(self.metrics_registry)
        suggester = XCleanSuggester(
            corpus,
            config=self.config,
            metrics=self.metrics_registry,
        )
        suggester.generator  # built on first use: use it now
        return suggester

    def _install(self, corpus, pin: bool) -> None:
        """Build ``corpus``'s serving state, then install it atomically."""
        suggester = self._prepare_install(corpus)
        with self._compute_lock:
            self._install_locked(corpus, pin=pin, suggester=suggester)

    def _install_locked(
        self, corpus, pin: bool, suggester: XCleanSuggester | None = None
    ) -> None:
        """Swap the serving corpus.  Caller holds ``_compute_lock``.

        Holding the compute lock is what makes the swap atomic from a
        query's point of view: no in-process computation straddles it,
        so every answer is entirely pre- or entirely post-swap.  The
        suggester is rebuilt (or swapped in pre-built) so its variant
        generator, language model and type finder all read the new
        generation, and no type finder outlives an update.  On the
        overlay path the rebuild is cheap: the overlay keeps one
        ``OverlayVariantGenerator`` per radius across installs.
        """
        metrics = self.metrics_registry
        with Context(metrics).stage("swap"):
            if suggester is None:
                suggester = self._prepare_install(corpus)
            with self._lock:
                self.corpus = corpus
                self.suggester = suggester
                self._swap_epoch += 1
                self._live_pinned = pin
                self._snapshot_degraded = False
                self.stats.generation_swaps += 1
        if metrics.enabled:
            metrics.inc("generation_swaps_total")

    def _after_swap(self) -> None:
        """Retire the previous generation's worker pool.

        Shut down without waiting: running futures complete on the
        generation they were admitted against (a whole answer from one
        generation — never mixed), cancelled ones degrade in-process
        onto the new corpus.  The next pooled batch forks fresh
        workers from the new snapshot.
        """
        self._shutdown_pool(wait=False)

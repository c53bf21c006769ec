"""The batch serving layer: one warm index, many queries.

:class:`SuggestionService` wraps an :class:`XCleanSuggester` with the
things a production front-end needs that a single ``suggest`` call
cannot provide:

* a **whole-result LRU cache** keyed by the *normalized* query (token
  sequence after tokenization) and k — real traffic is heavily skewed,
  and a hit skips Algorithm 1, variant generation, everything;
* a **batch API** (:meth:`SuggestionService.suggest_batch`) that
  de-duplicates the batch, serves cached entries, and optionally fans
  the remaining unique queries out over a **persistent process pool**
  whose workers share the read-only corpus index (on POSIX the fork
  inherits the parent's index pages copy-on-write, so workers start
  without re-building or re-pickling anything);
* **resilience**: the pool is started lazily, reused across batches
  (workers keep their warm caches), recycled after
  ``worker_recycle_after`` dispatched queries, and every dispatched
  query can carry a ``worker_timeout`` — on timeout the query is
  retried once and then *degraded* to in-process execution, so a hung
  or crashed worker slows one answer instead of losing it.  A suspect
  pool is torn down after the batch and restarted on demand;
* **self-healing** (see ``docs/serving.md`` → Reliability):
  *admission control* bounds concurrent in-flight work and sheds the
  excess with a typed :class:`~repro.exceptions.Overloaded` instead of
  queueing without bound; a per-pool *circuit breaker* stops
  dispatching to a pool that keeps failing (open after
  ``breaker_threshold`` consecutive failures, half-open probe after
  ``breaker_cooldown`` seconds, transitions visible in metrics); and
  *snapshot quarantine* — when pool trouble coincides with a corrupt
  on-disk snapshot, the file is verified, moved aside, and the service
  degrades to the parent's still-valid mapping in-process;
* **observability**: per-stage timers, counters, and latency
  histograms collected in a :class:`~repro.obs.MetricsRegistry`,
  snapshotted by :meth:`SuggestionService.metrics` as JSON or
  Prometheus text.  Pool workers keep their own registries and ship
  per-query stage-timer *deltas* back in the result payload; the
  parent merges them tally-for-tally, so ``metrics()`` covers pool
  work too.  With a live :class:`~repro.obs.Tracer` attached every
  request gets a span tree — batch fan-out included: each worker runs
  a per-task tracer under the parent's trace id, returns the finished
  subtree, and the parent stitches it under a ``pool.task`` span —
  and a :class:`~repro.obs.FlightRecorder` retains the last N traces
  plus every slow/partial/degraded/faulted one, dumped on demand
  (:meth:`SuggestionService.dump_flight_record`) or automatically
  when the circuit breaker opens or a snapshot is quarantined (see
  ``docs/observability.md``).

The service keeps the :class:`CleaningStats` contract on *both* batch
paths: after every served query ``last_stats`` describes the work done
for it (a cache hit reports ``result_cache_hits=1`` and no algorithm
work; a fresh parallel answer carries the worker's counters), and
unanswerable queries are tallied per occurrence and never cached.

Lifecycle: the service is a context manager; :meth:`close` shuts the
pool down.  A closed service still answers queries — parallel batches
simply degrade to in-process execution.
"""

from __future__ import annotations

import dataclasses
import logging
import os
import pickle
import threading
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from contextlib import contextmanager
from dataclasses import dataclass
from time import monotonic, perf_counter
from typing import Iterator, Sequence

from repro.core.cleaner import XCleanSuggester
from repro.core.config import XCleanConfig
from repro.core.suggestion import CleaningStats, Suggestion
from repro.exceptions import (
    ConfigurationError,
    Overloaded,
    QueryError,
    StorageError,
)
from repro.fastss.generator import VariantGenerator
from repro.index.corpus import CorpusIndex
from repro.obs import MetricsRegistry, MetricsSnapshot
from repro.obs.faults import active as _active_faults
from repro.obs.metrics import NULL_METRICS
from repro.obs.recorder import FlightEntry, FlightRecorder
from repro.obs.trace import NULL_TRACER, Span, Tracer

logger = logging.getLogger(__name__)

#: Result-LRU key: (index identity+generation, normalized tokens, k).
#: The identity component makes answers computed against a replaced or
#: invalidated snapshot unreachable instead of stale.  The leading
#: swap-epoch counter covers corpus *replacement* (id() can be reused
#: by the allocator once the old index is collected).
_CacheKey = tuple[tuple[int, int, int], tuple[str, ...], int]

#: Default bound of the whole-result LRU.
DEFAULT_RESULT_CACHE_SIZE = 4096

#: Default number of dispatched queries after which the worker pool is
#: recycled (between batches).  Bounds slow leaks in long-lived
#: workers — fresh processes re-fork from the warm parent.
DEFAULT_RECYCLE_AFTER = 10_000

#: Consecutive pool failures before the circuit breaker opens.
DEFAULT_BREAKER_THRESHOLD = 5

#: Seconds an open breaker waits before letting a half-open probe
#: batch through.
DEFAULT_BREAKER_COOLDOWN = 30.0

#: Seconds :meth:`SuggestionService.close` grants workers to exit
#: before escalating to ``terminate``/``kill`` — a hung worker must
#: never turn close() into a deadlock or a leaked process.
DEFAULT_CLOSE_GRACE = 1.0

#: Floor (seconds) of the ``retry_after`` hint attached to admission
#: rejections.  Before the service has latency samples this is the
#: whole hint; afterwards the hint tracks the request-latency EWMA —
#: roughly the time for one in-flight slot to free up.
DEFAULT_RETRY_AFTER = 0.05

#: Smoothing factor of the request-latency EWMA behind
#: :meth:`SuggestionService.retry_after_hint`.
_LATENCY_EWMA_ALPHA = 0.2


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


class CircuitBreaker:
    """Consecutive-failure circuit breaker guarding the worker pool.

    States: ``closed`` (dispatch normally) → ``open`` after
    ``threshold`` consecutive failures (dispatch refused; callers shed
    with :class:`Overloaded`) → ``half_open`` once ``cooldown`` seconds
    have passed (exactly one probe is let through) → back to ``closed``
    on probe success or ``open`` on probe failure.

    Transitions are recorded in the ``breaker_transitions_total``
    counter, labeled by destination state, so the current state is
    reconstructible from metrics.  ``clock`` is injectable for tests.
    ``on_open`` is an optional zero-argument callback invoked whenever
    the breaker transitions *to* open — the service uses it to dump
    the flight record while the evidence is still retained.
    """

    def __init__(
        self,
        threshold: int = DEFAULT_BREAKER_THRESHOLD,
        cooldown: float = DEFAULT_BREAKER_COOLDOWN,
        metrics: MetricsRegistry | None = None,
        clock=monotonic,
        on_open=None,
    ):
        if threshold < 1:
            raise ConfigurationError("breaker threshold must be >= 1")
        if cooldown < 0:
            raise ConfigurationError("breaker cooldown must be >= 0")
        self.threshold = threshold
        self.cooldown = cooldown
        self.state = "closed"
        self.failures = 0
        self.on_open = on_open
        self._metrics = metrics or NULL_METRICS
        self._clock = clock
        self._opened_at = 0.0

    def allow(self) -> bool:
        """May work be dispatched right now?

        In ``open`` state this flips to ``half_open`` (returning True —
        the caller's dispatch *is* the probe) once the cooldown has
        elapsed; in ``half_open`` further dispatches are refused until
        the in-flight probe resolves via ``record_*``.
        """
        if self.state == "closed":
            return True
        if self.state == "open":
            if self._clock() - self._opened_at >= self.cooldown:
                self._transition("half_open")
                return True
            return False
        return False  # half_open: one probe at a time

    def record_success(self) -> None:
        self.failures = 0
        if self.state != "closed":
            self._transition("closed")

    def record_failure(self) -> None:
        self.failures += 1
        if self.state == "half_open" or (
            self.state == "closed" and self.failures >= self.threshold
        ):
            self._opened_at = self._clock()
            self._transition("open")

    def retry_after(self) -> float | None:
        """Seconds until a probe would be allowed (None when not open)."""
        if self.state != "open":
            return None
        left = self.cooldown - (self._clock() - self._opened_at)
        return left if left > 0 else 0.0

    def _transition(self, to: str) -> None:
        if to == self.state:
            return
        logger.info("circuit breaker %s -> %s", self.state, to)
        self.state = to
        if self._metrics.enabled:
            self._metrics.inc("breaker_transitions_total", to=to)
        if to == "open" and self.on_open is not None:
            try:
                self.on_open()
            except Exception:  # pragma: no cover - diagnostics only
                logger.exception("breaker on_open callback failed")


# ----------------------------------------------------------------------
# Process-pool plumbing.  Module-level so the worker side is picklable;
# each worker builds its suggester once in the initializer and reuses
# it for every query it is handed.
# ----------------------------------------------------------------------

_WORKER_SUGGESTER: XCleanSuggester | None = None

#: Worker-local registry; per-task stage-timer *deltas* are shipped
#: back in the result payload and merged into the parent's registry,
#: so pool work shows up in ``SuggestionService.metrics()``.
_WORKER_METRICS: MetricsRegistry | None = None


def _enter_worker(config: XCleanConfig) -> None:
    """Shared worker-initializer prologue: faults, then the init site.

    The parent's fault plan travels in the (picklable) config, so it
    reaches workers under any start method, not just fork; a ``raise``
    at ``worker.init`` breaks the pool exactly like a real initializer
    crash (bad snapshot, OOM) would.
    """
    if config.fault_plan is not None:
        from repro.obs import faults

        faults.install_spec(config.fault_plan, seed=config.fault_seed)
    faults = _active_faults()
    if faults.enabled:
        faults.hit("worker.init")


def _init_worker(corpus: CorpusIndex, config: XCleanConfig) -> None:
    global _WORKER_SUGGESTER, _WORKER_METRICS
    _enter_worker(config)
    _WORKER_METRICS = MetricsRegistry(buckets=config.latency_buckets)
    _WORKER_SUGGESTER = XCleanSuggester(
        corpus, config=config, metrics=_WORKER_METRICS
    )


def _init_worker_snapshot(
    snapshot_path: str, config: XCleanConfig
) -> None:
    """Initialize a worker from a v3 snapshot path.

    Every worker mmaps the same file, so the posting bytes live once
    in the OS page cache no matter how many workers the pool runs —
    the init payload is a path string instead of a pickled corpus.
    """
    global _WORKER_SUGGESTER, _WORKER_METRICS
    from repro.index.snapshot import load_snapshot

    _enter_worker(config)
    _WORKER_METRICS = MetricsRegistry(buckets=config.latency_buckets)
    _WORKER_SUGGESTER = XCleanSuggester(
        load_snapshot(snapshot_path), config=config,
        metrics=_WORKER_METRICS,
    )


def _worker_suggest(task: tuple[str, int, dict | None]):
    """Answer one query in a worker.

    ``task`` is ``(query, k, trace_ctx)`` where ``trace_ctx`` is a
    small picklable dict carrying the parent's trace id (or ``None``
    when tracing is off).  Returns ``(suggestions, stats, extras)`` so
    the parent can keep the ``last_stats`` contract — ``extras`` holds
    the worker's per-query stage-timer deltas and, when traced, the
    finished ``worker`` span subtree for the parent to stitch.
    Returns ``None`` for an unanswerable query — the parent must *not*
    cache that (the serial path re-raises per occurrence, so a cached
    empty answer would diverge).
    """
    query, k, trace_ctx = task
    assert _WORKER_SUGGESTER is not None, "worker not initialized"
    faults = _active_faults()
    if faults.enabled:
        # ``raise`` here surfaces in the parent as a worker failure;
        # ``delay`` past the worker timeout exercises the retry →
        # degrade ladder.
        faults.hit("worker.query")
    registry = _WORKER_METRICS
    before = registry.stage_states() if registry is not None else {}
    tracer = None
    worker_span = None
    if trace_ctx is not None:
        tracer = Tracer()
        tracer.begin(
            "worker",
            trace_id=trace_ctx.get("trace_id"),
            query=query,
            pid=os.getpid(),
        )
        _WORKER_SUGGESTER.bind_tracer(tracer)
    try:
        try:
            suggestions = _WORKER_SUGGESTER.suggest(query, k)
        except QueryError:
            return None
    finally:
        if tracer is not None:
            worker_span = tracer.end()
            _WORKER_SUGGESTER.bind_tracer(None)
    extras: dict = {}
    if registry is not None:
        deltas = registry.stage_deltas(before)
        if deltas:
            extras["stages"] = deltas
    if worker_span is not None:
        extras["span"] = worker_span
    return (
        tuple(suggestions),
        _WORKER_SUGGESTER.last_stats,
        extras or None,
    )


class SuggestionService:
    """Query-serving facade over one read-only :class:`CorpusIndex`."""

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
        if max_pending is not None and max_pending < 1:
            raise ConfigurationError(
                "max_pending must be >= 1 or None (unbounded)"
            )
        self.corpus = corpus
        self.config = config or XCleanConfig()
        self.metrics_registry = metrics or MetricsRegistry(
            buckets=self.config.latency_buckets
        )
        corpus.bind_metrics(self.metrics_registry)
        self._installed_faults = False
        if self.config.fault_plan is not None:
            from repro.obs import faults

            faults.install_spec(
                self.config.fault_plan, seed=self.config.fault_seed
            )
            self._installed_faults = True
        self.tracer = tracer or NULL_TRACER
        self.suggester = XCleanSuggester(
            corpus,
            generator=generator,
            config=self.config,
            metrics=self.metrics_registry,
            tracer=self.tracer,
        )
        #: Retention of finished request traces; created automatically
        #: when a live tracer is attached (pass an explicit recorder to
        #: control capacities).  ``None`` when tracing is off.
        if flight_recorder is not None:
            self.flight_recorder: FlightRecorder | None = (
                flight_recorder
            )
        elif self.tracer.enabled:
            self.flight_recorder = FlightRecorder(
                slow_threshold=slow_threshold
            )
        else:
            self.flight_recorder = None
        if (
            self.flight_recorder is not None
            and slow_threshold is not None
        ):
            self.flight_recorder.slow_threshold = slow_threshold
        #: When set, automatic dumps (breaker open, snapshot
        #: quarantine) write JSONL here; on-demand dumps default to it.
        self.flight_record_path = flight_record_path
        self.result_cache_size = result_cache_size
        self._result_cache: OrderedDict[
            _CacheKey, tuple[Suggestion, ...]
        ] = OrderedDict()
        self.stats = ServiceStats()
        self.last_stats = CleaningStats()
        #: Default fan-out of ``suggest_batch`` when the call does not
        #: pass ``workers``; ``None``/1 means in-process serial.
        self.workers = workers
        self.worker_timeout = worker_timeout
        self.worker_recycle_after = worker_recycle_after
        #: Admission bound on concurrently admitted queries; ``None``
        #: disables shedding.  A batch is admitted whole, so a batch
        #: larger than the remaining headroom is shed up front.
        self.max_pending = max_pending
        self.close_grace = close_grace
        self.breaker = CircuitBreaker(
            threshold=breaker_threshold,
            cooldown=breaker_cooldown,
            metrics=self.metrics_registry,
            on_open=self._on_breaker_open,
        )
        #: Bookkeeping lock: guards admission (``_inflight``), the
        #: result-cache OrderedDict, :attr:`stats`, :attr:`last_stats`
        #: and the latency EWMA.  Reentrant so helpers can be called
        #: both standalone and from already-locked sections.  Never
        #: held across query computation.
        self._lock = threading.RLock()
        #: Serializes in-process use of :attr:`suggester`, whose
        #: internal caches (variant memo, accumulators, ``last_stats``)
        #: are not thread-safe.  Under the GIL pure-Python computation
        #: does not parallelize across threads anyway — concurrency
        #: comes from the process pool and from overlapping the I/O
        #: around this lock, never from concurrent suggester entry.
        self._compute_lock = threading.Lock()
        #: Per-query stats sink used by ``suggest_batch_detailed`` to
        #: collect one :class:`CleaningStats` per served query.
        #: Thread-local so a detailed batch on one thread cannot
        #: absorb stats of queries served concurrently on another.
        self._sink_local = threading.local()
        #: EWMA of recent request latency (seconds); 0.0 = no samples.
        self._latency_ewma = 0.0
        self._inflight = 0
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
        #: Monotonic swap-epoch counter; bumped on every corpus
        #: install (:meth:`swap_snapshot`, overlay installs,
        #: :meth:`compact`).  Part of :meth:`_index_identity` so the
        #: result LRU can never serve a pre-swap answer even if the
        #: allocator reuses the old corpus's ``id()``.
        self._swap_epoch = 0
        #: The :class:`~repro.index.compaction.LiveIndexManager` once
        #: :meth:`enable_live_updates` ran; ``None`` otherwise.
        self._live = None
        #: True while the serving corpus is a delta overlay: the
        #: overlay is not picklable and has no snapshot file, so the
        #: worker pool is pinned off until the next compaction swap.
        self._live_pinned = False
        #: Serializes writers (apply/compact) against each other while
        #: letting queries keep flowing during a compaction build.
        #: Lock order: ``_update_lock`` → ``_compute_lock`` → ``_lock``.
        self._update_lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Shut the worker pool down.  Idempotent.

        The service stays usable: later parallel batches degrade to
        in-process execution instead of forking new workers.

        Never deadlocks and never leaks processes: workers get
        ``close_grace`` seconds to exit, then are terminated and — as
        a last resort — killed (a worker hung in an injected or real
        infinite delay would otherwise block ``shutdown(wait=True)``
        forever).
        """
        self._closed = True
        self._shutdown_pool(wait=True)
        if self._live is not None:
            self._live.close()
        if self._installed_faults:
            from repro.obs import faults

            faults.uninstall()
            self._installed_faults = False

    def __enter__(self) -> "SuggestionService":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def metrics(self) -> MetricsSnapshot:
        """Stage-level metrics snapshot (dict / JSON / Prometheus).

        Includes per-stage latency histograms (``stage_seconds``:
        tokenize, variant_gen, merge, score, type_infer), request
        latencies, cache counters, and pool lifecycle counters —
        everything recorded in :attr:`metrics_registry`.  Pool workers
        keep their own registries but ship per-query stage deltas back
        with every answer; the parent merges them, so pool work
        appears here too.
        """
        return self.metrics_registry.snapshot()

    # ------------------------------------------------------------------
    # The ops plane (/readyz, /statusz — see repro/obs/ops.py)
    # ------------------------------------------------------------------

    def health(self, *, draining: bool = False):
        """Readiness verdict: ready / degraded / not_ready + reasons.

        Degraded means "still answering correctly, but impaired":
        the worker-pool breaker is open, the backing snapshot was
        quarantined, the service is pinned to the in-process path
        (live overlay, or a suspect pool awaiting its re-fork).
        ``draining`` is the front-end's shutdown flag.
        """
        from repro.obs.ops import evaluate_health

        with self._lock:
            breaker_state = self.breaker.state
            quarantined = self._snapshot_degraded
            pinned = self._live_pinned
            suspect = self._pool_suspect
            closed = self._closed
        return evaluate_health(
            not_ready=[
                (closed, "service_closed"),
                (draining, "draining"),
            ],
            degraded=[
                (breaker_state == "open", "breaker_open"),
                (quarantined, "snapshot_quarantined"),
                (pinned, "live_overlay_pinned"),
                (suspect, "worker_pool_suspect"),
            ],
        )

    def status(self) -> dict:
        """The service half of ``/statusz`` (see ``obs/ops.py``)."""
        with self._lock:
            payload = {
                "mode": "single",
                "data_generation": self.data_generation,
                "swap_epoch": self._swap_epoch,
                "inflight": self._inflight,
                "breaker": self.breaker.state,
                "live_pinned": self._live_pinned,
                "snapshot_quarantined": self._snapshot_degraded,
                "closed": self._closed,
                "stats": dataclasses.asdict(self.stats),
            }
        live = self._live
        payload["live"] = (
            live.status() if live is not None else None
        )
        return payload

    # ------------------------------------------------------------------
    # Tracing & the flight recorder
    # ------------------------------------------------------------------

    @contextmanager
    def _traced_request(self, name: str, query: str,
                        trace_id: str | None = None,
                        **attributes) -> Iterator[None]:
        """Root span + flight-recorder entry around one request.

        Owns the trace only when no span is already open (so a traced
        ``suggest_batch`` does not nest request roots under itself).
        On close, the service-level verdict flags (partial / degraded
        / faulted / error) are derived from :attr:`stats` deltas and
        the finished trace is retained by the flight recorder.

        ``trace_id`` lets a caller that already minted a correlation
        id (the HTTP front-end, at request arrival) make it the trace
        id, so the access-log line, the span tree, and any
        flight-recorder entry all share one id.
        """
        tracer = self.tracer
        if not tracer.enabled:
            yield
            return
        owns = tracer.current() is None
        if not owns:
            with tracer.span(name, query=query, **attributes):
                yield
            return
        stats = self.stats
        partial0 = stats.partial_results
        degraded0 = stats.degraded_queries
        faults = _active_faults()
        fired0 = sum(faults.fired().values()) if faults.enabled else 0
        tracer.begin(name, trace_id=trace_id, query=query, **attributes)
        error: str | None = None
        try:
            yield
        except BaseException as exc:
            error = type(exc).__name__
            tracer.annotate(error=error)
            raise
        finally:
            root = tracer.end()
            recorder = self.flight_recorder
            if root is not None and recorder is not None:
                fired = (
                    sum(faults.fired().values())
                    if faults.enabled else 0
                )
                recorder.record(FlightEntry(
                    root,
                    query=query,
                    latency_s=root.duration,
                    partial=stats.partial_results > partial0,
                    degraded=stats.degraded_queries > degraded0,
                    faulted=fired > fired0,
                    error=error,
                ))

    @property
    def _stats_sink(self) -> list[CleaningStats] | None:
        """The calling thread's detailed-batch stats sink (or None)."""
        return getattr(self._sink_local, "sink", None)

    @_stats_sink.setter
    def _stats_sink(self, value: list[CleaningStats] | None) -> None:
        self._sink_local.sink = value

    def _note_stats(self, stats: CleaningStats) -> None:
        """One query served: publish ``last_stats`` (and sink it)."""
        with self._lock:
            self.last_stats = stats
        sink = self._stats_sink
        if sink is not None:
            sink.append(stats)

    def _note_unanswerable(self) -> None:
        """One unanswerable query: sink empty stats, keep last_stats.

        ``last_stats`` has never described unanswerable queries (the
        serial path raises instead of serving them), so only the
        detailed-batch sink records a placeholder.
        """
        sink = self._stats_sink
        if sink is not None:
            sink.append(CleaningStats())

    def dump_flight_record(
        self, path: str | None = None, reason: str = "on_demand"
    ) -> str:
        """Dump retained traces as JSONL; returns path or payload.

        With ``path`` (or a configured ``flight_record_path``) the
        dump is written there and the path returned; otherwise the
        JSONL payload itself is returned.

        Raises:
            ConfigurationError: when no flight recorder is attached
                (tracing is off and none was passed explicitly).
        """
        recorder = self.flight_recorder
        if recorder is None:
            raise ConfigurationError(
                "no flight recorder attached — construct the service "
                "with a live tracer or an explicit flight_recorder"
            )
        destination = path or self.flight_record_path
        if destination is None:
            return recorder.dump_jsonl(reason)
        return recorder.dump_to(destination, reason)

    def _on_breaker_open(self) -> None:
        self._auto_dump("breaker_open")

    def _auto_dump(self, reason: str) -> None:
        """Preserve the flight record at a moment of failure.

        Writes to ``flight_record_path`` when configured; otherwise
        just logs what is retained (the in-memory rings survive for
        :meth:`dump_flight_record`).  Never raises: dumping is
        diagnostics, not serving.
        """
        recorder = self.flight_recorder
        if recorder is None:
            return
        if self.metrics_registry.enabled:
            self.metrics_registry.inc(
                "flight_dumps_total", reason=reason
            )
        path = self.flight_record_path
        if path is None:
            logger.warning(
                "flight record (%s): %d traces retained in memory; "
                "set flight_record_path for automatic dumps",
                reason, len(recorder),
            )
            return
        try:
            recorder.dump_to(path, reason)
        except OSError as error:  # pragma: no cover - disk trouble
            logger.warning(
                "flight record dump to %s failed: %s", path, error
            )
        else:
            logger.warning(
                "flight record dumped to %s (%d traces, reason: %s)",
                path, len(recorder), reason,
            )

    # ------------------------------------------------------------------
    # Single-query path
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

    def _cache_key(self, query: str, k: int) -> _CacheKey:
        """Normalize the query so trivial rewrites share a cache slot.

        The key embeds the snapshot identity/generation so a service
        whose index was swapped or invalidated can never serve answers
        computed against the old data.
        """
        return (
            self._index_identity(),
            tuple(self.corpus.tokenizer.tokenize(query)),
            k,
        )

    def _cache_put(
        self,
        key: _CacheKey,
        suggestions: Sequence[Suggestion],
    ) -> None:
        with self._lock:
            cache = self._result_cache
            cache[key] = tuple(suggestions)
            while len(cache) > self.result_cache_size:
                cache.popitem(last=False)

    # -- admission control ---------------------------------------------

    def retry_after_hint(self) -> float:
        """Backpressure-derived retry hint (seconds) for shed callers.

        Tracks the request-latency EWMA — roughly the time for one
        admitted slot to free — floored at :data:`DEFAULT_RETRY_AFTER`
        so the hint is always usable, even before the first sample.
        """
        with self._lock:
            return max(DEFAULT_RETRY_AFTER, self._latency_ewma)

    def _observe_latency(self, seconds: float) -> None:
        with self._lock:
            if self._latency_ewma == 0.0:
                self._latency_ewma = seconds
            else:
                self._latency_ewma += _LATENCY_EWMA_ALPHA * (
                    seconds - self._latency_ewma
                )

    def admit(self, cost: int = 1) -> None:
        """Reserve ``cost`` slots of in-flight work or shed typed.

        Thread-safe; front-ends call this *before* handing work to an
        executor so backpressure applies at arrival, not at dispatch.
        Every successful ``admit`` must be paired with
        :meth:`release`.

        Raises:
            Overloaded: when the reservation would exceed
                ``max_pending``; nothing is reserved in that case, and
                ``retry_after`` carries the backpressure hint.
        """
        with self._lock:
            limit = self.max_pending
            if limit is not None and self._inflight + cost > limit:
                self.stats.shed_queries += cost
                if self.metrics_registry.enabled:
                    self.metrics_registry.inc(
                        "shed_queries_total", cost
                    )
                raise Overloaded(
                    f"admission queue full ({self._inflight} in "
                    f"flight + {cost} requested > limit {limit})",
                    retry_after=max(
                        DEFAULT_RETRY_AFTER, self._latency_ewma
                    ),
                )
            self._inflight += cost

    def release(self, cost: int = 1) -> None:
        """Return ``cost`` previously admitted slots.  Thread-safe."""
        with self._lock:
            self._inflight -= cost

    # Internal spellings, kept for the call sites that predate the
    # public pair.
    _admit = admit
    _release = release

    def suggest(self, query: str, k: int = 10) -> list[Suggestion]:
        """Top-k suggestions, served from the result cache when possible.

        Raises:
            QueryError: when the query has no usable keywords (callers
                that prefer empty answers should use ``suggest_batch``).
            Overloaded: when admission control is over ``max_pending``.
        """
        return self.suggest_detailed(query, k)[0]

    def suggest_detailed(
        self, query: str, k: int = 10, *, pre_admitted: bool = False,
        trace_id: str | None = None,
    ) -> tuple[list[Suggestion], CleaningStats]:
        """:meth:`suggest` plus this call's own :class:`CleaningStats`.

        The thread-safe per-call contract: concurrent callers each get
        the stats describing *their* answer (``partial`` flag, cache
        counters), which the shared :attr:`last_stats` cannot promise
        under concurrency.  With ``pre_admitted=True`` the caller has
        already reserved its admission slot via :meth:`admit` (the
        HTTP front-end does, so shedding happens before the request
        ever occupies an executor thread) and keeps the obligation to
        :meth:`release` it.  ``trace_id`` is the caller-minted
        correlation id, if any (see :meth:`_traced_request`).
        """
        with self._traced_request("request", query, trace_id=trace_id):
            if not pre_admitted:
                self._admit(1)
            try:
                return self._suggest_one_detailed(query, k)
            finally:
                if not pre_admitted:
                    self._release(1)

    def _suggest_one(self, query: str, k: int) -> list[Suggestion]:
        """The single-query path, past admission control."""
        return self._suggest_one_detailed(query, k)[0]

    def _suggest_one_detailed(
        self, query: str, k: int
    ) -> tuple[list[Suggestion], CleaningStats]:
        """The single-query path, past admission control.

        Bookkeeping (stats, the result LRU) happens under
        :attr:`_lock`; the computation itself runs outside it, on
        :attr:`_compute_lock`.  Two threads racing on the same cold
        key may both compute — wasteful but correct (the HTTP tier's
        single-flight layer is what prevents it); both puts are
        idempotent.
        """
        metrics = self.metrics_registry
        began = perf_counter()
        key = self._cache_key(query, k)
        with self._lock:
            self.stats.queries_served += 1
            if metrics.enabled:
                metrics.inc("queries_total")
            cached = self._result_cache.get(key)
            if cached is not None:
                self._result_cache.move_to_end(key)
                self.stats.result_cache_hits += 1
                stats = CleaningStats(
                    result_cache_hits=1,
                    trace_id=self.tracer.trace_id,
                )
                self._note_stats(stats)
                if self.tracer.enabled:
                    self.tracer.event("result_cache_hit", query=query)
                if metrics.enabled:
                    metrics.inc("result_cache_hits_total")
                    metrics.observe(
                        "request_seconds", perf_counter() - began
                    )
                return list(cached), stats
        # Count the miss only once the suggester answers: unanswerable
        # queries raise and are tallied separately, exactly as in the
        # batch paths.
        with self._compute_lock:
            suggestions = self.suggester.suggest(query, k)
            stats = self.suggester.last_stats
        with self._lock:
            self.stats.result_cache_misses += 1
            stats.result_cache_misses += 1
            self._note_stats(stats)
            if stats.partial:
                # A deadline-truncated answer is served but never
                # cached — a transient overload must not become a
                # permanently incomplete top-k for this query.
                self.stats.partial_results += 1
                if metrics.enabled:
                    metrics.inc("partial_results_total")
            else:
                self._cache_put(key, suggestions)
            elapsed = perf_counter() - began
            self._observe_latency(elapsed)
            if metrics.enabled:
                metrics.inc("result_cache_misses_total")
                metrics.observe("request_seconds", elapsed)
        return list(suggestions), stats

    # ------------------------------------------------------------------
    # Batch path
    # ------------------------------------------------------------------

    def suggest_batch(
        self,
        queries: Sequence[str],
        k: int = 10,
        workers: int | None = None,
    ) -> list[list[Suggestion]]:
        """Answer every query; order and length match ``queries``.

        Unusable queries (no keywords after tokenization) yield empty
        lists instead of raising.  The batch is de-duplicated through
        the result cache first; with ``workers`` > 1 (or a service
        default) the remaining unique queries run on the persistent
        process pool over the shared index.

        Raises:
            Overloaded: when the whole batch does not fit under
                ``max_pending``, or pool work is refused because the
                circuit breaker is open — in both cases *before* any
                query of the batch runs, so shedding is all-or-nothing.
        """
        metrics = self.metrics_registry
        if metrics.enabled:
            metrics.inc("batches_total")
        tracer = self.tracer
        with self._traced_request(
            "batch", f"<batch of {len(queries)}>",
            queries=len(queries),
        ):
            self._admit(len(queries))
            try:
                if workers is None:
                    workers = self.workers
                if workers is not None and workers > 1:
                    return self._suggest_batch_parallel(
                        queries, k, workers
                    )
                out: list[list[Suggestion]] = []
                for query in queries:
                    try:
                        if tracer.enabled:
                            with tracer.span("query", query=query):
                                out.append(
                                    self._suggest_one(query, k)
                                )
                        else:
                            out.append(self._suggest_one(query, k))
                    except QueryError:
                        with self._lock:
                            self.stats.unanswerable += 1
                        self._note_unanswerable()
                        if metrics.enabled:
                            metrics.inc("unanswerable_total")
                        out.append([])
                return out
            finally:
                self._release(len(queries))

    def suggest_batch_detailed(
        self,
        queries: Sequence[str],
        k: int = 10,
        workers: int | None = None,
    ) -> list[tuple[list[Suggestion], CleaningStats]]:
        """:meth:`suggest_batch` plus one ``CleaningStats`` per query.

        The stats carry what batch callers cannot otherwise see per
        answer: the ``partial`` flag, cache hit/miss counters, and the
        ``trace_id`` when tracing is on (unanswerable queries get a
        fresh empty ``CleaningStats``).  This is what ``xclean batch
        --format json`` surfaces.
        """
        sink: list[CleaningStats] = []
        previous = self._stats_sink
        self._stats_sink = sink
        try:
            answers = self.suggest_batch(queries, k, workers)
        finally:
            self._stats_sink = previous
        if len(sink) != len(answers):  # pragma: no cover - invariant
            raise AssertionError(
                f"stats sink out of step: {len(sink)} stats for "
                f"{len(answers)} answers"
            )
        return list(zip(answers, sink))

    def _suggest_batch_parallel(
        self, queries: Sequence[str], k: int, workers: int
    ) -> list[list[Suggestion]]:
        metrics = self.metrics_registry
        keys = [self._cache_key(query, k) for query in queries]
        cache = self._result_cache
        # Unique cache misses, first-occurrence order.  Keys with no
        # usable tokens never reach a worker: they are unanswerable by
        # construction.
        pending: dict[_CacheKey, str] = {}
        with self._lock:
            for key, query in zip(keys, queries):
                if key not in cache and key not in pending and key[1]:
                    pending[key] = query
        # Freshly computed (suggestions, stats) by key; partial answers
        # live only here — they are served below but never cached.
        fresh: dict[
            _CacheKey,
            tuple[tuple[Suggestion, ...], CleaningStats],
        ] = {}
        if pending:
            if not self._closed and not self.breaker.allow():
                # Shed before any work: the pool keeps failing and the
                # parent must not absorb the whole batch in-process.
                with self._lock:
                    self.stats.shed_queries += len(queries)
                if metrics.enabled:
                    metrics.inc("shed_queries_total", len(queries))
                raise Overloaded(
                    "worker pool circuit breaker is open",
                    retry_after=self.breaker.retry_after(),
                )
            trace_ctx = (
                {"trace_id": self.tracer.trace_id}
                if self.tracer.enabled else None
            )
            tasks = [
                (query, k, trace_ctx) for query in pending.values()
            ]
            answers = self._run_on_pool(tasks, workers)
            for key, answer in zip(pending, answers):
                if answer is None:
                    # Unanswerable: never cached, so every occurrence
                    # below is tallied — same as the serial path, which
                    # re-raises per occurrence.
                    continue
                suggestions, stats = answer
                if not stats.partial:
                    self._cache_put(key, suggestions)
                fresh[key] = (tuple(suggestions), stats)
        out: list[list[Suggestion]] = []
        with self._lock:
            computed = {key for key in fresh if key in cache}
            for key in keys:
                self.stats.queries_served += 1
                if metrics.enabled:
                    metrics.inc("queries_total")
                cached = cache.get(key)
                if cached is not None:
                    cache.move_to_end(key)
                    if key in computed:
                        # First service of a freshly computed answer
                        # is a miss; duplicates later in the batch hit
                        # the cache.  The worker's stats become
                        # last_stats, mirroring the serial path's
                        # per-query contract.
                        computed.discard(key)
                        self.stats.result_cache_misses += 1
                        stats = fresh[key][1]
                        stats.result_cache_misses += 1
                        self._note_stats(stats)
                        if metrics.enabled:
                            metrics.inc("result_cache_misses_total")
                    else:
                        self.stats.result_cache_hits += 1
                        self._note_stats(CleaningStats(
                            result_cache_hits=1,
                            trace_id=self.tracer.trace_id,
                        ))
                        if metrics.enabled:
                            metrics.inc("result_cache_hits_total")
                    out.append(list(cached))
                    continue
                entry = fresh.get(key)
                if entry is not None:
                    # Deadline-truncated answer: served on every
                    # occurrence as an uncached miss, so a later retry
                    # can still get (and cache) the exact top-k.
                    suggestions, stats = entry
                    self.stats.result_cache_misses += 1
                    self.stats.partial_results += 1
                    self._note_stats(stats)
                    if metrics.enabled:
                        metrics.inc("result_cache_misses_total")
                        metrics.inc("partial_results_total")
                    out.append(list(suggestions))
                    continue
                # Empty token tuple or a failed/unanswerable worker
                # answer: unanswerable, never cached.
                self.stats.unanswerable += 1
                self._note_unanswerable()
                if metrics.enabled:
                    metrics.inc("unanswerable_total")
                out.append([])
        return out

    # ------------------------------------------------------------------
    # Worker-pool plumbing (parent side)
    # ------------------------------------------------------------------

    def _run_on_pool(
        self, tasks: list[tuple[str, int, dict | None]], workers: int
    ) -> list:
        """Answer ``tasks`` on the pool, degrading where necessary."""
        pool = self._acquire_pool(workers)
        if pool is None:
            # No pool available (closed service or failed start):
            # everything runs in-process.
            return [self._degrade(task) for task in tasks]
        futures = []
        # Wall clock anchors the pool.task span on the cross-process
        # timeline; the monotonic stamp measures its duration (a
        # wall-clock step — NTP, DST — must not yield a nonsense span).
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
                task, self._await_worker(task, future),
                submitted_at, submitted_perf,
            )
            for task, future in zip(tasks, futures)
        ]
        if self._pool_suspect:
            # A hung or crashed worker poisons the whole pool; tear it
            # down without waiting and re-fork on the next batch.
            self._shutdown_pool(wait=False)
            with self._lock:
                self.stats.pool_recycles += 1
            self.metrics_registry.inc("pool_recycles_total")
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
                              submitted_perf: float):
        """Fold a worker's extras into the parent; normalize the shape.

        Worker answers arrive as ``(suggestions, stats, extras)``;
        degraded (in-process) answers and unanswerable ``None``s pass
        through untouched.  ``extras`` carries the worker's per-query
        stage-timer deltas (merged into :attr:`metrics_registry`) and,
        when the task was traced, the finished ``worker`` span subtree
        — stitched under a parent-side ``pool.task`` span whose window
        covers submit → result, so worker time nests inside it on one
        coherent timeline.  ``submitted_at`` (wall clock) is the span's
        start timestamp; ``submitted_perf`` (monotonic) is what the
        duration is measured against.
        """
        if answer is None or len(answer) != 3:
            return answer
        suggestions, stats, extras = answer
        if extras:
            stages = extras.get("stages")
            if stages:
                self.metrics_registry.merge_stage_deltas(stages)
            worker_span = extras.get("span")
            tracer = self.tracer
            if worker_span is not None and tracer.enabled:
                elapsed = perf_counter() - submitted_perf
                task_span = Span(
                    "pool.task",
                    start=submitted_at,
                    duration=max(elapsed, worker_span.duration),
                    attributes={"query": task[0]},
                )
                task_span.children.append(worker_span)
                tracer.attach(task_span)
        return suggestions, stats

    def _await_worker(self, task: tuple[str, int, dict | None],
                      future):
        """One worker answer: timeout → retry once → degrade.

        Every final outcome feeds the circuit breaker: a served answer
        (including a worker-side ``QueryError``) counts as success, an
        exhausted retry or a crash as one failure.
        """
        metrics = self.metrics_registry
        if future is not None:
            try:
                answer = future.result(self.worker_timeout)
                self.breaker.record_success()
                return answer
            except (TimeoutError, _FuturesTimeout):
                with self._lock:
                    self.stats.worker_timeouts += 1
                metrics.inc("worker_timeouts_total")
                future.cancel()
                retry = self._resubmit(task)
                if retry is not None:
                    try:
                        answer = retry.result(self.worker_timeout)
                        self.breaker.record_success()
                        return answer
                    except (TimeoutError, _FuturesTimeout):
                        with self._lock:
                            self.stats.worker_timeouts += 1
                        metrics.inc("worker_timeouts_total")
                        retry.cancel()
                    except Exception:
                        with self._lock:
                            self.stats.worker_failures += 1
                        metrics.inc("worker_failures_total")
                self._pool_suspect = True
                self.breaker.record_failure()
            except Exception:
                # Worker crash / broken pool: degrade this answer and
                # let the batch finish.
                with self._lock:
                    self.stats.worker_failures += 1
                metrics.inc("worker_failures_total")
                self._pool_suspect = True
                self.breaker.record_failure()
        return self._degrade(task)

    def _resubmit(self, task: tuple[str, int, dict | None]):
        pool = self._pool
        if pool is None:
            return None
        try:
            return pool.submit(_worker_suggest, task)
        except Exception:
            return None

    def _degrade(self, task: tuple[str, int, dict | None]):
        """In-process fallback, normalized to ``(suggestions, stats)``."""
        with self._lock:
            self.stats.degraded_queries += 1
        self.metrics_registry.inc("degraded_queries_total")
        query, k = task[0], task[1]
        try:
            with self._compute_lock:
                with self.tracer.span("degrade", query=query):
                    suggestions = self.suggester.suggest(query, k)
                stats = self.suggester.last_stats
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
            with self._lock:
                self.stats.pool_recycles += 1
            self.metrics_registry.inc("pool_recycles_total")
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
            with self._lock:
                self.stats.pool_starts += 1
            self.metrics_registry.inc("pool_starts_total")
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

        ``ProcessPoolExecutor.shutdown(wait=True)`` joins worker
        processes, so a single hung worker (infinite loop, injected
        delay) would block forever.  Instead: signal shutdown without
        waiting, give the workers ``close_grace`` seconds to exit,
        then ``terminate()`` and finally ``kill()`` stragglers — the
        pool is gone, no process leaks, bounded time.
        """
        pool, self._pool = self._pool, None
        self._pool_suspect = False
        processes: list = []
        if pool is not None:
            processes = list(
                (getattr(pool, "_processes", None) or {}).values()
            )
            pool.shutdown(wait=False, cancel_futures=True)
        if not wait:
            self._orphans.extend(p for p in processes if p.is_alive())
            return
        processes.extend(self._orphans)
        self._orphans = []
        if not processes:
            return
        grace_ends = monotonic() + max(0.0, self.close_grace)
        for process in processes:
            process.join(max(0.0, grace_ends - monotonic()))
        stragglers = [p for p in processes if p.is_alive()]
        for process in stragglers:
            logger.warning(
                "worker %s did not exit within %.1fs; terminating",
                process.pid, self.close_grace,
            )
            process.terminate()
        for process in stragglers:
            process.join(1.0)
            if process.is_alive():  # pragma: no cover - last resort
                process.kill()
                process.join(1.0)

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

    @property
    def data_generation(self) -> int:
        """The data generation currently being served."""
        if self._live is not None:
            return self._live.generation
        return getattr(self.corpus, "data_generation", 0)

    @property
    def live(self):
        """The live-index manager, or ``None`` before enablement."""
        return self._live

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
            suggester = self._prepare_install(live.overlay)
            with self._compute_lock:
                self._install_locked(
                    live.overlay, pin=True, suggester=suggester
                )
            self._after_swap()
        elif live.generation != serving_generation:
            # Recovery finished an interrupted compaction during the
            # open: the manager's base is a fresher generation than
            # the corpus this service loaded.  Install it — otherwise
            # the service would keep answering from the stale pre-fold
            # snapshot while ``data_generation`` already reports the
            # folded one.
            suggester = self._prepare_install(live.base)
            with self._compute_lock:
                self._install_locked(
                    live.base, pin=False, suggester=suggester
                )
            self._after_swap()
        return live

    def _require_live(self):
        live = self._live
        if live is None:
            raise ConfigurationError(
                "live updates are not enabled; call "
                "enable_live_updates() first"
            )
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
                with self._lock:
                    self.stats.updates_applied += applied
                if self.metrics_registry.enabled:
                    self.metrics_registry.inc(
                        "updates_applied_total", applied
                    )
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
            suggester = self._prepare_install(live.base)
            with self._compute_lock:
                self._install_locked(
                    live.base, pin=False, suggester=suggester
                )
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
            suggester = self._prepare_install(corpus)
            with self._compute_lock:
                self._install_locked(
                    corpus, pin=False, suggester=suggester
                )
        self._after_swap()
        return corpus

    def _prepare_install(self, corpus) -> XCleanSuggester:
        """Build the per-generation serving state for ``corpus``.

        Constructing a suggester can be expensive (its variant
        generator may build a deletion-neighborhood index), so writers
        call this *outside* ``_compute_lock`` whenever the target is
        not shared with in-flight queries and hand the result to
        :meth:`_install_locked` — queries keep flowing on the old
        generation during the build.
        """
        corpus.bind_metrics(self.metrics_registry)
        return XCleanSuggester(
            corpus,
            config=self.config,
            metrics=self.metrics_registry,
            tracer=self.tracer,
        )

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
        began = perf_counter() if metrics.enabled else 0.0
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
            metrics.observe_stage("swap", perf_counter() - began)

    def _after_swap(self) -> None:
        """Retire the previous generation's worker pool.

        Shut down without waiting: running futures complete on the
        generation they were admitted against (a whole answer from one
        generation — never mixed), cancelled ones degrade in-process
        onto the new corpus.  The next pooled batch forks fresh
        workers from the new snapshot.
        """
        self._shutdown_pool(wait=False)

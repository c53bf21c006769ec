"""The serving core under both query services (``docs/serving.md``).

:class:`ServingCore` is the base class of
:class:`~repro.core.server.SuggestionService` (one index, optional
process pool) and :class:`~repro.core.shards.ShardedSuggestionService`
(scatter-gather over a shard manifest).  It owns, once, everything a
request does around the index:

* **admission control** — :meth:`ServingCore.admit` /
  :meth:`ServingCore.release` bound in-flight work and shed the excess
  with a typed :class:`~repro.exceptions.Overloaded` carrying a
  latency-derived ``retry_after``; the *swap gate* queues arrivals
  while a generation swap drains in-flight requests;
* the **whole-result LRU**, keyed by the service's index identity, the
  normalized query tokens and k;
* the **single-query and batch paths** and their accounting: after
  every served query ``last_stats`` describes the work done for it (a
  cache hit reports ``result_cache_hits=1`` and no algorithm work),
  unanswerable queries are tallied per occurrence and never cached,
  and partial answers are served but never cached;
* **tracing and the flight recorder** — a root span per request or
  batch, retained with its verdict flags, and automatic dumps when a
  breaker opens or a snapshot is quarantined;
* the **ops plane** skeletons (``health``, ``status``) and lifecycle.

A service supplies only what really differs, through the hooks at the
top of the class: the cache-key identity, one miss, a batch's unique
misses in parallel, its ops-plane details, and its worker shutdown.

The module also holds the process side both services' pools run: the
worker initializers, one task body (:func:`worker_task`), and the
parent-side helpers that stop a pool and reap its processes.
"""

from __future__ import annotations

import dataclasses
import logging
import os
import threading
from collections import OrderedDict
from multiprocessing.connection import wait as wait_ready
from contextlib import contextmanager
from time import monotonic, perf_counter, sleep
from typing import Callable, Iterator, Sequence

from repro.core.cleaner import XCleanSuggester
from repro.core.config import XCleanConfig
from repro.core.suggestion import CleaningStats, Suggestion
from repro.exceptions import ConfigurationError, Overloaded, QueryError
from repro.obs import MetricsRegistry, MetricsSnapshot
from repro.obs.context import Context
from repro.obs.faults import active as _active_faults
from repro.obs.metrics import NULL_METRICS
from repro.obs.recorder import FlightEntry, FlightRecorder
from repro.obs.trace import Tracer

logger = logging.getLogger(__name__)

#: Result-LRU key: (index identity, normalized tokens, k).  The
#: identity (see :meth:`ServingCore._index_identity`) makes answers
#: computed against a replaced or invalidated index unreachable instead
#: of stale.
_CacheKey = tuple[tuple[int, ...], tuple[str, ...], int]

#: Default bound of the whole-result LRU.
DEFAULT_RESULT_CACHE_SIZE = 4096

#: Consecutive pool failures before the circuit breaker opens.
DEFAULT_BREAKER_THRESHOLD = 5

#: Seconds an open breaker waits before letting a half-open probe
#: batch through.
DEFAULT_BREAKER_COOLDOWN = 30.0

#: Seconds ``close()`` grants workers to exit before escalating to
#: ``terminate``/``kill`` — a hung worker must never turn close() into
#: a deadlock or a leaked process.
DEFAULT_CLOSE_GRACE = 1.0

#: Floor (seconds) of the ``retry_after`` hint attached to admission
#: rejections.  Before the service has latency samples this is the
#: whole hint; afterwards the hint tracks the request-latency EWMA —
#: roughly the time for one in-flight slot to free up.
DEFAULT_RETRY_AFTER = 0.05

#: Smoothing factor of the request-latency EWMA behind
#: :meth:`ServingCore.retry_after_hint`.
_LATENCY_EWMA_ALPHA = 0.2


class CircuitBreaker:
    """Consecutive-failure circuit breaker guarding a worker pool.

    States: ``closed`` (dispatch normally) → ``open`` after
    ``threshold`` consecutive failures (dispatch refused; callers shed
    with :class:`Overloaded` or degrade) → ``half_open`` once
    ``cooldown`` seconds have passed (exactly one probe is let through)
    → back to ``closed`` on probe success or ``open`` on probe failure.

    Transitions are recorded in the ``breaker_transitions_total``
    counter, labeled by destination state, so the current state is
    reconstructible from metrics.  ``clock`` is injectable for tests.
    ``on_open`` is an optional zero-argument callback invoked whenever
    the breaker transitions *to* open — the services use it to dump
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
# The worker-process side.  Module-level so it is picklable; every pool
# or replica worker builds its suggester once in the initializer and
# reuses it for every task it is handed.
# ----------------------------------------------------------------------

_WORKER_SUGGESTER: XCleanSuggester | None = None

#: The worker's tracing switch: a traced task roots its own span stack
#: with this tracer's budgets (see ``Context.request``).
_WORKER_TRACER = Tracer()


def _enter_worker(config: XCleanConfig, load: Callable) -> None:
    """Shared initializer body: faults, the init site, the suggester.

    The parent's fault plan travels in the (picklable) config, so it
    reaches workers under any start method, not just fork; a ``raise``
    at ``worker.init`` breaks the pool exactly like a real initializer
    crash (bad snapshot, OOM) would.  ``load`` returns the corpus.
    """
    global _WORKER_SUGGESTER
    if config.fault_plan is not None:
        from repro.obs import faults

        faults.install_spec(config.fault_plan, seed=config.fault_seed)
    faults = _active_faults()
    if faults.enabled:
        faults.hit("worker.init")
    _WORKER_SUGGESTER = XCleanSuggester(load(), config=config)


def _init_worker(corpus, config: XCleanConfig) -> None:
    """Initialize a worker from a corpus pickled into it."""
    _enter_worker(config, lambda: corpus)


def _init_worker_snapshot(snapshot_path: str, config: XCleanConfig) -> None:
    """Initialize a worker from a v3 snapshot path.

    Every worker mmaps the same file, so the posting bytes live once
    in the OS page cache no matter how many workers (or replicas of a
    shard) run — the init payload is a path string instead of a
    pickled corpus.
    """
    from repro.index.snapshot import load_snapshot

    _enter_worker(config, lambda: load_snapshot(snapshot_path))


def worker_task(
    site: str,
    span_name: str,
    trace_ctx: dict | None,
    call: Callable[[XCleanSuggester, Context], tuple],
    **attributes,
):
    """The body of every pool task: ``call`` on this worker's suggester.

    Fires the fault ``site`` first (``raise`` surfaces in the parent as
    a worker failure; ``delay`` past the worker timeout exercises the
    retry → degrade ladder).  The call runs on the task's own
    :class:`~repro.obs.context.Context`, which collects its raw stage
    timings.  ``trace_ctx`` is a small picklable dict carrying the
    parent's trace id (``None`` when tracing is off); when set, the
    context also roots a ``span_name`` trace under that id, whose
    finished subtree comes back for the parent to stitch.

    Returns ``(*call(suggester, ctx), extras)`` — ``extras`` holds the
    task's ``timings`` and, when traced, its ``span`` — or ``None`` for
    an unanswerable query (``QueryError``), which the parent must not
    cache.
    """
    suggester = _WORKER_SUGGESTER
    assert suggester is not None, "worker not initialized"
    faults = _active_faults()
    if faults.enabled:
        faults.hit(site)
    ctx = Context.request(
        NULL_METRICS,
        _WORKER_TRACER if trace_ctx is not None else None,
        span_name,
        trace_id=trace_ctx.get("trace_id") if trace_ctx else None,
        timings=[],
        **attributes,
        pid=os.getpid(),
    )
    with ctx:
        try:
            result = call(suggester, ctx)
        except QueryError:
            return None
    return (*result, {"timings": ctx.timings, "span": ctx.root})


def stop_pool(pool) -> list:
    """Shut ``pool`` down without waiting; return its worker processes.

    The processes are read first: ``shutdown`` drops the executor's
    reference to them, and the caller still has to reap them.
    """
    processes = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    return processes


def _exited(process) -> bool:
    """Has ``process`` exited?  Read from its sentinel, not its exit code.

    The executor's own manager thread joins the same workers, and
    ``is_alive()`` reports a worker that thread has already reaped, but
    whose exit code it has not stored yet, as alive.
    """
    return bool(wait_ready([process.sentinel], 0))


def reap_processes(processes: Sequence, grace: float) -> None:
    """Grace-join, then terminate, then kill: never hang, never leak.

    ``ProcessPoolExecutor.shutdown(wait=True)`` joins worker processes,
    so a single hung worker (infinite loop, injected delay) would block
    forever.  Instead every process gets one shared ``grace`` deadline
    to exit, stragglers are terminated, and — as a last resort — killed.
    On return every exit code is recorded, so ``is_alive()`` is final.
    """
    grace_ends = monotonic() + max(0.0, grace)
    for process in processes:
        process.join(max(0.0, grace_ends - monotonic()))
    stragglers = [p for p in processes if not _exited(p)]
    for process in stragglers:
        logger.warning(
            "worker %s did not exit within %.1fs; terminating",
            process.pid, grace,
        )
        process.terminate()
    for process in stragglers:
        process.join(1.0)
        if not _exited(process):  # pragma: no cover - last resort
            process.kill()
            process.join(1.0)
    settle_ends = monotonic() + 1.0
    for process in processes:
        while process.exitcode is None and monotonic() < settle_ends:
            sleep(0.001)


class ServingCore:
    """Request machinery shared by both query services.

    Lock order: ``_update_lock`` → ``_compute_lock`` → ``_lock``.
    ``_lock`` guards the bookkeeping and is never held across query
    computation; ``_compute_lock`` serializes in-process suggesters;
    ``_update_lock`` serializes live-update writers.
    """

    #: ``status()["mode"]``.
    _mode = ""

    def __init__(
        self,
        *,
        stats,
        config: XCleanConfig | None,
        result_cache_size: int,
        workers: int | None,
        worker_timeout: float | None,
        metrics: MetricsRegistry | None,
        max_pending: int | None,
        close_grace: float,
        tracer: Tracer | None,
        flight_recorder: FlightRecorder | None,
        flight_record_path: str | None,
        slow_threshold: float | None,
    ):
        if max_pending is not None and max_pending < 1:
            raise ConfigurationError(
                "max_pending must be >= 1 or None (unbounded)"
            )
        self.config = config or XCleanConfig()
        self.metrics_registry = metrics or MetricsRegistry()
        self._installed_faults = False
        if self.config.fault_plan is not None:
            from repro.obs import faults

            faults.install_spec(
                self.config.fault_plan, seed=self.config.fault_seed
            )
            self._installed_faults = True
        #: The tracing switch (``None``: off).  Every request roots its
        #: own span stack with its budgets (``Context.request``) and
        #: publishes the finished tree as ``tracer.last_trace``.
        self.tracer = tracer
        #: Retention of finished request traces; created automatically
        #: when a live tracer is attached (pass an explicit recorder to
        #: control capacities).  ``None`` when tracing is off.
        if flight_recorder is not None:
            self.flight_recorder: FlightRecorder | None = (
                flight_recorder
            )
        elif tracer is not None:
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
        #: Cumulative serving counters (the service's stats dataclass).
        self.stats = stats
        self.last_stats = CleaningStats()
        #: Default fan-out of ``suggest_batch`` when the call does not
        #: pass ``workers`` (see :meth:`_batch_width`).
        self.workers = workers
        self.worker_timeout = worker_timeout
        #: Admission bound on concurrently admitted queries; ``None``
        #: disables shedding.  A batch is admitted whole, so a batch
        #: larger than the remaining headroom is shed up front.
        self.max_pending = max_pending
        self.close_grace = close_grace
        #: Bookkeeping lock: guards admission (``_inflight``), the
        #: result-cache OrderedDict, :attr:`stats`, :attr:`last_stats`
        #: and the latency EWMA (plus each service's own counters).
        #: Reentrant so helpers can be called both standalone and from
        #: already-locked sections.  Never held across computation.
        self._lock = threading.RLock()
        #: Serializes in-process use of the service's suggesters, whose
        #: internal caches (variant memo, accumulators, ``last_stats``)
        #: are not thread-safe.  Under the GIL pure-Python computation
        #: does not parallelize across threads anyway — concurrency
        #: comes from worker processes and from overlapping the I/O
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
        #: Monotonic swap-epoch counter, bumped on every install of new
        #: data; part of each service's :meth:`_index_identity`, so the
        #: result LRU can never serve a pre-swap answer.
        self._swap_epoch = 0
        #: Generation-swap gate: while True, :meth:`admit` blocks new
        #: queries (instead of shedding) until the swap completes, and
        #: the swap itself waits for in-flight queries to drain (see
        #: :meth:`_drained`).  Queries are briefly queued, never dropped.
        self._swapping = False
        self._swap_gate = threading.Condition(self._lock)
        #: The :class:`~repro.index.compaction.LiveIndexManager` once
        #: ``enable_live_updates`` ran; ``None`` otherwise.
        self._live = None
        #: Serializes writers (apply/compact/swap) against each other
        #: while letting queries keep flowing during a compaction build.
        self._update_lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------
    # Hooks: what each service supplies
    # ------------------------------------------------------------------

    def _index_identity(self) -> tuple[int, ...]:
        """Which index, and which generation of it, answers are from."""
        raise NotImplementedError

    def _compute(
        self, query: str, k: int, ctx: Context
    ) -> tuple[list[Suggestion], CleaningStats]:
        """Answer one cache miss on the request's context; raises
        ``QueryError`` if unanswerable."""
        raise NotImplementedError

    def _batch_width(self, workers: int | None) -> int:
        """Parallel width of a batch (``workers``, else the default).

        A width of 1 or less serves the batch serially, one query at a
        time through the single-query path.
        """
        return (self.workers if workers is None else workers) or 1

    def _compute_misses(
        self, queries: list[str], k: int, width: int, cost: int,
        ctx: Context,
    ) -> list:
        """Answer a batch's unique misses ``width``-wide in parallel.

        Returns one ``(suggestions, stats)`` per query, or ``None`` for
        an unanswerable one.  ``cost`` is the whole batch's admitted
        size: work refused up front sheds it all-or-nothing.  ``ctx``
        is the batch's context; parallel work never shares its span
        stack (see ``Context.fork`` / ``Context.absorb``).
        """
        raise NotImplementedError

    def _degraded_reasons(self) -> list[tuple[bool, str]]:
        """``(condition, reason)`` pairs for ``/readyz``; under _lock."""
        raise NotImplementedError

    def _status_extras(self) -> dict:
        """Service-specific ``/statusz`` fields; called under _lock."""
        raise NotImplementedError

    def _shutdown_workers(self) -> None:
        """Stop every worker process within ``close_grace`` seconds."""
        raise NotImplementedError

    def _span_attributes(self) -> dict:
        """Extra attributes of every request and batch root span."""
        return {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Shut the worker processes down.  Idempotent.

        The service stays usable: later queries and batches run
        in-process instead of starting new workers.  Never deadlocks
        and never leaks processes: workers get ``close_grace`` seconds
        to exit, then are terminated and — as a last resort — killed.
        """
        self._closed = True
        self._shutdown_workers()
        if self._live is not None:
            self._live.close()
        if self._installed_faults:
            from repro.obs import faults

            faults.uninstall()
            self._installed_faults = False

    def __enter__(self) -> "ServingCore":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def metrics(self) -> MetricsSnapshot:
        """Stage-level metrics snapshot (dict / JSON / Prometheus).

        Includes per-stage latency histograms (``stage_seconds``:
        tokenize, variant_gen, merge, score, type_infer), request
        latencies, cache counters, and pool lifecycle counters —
        everything recorded in :attr:`metrics_registry`.  Workers ship
        each task's raw stage timings back with its answer and the
        parent observes them, so worker time appears here too (the
        sharded service also records each leg's stage totals under
        ``shard_stage_seconds_total{shard=..., stage=...}``).
        """
        return self.metrics_registry.snapshot()

    # ------------------------------------------------------------------
    # The ops plane (/readyz, /statusz — see repro/obs/ops.py)
    # ------------------------------------------------------------------

    def health(self, *, draining: bool = False):
        """Readiness verdict: ready / degraded / not_ready + reasons.

        Not ready once closed or while the front-end drains
        (``draining``).  Degraded means "still answering correctly, but
        impaired"; each service names its reasons.
        """
        from repro.obs.ops import evaluate_health

        with self._lock:
            closed = self._closed
            degraded = self._degraded_reasons()
        return evaluate_health(
            not_ready=[
                (closed, "service_closed"),
                (draining, "draining"),
            ],
            degraded=degraded,
        )

    def status(self) -> dict:
        """The service half of ``/statusz`` (see ``obs/ops.py``)."""
        with self._lock:
            payload = {
                "mode": self._mode,
                "data_generation": self.data_generation,
                "swap_epoch": self._swap_epoch,
                "inflight": self._inflight,
                **self._status_extras(),
                "closed": self._closed,
                "stats": dataclasses.asdict(self.stats),
            }
        live = self._live
        payload["live"] = (
            live.status() if live is not None else None
        )
        return payload

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

    def _require_live(self):
        live = self._live
        if live is None:
            raise ConfigurationError(
                "live updates are not enabled; call "
                "enable_live_updates() first"
            )
        return live

    # ------------------------------------------------------------------
    # Tracing & the flight recorder
    # ------------------------------------------------------------------

    @contextmanager
    def _traced_request(self, name: str, query: str,
                        trace_id: str | None = None,
                        **attributes) -> Iterator[Context]:
        """The request's own :class:`Context` (and flight entry).

        Every request and batch runs on a fresh context: with tracing
        on, its own span stack rooted at ``name``, so concurrent
        requests never share spans.  On close, the service-level
        verdict flags (partial / degraded / faulted / error) are
        derived from :attr:`stats` deltas and the finished trace is
        retained by the flight recorder.

        ``trace_id`` lets a caller that already minted a correlation
        id (the HTTP front-end, at request arrival) make it the trace
        id, so the access-log line, the span tree, and any
        flight-recorder entry all share one id.
        """
        ctx = Context.request(
            self.metrics_registry, self.tracer, name, trace_id=trace_id,
            query=query, **attributes, **self._span_attributes(),
        )
        stats = self.stats
        partial0 = stats.partial_results
        degraded0 = stats.degraded_queries
        faults = _active_faults()
        fired0 = sum(faults.fired().values()) if faults.enabled else 0
        error: str | None = None
        try:
            with ctx:
                yield ctx
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            root = ctx.root
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

    def _note_hit(self, ctx: Context) -> CleaningStats:
        """One answer served from the result cache; returns its stats."""
        with self._lock:
            self.stats.result_cache_hits += 1
            stats = CleaningStats(
                result_cache_hits=1, trace_id=ctx.trace_id
            )
            self._note_stats(stats)
        if self.metrics_registry.enabled:
            self.metrics_registry.inc("result_cache_hits_total")
        return stats

    def _note_miss(self, stats: CleaningStats) -> None:
        """One freshly computed answer served (partial ones included)."""
        metrics = self.metrics_registry
        with self._lock:
            self.stats.result_cache_misses += 1
            self._note_stats(stats)
            if stats.partial:
                self.stats.partial_results += 1
        if metrics.enabled:
            metrics.inc("result_cache_misses_total")
            if stats.partial:
                metrics.inc("partial_results_total")

    def _note_unanswerable(self) -> None:
        """One unanswerable query: count it, sink empty stats.

        ``last_stats`` has never described unanswerable queries (the
        single-query path raises instead of serving them), so only the
        detailed-batch sink records a placeholder.
        """
        self._count("unanswerable")
        sink = self._stats_sink
        if sink is not None:
            sink.append(CleaningStats())

    def _count(self, field: str, amount: int = 1, **labels: str) -> None:
        """Add ``amount`` to ``stats.<field>`` and ``<field>_total``."""
        with self._lock:
            setattr(self.stats, field, getattr(self.stats, field) + amount)
        if self.metrics_registry.enabled:
            self.metrics_registry.inc(f"{field}_total", amount, **labels)

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
    # The result cache & admission control
    # ------------------------------------------------------------------

    def _cache_key(self, query: str, k: int) -> _CacheKey:
        """Normalize the query so trivial rewrites share a cache slot.

        The key embeds the index identity so a service whose index was
        swapped or invalidated can never serve answers computed against
        the old data.
        """
        return (
            self._index_identity(),
            tuple(self.corpus.tokenizer.tokenize(query)),
            k,
        )

    def _cache_put(
        self, key: _CacheKey, suggestions: Sequence[Suggestion]
    ) -> None:
        with self._lock:
            cache = self._result_cache
            cache[key] = tuple(suggestions)
            while len(cache) > self.result_cache_size:
                cache.popitem(last=False)

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
        :meth:`release`.  While a generation swap drains, arrivals wait
        here (queued, not shed) until the new generation is installed,
        so no request straddles two generations.

        Raises:
            Overloaded: when the reservation would exceed
                ``max_pending``; nothing is reserved in that case, and
                ``retry_after`` carries the backpressure hint.
        """
        with self._lock:
            while self._swapping:
                self._swap_gate.wait()
            limit = self.max_pending
            if limit is not None and self._inflight + cost > limit:
                raise self._shed(
                    cost,
                    f"admission queue full ({self._inflight} in "
                    f"flight + {cost} requested > limit {limit})",
                    max(DEFAULT_RETRY_AFTER, self._latency_ewma),
                )
            self._inflight += cost

    def release(self, cost: int = 1) -> None:
        """Return ``cost`` previously admitted slots.  Thread-safe."""
        with self._lock:
            self._inflight -= cost
            if self._swapping and self._inflight == 0:
                self._swap_gate.notify_all()

    def _shed(
        self, cost: int, message: str, retry_after: float | None
    ) -> Overloaded:
        """Count ``cost`` shed queries; returns the error to raise."""
        self._count("shed_queries", cost)
        return Overloaded(message, retry_after=retry_after)

    @contextmanager
    def _drained(self, ctx: Context) -> Iterator[None]:
        """Close the swap gate and wait for in-flight requests to drain.

        Inside the block nothing is admitted and nothing is in flight;
        on exit the gate reopens and queued arrivals proceed.  The wait
        is ``ctx``'s ``swap_drain`` stage: how long new arrivals sat
        queued behind the gate, the availability-relevant slice of a
        swap.
        """
        with ctx.stage("swap_drain"), self._lock:
            self._swapping = True
            while self._inflight > 0:
                self._swap_gate.wait()
        try:
            yield
        finally:
            with self._lock:
                self._swapping = False
                self._swap_gate.notify_all()

    # ------------------------------------------------------------------
    # The single-query path
    # ------------------------------------------------------------------

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
        with self._traced_request(
            "request", query, trace_id=trace_id
        ) as ctx:
            if not pre_admitted:
                self.admit(1)
            try:
                return self._suggest_one_detailed(query, k, ctx)
            finally:
                if not pre_admitted:
                    self.release(1)

    def _suggest_one_detailed(
        self, query: str, k: int, ctx: Context
    ) -> tuple[list[Suggestion], CleaningStats]:
        """The single-query path, past admission control.

        Bookkeeping (stats, the result LRU) happens under
        :attr:`_lock`; the computation itself (:meth:`_compute`) runs
        outside it.  Two threads racing on the same cold key may both
        compute — wasteful but correct (the HTTP tier's single-flight
        layer is what prevents it); both puts are idempotent.
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
                stats = self._note_hit(ctx)
                ctx.event("result_cache_hit", query=query)
                if metrics.enabled:
                    metrics.observe(
                        "request_seconds", perf_counter() - began
                    )
                return list(cached), stats
        # Count the miss only once the answer exists: unanswerable
        # queries raise and are tallied separately, exactly as in the
        # batch paths.
        suggestions, stats = self._compute(query, k, ctx)
        with self._lock:
            stats.result_cache_misses += 1
            self._note_miss(stats)
            if not stats.partial:
                # A partial answer (deadline expired mid-query, or a
                # shard omitted) is served but never cached — a
                # transient overload must not become a permanently
                # incomplete top-k for this query.
                self._cache_put(key, suggestions)
            elapsed = perf_counter() - began
            self._observe_latency(elapsed)
            if metrics.enabled:
                metrics.observe("request_seconds", elapsed)
        return list(suggestions), stats

    # ------------------------------------------------------------------
    # The batch path
    # ------------------------------------------------------------------

    def suggest_batch(
        self,
        queries: Sequence[str],
        k: int = 10,
        workers: int | None = None,
    ) -> list[list[Suggestion]]:
        """Answer every query; order and length match ``queries``.

        Unusable queries (no keywords after tokenization) yield empty
        lists instead of raising.  When the batch width
        (:meth:`_batch_width`: ``workers``, else the service default)
        is above 1, the batch is de-duplicated through the result cache
        and its unique misses are computed in parallel; otherwise each
        query takes the single-query path in turn.

        Raises:
            Overloaded: when the whole batch does not fit under
                ``max_pending``, or parallel work is refused because a
                circuit breaker is open — in both cases *before* any
                query of the batch runs, so shedding is all-or-nothing.
            StorageError: when no answer is possible at all (every
                shard failed): an outage is not an unanswerable query.
        """
        metrics = self.metrics_registry
        if metrics.enabled:
            metrics.inc("batches_total")
        with self._traced_request(
            "batch", f"<batch of {len(queries)}>",
            queries=len(queries),
        ) as ctx:
            self.admit(len(queries))
            try:
                width = self._batch_width(workers)
                if width > 1:
                    return self._serve_batch(queries, k, width, ctx)
                out: list[list[Suggestion]] = []
                for query in queries:
                    try:
                        with ctx.stage("query", query=query):
                            answer, _ = self._suggest_one_detailed(
                                query, k, ctx
                            )
                    except QueryError:
                        self._note_unanswerable()
                        answer = []
                    out.append(answer)
                return out
            finally:
                self.release(len(queries))

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

    def _serve_batch(
        self, queries: Sequence[str], k: int, width: int, ctx: Context
    ) -> list[list[Suggestion]]:
        """The parallel batch path: compute unique misses, then serve.

        Unique cache misses (first-occurrence order) are computed by
        :meth:`_compute_misses` and cached unless partial.  Then every
        occurrence is served through the cache under the lock on the
        calling thread, which keeps the per-query ``last_stats``/sink
        contract single-threaded: the first service of a fresh answer
        is a miss and later duplicates hit the cache; an uncached
        (partial or already evicted) answer is a miss on every
        occurrence; a query without an answer is unanswerable on every
        occurrence.  Keys with no usable tokens are unanswerable by
        construction and never computed.
        """
        metrics = self.metrics_registry
        keys = [self._cache_key(query, k) for query in queries]
        cache = self._result_cache
        pending: dict[_CacheKey, str] = {}
        with self._lock:
            for key, query in zip(keys, queries):
                if key not in cache and key not in pending and key[1]:
                    pending[key] = query
        # Freshly computed (suggestions, stats) by key; partial answers
        # live only here — they are served below but never cached.
        fresh: dict[
            _CacheKey, tuple[tuple[Suggestion, ...], CleaningStats]
        ] = {}
        if pending:
            answers = self._compute_misses(
                list(pending.values()), k, width, len(queries), ctx
            )
            for key, answer in zip(pending, answers):
                if answer is None:
                    continue
                suggestions, stats = answer
                stats.result_cache_misses += 1
                fresh[key] = (tuple(suggestions), stats)
                if not stats.partial:
                    self._cache_put(key, suggestions)
        out: list[list[Suggestion]] = []
        with self._lock:
            first = {key for key in fresh if key in cache}
            for key in keys:
                self.stats.queries_served += 1
                if metrics.enabled:
                    metrics.inc("queries_total")
                cached = cache.get(key)
                if cached is not None:
                    cache.move_to_end(key)
                    if key in first:
                        first.discard(key)
                        self._note_miss(fresh[key][1])
                    else:
                        self._note_hit(ctx)
                    out.append(list(cached))
                elif key in fresh:
                    suggestions, stats = fresh[key]
                    self._note_miss(stats)
                    out.append(list(suggestions))
                else:
                    self._note_unanswerable()
                    out.append([])
        return out

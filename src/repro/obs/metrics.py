"""Serving-layer metrics: counters, gauges, latency histograms.

The registry is deliberately tiny — plain Python objects, no
background threads — because it sits on the query hot path.  Two
implementations share one interface:

* :class:`MetricsRegistry` — the live registry.  Counters are floats,
  histograms are fixed-bucket cumulative latency histograms (the
  Prometheus model).  Pipeline stages are timed into the shared
  ``stage_seconds`` histogram family by
  :meth:`repro.obs.context.Context.stage`, the one instrumentation
  primitive.
* :data:`NULL_METRICS` — the disabled singleton.  Every hook is a
  no-op; hot code guards its ``perf_counter`` calls behind
  ``metrics.enabled`` so a disabled registry costs one attribute load
  per instrumentation point (verified by ``benchmarks/bench_serving``).

Snapshots (:meth:`MetricsRegistry.snapshot`) are point-in-time copies
that render as a JSON-friendly dict or Prometheus text exposition
format; see :mod:`repro.obs.export`.

Counters and histograms are process-local: a pool task returns its
raw stage timings and the parent observes them, so worker stage time
appears in :meth:`SuggestionService.metrics` without any histogram
state crossing processes.

Thread safety: every mutation (``inc``, ``observe``) and
every read-out (``snapshot``) runs under a per-object lock, so the
asyncio HTTP front-end's executor threads and the serving code can
share one registry without dropping increments (``value += x`` is not
atomic under the GIL — a thread switch between the load and the store
loses an update).  The lock is uncontended in single-threaded use and
costs nanoseconds next to a ``perf_counter`` call; the serving
benchmark's instrumentation-overhead ceiling keeps that honest.
"""

from __future__ import annotations

import threading
from bisect import bisect_left

#: Upper bounds (seconds) of every registry-made latency histogram; an
#: +Inf overflow bucket is implicit.  Spans 1µs .. 5s, log-ish spacing
#: — the µs end exists for the mmap snapshot path, whose ~0.2 ms loads
#: all collapsed into one bucket under the old 100µs floor.  A
#: standalone ``Histogram(buckets=...)`` may use other bounds.
DEFAULT_LATENCY_BUCKETS = (
    0.000001, 0.0000025, 0.000005, 0.00001, 0.000025, 0.00005,
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)

#: Histogram family every ``Context.stage`` observes into.
STAGE_HISTOGRAM = "stage_seconds"

#: Stage name for index deserialization / snapshot mapping — the cold
#: half of the pipeline (pack_index and the query stages cover the warm
#: half).  The snapshot loader and the serving benchmarks time
#: themselves under this name so cold starts show up next to the query
#: stages in one ``stage_seconds`` family.
INDEX_LOAD_STAGE = "index_load"


def _label_key(labels: dict[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted(labels.items()))


class Counter:
    """A monotonically increasing counter (one label set)."""

    __slots__ = ("name", "help", "labels", "value", "_lock")

    def __init__(self, name: str, help: str = "",
                 labels: dict[str, str] | None = None,
                 lock: threading.Lock | None = None):
        self.name = name
        self.help = help
        self.labels = dict(labels or {})
        self.value = 0.0
        self._lock = lock or threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    # Locks are not picklable; a counter travelling to a pool worker
    # (inside a pickled corpus/registry) re-creates its own.
    def __getstate__(self):
        return (self.name, self.help, self.labels, self.value)

    def __setstate__(self, state) -> None:
        self.name, self.help, self.labels, self.value = state
        self._lock = threading.Lock()


class Gauge:
    """A settable point-in-time value (one label set).

    Unlike :class:`Counter` a gauge can move in both directions —
    RSS, WAL depth, in-flight requests.  ``set`` replaces the value;
    ``inc``/``dec`` adjust it.
    """

    __slots__ = ("name", "help", "labels", "value", "_lock")

    def __init__(self, name: str, help: str = "",
                 labels: dict[str, str] | None = None,
                 lock: threading.Lock | None = None):
        self.name = name
        self.help = help
        self.labels = dict(labels or {})
        self.value = 0.0
        self._lock = lock or threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value -= amount

    def __getstate__(self):
        return (self.name, self.help, self.labels, self.value)

    def __setstate__(self, state) -> None:
        self.name, self.help, self.labels, self.value = state
        self._lock = threading.Lock()


class Histogram:
    """A fixed-bucket latency histogram (Prometheus semantics).

    Internally observations land in *disjoint* per-bucket tallies (one
    ``bisect`` + one increment per observation, so the hot path is
    O(log buckets)); the cumulative Prometheus view — ``counts[i]`` is
    the number of observations <= ``buckets[i]``, overflow implicit —
    is derived on access.
    """

    __slots__ = ("name", "help", "labels", "buckets", "_tallies",
                 "sum", "count", "_lock")

    def __init__(self, name: str, help: str = "",
                 buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
                 labels: dict[str, str] | None = None,
                 lock: threading.Lock | None = None):
        self.name = name
        self.help = help
        self.labels = dict(labels or {})
        self.buckets = tuple(buckets)
        # One tally per bound plus the overflow bucket.
        self._tallies = [0] * (len(self.buckets) + 1)
        self.sum = 0.0
        self.count = 0
        # Reentrant: summary() reads quantiles under the same lock.
        self._lock = lock or threading.RLock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.sum += value
            self.count += 1
            self._tallies[bisect_left(self.buckets, value)] += 1

    @property
    def counts(self) -> list[int]:
        """Cumulative bucket counts (the ``_bucket{le=...}`` view)."""
        out = []
        running = 0
        with self._lock:
            tallies = list(self._tallies)
        for tally in tallies[:-1]:
            running += tally
            out.append(running)
        return out

    def quantile(self, q: float) -> float:
        """Upper bound of the bucket holding the q-quantile.

        Bucket-resolution estimate (like Prometheus'
        ``histogram_quantile``); returns ``inf`` when the quantile
        falls in the overflow bucket and 0.0 on an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        with self._lock:
            count = self.count
            tallies = list(self._tallies)
        if count == 0:
            return 0.0
        threshold = q * count
        cumulative = 0
        for bound, tally in zip(self.buckets, tallies):
            cumulative += tally
            if cumulative >= threshold:
                return bound
        return float("inf")

    def summary(self) -> dict[str, float]:
        """Count/sum/mean plus bucket-resolution p50/p95/p99."""
        with self._lock:
            mean = self.sum / self.count if self.count else 0.0
            return {
                "count": self.count,
                "sum": self.sum,
                "mean": mean,
                "p50": self.quantile(0.50),
                "p95": self.quantile(0.95),
                "p99": self.quantile(0.99),
            }

    def __getstate__(self):
        return (self.name, self.help, self.labels, self.buckets,
                self._tallies, self.sum, self.count)

    def __setstate__(self, state) -> None:
        (self.name, self.help, self.labels, self.buckets,
         self._tallies, self.sum, self.count) = state
        self._lock = threading.RLock()


class MetricsRegistry:
    """The live metrics registry (see module docstring)."""

    enabled = True

    __slots__ = ("namespace", "_counters", "_gauges",
                 "_histograms", "_stage_histograms", "_lock")

    def __init__(self, namespace: str = "xclean"):
        self.namespace = namespace
        # Guards series *creation* and snapshotting; each series owns
        # its own lock for recording, so hot-path increments on
        # existing series never contend with one another here.
        self._lock = threading.Lock()
        self._counters: dict[tuple, Counter] = {}
        self._gauges: dict[tuple, Gauge] = {}
        self._histograms: dict[tuple, Histogram] = {}
        # Hot-path shortcut: stage name -> its stage_seconds series,
        # skipping label-key construction on every observation.
        self._stage_histograms: dict[str, Histogram] = {}

    # -- get-or-create ------------------------------------------------

    def counter(self, name: str, help: str = "",
                **labels: str) -> Counter:
        key = (name, _label_key(labels))
        found = self._counters.get(key)
        if found is None:
            with self._lock:
                found = self._counters.get(key)
                if found is None:
                    found = Counter(name, help, labels)
                    self._counters[key] = found
        return found

    def gauge(self, name: str, help: str = "",
              **labels: str) -> Gauge:
        key = (name, _label_key(labels))
        found = self._gauges.get(key)
        if found is None:
            with self._lock:
                found = self._gauges.get(key)
                if found is None:
                    found = Gauge(name, help, labels)
                    self._gauges[key] = found
        return found

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] | None = None,
        **labels: str,
    ) -> Histogram:
        key = (name, _label_key(labels))
        found = self._histograms.get(key)
        if found is None:
            with self._lock:
                found = self._histograms.get(key)
                if found is None:
                    found = Histogram(
                        name, help, buckets or DEFAULT_LATENCY_BUCKETS,
                        labels,
                    )
                    self._histograms[key] = found
        return found

    # -- recording shortcuts ------------------------------------------

    def inc(self, name: str, amount: float = 1.0,
            **labels: str) -> None:
        self.counter(name, **labels).inc(amount)

    def set_gauge(self, name: str, value: float,
                  **labels: str) -> None:
        self.gauge(name, **labels).set(value)

    def observe(self, name: str, value: float, **labels: str) -> None:
        self.histogram(name, **labels).observe(value)

    def stage_histogram(self, stage: str) -> Histogram:
        """The ``stage_seconds{stage=...}`` series (hot-path lookup)."""
        found = self._stage_histograms.get(stage)
        if found is None:
            found = self.histogram(STAGE_HISTOGRAM, stage=stage)
            # dict assignment is atomic; racing threads store the same
            # object (histogram() deduplicates under the lock).
            self._stage_histograms[stage] = found
        return found

    # -- export -------------------------------------------------------

    def snapshot(self):
        """Point-in-time :class:`~repro.obs.export.MetricsSnapshot`."""
        from repro.obs.export import MetricsSnapshot

        with self._lock:
            all_counters = list(self._counters.values())
            all_gauges = list(self._gauges.values())
            all_histograms = list(self._histograms.values())
        counters = [
            (c.name, dict(c.labels), c.value, c.help)
            for c in all_counters
        ]
        gauges = [
            (g.name, dict(g.labels), g.value, g.help)
            for g in all_gauges
        ]
        histograms = [
            (
                h.name,
                dict(h.labels),
                h.buckets,
                tuple(h.counts),
                h.sum,
                h.count,
                h.help,
            )
            for h in all_histograms
        ]
        return MetricsSnapshot(
            self.namespace, counters, histograms, gauges=gauges
        )

    def to_json(self, indent: int | None = 2) -> str:
        return self.snapshot().to_json(indent=indent)

    def to_prometheus(self) -> str:
        return self.snapshot().to_prometheus()

    def __getstate__(self):
        return (self.namespace, self._counters, self._histograms,
                self._stage_histograms, self._gauges)

    def __setstate__(self, state) -> None:
        (self.namespace, self._counters, self._histograms,
         self._stage_histograms, self._gauges) = state
        self._lock = threading.Lock()


class _NullCounter:
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass


_NULL_COUNTER = _NullCounter()


class _NullGauge:
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass


_NULL_GAUGE = _NullGauge()


class _NullHistogram:
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


_NULL_HISTOGRAM = _NullHistogram()


class NullMetrics:
    """Disabled registry: every hook is a no-op (the hot-path default).

    Instrumented code checks ``metrics.enabled`` before paying for
    ``perf_counter``; the remaining no-op calls are attribute loads.
    """

    enabled = False

    __slots__ = ()

    namespace = "xclean"

    def counter(self, name: str, help: str = "",
                **labels: str) -> _NullCounter:
        return _NULL_COUNTER

    def gauge(self, name: str, help: str = "",
              **labels: str) -> _NullGauge:
        return _NULL_GAUGE

    def set_gauge(self, name: str, value: float,
                  **labels: str) -> None:
        pass

    def histogram(self, name: str, help: str = "",
                  buckets: tuple[float, ...] | None = None,
                  **labels: str) -> _NullHistogram:
        return _NULL_HISTOGRAM

    def inc(self, name: str, amount: float = 1.0,
            **labels: str) -> None:
        pass

    def observe(self, name: str, value: float, **labels: str) -> None:
        pass

    def snapshot(self):
        from repro.obs.export import MetricsSnapshot

        return MetricsSnapshot(self.namespace, [], [])

    def to_json(self, indent: int | None = 2) -> str:
        return self.snapshot().to_json(indent=indent)

    def to_prometheus(self) -> str:
        return self.snapshot().to_prometheus()


#: The shared disabled registry; safe to use as a default everywhere.
NULL_METRICS = NullMetrics()

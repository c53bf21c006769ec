"""One instrumentation primitive: ``stage()`` on a per-request context.

Every timed stage of the serving path — the engine's tokenize,
variant_gen, merge, score and type_infer (Algorithm 1, Sections V-A to
V-C), the coordinator's scatter and gather, and the index lifecycle's
index_load, pack_index, wal_append, delta_apply, compact and swap — is
recorded by :meth:`Context.stage`.  A :class:`Context` is built per
request, per batch, per pool task and per in-process shard leg, so
nothing is shared between concurrent requests.  It carries:

* ``metrics`` — the registry whose ``stage_seconds{stage=...}``
  histogram every stage observes (``NULL_METRICS`` observes nothing);
* ``trace`` — when tracing is on, the request's *own* span stack (a
  :class:`~repro.obs.trace.Tracer` that no other request touches) and
  with it the correlation id; ``None`` when tracing is off;
* ``recorder`` — the explain run's
  :class:`~repro.obs.explain.ScoreRecorder`, or ``None``;
* ``timings`` — when a list, every stage also appends its raw
  ``(name, seconds)`` to it.  A pool task returns its context's list
  and the parent observes the same timings into its own registry
  (:meth:`Context.absorb`); no histogram state crosses processes.

A stage reads ``perf_counter`` once when it opens and once when it
closes.  The one elapsed value is the histogram observation and, when
tracing, the span's duration, so the two cannot disagree.  Sites
outside any request (index load, compaction) use a context with
neither trace nor recorder: ``Context(metrics).stage("compact")``.

Aggregated stages — ``stage("score", aggregated=True)`` — cover work
done in many short bursts inside an enclosing stage.  The hot loop
adds each burst to :attr:`Stage.seconds` (two clock reads per burst,
no call); on exit the total is observed once and becomes the duration
of one span marked ``aggregated=True``.  While it is open, spans of
nested stages (type_infer) land beneath it.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any

from repro.obs.metrics import NULL_METRICS
from repro.obs.trace import Span, Tracer


class Stage:
    """One ``with ctx.stage(name)`` block (see module docstring)."""

    __slots__ = ("seconds", "span", "_ctx", "_name", "_attributes",
                 "_aggregated", "_began")

    def __init__(self, ctx: "Context", name: str, attributes: dict):
        #: Elapsed seconds: set on exit, or — for an aggregated
        #: stage — the sum of the bursts its owner added.
        self.seconds = 0.0
        #: The open span when tracing (``None`` otherwise).
        self.span: Span | None = None
        self._ctx = ctx
        self._name = name
        self._attributes = attributes
        self._aggregated = bool(attributes.get("aggregated"))
        self._began = 0.0

    def __enter__(self) -> "Stage":
        # An aggregated span's duration is the sum of its bursts, not
        # a window, so its stack entry starts at 0.0 (see __exit__).
        began = 0.0 if self._aggregated else perf_counter()
        trace = self._ctx.trace
        if trace is not None:
            self.span = trace._push(self._name, self._attributes, began)
        self._began = began
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        ctx = self._ctx
        if self._aggregated:
            now = self.seconds  # now - 0.0 == seconds, bit for bit
            if now:
                ctx._record(self._name, now)
        else:
            now = perf_counter()
            self.seconds = now - self._began
            ctx._record(self._name, self.seconds)
        span = self.span
        if span is not None:
            if exc_type is not None:
                span.attributes["error"] = exc_type.__name__
            ctx.trace._pop(span, now)
        return False


class Context:
    """Per-request instrumentation (see module docstring)."""

    __slots__ = ("metrics", "trace", "recorder", "timings", "timed",
                 "root", "_sink")

    def __init__(
        self,
        metrics=NULL_METRICS,
        trace: Tracer | None = None,
        recorder=None,
        timings: list | None = None,
        sink: Tracer | None = None,
    ):
        self.metrics = metrics
        self.trace = trace
        self.recorder = recorder
        self.timings = timings
        #: Does anything consume stage time?  Hot loops that time
        #: bursts by hand (the score stage) read the clock only then.
        self.timed = (
            metrics.enabled or trace is not None or timings is not None
        )
        #: The finished root span once a request context has exited.
        self.root: Span | None = None
        self._sink = sink

    @classmethod
    def request(
        cls,
        metrics,
        tracer: Tracer | None,
        name: str,
        trace_id: str | None = None,
        recorder=None,
        timings: list | None = None,
        **attributes: Any,
    ) -> "Context":
        """A context for one request, used as ``with`` block.

        With a ``tracer`` (the service's on switch) the request gets a
        fresh span stack rooted at ``name`` under ``trace_id`` (a new
        id when ``None``).  On exit the root is finished — annotated
        with the error that escaped, if any — kept in :attr:`root`, and
        published as ``tracer.last_trace``.
        """
        trace = None
        if tracer is not None:
            trace = Tracer(tracer.max_spans, tracer.max_events)
            trace.begin(name, trace_id=trace_id, **attributes)
        return cls(metrics, trace, recorder, timings, sink=tracer)

    def __enter__(self) -> "Context":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        trace = self.trace
        if trace is not None:
            if exc_type is not None:
                trace.annotate(error=exc_type.__name__)
            self.root = trace.end()
            if self._sink is not None:
                self._sink.last_trace = self.root
        return False

    @property
    def trace_id(self) -> str | None:
        """The correlation id, or ``None`` when tracing is off."""
        return self.trace.trace_id if self.trace is not None else None

    # -- recording ----------------------------------------------------

    def stage(self, name: str, **attributes: Any) -> Stage:
        """Time a named stage: histogram always, span when tracing."""
        return Stage(self, name, attributes)

    def _record(self, name: str, seconds: float) -> None:
        metrics = self.metrics
        if metrics.enabled:
            metrics.stage_histogram(name).observe(seconds)
        if self.timings is not None:
            self.timings.append((name, seconds))

    def event(self, name: str, **attributes: Any) -> None:
        """A point-in-time event on the innermost open span."""
        if self.trace is not None:
            self.trace.event(name, **attributes)

    def annotate(self, **attributes: Any) -> None:
        """Merge attributes into the innermost open span."""
        if self.trace is not None:
            self.trace.annotate(**attributes)

    # -- derived contexts ---------------------------------------------

    def fork(self, name: str, **attributes: Any) -> "Context":
        """The same request on another thread, on its own span stack.

        The fork shares the registry and the trace id; :meth:`adopt`
        grafts its finished tree back once the thread is done.
        """
        trace = self.trace
        if trace is not None:
            trace = Tracer(trace.max_spans, trace.max_events)
            trace.begin(name, trace_id=self.trace.trace_id, **attributes)
        return Context(self.metrics, trace, self.recorder)

    def adopt(self, fork: "Context") -> None:
        """Attach a finished :meth:`fork` under the current span."""
        if self.trace is not None and fork.root is not None:
            self.trace.attach(fork.root)

    def absorb(
        self,
        timings,
        span: Span | None,
        span_name: str,
        submitted_at: float,
        submitted_perf: float,
        **attributes: Any,
    ) -> None:
        """Fold a pool task's result into this request.

        The task's raw stage ``timings`` are observed here as if they
        had been timed in this process.  A returned ``span`` subtree
        (the worker's root) is stitched under a ``span_name`` span
        covering submit → now: ``submitted_at`` (wall clock) is its
        start so worker and parent share one timeline, and
        ``submitted_perf`` (monotonic) is what its duration is measured
        against, so a wall-clock step cannot yield a nonsense span.  It
        is at least as long as its child, whose clock is another
        process's.
        """
        for name, seconds in timings or ():
            self._record(name, seconds)
        if span is not None and self.trace is not None:
            task = Span(
                span_name,
                start=submitted_at,
                duration=max(
                    perf_counter() - submitted_perf, span.duration
                ),
                attributes=attributes,
            )
            task.children.append(span)
            self.trace.attach(task)

    # -- γ-pruning notices (``AccumulatorPool`` observer) --------------

    def evicted(
        self, victim, entry, incoming, incoming_estimate: float
    ) -> None:
        if self.recorder is not None:
            self.recorder.note_eviction(
                victim,
                entry.estimate(),
                entry.samples,
                incoming,
                incoming_estimate,
            )
        self.event(
            "accumulator_evict",
            victim=" ".join(victim),
            estimate=entry.estimate(),
            evicted_by=" ".join(incoming),
        )

    def rejected(self, incoming, estimate: float) -> None:
        if self.recorder is not None:
            self.recorder.note_rejection(incoming, estimate)
        self.event(
            "accumulator_reject",
            candidate=" ".join(incoming),
            estimate=estimate,
        )


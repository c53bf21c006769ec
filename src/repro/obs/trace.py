"""Lightweight per-query tracing: a span tree per request.

A trace is a tree of :class:`Span` objects — each one a named stage of
a query (tokenize, variant_gen, merge, ...) with a wall-clock start,
a measured duration, free-form attributes, and point-in-time events.
Traces are identified by a short hex ``trace_id`` carried in the root
span's attributes, surfaced through ``CleaningStats.trace_id`` so log
lines, batch output, and flight-recorder entries can be correlated.

:class:`Tracer` is one span stack: ``begin``/``end`` bracket a trace;
``span`` is a context manager for nested stages; ``event`` and
``annotate`` attach data to the innermost open span.  Finished traces
land in :attr:`Tracer.last_trace`.  A stack serves one request at a
time, so the serving path never shares one: a service's tracer is only
its on switch (and where the latest finished trace is published), and
every request opens its own stack through
:class:`~repro.obs.context.Context`, whose ``stage()`` times a stage
and, when tracing, its span with one pair of clock reads.

Spans are plain ``__slots__`` objects built from picklable primitives,
so a pool worker can trace its own task, return the finished subtree
in its result payload, and the parent can stitch it under the service
span with :meth:`Tracer.attach` — one coherent tree per query even
when the scoring happened in another process.

Budgets: a trace holds at most ``max_spans`` spans and each span at
most ``max_events`` events; excess ones are counted (``spans_dropped``
/ ``events_dropped`` attributes on the root) instead of growing the
tree without bound — important for the flight recorder, which retains
whole traces.
"""

from __future__ import annotations

import time
import uuid
from time import perf_counter
from typing import Any, Iterator

#: Default cap on spans per trace (excess spans are dropped, counted).
MAX_SPANS = 512

#: Default cap on events per span (excess events are dropped, counted).
MAX_EVENTS = 256


def new_trace_id() -> str:
    """A fresh 16-hex-char trace id."""
    return uuid.uuid4().hex[:16]


class Span:
    """One named stage of a trace (see module docstring).

    ``start`` is epoch seconds (``time.time``) so spans from different
    processes line up on one timeline; ``duration`` is measured with
    ``perf_counter`` so it is monotonic within a process.  ``events``
    is a list of ``(name, epoch_seconds, attrs_or_None)`` tuples.
    """

    __slots__ = (
        "name", "start", "duration", "attributes", "events", "children",
    )

    def __init__(
        self,
        name: str,
        start: float | None = None,
        duration: float = 0.0,
        attributes: dict[str, Any] | None = None,
    ):
        self.name = name
        self.start = time.time() if start is None else start
        self.duration = duration
        self.attributes: dict[str, Any] = attributes or {}
        self.events: list[tuple[str, float, dict | None]] = []
        self.children: list[Span] = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, duration={self.duration:.6f}, "
            f"children={len(self.children)})"
        )

    def walk(self) -> Iterator["Span"]:
        """Depth-first iteration over this span and its descendants."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> "Span | None":
        """First descendant (or self) with the given name, or None."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def as_dict(self) -> dict[str, Any]:
        """JSON-friendly representation (round-trips via from_dict)."""
        out: dict[str, Any] = {
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
        }
        if self.attributes:
            out["attributes"] = dict(self.attributes)
        if self.events:
            out["events"] = [
                {"name": name, "time": when, **(
                    {"attributes": attrs} if attrs else {}
                )}
                for name, when, attrs in self.events
            ]
        if self.children:
            out["children"] = [c.as_dict() for c in self.children]
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Span":
        span = cls(
            data["name"],
            start=data.get("start", 0.0),
            duration=data.get("duration", 0.0),
            attributes=dict(data.get("attributes", {})),
        )
        span.events = [
            (
                event["name"],
                event.get("time", 0.0),
                event.get("attributes"),
            )
            for event in data.get("events", [])
        ]
        span.children = [
            cls.from_dict(child) for child in data.get("children", [])
        ]
        return span


class _SpanContext:
    """``with tracer.span(...)`` helper; closes the span on exit."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span | None):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span | None:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._span is not None and exc_type is not None:
            self._span.attributes["error"] = exc_type.__name__
        self._tracer._pop(self._span, perf_counter())
        return False


class Tracer:
    """One span stack (see module docstring)."""

    __slots__ = (
        "max_spans", "max_events", "trace_id", "last_trace",
        "_root", "_stack", "_starts", "_span_count",
        "_spans_dropped", "_events_dropped",
    )

    def __init__(self, max_spans: int = MAX_SPANS,
                 max_events: int = MAX_EVENTS):
        self.max_spans = max_spans
        self.max_events = max_events
        self.trace_id: str | None = None
        #: The most recently finished trace (its root span).
        self.last_trace: Span | None = None
        self._root: Span | None = None
        self._stack: list[Span] = []
        self._starts: list[float] = []
        self._span_count = 0
        self._spans_dropped = 0
        self._events_dropped = 0

    # -- trace lifecycle ----------------------------------------------

    def begin(self, name: str, trace_id: str | None = None,
              **attributes: Any) -> Span:
        """Open a root span, starting a new trace.

        An already-open trace is finalized first (defensive; matched
        ``begin``/``end`` pairs never hit this).
        """
        if self._root is not None:
            self.end()
        self.trace_id = trace_id or new_trace_id()
        root = Span(name, attributes=dict(attributes))
        root.attributes["trace_id"] = self.trace_id
        self._root = root
        self._stack = [root]
        self._starts = [perf_counter()]
        self._span_count = 1
        self._spans_dropped = 0
        self._events_dropped = 0
        return root

    def end(self) -> Span | None:
        """Close the trace; returns and stores its root span."""
        root = self._root
        if root is None:
            return None
        now = perf_counter()
        # Unwind any spans left open (error paths) including the root.
        while self._stack:
            span = self._stack.pop()
            began = self._starts.pop()
            span.duration = now - began
        if self._spans_dropped:
            root.attributes["spans_dropped"] = self._spans_dropped
        if self._events_dropped:
            root.attributes["events_dropped"] = self._events_dropped
        self._root = None
        self.last_trace = root
        return root

    def current(self) -> Span | None:
        """The innermost open span, or None outside a trace."""
        return self._stack[-1] if self._stack else None

    # -- span lifecycle -----------------------------------------------

    def _push(self, name: str, attributes: dict,
              began: float | None = None) -> Span | None:
        """Open a child span whose duration counts from ``began``
        (a ``perf_counter`` reading; now when omitted)."""
        if self._root is None:
            return None
        if self._span_count >= self.max_spans:
            self._spans_dropped += 1
            return None
        span = Span(name, attributes=attributes)
        self._stack[-1].children.append(span)
        self._stack.append(span)
        self._starts.append(perf_counter() if began is None else began)
        self._span_count += 1
        return span

    def _pop(self, span: Span | None, now: float) -> None:
        """Close ``span``; its duration runs to the reading ``now``."""
        if span is None or not self._stack:
            return
        if self._stack[-1] is span:
            self._stack.pop()
            span.duration = now - self._starts.pop()

    def span(self, name: str, **attributes: Any) -> _SpanContext:
        """Context manager opening a child span of the current span.

        Outside an open trace (or past the span budget) the context
        yields ``None`` and records nothing.
        """
        return _SpanContext(self, self._push(name, dict(attributes)))

    def event(self, name: str, **attributes: Any) -> None:
        """Attach a point-in-time event to the innermost open span."""
        if not self._stack:
            return
        span = self._stack[-1]
        if len(span.events) >= self.max_events:
            self._events_dropped += 1
            return
        span.events.append(
            (name, time.time(), attributes or None)
        )

    def annotate(self, **attributes: Any) -> None:
        """Merge attributes into the innermost open span."""
        if self._stack:
            self._stack[-1].attributes.update(attributes)

    def attach(self, span: Span) -> None:
        """Graft a finished span subtree under the current span.

        This is the pool-stitching hook: the parent attaches a worker's
        returned subtree under its own service span.  Outside a trace
        the subtree is dropped (there is nothing to stitch onto).
        """
        if not self._stack:
            return
        budget = self.max_spans - self._span_count
        size = sum(1 for _ in span.walk())
        if size > budget:
            self._spans_dropped += size
            return
        self._span_count += size
        self._stack[-1].children.append(span)


def format_trace(root: Span, indent: int = 0) -> str:
    """Render a span tree as an indented text outline (CLI view)."""
    pad = "  " * indent
    attrs = {
        k: v for k, v in root.attributes.items() if k != "trace_id"
    }
    line = f"{pad}{root.name}  {1e3 * root.duration:.3f} ms"
    if attrs:
        rendered = ", ".join(
            f"{key}={value}" for key, value in sorted(attrs.items())
        )
        line += f"  [{rendered}]"
    lines = [line]
    for name, when, attributes in root.events:
        event_line = f"{pad}  * {name}"
        if attributes:
            rendered = ", ".join(
                f"{key}={value}"
                for key, value in sorted(attributes.items())
            )
            event_line += f"  [{rendered}]"
        lines.append(event_line)
    for child in root.children:
        lines.append(format_trace(child, indent + 1))
    return "\n".join(lines)

"""Spans recorded from the benchmark's own files, and self-time arithmetic.

The traced run (``--trace 1``) replaces a few public entry points of
the program with wrappers, for the duration of one timed pass only.
Each call records a span ``[op, name, start, end, parent, value]``:
the operation it belongs to, the layer name, ``perf_counter`` bounds,
the index of the enclosing span (-1 at the root) and an optional count
taken from the return value.  Spans stay in memory and are written out
when the run ends.

A span's *self time* is its duration minus the time its direct children
cover.  Per operation, the end-to-end time minus the sum of every
span's self time is the ``residual``: time no wrapper accounts for.
The load generator is single-threaded, so one stack of open spans
suffices and children never overlap.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter

#: Column indices of a recorded span.
OP, NAME, START, END, PARENT, VALUE = range(6)


class SpanRecorder:
    """Installs wrappers, records spans, and restores the originals."""

    def __init__(self):
        self.spans: list = []
        self.op: int | None = None
        self._stack: list = []
        self._installed: list = []

    def wrap(self, owner, attr: str, name: str, value=None) -> None:
        """Record a ``name`` span around every call of ``owner.attr``.

        ``value`` maps the call's return value to a count stored on
        the span (for example the rows a shard leg returned).
        """
        original = owner.__dict__[attr]
        spans, stack = self.spans, self._stack
        recorder = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [recorder.op, name, perf_counter(), 0.0,
                    stack[-1] if stack else -1, 0]
            spans.append(span)
            stack.append(index)
            try:
                result = original(*args, **kwargs)
                if value is not None:
                    span[VALUE] = value(result)
                return result
            finally:
                stack.pop()
                span[END] = perf_counter()

        setattr(owner, attr, traced)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "SpanRecorder":
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def self_times(spans: list) -> list:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    return [
        span[END] - span[START] - child[i] for i, span in enumerate(spans)
    ]


def summarize(spans: list, factors: dict) -> dict:
    """Per-layer totals, each span scaled by its operation's factor.

    Returns ``{name: {"total", "self", "calls", "value"}}``.  A span
    nested in a span of the same name (a generator wrapping another)
    adds to ``self`` but not to ``total`` or ``calls``, so nothing is
    counted twice.
    """
    selfs = self_times(spans)
    out: dict = defaultdict(
        lambda: {"total": 0.0, "self": 0.0, "calls": 0, "value": 0}
    )
    for i, span in enumerate(spans):
        factor = factors.get(span[OP], 1.0)
        entry = out[span[NAME]]
        entry["self"] += selfs[i] * factor
        parent = span[PARENT]
        if parent >= 0 and spans[parent][NAME] == span[NAME]:
            continue
        entry["total"] += (span[END] - span[START]) * factor
        entry["calls"] += 1
        entry["value"] += span[VALUE]
    return dict(out)


def residuals(spans: list, op_times: dict) -> dict:
    """Per operation: its end-to-end time minus all span self times."""
    covered: dict = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        covered[span[OP]] += own
    return {op: op_times[op] - covered.get(op, 0.0) for op in op_times}


def write_spans(spans: list, path: str) -> None:
    """One JSON array per span, one span per line."""
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")

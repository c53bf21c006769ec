"""Experiment runner: drive a suggester over a workload, collect metrics.

One :func:`evaluate_suggester` call produces everything a paper table
cell needs: MRR, precision@N for the requested cut-offs, and mean query
time — plus the per-query outcomes for error analysis (Table III).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.suggestion import Suggester, Suggestion
from repro.datasets.queries import QueryRecord
from repro.eval.metrics import (
    mean_reciprocal_rank,
    precision_at,
    reciprocal_rank,
)
from repro.exceptions import QueryError

DEFAULT_PRECISION_LEVELS = (1, 2, 3, 5, 10)


@dataclass
class QueryOutcome:
    """One query's evaluation record."""

    record: QueryRecord
    suggestions: list[Suggestion]
    elapsed: float
    rr: float

    @property
    def hit_rank(self) -> int | None:
        """Rank of the golden answer, or None when missed."""
        if self.rr == 0.0:
            return None
        return round(1.0 / self.rr)


@dataclass
class EvalResult:
    """Aggregated metrics of one (suggester, workload) pair."""

    system: str
    workload: str
    mrr: float
    precision: dict[int, float]
    mean_time: float
    total_time: float
    outcomes: list[QueryOutcome] = field(repr=False, default_factory=list)
    #: Serving-layer metrics snapshot (``MetricsSnapshot.as_dict()``)
    #: when the evaluated system exposes one; see `evaluate_service`.
    metrics: dict | None = field(repr=False, default=None)

    def precision_row(self) -> list[float]:
        """Precision values in cut-off order (Figure 4 series)."""
        return [self.precision[n] for n in sorted(self.precision)]

    def time_percentile(self, percentile: float) -> float:
        """Latency percentile over the per-query times (seconds).

        Nearest-rank method; ``percentile`` in [0, 100].  Returns 0.0
        for an empty result.
        """
        if not 0.0 <= percentile <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        if not self.outcomes:
            return 0.0
        ordered = sorted(o.elapsed for o in self.outcomes)
        if percentile == 0.0:
            return ordered[0]
        rank = math.ceil(percentile / 100.0 * len(ordered))
        return ordered[rank - 1]


def evaluate_suggester(
    suggester: Suggester,
    records: Sequence[QueryRecord],
    k: int = 10,
    precision_levels: Sequence[int] = DEFAULT_PRECISION_LEVELS,
    system: str = "",
    workload: str = "",
) -> EvalResult:
    """Run every query, time it, and aggregate MRR/precision@N.

    Queries that raise :class:`QueryError` (e.g. every keyword filtered
    out) count as an empty suggestion list — real systems answer those
    with "no suggestion", not a crash.
    """
    outcomes: list[QueryOutcome] = []
    total_time = 0.0
    for record in records:
        started = time.perf_counter()
        try:
            suggestions = suggester.suggest(record.dirty_text, k)
        except QueryError:
            suggestions = []
        elapsed = time.perf_counter() - started
        total_time += elapsed
        outcomes.append(
            QueryOutcome(
                record=record,
                suggestions=list(suggestions),
                elapsed=elapsed,
                rr=reciprocal_rank(suggestions, record),
            )
        )
    all_suggestions = [o.suggestions for o in outcomes]
    precision = {
        n: precision_at(all_suggestions, list(records), n)
        for n in precision_levels
    }
    return EvalResult(
        system=system or type(suggester).__name__,
        workload=workload,
        mrr=mean_reciprocal_rank([o.rr for o in outcomes]),
        precision=precision,
        mean_time=total_time / len(records) if records else 0.0,
        total_time=total_time,
        outcomes=outcomes,
    )


def evaluate_service(
    service,
    records: Sequence[QueryRecord],
    k: int = 10,
    precision_levels: Sequence[int] = DEFAULT_PRECISION_LEVELS,
    system: str = "",
    workload: str = "",
    workers: int | None = None,
) -> EvalResult:
    """Evaluate a batch serving layer (``suggest_batch``) end to end.

    The whole workload goes through one ``suggest_batch`` call, which
    is how the serving path is meant to be exercised (result cache,
    deduplication, optional process-pool fan-out).  Per-query latency
    is not observable through a batch, so each outcome carries the
    amortized time ``total/len`` — use :func:`evaluate_suggester` when
    individual latencies matter.  When the service exposes a
    ``metrics()`` snapshot (``SuggestionService`` does), its dict form
    is attached to the result for stage-level analysis.
    """
    started = time.perf_counter()
    batches = service.suggest_batch(
        [record.dirty_text for record in records], k, workers=workers
    )
    total_time = time.perf_counter() - started
    metrics_snapshot = None
    metrics_hook = getattr(service, "metrics", None)
    if callable(metrics_hook):
        metrics_snapshot = metrics_hook().as_dict()
    amortized = total_time / len(records) if records else 0.0
    outcomes = [
        QueryOutcome(
            record=record,
            suggestions=list(suggestions),
            elapsed=amortized,
            rr=reciprocal_rank(suggestions, record),
        )
        for record, suggestions in zip(records, batches)
    ]
    precision = {
        n: precision_at(
            [o.suggestions for o in outcomes], list(records), n
        )
        for n in precision_levels
    }
    return EvalResult(
        system=system or type(service).__name__,
        workload=workload,
        mrr=mean_reciprocal_rank([o.rr for o in outcomes]),
        precision=precision,
        mean_time=amortized,
        total_time=total_time,
        outcomes=outcomes,
        metrics=metrics_snapshot,
    )

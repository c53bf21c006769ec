"""Probe-scaled timing and the benchmark's summary arithmetic.

Why timings are scaled.  The benchmark runs on small shared VMs whose
CPU speed drifts on its own: a fixed pure-Python loop on a 2-vCPU VM
ran anywhere from 317 to 559 iterations/s within one minute, holding
each speed for 10-20 s, and the two vCPUs drifted independently
(correlation 0.06).  Raw wall-clock timings of identical code then
swing by +-20% between runs: an earlier attempt at this benchmark saw
medians of two sets of identical runs up to 12% apart (update-mix p50
5.06 vs 5.68 ms, set-up 4.22 vs 4.68 s, throughput 224 vs 206 q/s).

The fix is a speed probe.  Every few operations the load generator
runs :func:`probe`, a fixed ~0.5 ms chunk of pure-Python work, and
measures its *thread CPU time*.  A sample is scaled by the reference
probe time :data:`REFERENCE_PROBE_S` divided by the mean of the probes
around it, which expresses every timing at one fixed reference speed.
In a noisy period cold-query throughput over six runs read 154-231 q/s
raw against +-4% probe-scaled; in a quiet period both read +-4%.  The
probe costs about 2.5% of the timed phase (reported as
``probe.overhead_ratio``).

The probe's work matters.  A loop of integer arithmetic tracked the
engine poorly: over 70 s of fixed query batches on a 2-vCPU VM, batch
times grouped ~1.5 s at a time varied by 14.6% (coefficient of
variation) raw, 6.9% scaled by the arithmetic loop, and 2.1% scaled by
the probe used here, which slices strings, hashes them into a set and
a dict and sorts the result, as the engine's variant generation does.
One probe alone is noisy (27%), so a sample is scaled by the mean of
the :data:`PROBE_WINDOW` probes on each side of it.  With this probe,
five runs of one seed whose median probes ranged from 0.37 to 0.67 ms
gave suggest-miss p50 and throughput spreads (quartile distance over
median) of 3.3% and 4.1%, against 37% and 28% raw.

Everything here is plain arithmetic so that ``selftest.py`` can check
it without the program under test.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from time import perf_counter

#: The probe's fixed work: deletion neighbourhoods of these words,
#: looked up in a set of some of them (about 0.5 ms of CPU time).
PROBE_WORDS = (
    "algorithm", "sequence", "database", "parallel", "network",
    "learning", "retrieval", "semantic", "distributed", "optimization",
    "ranking", "keyword", "spelling", "suggestion", "structure",
    "document", "entity", "language", "inference", "compression",
)
PROBE_ROUNDS = 6
_PROBE_SET = frozenset(
    word[:i] + word[i + 1:] for word in PROBE_WORDS[::2]
    for i in range(len(word))
)

#: Probes on each side of a sample that its scale factor averages.
PROBE_WINDOW = 4

#: The probe time every sample is scaled to.  A constant of the
#: benchmark: changing it rescales every timing it reports.
REFERENCE_PROBE_S = 0.0005

#: Percentiles a tail may be reported at, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 50.0)

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def probe() -> float:
    """Thread CPU seconds of one fixed chunk of interpreter work."""
    began = time.thread_time()
    found = 0
    counts: dict = {}
    for _ in range(PROBE_ROUNDS):
        for word in PROBE_WORDS:
            for i in range(len(word)):
                variant = word[:i] + word[i + 1:]
                if variant in _PROBE_SET:
                    found += 1
                counts[variant] = counts.get(variant, 0) + 1
    sorted(counts.items())
    return time.thread_time() - began


def probes(n: int) -> float:
    """Mean of ``n`` probes (set-up stages are bracketed by these)."""
    return sum(probe() for _ in range(n)) / n


def scale(raw: float, speed: float) -> float:
    """``raw`` expressed at the reference speed.

    ``speed`` is the mean probe time around the sample; a slow period
    makes the probes and the sample slower alike.
    """
    return raw * REFERENCE_PROBE_S / speed


def window(values: list, i: int) -> float:
    """Mean of the PROBE_WINDOW values up to ``i`` and from ``i + 1``."""
    part = values[max(0, i + 1 - PROBE_WINDOW):i + 1 + PROBE_WINDOW]
    return sum(part) / len(part)


def rank(n: int, pct: float) -> int:
    """1-based nearest rank of percentile ``pct`` among ``n`` samples."""
    # Rounded first so that 99.9% of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(round(pct * n / 100.0, 9)))


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile of ``values`` (sorted or not)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[rank(len(ordered), pct) - 1]


def beyond(n: int, pct: float) -> int:
    """Samples strictly after the nearest-rank ``pct`` of ``n``."""
    return n - rank(n, pct)


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with >= MIN_BEYOND samples beyond it."""
    for pct in TAIL_LADDER:
        if beyond(n, pct) >= MIN_BEYOND:
            return pct
    return None


def require_tail(n: int, pct: float, what: str) -> None:
    """Refuse to report ``pct`` of ``n`` samples with a thin tail."""
    if beyond(n, pct) < MIN_BEYOND:
        raise ValueError(
            f"{what}: only {beyond(n, pct)} of {n} samples lie beyond "
            f"p{pct:g}; at least {MIN_BEYOND} are needed"
        )


def ok_ratio(attempted: int, answered: int) -> float:
    """Answered over attempted; sheds, errors and timeouts are misses."""
    if attempted < 1:
        raise ValueError("no operations attempted")
    return answered / attempted


def median(values) -> float:
    return percentile(values, 50.0)


@dataclass
class ProbedClock:
    """A timed phase: samples scaled by the probes around them.

    The load generator calls :meth:`probe` every few operations and
    :meth:`record` once per operation.  Probe time is excluded from
    the phase, so throughput is operations over the scaled time the
    load generator spent between probes.
    """

    probes: list = field(default_factory=list)
    #: (raw seconds, index of the probe before the sample, kind)
    samples: list = field(default_factory=list)
    #: Raw wall seconds between consecutive probes.
    segments: list = field(default_factory=list)
    probe_wall: float = 0.0
    _segment_start: float = 0.0

    def probe(self) -> None:
        began = perf_counter()
        if self.probes:
            self.segments.append(began - self._segment_start)
        self.probes.append(probe())
        self._segment_start = perf_counter()
        self.probe_wall += self._segment_start - began

    def record(self, raw: float, kind: str = "query") -> None:
        self.samples.append((raw, len(self.probes) - 1, kind))

    def speed(self, i: int) -> float:
        """Mean probe around the segment after probe ``i``."""
        return window(self.probes, i)

    def scaled(self, kind: str = "query") -> list:
        return [
            scale(raw, self.speed(i))
            for raw, i, k in self.samples if k == kind
        ]

    def raw(self, kind: str = "query") -> list:
        return [raw for raw, _, k in self.samples if k == kind]

    def scaled_phase(self) -> float:
        """Scaled seconds of the phase, probes excluded."""
        return sum(
            scale(wall, self.speed(i)) for i, wall in enumerate(self.segments)
        )

    def raw_phase(self) -> float:
        return sum(self.segments)

    def overhead_ratio(self) -> float:
        """Share of the phase's wall time spent probing."""
        total = self.raw_phase() + self.probe_wall
        return self.probe_wall / total if total else 0.0


def timed_stage(fn, *args, **kwargs):
    """Run one set-up stage bracketed by PROBE_WINDOW probes a side.

    Returns ``(result, scaled_seconds, raw_seconds)``.
    """
    before = probes(PROBE_WINDOW)
    began = perf_counter()
    result = fn(*args, **kwargs)
    raw = perf_counter() - began
    after = probes(PROBE_WINDOW)
    return result, scale(raw, (before + after) / 2.0), raw

"""The batch merge kernel: galloping intersection over packed columns.

Algorithm 1's merge loop repeatedly asks one question of every merged
variant list: *where does the current subtree group start and end in
your key column?*  A full-range ``bisect_left`` per probe would answer
it in O(log n); this module supplies the two layers that make the
question (almost) free:

* :func:`gallop_left` — an exponential-probe ("galloping") search that
  brackets the target from the cursor's current position before handing
  off to a C-level ``bisect_left``.  Skips in Algorithm 1 are local
  (the next group is usually near the previous one), so the probe
  window stays tiny and the cost per group drops from
  O(log n_remaining) to O(log distance).

* :class:`MergePlan` / :class:`IntersectionCache` — the sequence of
  complete subtree groups produced by merging a fixed set of variant
  columns is *deterministic* for a given index: the same keyword (hence
  the same variant set) recurs across queries, so the kernel records
  every group it discovers — per-list slice boundaries, read/skip
  deltas, and the fully materialized per-token occurrence dicts — into
  a plan and memoizes it keyed by ``(snapshot generation, variant
  columns, min_depth)``.  A cache hit replays the plan: no anchor
  scans, no bisects, no per-posting materialization — just one
  deadline/fault check and one scoring call per group.

:func:`scan_left` is the linear advance of the ``use_skipping=False``
ablation: the same answer as :func:`gallop_left`, one key at a time.

Plans record *deltas*, not just totals, so a deadline can expire
mid-replay and the postings read/skipped counters still agree with the
groups actually processed (the anytime contract of
``core/deadline.py``).  Plans interrupted by a deadline or a fault are
never cached.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from collections import OrderedDict

#: Default LRU bound of the per-corpus :class:`IntersectionCache`.
#: Sized above the working set of a head-heavy query log: an LRU
#: scanned sequentially by more distinct variant sets than its capacity
#: hits zero percent, so undersizing does not merely degrade — it turns
#: every query into plan-recording overhead with no replays.
DEFAULT_INTERSECTION_CACHE_SIZE = 256


def gallop_left(keys, target: int, lo: int, hi: int) -> int:
    """First index in ``[lo, hi)`` whose key is ``>= target``.

    Exponential probe from ``lo`` (1, 2, 4, ... steps) to bracket the
    answer, then a C-level ``bisect_left`` inside the bracket.
    Equivalent to ``bisect_left(keys, target, lo, hi)`` for sorted
    ``keys``, but O(log distance) instead of O(log (hi - lo)) when the
    answer is near ``lo`` — the common case for Algorithm 1's skips.
    """
    if lo >= hi or keys[lo] >= target:
        return lo
    # Invariant: keys[prev] < target.
    prev = lo
    step = 1
    probe = lo + 1
    while probe < hi and keys[probe] < target:
        prev = probe
        step <<= 1
        probe = lo + step
    # Answer lies in (prev, min(probe, hi)].
    return bisect_left(keys, target, prev + 1, min(probe, hi))


def scan_left(keys, target: int, lo: int, hi: int) -> int:
    """First index in ``[lo, hi)`` whose key is ``>= target``, by scan.

    Same result as :func:`gallop_left`, reached by stepping one key at
    a time — the advance of Algorithm 1 without skipping (Section V-C
    ablation), whose cost grows with every posting passed over.
    """
    while lo < hi and keys[lo] < target:
        lo += 1
    return lo


class GroupRun:
    """One complete subtree group discovered by the kernel.

    ``ends[i]`` is list i's absolute cursor position after draining the
    group; ``reads[i]``/``skips[i]`` are the postings consumed/jumped
    by list i *since the previous complete group* (shallow heads and
    incomplete groups in between are charged to this run, exactly as
    the live loop pays them on the way to this group).
    ``occurrences[i]`` is the materialized token → entries dict the
    scoring stage consumes; entries are immutable tuples shared across
    replays.
    """

    __slots__ = ("key", "ends", "reads", "skips", "occurrences")

    def __init__(self, key, ends, reads, skips, occurrences):
        self.key = key
        self.ends = ends
        self.reads = reads
        self.skips = skips
        self.occurrences = occurrences


class MergePlan:
    """The full group sequence of one merged-variant-set intersection.

    ``tail_*`` account for the postings consumed/skipped after the last
    complete group up to loop exhaustion, so a replayed full run lands
    on byte-identical ``postings_read``/``postings_skipped`` totals.
    """

    __slots__ = ("runs", "tail_ends", "tail_reads", "tail_skips")

    def __init__(self, runs, tail_ends, tail_reads, tail_skips):
        self.runs = runs
        self.tail_ends = tail_ends
        self.tail_reads = tail_reads
        self.tail_skips = tail_skips

    @property
    def groups(self) -> int:
        return len(self.runs)

    def approx_bytes(self) -> int:
        """Approximate in-memory footprint of the plan.

        Entry tuples dominate; strings are shared with the vocabulary
        and charged as pointers.
        """
        sizeof = sys.getsizeof
        total = sizeof(self.runs)
        for run in self.runs:
            total += 200  # run object + the three small tuples
            for by_token in run.occurrences:
                total += sizeof(by_token)
                for entries in by_token.values():
                    total += sizeof(entries) + 112 * len(entries)
        return total


class IntersectionCache:
    """Bounded, generation-keyed LRU of :class:`MergePlan` objects.

    Owned by the corpus index (one per corpus flavour); keys embed the
    snapshot generation, so bumping the generation makes every cached
    plan unreachable — a future hot-swap can never serve stale runs.
    ``capacity=None`` disables caching entirely (every lookup misses
    and nothing is stored); ``0`` is rejected at the config layer.
    """

    __slots__ = ("capacity", "hits", "misses", "evictions", "_plans")

    def __init__(self, capacity: int | None = DEFAULT_INTERSECTION_CACHE_SIZE):
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._plans: OrderedDict[tuple, MergePlan] = OrderedDict()

    def __len__(self) -> int:
        return len(self._plans)

    @property
    def enabled(self) -> bool:
        return self.capacity is not None

    def get(self, key) -> MergePlan | None:
        plan = self._plans.get(key)
        if plan is None:
            self.misses += 1
            return None
        self._plans.move_to_end(key)
        self.hits += 1
        return plan

    def put(self, key, plan: MergePlan) -> None:
        capacity = self.capacity
        if capacity is None:
            return
        plans = self._plans
        if key in plans:
            plans.move_to_end(key)
            plans[key] = plan
            return
        while len(plans) >= capacity:
            plans.popitem(last=False)
            self.evictions += 1
        plans[key] = plan

    def resize(self, capacity: int | None) -> None:
        """Change the bound, trimming LRU-first if shrinking.

        ``None`` disables the cache *and* drops every stored plan —
        a disabled cache is never consulted, so keeping the plans
        would only pin their columns in memory.
        """
        self.capacity = capacity
        plans = self._plans
        if capacity is None:
            if plans:
                self.evictions += len(plans)
                plans.clear()
            return
        while len(plans) > capacity:
            plans.popitem(last=False)
            self.evictions += 1

    def evict_columns(self, uids: set[int]) -> None:
        """Drop every plan over any of the merged columns ``uids``.

        Plan keys end with the uid tuple of the columns the plan
        intersects (``XCleanSuggester._merge_loop_kernel``); a column set
        evicted from the corpus memo is never looked up again, so its
        plans would only pin memory and LRU slots.
        """
        if not uids:
            return
        plans = self._plans
        for key in [key for key in plans if not uids.isdisjoint(key[-1])]:
            del plans[key]

    def clear(self) -> None:
        self._plans.clear()

    def approx_bytes(self) -> int:
        """Approximate footprint of every cached plan (describe())."""
        return sum(plan.approx_bytes() for plan in self._plans.values())

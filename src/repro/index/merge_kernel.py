"""The batch merge kernel's search primitives over packed columns.

Algorithm 1's merge loop repeatedly asks one question of every merged
variant list: *where does the current subtree group start and end in
your key column?*  A full-range ``bisect_left`` per probe would answer
it in O(log n); :func:`gallop_left` — an exponential-probe
("galloping") search that brackets the target from the cursor's
current position before handing off to a C-level ``bisect_left`` —
answers it in O(log distance).  Skips in Algorithm 1 are local (the
next group is usually near the previous one), so the probe window
stays tiny.

:func:`scan_left` is the linear advance of the ``use_skipping=False``
ablation: the same answer as :func:`gallop_left`, one key at a time.
"""

from __future__ import annotations

from bisect import bisect_left


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

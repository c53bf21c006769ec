"""Edit distance (Levenshtein) computations.

The paper's error model is built on the minimum number of insertions,
deletions and substitutions transforming one token into another
(Section III).  Two implementations are provided:

* :func:`edit_distance` — the classic O(|s|·|t|) two-row DP;
* :func:`bounded_edit_distance` — the bit-parallel algorithm of Myers
  (1999) as reformulated by Hyyrö (2001), O(⌈|s|/w⌉·|t|) word
  operations, behind a length filter; this is the verifier behind
  FastSS candidate filtering, where the limit is the small error
  threshold ε (1 or 2 in the paper's experiments).  The classic DP
  stays as its reference.
"""

from __future__ import annotations


def edit_distance(s: str, t: str) -> int:
    """Exact Levenshtein distance between ``s`` and ``t``."""
    if s == t:
        return 0
    if not s:
        return len(t)
    if not t:
        return len(s)
    if len(s) < len(t):
        s, t = t, s
    previous = list(range(len(t) + 1))
    for i, cs in enumerate(s, start=1):
        current = [i]
        for j, ct in enumerate(t, start=1):
            cost = 0 if cs == ct else 1
            current.append(
                min(
                    previous[j] + 1,  # delete from s
                    current[j - 1] + 1,  # insert into s
                    previous[j - 1] + cost,  # substitute / match
                )
            )
        previous = current
    return previous[-1]


def match_masks(pattern: str) -> dict[str, int]:
    """Per character of ``pattern``, the bit mask of its positions."""
    masks: dict[str, int] = {}
    bit = 1
    for char in pattern:
        masks[char] = masks.get(char, 0) | bit
        bit <<= 1
    return masks


def masked_distance(
    masks: dict[str, int], length: int, text: str, limit: int
) -> int:
    """ed(pattern, text) if it is <= ``limit``, else ``limit + 1``.

    ``masks`` and ``length`` describe the pattern (:func:`match_masks`).
    Myers' bit-vector algorithm in Hyyrö's formulation for the global
    distance: bit i of ``vp``/``vn`` is a +1/-1 vertical delta of the
    DP column at pattern row i, ``score`` tracks the last row, and one
    text character updates the whole column in a constant number of
    integer operations (a Python int holds a pattern of any length).
    Each column changes the last row by at most one, so once ``score``
    exceeds ``limit`` plus the characters left, the answer is over the
    limit and the scan stops.
    """
    if not length:
        return min(len(text), limit + 1)
    ones = (1 << length) - 1
    high = 1 << (length - 1)
    vp, vn, score = ones, 0, length
    budget = limit + len(text)
    get = masks.get
    for char in text:
        eq = get(char, 0)
        xv = eq | vn
        xh = (((eq & vp) + vp) ^ vp) | eq
        hp = vn | ~(xh | vp)
        hn = vp & xh
        if hp & high:
            score += 1
        elif hn & high:
            score -= 1
        budget -= 1
        if score > budget:
            return limit + 1
        # Row 0 of a global distance grows by one per column: shift in
        # a +1 horizontal delta.
        hp = (hp << 1) | 1
        hn <<= 1
        vp = (hn | ~(xv | hp)) & ones
        vn = hp & xv
    return score


def bounded_edit_distance(s: str, t: str, limit: int) -> int | None:
    """Levenshtein distance if it is <= ``limit``, else ``None``.

    Rejects pairs whose lengths differ by more than ``limit`` without
    computing anything, then runs :func:`masked_distance`.
    """
    if limit < 0 or abs(len(s) - len(t)) > limit:
        return None
    if s == t:
        return 0
    distance = masked_distance(match_masks(s), len(s), t, limit)
    return distance if distance <= limit else None


def within_distance(s: str, t: str, limit: int) -> bool:
    """True iff ``ed(s, t) <= limit``."""
    return bounded_edit_distance(s, t, limit) is not None

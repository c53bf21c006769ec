"""Probabilistic candidate pruning: γ-bounded accumulators (Section V-D).

Algorithm 1 accumulates per-candidate score mass in a hash table S.  On
large datasets the number of *effective* candidates explodes, so the
paper caps the table at γ in-memory accumulators.  When a new candidate
arrives and the table is full, the victim is the candidate whose
*estimated final score* — the sample-mean argument backed by Hoeffding's
inequality — is lowest:

    estimate(C) = P(Q|C) · (mass accumulated so far) / N_C

An evicted candidate loses its accumulated mass; if it reappears later
it restarts from zero.  This is exactly why suggestion quality degrades
for small γ and saturates near γ = 1000 (Table V).

Exact summation: each accumulator keeps its mass as a Shewchuk
non-overlapping expansion (a short list of floats whose mathematical
sum is the *exact* real sum of every addend) rather than a single
running float.  ``math.fsum`` over the expansion then yields the
correctly rounded total, and — crucially for sharded serving — the
total is independent of the order in which the addends arrived.  A
scatter-gather coordinator can therefore concatenate per-shard partial
expansions and recover a mass bit-identical to the single-index run.
"""

from __future__ import annotations

import math

from repro.core.candidates import CandidateQuery
from repro.exceptions import ConfigurationError


def add_partial(partials: list[float], value: float) -> None:
    """Grow a Shewchuk expansion in place by one addend.

    Invariant: ``sum(partials)`` (as exact reals) equals the exact sum
    of every value ever added, and the list stays short in practice
    (one or two floats for well-scaled inputs).  This is the same
    error-free transformation behind ``math.fsum``.
    """
    i = 0
    x = value
    for y in partials:
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        lo = y - (hi - x)
        if lo:
            partials[i] = lo
            i += 1
        x = hi
    partials[i:] = [x]


def hoeffding_confidence(samples: int, epsilon: float) -> float:
    """Hoeffding's bound as used in Section V-D.

    Probability that the sample mean of ``samples`` bounded-in-[0,1]
    observations lies within ``epsilon`` of the true mean:

        P(|V̂ - V| <= ε) >= 1 - 2·exp(-2·n·ε²)

    This justifies using a candidate's partially accumulated mass as an
    estimate of its final score when choosing eviction victims.
    Clamped to [0, 1].
    """
    if samples < 0:
        raise ConfigurationError("samples must be >= 0")
    if epsilon < 0:
        raise ConfigurationError("epsilon must be >= 0")
    bound = 1.0 - 2.0 * math.exp(-2.0 * samples * epsilon * epsilon)
    return max(0.0, min(1.0, bound))


def samples_for_confidence(confidence: float, epsilon: float) -> int:
    """Smallest n with Hoeffding confidence >= ``confidence``.

    Inverts :func:`hoeffding_confidence`; useful when tuning how much
    mass to accumulate before trusting the pruning estimate.
    """
    if not 0.0 <= confidence < 1.0:
        raise ConfigurationError("confidence must be in [0, 1)")
    if epsilon <= 0:
        raise ConfigurationError("epsilon must be > 0")
    needed = math.log(2.0 / (1.0 - confidence)) / (
        2.0 * epsilon * epsilon
    )
    return max(0, math.ceil(needed))


class Accumulator:
    """Per-candidate running state in the score table S.

    ``normalizer`` generalizes Eq. 8's N: it is N (the entity count)
    under the uniform prior, or the total prior weight W_p of the
    candidate's result type under a non-uniform prior.

    Mass lives in :attr:`partials`, a Shewchuk expansion (see
    :func:`add_partial`): :attr:`mass` is the correctly rounded total,
    independent of addition order, so per-shard partial accumulators
    merge bit-identically to a single-index run.
    """

    __slots__ = (
        "partials", "error_weight", "normalizer", "result_type",
        "samples",
    )

    def __init__(
        self,
        mass: float,
        error_weight: float,
        normalizer: float,
        result_type: int,
        samples: int = 1,
    ):
        #: Non-overlapping expansion whose exact sum is the mass.
        self.partials: list[float] = [mass]
        self.error_weight = error_weight
        self.normalizer = normalizer
        self.result_type = result_type
        #: Mass additions so far — the n of the Hoeffding bound backing
        #: the eviction estimate (surfaced in pruning explanations).
        self.samples = samples

    @property
    def mass(self) -> float:
        """The correctly rounded total mass (order-independent)."""
        return math.fsum(self.partials)

    def add_mass(self, value: float) -> None:
        """Fold one group's mass into the expansion (exact)."""
        add_partial(self.partials, value)

    def extend_mass(self, values) -> None:
        """Fold another expansion's floats in (scatter-gather merge)."""
        for value in values:
            add_partial(self.partials, value)

    def estimate(self) -> float:
        """Estimated final score from the mass observed so far."""
        if self.normalizer == 0:
            return 0.0
        return self.error_weight * self.mass / self.normalizer


class AccumulatorPool:
    """The bounded score table S of Algorithm 1 + Section V-D pruning.

    ``capacity=None`` disables pruning (exact evaluation); tests use
    this to check that the pruned algorithm with γ = ∞ reproduces the
    naive scorer bit-for-bit.
    """

    def __init__(self, capacity: int | None = None, observer=None):
        if capacity is not None and capacity < 1:
            raise ConfigurationError("capacity must be >= 1 or None")
        self.capacity = capacity
        self.evictions = 0
        #: Optional pruning observer (``repro.obs.explain``): notified
        #: of evictions and rejected newcomers.  ``None`` (the
        #: default) keeps the hot path free of any callback checks
        #: outside the already-cold eviction branch.
        self.observer = observer
        self._table: dict[CandidateQuery, Accumulator] = {}
        #: Cached lower bound on the minimum estimate in the table
        #: while saturated (see :meth:`prune_floor`); ``None`` until a
        #: full scan has established one.
        self._floor: float | None = None

    def __len__(self) -> int:
        return len(self._table)

    def __contains__(self, candidate: CandidateQuery) -> bool:
        return candidate in self._table

    @property
    def at_capacity(self) -> bool:
        """True when the table is saturated (γ entries live)."""
        return (
            self.capacity is not None
            and len(self._table) >= self.capacity
        )

    def prune_floor(self) -> float:
        """A lower bound on the minimum estimate in the table.

        Only meaningful while :attr:`at_capacity`.  The true minimum is
        monotone non-decreasing once the table saturates — masses only
        grow, and an eviction replaces the minimum with a newcomer
        whose estimate is at least as large — so any past full-scan
        minimum stays a valid bound forever.  Eviction scans refresh
        the cached value for free; the first call pays one O(γ) scan.

        The merge kernel uses this as the γ-pruning threshold: a
        newcomer whose score *upper bound* is strictly below the floor
        is guaranteed to be rejected by :meth:`add`, so its entities
        are never materialized or scored.
        """
        floor = self._floor
        if floor is None:
            floor = min(
                (entry.estimate() for entry in self._table.values()),
                default=0.0,
            )
            self._floor = floor
        return floor

    def add(
        self,
        candidate: CandidateQuery,
        mass: float,
        error_weight: float,
        normalizer: float,
        result_type: int,
    ) -> None:
        """Add entity mass for a candidate, evicting a victim if full.

        ``normalizer`` is the candidate-constant denominator of Eq. 8
        (N_C under the uniform prior, W_p under a weighted prior); it
        is stored on first touch for estimate/finalize use.
        """
        entry = self._table.get(candidate)
        if entry is not None:
            entry.add_mass(mass)
            entry.samples += 1
            return
        if (
            self.capacity is not None
            and len(self._table) >= self.capacity
        ):
            incoming_estimate = (
                error_weight * mass / normalizer if normalizer else 0.0
            )
            self._evict_lowest_estimate(candidate, incoming_estimate)
            if (
                self.capacity is not None
                and len(self._table) >= self.capacity
            ):
                # The incoming candidate itself was the weakest; drop it.
                if self.observer is not None:
                    self.observer.rejected(candidate, incoming_estimate)
                return
        self._table[candidate] = Accumulator(
            mass=mass,
            error_weight=error_weight,
            normalizer=normalizer,
            result_type=result_type,
        )

    def _evict_lowest_estimate(
        self,
        incoming: CandidateQuery,
        incoming_estimate: float,
    ) -> None:
        """Remove the weakest current entry if weaker than the newcomer.

        Linear scan: γ is at most a few thousand in every configuration
        the paper reports, and evictions only happen when the table is
        saturated.
        """
        victim: CandidateQuery | None = None
        victim_entry: Accumulator | None = None
        victim_estimate = float("inf")
        for candidate, entry in self._table.items():
            estimate = entry.estimate()
            if estimate < victim_estimate:
                victim = candidate
                victim_entry = entry
                victim_estimate = estimate
        # The scan just computed the true minimum; whether or not the
        # victim goes, every future minimum is >= it (monotonicity),
        # so it becomes the kernel's pruning floor.
        if victim is not None:
            self._floor = victim_estimate
        if victim is not None and victim_estimate <= incoming_estimate:
            del self._table[victim]
            self.evictions += 1
            if self.observer is not None:
                self.observer.evicted(
                    victim, victim_entry, incoming, incoming_estimate
                )

    def final_scores(self) -> dict[CandidateQuery, float]:
        """P(C|Q,T) (up to the shared κ) for every surviving candidate.

        Final score = P(Q|C) · (1/N_C) · Σ_r ∏_w p(w|D(r))  (Eq. 10).
        """
        return {
            candidate: entry.estimate()
            for candidate, entry in self._table.items()
        }

    def entry(self, candidate: CandidateQuery) -> Accumulator | None:
        """The accumulator of a candidate (inspection/testing)."""
        return self._table.get(candidate)

    def items(self):
        """Iterate ``(candidate, accumulator)`` pairs (shard gather)."""
        return self._table.items()

    def top_k(
        self, k: int
    ) -> list[tuple[CandidateQuery, float, Accumulator]]:
        """The k best candidates by final score.

        Ties are broken by the candidate's token tuple ascending —
        which (tokens contain no spaces, and a space sorts before
        every token character) is exactly the space-joined suggestion
        string ascending.  This total order is part of the public
        contract: it makes suggestion lists reproducible across runs,
        skipping modes, and shard counts, so a scatter-gather merge sorted by
        the same ``(-score, candidate)`` key is byte-identical to a
        single-index run.
        """
        scored = [
            (candidate, entry.estimate(), entry)
            for candidate, entry in self._table.items()
        ]
        scored.sort(key=lambda item: (-item[1], item[0]))
        return scored[:k]

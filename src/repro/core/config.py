"""Configuration shared by the XClean-family suggesters."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.error_model import DEFAULT_BETA
from repro.core.language_model import DEFAULT_MU
from repro.core.result_type import DEFAULT_MIN_DEPTH, DEFAULT_REDUCTION
from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class XCleanConfig:
    """All tunables of the XClean framework in one value object.

    Attributes:
        max_errors: ε — edit-distance radius of var_ε(q) (Section IV-A).
        beta: β — error penalty of the exponential model (Eq. 5);
            the paper's best setting is 5 (Table IV).
        mu: μ — Dirichlet smoothing parameter (Eq. 6).
        reduction: r — depth reduction factor of Eq. 7.
        min_depth: d — minimal depth threshold (Section V-B).
        gamma: γ — in-memory accumulator budget (Section V-D);
            ``None`` disables pruning.
        use_skipping: galloping skip_to in Algorithm 1 (Lines 7-8);
            ``False`` runs the same merge with a linear advance that
            reads every posting it passes and bypasses the plan cache
            (the Section V-C ablation: same output, more I/O).
        prior: the entity prior P(r_j|T) of Eq. 8 — ``"uniform"``
            (the paper's 1/N) or ``"length"`` (∝ |D(r)|: longer
            entities are a priori likelier targets; the generalization
            the paper notes is "easily" available).
    """

    max_errors: int = 2
    beta: float = DEFAULT_BETA
    mu: float = DEFAULT_MU
    reduction: float = DEFAULT_REDUCTION
    min_depth: int = DEFAULT_MIN_DEPTH
    gamma: int | None = 1000
    use_skipping: bool = True
    prior: str = "uniform"
    #: In-loop γ-pruning: candidates whose score upper bound falls
    #: strictly below the saturated accumulator table's floor are never
    #: materialized or scored (provably the same table the pool would
    #: have produced, so top-k and scores are unchanged).  Effective
    #: only with finite ``gamma``, under the uniform prior.
    kernel_pruning: bool = True
    #: LRU bound of the corpus's merged-columns memo (physically merged
    #: per-variant-set posting columns); ``None`` removes the bound.
    merged_cache_size: int | None = 256
    #: LRU bound of the corpus's intersection (merge-plan) cache;
    #: ``None`` disables plan caching entirely.  Must cover the query
    #: log's working set of distinct variant-set combinations — a
    #: sequentially scanned LRU smaller than the working set hits 0%.
    intersection_cache_size: int | None = 256
    #: Per-query wall-clock budget (seconds) for the merge/score loop;
    #: on expiry the engine returns the best-so-far top-k with
    #: ``CleaningStats.partial = True`` instead of raising.  ``None``
    #: (the default) disables the checks entirely, leaving the loops
    #: byte-identical to their pre-deadline behavior.
    deadline_seconds: float | None = None
    #: Fault-injection plan spec (``repro.obs.faults`` grammar), or
    #: ``None`` for no injection.  Carried in the config so a plan
    #: crosses process boundaries: pool worker initializers install it
    #: before building their suggester.
    fault_plan: str | None = None
    #: Seed for the fault plan's deterministic choices (corrupt-byte
    #: offsets); ignored when ``fault_plan`` is ``None``.
    fault_seed: int = 0

    def __post_init__(self):
        if self.max_errors < 0:
            raise ConfigurationError("max_errors must be >= 0")
        if self.gamma is not None and self.gamma < 1:
            raise ConfigurationError("gamma must be >= 1 or None")
        if self.min_depth < 1:
            raise ConfigurationError("min_depth must be >= 1")
        if self.merged_cache_size is not None and self.merged_cache_size < 1:
            raise ConfigurationError(
                "merged_cache_size must be >= 1 or None"
            )
        if (
            self.intersection_cache_size is not None
            and self.intersection_cache_size < 1
        ):
            raise ConfigurationError(
                "intersection_cache_size must be >= 1 or None"
            )
        if self.prior not in ("uniform", "length"):
            raise ConfigurationError(f"unknown prior {self.prior!r}")
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ConfigurationError(
                "deadline_seconds must be > 0 or None"
            )
        if self.fault_plan is not None:
            # Parse for validation only; installation is the caller's
            # (service / worker initializer) responsibility.
            from repro.obs.faults import FaultPlan

            FaultPlan.parse(self.fault_plan, seed=self.fault_seed)

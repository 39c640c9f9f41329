"""Certified learning-error bounds.

One step of exact Bayes updating is Lipschitz from priors to posteriors; the
per-step factor depends on the system constants and one evidence value.
Chaining the per-step inequality with the triangle inequality yields two
cumulative bound sets on the distance between the true posterior sequence and
an approximate one: SET1 uses the exact-sequence evidences (the conditional
data densities), SET2 the approximate-sequence evidences (computable online).
Both are materialized as replayable ledgers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .domains import finite_nonnegative
from .errors import MissingConstant
from .models import ConstantsReport, SystemSpec, admissible_evidence, system_constants

METRICS = ("tv", "hellinger", "w1")


def table_constant(constants: ConstantsReport, metric: str, z: float) -> float:
    """Per-step posterior-to-prior Lipschitz factor at evidence z.

    z must pass models.admissible_evidence: NonFinite if it is not finite,
    ZeroEvidence if it is at or below the floor.
    """
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    z = admissible_evidence(z)
    sup = constants.sup
    if metric == "tv":
        return sup / z
    if metric == "hellinger":
        return 2.0 * math.sqrt(sup / z)
    # 1-Wasserstein
    if constants.lip is None:
        raise MissingConstant(f"w1 factor needs the {constants.variant} Lipschitz term")
    # IP and PS posteriors keep a coordinate of the prior (x, resp. w), which adds sup g
    kept = 0.0 if constants.variant == "se" else sup
    return (2.0 * constants.d * constants.lip + kept) / z


def pointwise_K(s: SystemSpec, k: int, metric: str, z: float) -> float:
    """Lipschitz factor of the step-k update, anchored at a prior with evidence z."""
    return table_constant(system_constants(s, k, metric), metric, z)


@dataclass(frozen=True)
class LedgerRow:
    step: int
    factor: float  # per-step Lipschitz multiplier K_k
    eps: float     # incremental approximation error at this step
    cum_bound: float


@dataclass(frozen=True)
class BoundLedger:
    """Replayable record of a cumulative bound recursion."""

    metric: str
    variant: str  # "set1" | "set2"
    rows: tuple[LedgerRow, ...]
    initial: float = 0.0  # seed of the recursion (nonzero for inaccurate priors)

    @property
    def final_bound(self) -> float:
        return self.rows[-1].cum_bound if self.rows else self.initial

    def bounds(self) -> list[float]:
        return [r.cum_bound for r in self.rows]

    def replay_consistent(self) -> bool:
        """Check cum_k == factor_k * cum_{k-1} + eps_k exactly, seeded at `initial`."""
        prev = self.initial
        for row in self.rows:
            expected = row.factor * prev + row.eps
            if math.isnan(expected):
                expected = math.inf
            if not (expected == row.cum_bound or (math.isinf(expected) and math.isinf(row.cum_bound))):
                return False
            prev = row.cum_bound
        return all(r.eps >= 0.0 and (r.cum_bound >= 0.0 or math.isinf(r.cum_bound)) for r in self.rows)


def _factors(metric: str, s: SystemSpec, evidences: Sequence[float],
             eps: Sequence[float]) -> list[float]:
    """K_k = pointwise_K(s, k, metric, z_k) for k = 1..len(eps)."""
    if len(evidences) != len(eps):
        raise ValueError("evidences and eps must have equal length")
    if len(eps) == 0:
        raise ValueError("a ledger needs at least one step")
    return [pointwise_K(s, k, metric, evidences[k - 1]) for k in range(1, len(eps) + 1)]


def _build_ledger(metric: str, variant: str, factors: Sequence[float], eps: Sequence[float],
                  initial: float = 0.0) -> BoundLedger:
    """Chain cum_k = K_k * cum_{k-1} + eps_k from `initial`, one factor per step from step 1."""
    cum = finite_nonnegative("initial", initial)
    rows = []
    for k, factor in enumerate(factors, start=1):
        cum = factor * cum + finite_nonnegative("eps", eps[k - 1])
        if math.isnan(cum):
            cum = math.inf  # inf * 0 saturation
        rows.append(LedgerRow(k, factor, float(eps[k - 1]), cum))
    return BoundLedger(metric, variant, tuple(rows), initial=initial)


def recursion_set1(metric: str, s: SystemSpec, exact_evidences: Sequence[float],
                   eps: Sequence[float]) -> BoundLedger:
    """Cumulative bound with exact-sequence evidences p(y_k | data so far)."""
    return _build_ledger(metric, "set1", _factors(metric, s, exact_evidences, eps), eps)


def recursion_set2(metric: str, s: SystemSpec, approx_evidences: Sequence[float],
                   eps: Sequence[float]) -> BoundLedger:
    """Cumulative bound with approximate-sequence evidences (computable online)."""
    return _build_ledger(metric, "set2", _factors(metric, s, approx_evidences, eps), eps)


def tv_to_w1_bound(tv_bound: float, d: float) -> float:
    """Convert a total-variation bound to a Wasserstein bound on a bounded domain."""
    return finite_nonnegative("d", d) * finite_nonnegative("tv_bound", tv_bound)


def inaccurate_prior_bound(metric: str, s: SystemSpec, approx_evidences: Sequence[float],
                           eps: Sequence[float], prior_error: float) -> BoundLedger:
    """Bound for inference started from an estimated initial prior.

    The recursion is seeded with the initial-prior distance, so the extra
    linear term (first-step factor times the product of later factors, times
    the prior error) falls out of the same replayable ledger.
    """
    return _build_ledger(metric, "set2", _factors(metric, s, approx_evidences, eps), eps,
                         initial=prior_error)


def two_output_bound(metric: str, s: SystemSpec, eps_a: Sequence[float],
                     eps_b: Sequence[float], exact_evidences: Sequence[float]) -> float:
    """Bound on the distance between two approximate posterior sequences."""
    if len(eps_a) != len(eps_b):
        raise ValueError("the two error sequences must have equal length")
    factors = _factors(metric, s, exact_evidences, eps_a)
    return (_build_ledger(metric, "set1", factors, eps_a).final_bound
            + _build_ledger(metric, "set1", factors, eps_b).final_bound)


def literature_ratio(z_a: float, z_b: float) -> tuple[float, float, float]:
    """Our one-step TV constant vs the previously published one, and their ratio."""
    if not (finite_nonnegative("z_a", z_a) > 0.0 and finite_nonnegative("z_b", z_b) > 0.0):
        raise ValueError("evidences must be positive")
    m = max(z_a, z_b)
    ours = 1.0 / m
    lit_tv = 2.0 / m
    return ours, lit_tv, ours / lit_tv

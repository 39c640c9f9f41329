"""Learning-error bound calculators for online variational inference.

Two bound families are covered for Gaussian-observation systems: joint
state-parameter VI (type 1), where the bound is driven by per-step ELBO
floors, and point-estimated-parameter VI (type 2), which adds a parameter
error term per step.  A seeded Monte Carlo ELBO estimator for toy Gaussian
systems feeds the calculators; no ELBO optimization is performed here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bayes import predicted_values
from .domains import DomainSpec, Gaussian1D, GridDensity, grid_values
from .errors import MissingD, NonFinite, UnsupportedRepresentation, VacuousBound
from .models import SystemSpec, admissible_evidence

_SQRT2 = math.sqrt(2.0)


def log_sup_likelihood(r: int, det_gamma: float) -> float:
    """Log of the Gaussian observation density peak: -(r/2)log(2pi) - log(det Gamma)/2."""
    return -0.5 * r * math.log(2.0 * math.pi) - 0.5 * math.log(det_gamma)


@dataclass(frozen=True)
class BetaInputs:
    """Per-step ingredients of the parameter-error term (type-2 bounds)."""

    c_vi_tilde: float  # transition parameter-Lipschitz integral
    w_err: float       # parameter estimation error at this step
    z_hat: float       # evidence under the estimated-parameter system

    def __post_init__(self):
        if not (self.c_vi_tilde >= 0.0 and math.isfinite(self.c_vi_tilde)):
            raise NonFinite("c_vi_tilde must be finite and nonnegative")
        if not (self.w_err >= 0.0 and math.isfinite(self.w_err)):
            raise NonFinite("w_err must be finite and nonnegative")
        admissible_evidence(self.z_hat)


@dataclass(frozen=True)
class VIBoundInputs:
    r: int
    det_gamma: float
    elbo_floors: tuple
    evidences: tuple
    d: Optional[float] = None
    beta_inputs: Optional[tuple] = None

    def __post_init__(self):
        object.__setattr__(self, "elbo_floors", tuple(float(e) for e in self.elbo_floors))
        object.__setattr__(self, "evidences", tuple(float(z) for z in self.evidences))
        if self.beta_inputs is not None:
            object.__setattr__(self, "beta_inputs", tuple(self.beta_inputs))
        if self.r < 1:
            raise ValueError("data dimension r must be a positive integer")
        if not (self.det_gamma > 0.0 and math.isfinite(self.det_gamma)):
            raise ValueError("det_gamma must be positive and finite")
        if self.d is not None and not (self.d > 0.0 and math.isfinite(self.d)):
            raise ValueError("d must be positive and finite")
        if len(self.elbo_floors) == 0:
            raise ValueError("need at least one step")
        if len(self.evidences) != len(self.elbo_floors):
            raise ValueError("evidences and elbo_floors must have equal length")
        for z in self.evidences:
            admissible_evidence(z)
        cap = log_sup_likelihood(self.r, self.det_gamma)
        for eps in self.elbo_floors:
            if math.isnan(eps) or eps == -math.inf:
                raise NonFinite(f"ELBO floor {eps!r} is not a finite number")
            if cap - eps < 0.0:
                raise VacuousBound(
                    f"ELBO floor {eps!r} exceeds the log likelihood peak {cap!r}; "
                    "the certificate is vacuous")
        if self.beta_inputs is not None and len(self.beta_inputs) != len(self.elbo_floors):
            raise ValueError("beta_inputs must give one entry per step")

    @property
    def steps(self) -> int:
        return len(self.elbo_floors)


def vi_coefficient(inputs: VIBoundInputs, metric: str, j: int) -> float:
    """Coefficient of the step-j error term in the k-step bound (k = inputs.steps).

    It is a product over the later steps, so at j = k the product is empty."""
    k = inputs.steps
    if not 1 <= j <= k:
        raise ValueError(f"j must be in 1..{k}")
    peak = math.exp(log_sup_likelihood(inputs.r, inputs.det_gamma))
    tail = inputs.evidences[j:k]  # Z_{j+1} .. Z_k
    if metric in ("tv", "w1"):
        prod = 1.0
        for z in tail:
            prod *= peak / z
        coef = prod / _SQRT2
        if metric == "w1":
            if inputs.d is None:
                raise MissingD("the Wasserstein coefficient needs the domain diameter")
            coef *= inputs.d
        return coef
    if metric == "hellinger":
        prod = 1.0
        for z in tail:
            prod *= 2.0 * math.sqrt(peak / z)
        return prod / _SQRT2
    raise ValueError(f"unknown metric {metric!r}")


def _bound_sum(inputs: VIBoundInputs, metric: str, betas) -> float:
    """Sum over steps j of coefficient_j * (gap_j + beta_j), where gap_j =
    sqrt(log peak - ELBO floor_j); the last step's term is added first."""
    cap = log_sup_likelihood(inputs.r, inputs.det_gamma)
    gaps = [math.sqrt(cap - eps) for eps in inputs.elbo_floors]
    k = inputs.steps
    total = 0.0  # a loop, not sum(): sum() compensates float additions from Python 3.12
    for j in (k, *range(1, k)):
        total += vi_coefficient(inputs, metric, j) * (gaps[j - 1] + betas[j - 1])
    return total


def vi_bound_type1(inputs: VIBoundInputs, metric: str) -> float:
    """Learning-error bound for joint state-parameter VI from ELBO floors."""
    # gap + 0.0 is gap for the nonnegative gaps: the type-2 sum without betas
    return _bound_sum(inputs, metric, [0.0] * inputs.steps)


def beta_term(b: BetaInputs, metric: str) -> float:
    """Per-step parameter-error augmentation of the sqrt terms."""
    ratio = b.c_vi_tilde * b.w_err / b.z_hat
    if metric in ("tv", "w1"):
        return _SQRT2 * ratio
    if metric == "hellinger":
        return 2.0 * math.sqrt(ratio)
    raise ValueError(f"unknown metric {metric!r}")


def vi_bound_type2(inputs: VIBoundInputs, metric: str) -> float:
    """Learning-error bound for point-estimated-parameter VI."""
    if inputs.beta_inputs is None:
        raise ValueError("type-2 bounds need beta_inputs per step")
    return _bound_sum(inputs, metric, [beta_term(b, metric) for b in inputs.beta_inputs])


# -- Monte Carlo ELBO ---------------------------------------------------------


@dataclass(frozen=True)
class GaussianPair:
    """Product of independent Gaussians over (state, parameter)."""

    x: Gaussian1D
    w: Gaussian1D


@dataclass(frozen=True)
class ElboEstimate:
    value: float
    stderr: float
    n: int


def _log_density_1d(dist, xs: np.ndarray, domain: DomainSpec) -> np.ndarray:
    if isinstance(dist, Gaussian1D):
        vals = dist.pdf(xs)
    elif isinstance(dist, GridDensity):
        vals = np.interp(xs, domain.nodes, grid_values(dist, domain))  # DomainMismatch off domain
    else:
        raise UnsupportedRepresentation(f"no density available for {type(dist).__name__}")
    if np.any(vals <= 0.0):
        raise NonFinite("sampled a point of zero density")
    return np.log(vals)


def elbo_mc_stats(q, s: SystemSpec, k: int, prev_q, n: int, seed: int) -> ElboEstimate:
    """Seeded Monte Carlo ELBO estimate with its standard error."""
    if n < 100:
        raise ValueError("need at least 100 samples")
    rng = np.random.default_rng(seed)
    y = s.y(k)
    trans = s.transition
    if s.variant in ("ip", "se"):
        if not isinstance(q, Gaussian1D):
            raise UnsupportedRepresentation("1-D systems take a Gaussian variational density")
        xs = q.mean + q.std * rng.standard_normal(n)
        log_q = np.log(q.pdf(xs))
        log_h = _safe_log(np.asarray(s.likelihood.evaluator(y, xs), dtype=float))
        if s.variant == "ip":
            pred = prev_q
        elif isinstance(prev_q, Gaussian1D) and trans.family == "linear_gaussian" and trans.q > 0:
            pred = Gaussian1D(trans.a * prev_q.mean, trans.a ** 2 * prev_q.variance + trans.q)
        else:
            pred = GridDensity(s.domain, predicted_values(s, prev_q), normalized=False)
        log_prior = _log_density_1d(pred, xs, s.domain)
    else:
        if not (isinstance(q, GaussianPair) and isinstance(prev_q, GaussianPair)):
            raise UnsupportedRepresentation(
                "parameter-state ELBO takes GaussianPair variational densities")
        if trans.family != "parametric_linear_gaussian":
            raise UnsupportedRepresentation(
                "parameter-state ELBO needs the parametric linear-Gaussian family")
        xs = q.x.mean + q.x.std * rng.standard_normal(n)
        ws = q.w.mean + q.w.std * rng.standard_normal(n)
        log_q = np.log(q.x.pdf(xs)) + np.log(q.w.pdf(ws))
        log_h = _safe_log(np.asarray(s.likelihood.evaluator(y, xs, ws), dtype=float))
        pred_mean = ws * prev_q.x.mean
        pred_var = ws ** 2 * prev_q.x.variance + trans.q
        log_pred_x = -0.5 * np.log(2 * math.pi * pred_var) - 0.5 * (xs - pred_mean) ** 2 / pred_var
        log_prior = log_pred_x + np.log(prev_q.w.pdf(ws))
    terms = log_h + log_prior - log_q
    if not np.all(np.isfinite(terms)):
        raise NonFinite("ELBO integrand is not finite at a sampled point")
    value = float(terms.mean())
    stderr = float(terms.std(ddof=1) / math.sqrt(n))
    return ElboEstimate(value, stderr, n)


def _safe_log(vals: np.ndarray) -> np.ndarray:
    if np.any(vals <= 0.0) or not np.all(np.isfinite(vals)):
        raise NonFinite("likelihood vanished (or blew up) at a sampled point")
    return np.log(vals)


def elbo_mc(q, s: SystemSpec, k: int, prev_q, n: int, seed: int) -> float:
    return elbo_mc_stats(q, s, k, prev_q, n, seed).value

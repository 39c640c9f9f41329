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

from .domains import DomainSpec, Gaussian1D, GridDensity
from .errors import MissingD, NonFinite, VacuousBound, ZeroEvidence
from .models import SystemSpec, CUSTOM_LIP_SAFETY

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
        if not (self.z_hat > 0.0 and math.isfinite(self.z_hat)):
            raise ZeroEvidence("z_hat must be positive and finite")


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
        if len(self.elbo_floors) == 0:
            raise ValueError("need at least one step")
        if len(self.evidences) != len(self.elbo_floors):
            raise ValueError("evidences and elbo_floors must have equal length")
        if any(z <= 0.0 or not math.isfinite(z) for z in self.evidences):
            raise ZeroEvidence("all evidences must be positive and finite")
        cap = log_sup_likelihood(self.r, self.det_gamma)
        for eps in self.elbo_floors:
            if cap - eps < 0.0:
                raise VacuousBound(
                    f"ELBO floor {eps!r} exceeds the log likelihood peak {cap!r}; "
                    "the certificate is vacuous")
        if self.beta_inputs is not None and len(self.beta_inputs) != len(self.elbo_floors):
            raise ValueError("beta_inputs must give one entry per step")

    @property
    def steps(self) -> int:
        return len(self.elbo_floors)


def _sqrt_gaps(inputs: VIBoundInputs) -> list[float]:
    cap = log_sup_likelihood(inputs.r, inputs.det_gamma)
    return [math.sqrt(cap - eps) for eps in inputs.elbo_floors]


def vi_coefficient(inputs: VIBoundInputs, metric: str, j: int) -> float:
    """Coefficient of the step-j error term in the k-step bound (k = inputs.steps)."""
    k = inputs.steps
    if not 1 <= j <= k - 1:
        raise ValueError(f"j must be in 1..{k - 1}")
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


def vi_alpha(inputs: VIBoundInputs, metric: str) -> float:
    if metric in ("tv", "hellinger"):
        return 1.0 / _SQRT2
    if metric == "w1":
        if inputs.d is None:
            raise MissingD("the Wasserstein tail factor needs the domain diameter")
        return inputs.d / _SQRT2
    raise ValueError(f"unknown metric {metric!r}")


def vi_bound_type1(inputs: VIBoundInputs, metric: str) -> float:
    """Learning-error bound for joint state-parameter VI from ELBO floors."""
    gaps = _sqrt_gaps(inputs)
    k = inputs.steps
    total = vi_alpha(inputs, metric) * gaps[k - 1]
    for j in range(1, k):
        total += vi_coefficient(inputs, metric, j) * gaps[j - 1]
    return total


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
    gaps = _sqrt_gaps(inputs)
    betas = [beta_term(b, metric) for b in inputs.beta_inputs]
    k = inputs.steps
    total = vi_alpha(inputs, metric) * (gaps[k - 1] + betas[k - 1])
    for j in range(1, k):
        total += vi_coefficient(inputs, metric, j) * (gaps[j - 1] + betas[j - 1])
    return total


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
        vals = np.interp(xs, domain.nodes, dist.values)
    else:
        raise NonFinite(f"no density available for {type(dist).__name__}")
    if np.any(vals <= 0.0):
        raise NonFinite("sampled a point of zero density")
    return np.log(vals)


def elbo_mc_stats(q, s: SystemSpec, k: int, prev_q, n: int, seed: int) -> ElboEstimate:
    """Seeded Monte Carlo ELBO estimate with its standard error."""
    if n < 100:
        raise ValueError("need at least 100 samples")
    rng = np.random.default_rng(seed)
    y = s.y(k)

    if s.variant in ("ip", "se"):
        if not isinstance(q, Gaussian1D):
            raise NonFinite("1-D systems take a Gaussian variational density")
        xs = q.mean + q.std * rng.standard_normal(n)
        log_q = np.log(q.pdf(xs))
        log_h = _safe_log(np.asarray(s.likelihood.evaluator(y, xs), dtype=float))
        if s.variant == "ip":
            log_prior = _log_density_1d(prev_q, xs, s.domain)
        else:
            trans = s.transition
            if isinstance(prev_q, Gaussian1D) and trans.family == "linear_gaussian" and trans.q > 0:
                pred = Gaussian1D(trans.a * prev_q.mean,
                                  trans.a ** 2 * prev_q.variance + trans.q)
                log_prior = _log_density_1d(pred, xs, s.domain)
            else:
                from .bayes import predicted_values

                pred_vals = predicted_values(s, k, prev_q)
                pred = GridDensity(s.domain, pred_vals, normalized=False)
                log_prior = _log_density_1d(pred, xs, s.domain)
        terms = log_h + log_prior - log_q
    else:
        if not (isinstance(q, GaussianPair) and isinstance(prev_q, GaussianPair)):
            raise NonFinite("parameter-state ELBO takes GaussianPair variational densities")
        trans = s.transition
        if trans.family != "parametric_linear_gaussian":
            raise NonFinite("parameter-state ELBO needs the parametric linear-Gaussian family")
        xs = q.x.mean + q.x.std * rng.standard_normal(n)
        ws = q.w.mean + q.w.std * rng.standard_normal(n)
        log_q = np.log(q.x.pdf(xs)) + np.log(q.w.pdf(ws))
        log_h = _safe_log(np.asarray(s.likelihood.evaluator(y, xs, ws), dtype=float))
        coef = np.asarray(trans.drift(ws), dtype=float)
        pred_mean = coef * prev_q.x.mean
        pred_var = coef ** 2 * prev_q.x.variance + trans.q
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


def c_vi_tilde_estimate(s: SystemSpec, k: int, n_x: int = 201, n_w: int = 201) -> float:
    """Grid estimate of the transition parameter-Lipschitz integral.

    sup over previous states and parameter pairs of the transition difference
    quotient in the parameter, integrated against the observation density's
    sup over the parameter grid.  Over-approximates custom families by the
    usual safety factor.
    """
    if s.variant != "ps" or s.transition.kernel is None:
        raise NonFinite("the estimator needs a parameter-state system with a kernel")
    xd = DomainSpec(s.domain.lower, s.domain.upper, max(101, n_x))
    wd = DomainSpec(s.w_domain.lower, s.w_domain.upper, max(101, n_w))
    xs, ws = xd.nodes, wd.nodes
    g_lip = np.zeros(xs.shape[0])
    for i, xn in enumerate(xs):
        t = np.asarray(s.transition.kernel(xn, xs[:, None], ws[None, :]), dtype=float)
        g_lip[i] = np.max(np.abs(np.diff(t, axis=1))) / wd.spacing
    h = np.asarray(s.likelihood.evaluator(s.y(k), xs[:, None], ws[None, :]), dtype=float)
    h = np.broadcast_to(h, (xs.shape[0], ws.shape[0])).max(axis=1)
    value = float(xd.integrate(h * g_lip))
    if s.transition.family == "custom":
        value *= CUSTOM_LIP_SAFETY
    return value

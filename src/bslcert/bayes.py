"""Prior-to-posterior updates: conjugate closed forms, grid quadrature, and
the two approximate update maps (Gaussian projection, bootstrap particles).

The grid update is the workhorse: it evaluates the unnormalized posterior on
the domain grid, reads the evidence off as the pre-normalization trapezoid
mass, and renormalizes.  A boundary-mass check converts silent truncation
bias into a hard error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import metrics, models
from .domains import (Gaussian1D, GridDensity, JointGrid2D, ParticleSet,
                      discretize, finite_min, moments)
from .errors import (AllWeightsZero, DegenerateVariance, DomainMismatch,
                     DomainTooSmall, NonFinite, UnsupportedRepresentation,
                     ZeroEvidence)
from .models import (SystemSpec, admissible_evidence, kernel_matvec, lik_values,
                     lik_values_ps, transition_matrix)

BOUNDARY_MASS_LIMIT = 1e-8

Posterior = Union[Gaussian1D, GridDensity, JointGrid2D]


@dataclass(frozen=True)
class UpdateResult:
    posterior: Posterior
    evidence: float

    def __post_init__(self):
        if not (math.isfinite(self.evidence) and self.evidence > 0.0):
            raise ZeroEvidence(f"evidence {self.evidence!r} must be positive and finite")


def prior_values(s: SystemSpec, prior) -> np.ndarray:
    """Density values of a 1-D prior on the system grid."""
    if isinstance(prior, Gaussian1D):
        return discretize(prior, s.domain).values
    if isinstance(prior, GridDensity):
        if prior.domain != s.domain:
            raise DomainMismatch("prior grid does not match the system domain")
        return prior.values
    raise UnsupportedRepresentation(f"no grid density for {type(prior).__name__}")


def predicted_values(s: SystemSpec, prior) -> np.ndarray:
    """Pushforward of the prior through the transition, on the grid (SE only)."""
    xs = s.domain.nodes
    if isinstance(prior, ParticleSet):
        return kernel_matvec(s.transition_density(), xs, prior.points, prior.weights)
    p = prior_values(s, prior)
    return kernel_matvec(s.transition_kernel(s.domain), xs, xs, s.domain.trapezoid_weights * p)


def _ps_prior_values(s: SystemSpec, prior) -> np.ndarray:
    if not isinstance(prior, JointGrid2D):
        raise UnsupportedRepresentation("parameter-state updates need a JointGrid2D prior")
    if prior.x_domain != s.domain or prior.w_domain != s.w_domain:
        raise DomainMismatch("prior joint grid does not match the system domains")
    return prior.values


def _ps_predicted_values(s: SystemSpec, priors) -> list:
    """Pushforward of each joint prior; each per-parameter kernel is evaluated once.

    The parameter nodes are dealt to the kernel pool's workers (models._deal).
    Each worker evaluates its nodes' kernels into its own n x n buffer, which
    the next node's kernel overwrites, and writes column j of every prior's
    output with the same ``kernel @ v`` as kernel_matvec's matrix branch.
    """
    pvs = [_ps_prior_values(s, prior) for prior in priors]
    n = s.domain.grid_points
    wquad = s.domain.trapezoid_weights
    ws = s.w_domain.nodes
    outs = [np.empty_like(pv) for pv in pvs]

    def columns(js):
        kernel = np.empty((n, n))
        for j in js:
            transition_matrix(s, s.domain, ws[j], out=kernel)
            for pv, out in zip(pvs, outs):
                out[:, j] = kernel @ (wquad * pv[:, j])

    models._run_each(columns, models._deal(ws.shape[0]))
    return outs


def _unnormalized_posteriors(s: SystemSpec, k: int, priors) -> list:
    """Unnormalized posterior values on the grid, per prior."""
    if s.variant == "ip":
        if any(isinstance(prior, ParticleSet) for prior in priors):
            raise UnsupportedRepresentation("inverse-problem grid updates need a density prior")
        h = lik_values(s, k)
        return [h * prior_values(s, prior) for prior in priors]
    if s.variant == "se":
        predicted = [predicted_values(s, prior) for prior in priors]
        h = lik_values(s, k)
    else:
        predicted = _ps_predicted_values(s, priors)
        h = lik_values_ps(s, k)
    return [h * pred for pred in predicted]


def _mass(s: SystemSpec, values: np.ndarray) -> float:
    if s.variant == "ps":
        return float(s.domain.trapezoid_weights @ values @ s.w_domain.trapezoid_weights)
    return s.domain.integrate(values)


def evidence(s: SystemSpec, k: int, prior) -> float:
    """Evidence of the prior at step k: pre-normalization mass of the update."""
    if s.variant == "ip" and isinstance(prior, ParticleSet):
        return float(prior.weights @ lik_values(s, k, prior.points))
    unnorm = _unnormalized_posteriors(s, k, [prior])[0]
    return _mass(s, unnorm)


def _check_boundary(s: SystemSpec, values: np.ndarray) -> None:
    if s.variant == "ps":
        hx, hw = s.domain.spacing, s.w_domain.spacing
        ring = (hx * hw) * (values[0, :].sum() + values[-1, :].sum()
                            + values[:, 0].sum() + values[:, -1].sum())
    else:
        h = s.domain.spacing
        ring = 0.5 * h * (values[0] + values[1] + values[-2] + values[-1])
    if ring > BOUNDARY_MASS_LIMIT:
        raise DomainTooSmall(f"posterior mass {ring!r} at the domain boundary exceeds {BOUNDARY_MASS_LIMIT}")


def grid_update(s: SystemSpec, k: int, prior) -> UpdateResult:
    """Exact Bayes update on the grid; evidence is the pre-normalization mass."""
    return grid_updates(s, k, [prior])[0]


def grid_updates(s: SystemSpec, k: int, priors) -> list[UpdateResult]:
    """grid_update of each prior at step k, evaluating each transition kernel once."""
    return [_normalize(s, unnorm) for unnorm in _unnormalized_posteriors(s, k, priors)]


def _normalize(s: SystemSpec, unnorm: np.ndarray) -> UpdateResult:
    if math.isnan(finite_min(unnorm)):
        raise NonFinite("unnormalized posterior contains non-finite values")
    z = admissible_evidence(_mass(s, unnorm))
    values = unnorm / z
    values = values / _mass(s, values)
    _check_boundary(s, values)
    if s.variant == "ps":
        return UpdateResult(JointGrid2D(s.domain, s.w_domain, values, normalized=True), z)
    return UpdateResult(GridDensity(s.domain, values, normalized=True), z)


def conjugate_update_ip(prior: Gaussian1D, a: float, noise_var: float, y: float) -> UpdateResult:
    """Closed-form update for the linear-Gaussian observation y = a*x + noise."""
    if prior.variance <= 0 or noise_var <= 0:
        raise DegenerateVariance("prior variance and noise variance must be positive")
    marg_var = a * a * prior.variance + noise_var
    z = float(np.exp(-0.5 * (y - a * prior.mean) ** 2 / marg_var) / math.sqrt(2 * math.pi * marg_var))
    if a == 0.0:
        return UpdateResult(prior, z)
    post_var = 1.0 / (1.0 / prior.variance + a * a / noise_var)
    post_mean = post_var * (prior.mean / prior.variance + a * y / noise_var)
    return UpdateResult(Gaussian1D(post_mean, post_var), z)


def conjugate_update_se(prior: Gaussian1D, trans_a: float, trans_q: float,
                        a: float, noise_var: float, y: float) -> UpdateResult:
    """Two-stage closed form: Gaussian pushforward, then the conjugate update."""
    predicted = Gaussian1D(trans_a * prior.mean, trans_a ** 2 * prior.variance + trans_q)
    return conjugate_update_ip(predicted, a, noise_var, y)


def gaussian_projection_step(s: SystemSpec, k: int, prior: Gaussian1D):
    """One assumed-density step: exact grid update, then moment matching.

    Returns (approx, exact, incremental_error) where incremental_error maps
    "tv" and "hellinger" to the distance between the exact one-step posterior
    and its Gaussian projection: the bits of metrics.tv and metrics.hellinger
    of (exact.posterior, approx), from one discretization of approx.  The W1
    increment is metrics.w1(exact.posterior, approx, s.domain).
    """
    if s.variant not in ("ip", "se"):
        raise UnsupportedRepresentation("Gaussian projection runs on 1-D state systems")
    exact = grid_update(s, k, prior)
    approx = Gaussian1D(*moments(exact.posterior))
    return approx, exact, metrics.tv_and_hellinger(exact.posterior, approx, s.domain)


def particle_step(s: SystemSpec, k: int, prior: ParticleSet, n: int, seed: int) -> ParticleSet:
    """Bootstrap step: propagate, weight by the likelihood, multinomial resample."""
    if s.variant != "se":
        raise UnsupportedRepresentation("the particle step is defined for state estimation")
    sampler = s.transition.sampler
    if sampler is None:
        raise UnsupportedRepresentation("transition has no sampler")
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.default_rng(seed)
    moved = np.array(sampler(rng, prior.points), dtype=float)
    lo, hi = s.domain.lower, s.domain.upper
    for _ in range(100):  # redraw the rare moves that leave the truncated domain
        outside = (moved < lo) | (moved > hi)
        if not outside.any():
            break
        moved[outside] = sampler(rng, prior.points[outside])
    np.clip(moved, lo, hi, out=moved)
    weights = prior.weights * lik_values(s, k, moved)
    total = float(weights.sum())
    if not math.isfinite(total):
        raise NonFinite("particle weights are not finite")
    if total <= 0.0:
        raise AllWeightsZero("every particle weight vanished at this step")
    idx = rng.choice(moved.shape[0], size=n, replace=True, p=weights / total)
    return ParticleSet(moved[idx], np.full(n, 1.0 / n))

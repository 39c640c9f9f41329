"""Distances between distributions on a truncated domain.

Total variation and Hellinger are evaluated by trapezoid quadrature of the
defining integrals (particle inputs are rejected: TV against a continuous
density is degenerate).  The 1-Wasserstein distance is evaluated exactly in
1-D as the L1 distance between CDFs, which also makes continuous-vs-empirical
comparisons well defined.  The scaled-measure Hellinger distance applies the
same integral to unnormalized densities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.integrate import simpson

from .domains import DomainSpec, Gaussian1D, GridDensity, JointGrid2D, ParticleSet
from .errors import DomainMismatch, NonFinite, Unnormalized, UnsupportedRepresentation

Distribution = Union[Gaussian1D, GridDensity, ParticleSet]

_UNIT_TOL = 1e-9


@dataclass(frozen=True)
class DistanceReport:
    metric: str  # "tv" | "hellinger" | "w1"
    value: float
    method: str  # "closed_form" | "quadrature" | "cdf_l1" | "empirical"
    est_numerical_error: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise NonFinite(f"distance value {self.value!r} is not finite")
        if self.value < 0.0:
            raise ValueError(f"distance value must be nonnegative, got {self.value!r}")


def _normalized_values(dist: Distribution, d: DomainSpec) -> np.ndarray:
    """Unit-mass density values of `dist` on the nodes of `d`."""
    if isinstance(dist, ParticleSet):
        raise UnsupportedRepresentation("particle sets have no density on the grid")
    if isinstance(dist, Gaussian1D):
        from .domains import discretize

        return discretize(dist, d).values
    if isinstance(dist, GridDensity):
        if dist.domain != d:
            raise DomainMismatch("grid density lives on a different domain")
        if not dist.normalized:
            raise Unnormalized("tv/hellinger require normalized densities")
        return dist.values / dist.mass()
    raise UnsupportedRepresentation(f"unsupported distribution type {type(dist).__name__}")


def _quadrature_pair(d: DomainSpec, integrand: np.ndarray) -> tuple[float, float]:
    value = d.integrate(integrand)
    est = abs(value - float(simpson(integrand, x=d.nodes)))
    return value, est


def tv(a: Distribution, b: Distribution, d: DomainSpec) -> DistanceReport:
    """Total variation distance: half the L1 distance between densities."""
    p = _normalized_values(a, d)
    q = _normalized_values(b, d)
    raw, est = _quadrature_pair(d, np.abs(p - q))
    value = 0.5 * raw
    if value > 1.0 + _UNIT_TOL:
        raise NonFinite(f"tv value {value!r} exceeds 1 beyond tolerance")
    return DistanceReport("tv", min(value, 1.0), "quadrature", 0.5 * est)


def gaussian_hellinger(a: Gaussian1D, b: Gaussian1D) -> float:
    """Closed-form Hellinger distance between two Gaussians."""
    v1, v2 = a.variance, b.variance
    bc = math.sqrt(2.0 * math.sqrt(v1 * v2) / (v1 + v2)) * math.exp(
        -((a.mean - b.mean) ** 2) / (4.0 * (v1 + v2))
    )
    return math.sqrt(max(0.0, 1.0 - bc))


def hellinger(a: Distribution, b: Distribution, d: DomainSpec) -> DistanceReport:
    """Hellinger distance sqrt(0.5 * integral (sqrt p - sqrt q)^2)."""
    p = _normalized_values(a, d)
    q = _normalized_values(b, d)
    raw, est_raw = _quadrature_pair(d, (np.sqrt(p) - np.sqrt(q)) ** 2)
    value = math.sqrt(max(0.0, 0.5 * raw))
    # derivative of sqrt propagates the quadrature error estimate
    est = 0.5 * est_raw / max(value, 1e-12) if value > 0 else est_raw
    if isinstance(a, Gaussian1D) and isinstance(b, Gaussian1D):
        est = max(est, abs(value - gaussian_hellinger(a, b)))
    if value > 1.0 + _UNIT_TOL:
        raise NonFinite(f"hellinger value {value!r} exceeds 1 beyond tolerance")
    return DistanceReport("hellinger", min(value, 1.0), "quadrature", est)


# -- 1-Wasserstein ---------------------------------------------------------
#
# Each input is reduced to a piecewise description of its CDF on a common
# breakpoint set: continuous inputs are piecewise linear between breakpoints,
# empirical inputs are right-continuous steps.  The L1 distance between the
# two descriptions is then integrated segment-exactly (sign crossings split).


def _l1_piecewise_linear(xs: np.ndarray, g_left: np.ndarray, g_right: np.ndarray) -> float:
    dx = np.diff(xs)
    gl, gr = g_left, g_right
    same_sign = gl * gr >= 0.0
    denom = np.abs(gl) + np.abs(gr)
    crossing = np.where(denom > 0.0, (gl * gl + gr * gr) / np.where(denom > 0.0, denom, 1.0), 0.0)
    per_cell = np.where(same_sign, np.abs(gl) + np.abs(gr), crossing)
    return float(0.5 * (dx @ per_cell))


def _empirical_cdf(ps: ParticleSet, xs: np.ndarray) -> np.ndarray:
    """Right-continuous CDF values of the particle set at points xs."""
    order = np.argsort(ps.points, kind="stable")
    pts = ps.points[order]
    cum = np.cumsum(ps.weights[order])
    idx = np.searchsorted(pts, xs, side="right")
    return np.where(idx > 0, cum[np.minimum(idx, pts.size) - 1], 0.0)


def _continuous_cdf(dist, d: DomainSpec, xs: np.ndarray) -> np.ndarray:
    if isinstance(dist, Gaussian1D):
        span = 8.0 * dist.std
        if dist.mean - span < d.lower or dist.mean + span > d.upper:
            raise DomainMismatch("Gaussian mass extends beyond the truncated domain")
        f = np.asarray(dist.cdf(xs), dtype=float)
        lo = float(dist.cdf(d.lower))
        total = float(dist.cdf(d.upper)) - lo
        return (f - lo) / total
    if isinstance(dist, GridDensity):
        if dist.domain != d:
            raise DomainMismatch("grid density lives on a different domain")
        nodal = dist.cdf_values()
        nodal = nodal / nodal[-1]
        return np.interp(xs, d.nodes, nodal)
    raise UnsupportedRepresentation(f"unsupported distribution type {type(dist).__name__}")


def _check_particles_in(ps: ParticleSet, d: DomainSpec) -> None:
    if ps.points.min() < d.lower or ps.points.max() > d.upper:
        raise DomainMismatch("particles fall outside the domain")


def w1(a: Distribution, b: Distribution, d: DomainSpec) -> DistanceReport:
    """1-Wasserstein distance as the L1 distance between CDFs on the domain."""
    a_emp = isinstance(a, ParticleSet)
    b_emp = isinstance(b, ParticleSet)
    if a_emp:
        _check_particles_in(a, d)
    if b_emp:
        _check_particles_in(b, d)

    if a_emp and b_emp:
        xs = np.unique(np.concatenate((a.points, b.points, [d.lower, d.upper])))
        fa = _empirical_cdf(a, xs)
        fb = _empirical_cdf(b, xs)
        value = float(np.abs(fa - fb)[:-1] @ np.diff(xs))
        report = DistanceReport("w1", value, "empirical", 0.0)
    elif a_emp or b_emp:
        emp, cont = (a, b) if a_emp else (b, a)
        xs = np.unique(np.concatenate((d.nodes, emp.points)))
        f_cont = _continuous_cdf(cont, d, xs)
        f_step = _empirical_cdf(emp, xs)
        # on each open cell the step CDF keeps its left (post-jump) value
        g_left = f_cont[:-1] - f_step[:-1]
        g_right = f_cont[1:] - f_step[:-1]
        value = _l1_piecewise_linear(xs, g_left, g_right)
        report = DistanceReport("w1", value, "cdf_l1", 0.0)
    else:
        xs = d.nodes
        diff = _continuous_cdf(a, d, xs) - _continuous_cdf(b, d, xs)
        value = _l1_piecewise_linear(xs, diff[:-1], diff[1:])
        est = abs(value - float(simpson(np.abs(diff), x=xs)))
        report = DistanceReport("w1", value, "cdf_l1", est)

    if report.value > d.diameter() + _UNIT_TOL:
        raise NonFinite(f"w1 value {report.value!r} exceeds the domain diameter")
    return report


def scaled_hellinger(a: GridDensity, b: GridDensity) -> float:
    """Hellinger-type distance for scaled (not necessarily unit-mass) densities."""
    if a.domain != b.domain:
        raise DomainMismatch("scaled densities live on different domains")
    if not (np.all(np.isfinite(a.values)) and np.all(np.isfinite(b.values))):
        raise NonFinite("scaled densities must be finite")
    raw = a.domain.integrate((np.sqrt(a.values) - np.sqrt(b.values)) ** 2)
    return math.sqrt(max(0.0, 0.5 * raw))


# -- joint-grid variants (parameter-state posteriors) ----------------------


def tv_joint(a: JointGrid2D, b: JointGrid2D) -> float:
    if a.x_domain != b.x_domain or a.w_domain != b.w_domain:
        raise DomainMismatch("joint grids live on different domains")
    weights = np.outer(a.x_domain.trapezoid_weights, a.w_domain.trapezoid_weights)
    p, q = a.values / a.mass(), b.values / b.mass()
    return min(1.0, 0.5 * float((weights * np.abs(p - q)).sum()))

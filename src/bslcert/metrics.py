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
from typing import Union

import numpy as np

from .domains import (DomainSpec, Gaussian1D, GridDensity, JointGrid2D, ParticleSet,
                      discretize)
from .errors import DomainMismatch, NonFinite, Unnormalized, UnsupportedRepresentation

Distribution = Union[Gaussian1D, GridDensity, ParticleSet]

_UNIT_TOL = 1e-9


def _checked(value: float) -> float:
    if not math.isfinite(value):
        raise NonFinite(f"distance value {value!r} is not finite")
    if value < 0.0:
        raise ValueError(f"distance value must be nonnegative, got {value!r}")
    return value


def _unit_distance(metric: str, value: float) -> float:
    """Clamp a TV or Hellinger value to 1, rejecting overshoot beyond roundoff."""
    if value > 1.0 + _UNIT_TOL:
        raise NonFinite(f"{metric} value {value!r} exceeds 1 beyond tolerance")
    return _checked(min(value, 1.0))


def _normalized_values(dist: Distribution, d: DomainSpec) -> np.ndarray:
    """Unit-mass density values of `dist` on the nodes of `d`."""
    if isinstance(dist, ParticleSet):
        raise UnsupportedRepresentation("particle sets have no density on the grid")
    if isinstance(dist, Gaussian1D):
        return discretize(dist, d).values
    if isinstance(dist, GridDensity):
        if dist.domain != d:
            raise DomainMismatch("grid density lives on a different domain")
        if not dist.normalized:
            raise Unnormalized("tv/hellinger require normalized densities")
        return dist.values / dist.mass()
    raise UnsupportedRepresentation(f"unsupported distribution type {type(dist).__name__}")


def _root_gap(d: DomainSpec, p: np.ndarray, q: np.ndarray) -> float:
    """sqrt(0.5 * integral (sqrt p - sqrt q)^2) by trapezoid quadrature."""
    raw = d.integrate((np.sqrt(p) - np.sqrt(q)) ** 2)
    return math.sqrt(max(0.0, 0.5 * raw))


def grid_distance(metric: str, p: np.ndarray, q: np.ndarray, d: DomainSpec) -> float:
    """TV or Hellinger distance between unit-mass density values on the nodes of d.

    ``tv`` and ``hellinger`` evaluate through here, so a caller that already
    holds the discretized pair gets the same bits without discretizing again.
    """
    if metric == "tv":
        return _unit_distance("tv", 0.5 * d.integrate(np.abs(p - q)))
    if metric == "hellinger":
        return _unit_distance("hellinger", _root_gap(d, p, q))
    raise ValueError(f"unknown grid distance {metric!r}")


def tv(a: Distribution, b: Distribution, d: DomainSpec) -> float:
    """Total variation distance: half the L1 distance between densities."""
    return grid_distance("tv", _normalized_values(a, d), _normalized_values(b, d), d)


def gaussian_hellinger(a: Gaussian1D, b: Gaussian1D) -> float:
    """Closed-form Hellinger distance between two Gaussians."""
    v1, v2 = a.variance, b.variance
    bc = math.sqrt(2.0 * math.sqrt(v1 * v2) / (v1 + v2)) * math.exp(
        -((a.mean - b.mean) ** 2) / (4.0 * (v1 + v2))
    )
    return math.sqrt(max(0.0, 1.0 - bc))


def hellinger(a: Distribution, b: Distribution, d: DomainSpec) -> float:
    """Hellinger distance sqrt(0.5 * integral (sqrt p - sqrt q)^2)."""
    return grid_distance("hellinger", _normalized_values(a, d), _normalized_values(b, d), d)


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
    """CDF of ``dist`` truncated to ``d``, at sorted points xs from d.lower to d.upper."""
    if isinstance(dist, Gaussian1D):
        span = 8.0 * dist.std
        if dist.mean - span < d.lower or dist.mean + span > d.upper:
            raise DomainMismatch("Gaussian mass extends beyond the truncated domain")
        f = np.asarray(dist.cdf(xs), dtype=float)
        lo = float(f[0])
        total = float(f[-1]) - lo
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


def _shared_grid_support(a: ParticleSet, b: ParticleSet, d: DomainSpec) -> bool:
    """Whether a and b have the same points, strictly increasing from d.lower to d.upper.

    Node-atomic measures on the grid of ``d`` are of this kind.
    """
    pts = a.points
    return (pts[0] == d.lower and pts[-1] == d.upper and np.array_equal(pts, b.points)
            and bool((pts[1:] > pts[:-1]).all()))


def w1(a: Distribution, b: Distribution, d: DomainSpec) -> float:
    """1-Wasserstein distance as the L1 distance between CDFs on the domain."""
    a_emp = isinstance(a, ParticleSet)
    b_emp = isinstance(b, ParticleSet)
    if a_emp:
        _check_particles_in(a, d)
    if b_emp:
        _check_particles_in(b, d)

    if a_emp and b_emp and _shared_grid_support(a, b, d):
        # the general branch below, with unique adding no point and every
        # argsort and searchsorted the identity: the same bits
        value = float(np.abs(np.cumsum(a.weights) - np.cumsum(b.weights))[:-1]
                      @ np.diff(a.points))
    elif a_emp and b_emp:
        xs = np.unique(np.concatenate((a.points, b.points, [d.lower, d.upper])))
        fa = _empirical_cdf(a, xs)
        fb = _empirical_cdf(b, xs)
        value = float(np.abs(fa - fb)[:-1] @ np.diff(xs))
    elif a_emp or b_emp:
        emp, cont = (a, b) if a_emp else (b, a)
        xs = np.unique(np.concatenate((d.nodes, emp.points)))
        f_cont = _continuous_cdf(cont, d, xs)
        f_step = _empirical_cdf(emp, xs)
        # on each open cell the step CDF keeps its left (post-jump) value
        g_left = f_cont[:-1] - f_step[:-1]
        g_right = f_cont[1:] - f_step[:-1]
        value = _l1_piecewise_linear(xs, g_left, g_right)
    else:
        xs = d.nodes
        diff = _continuous_cdf(a, d, xs) - _continuous_cdf(b, d, xs)
        value = _l1_piecewise_linear(xs, diff[:-1], diff[1:])

    if _checked(value) > d.diameter() + _UNIT_TOL:
        raise NonFinite(f"w1 value {value!r} exceeds the domain diameter")
    return value


def scaled_hellinger(a: GridDensity, b: GridDensity) -> float:
    """Hellinger-type distance for scaled (not necessarily unit-mass) densities."""
    if a.domain != b.domain:
        raise DomainMismatch("scaled densities live on different domains")
    if not (np.all(np.isfinite(a.values)) and np.all(np.isfinite(b.values))):
        raise NonFinite("scaled densities must be finite")
    return _root_gap(a.domain, a.values, b.values)


# -- joint-grid variants (parameter-state posteriors) ----------------------


def tv_joint(a: JointGrid2D, b: JointGrid2D) -> float:
    if a.x_domain != b.x_domain or a.w_domain != b.w_domain:
        raise DomainMismatch("joint grids live on different domains")
    weights = np.outer(a.x_domain.trapezoid_weights, a.w_domain.trapezoid_weights)
    p, q = a.values / a.mass(), b.values / b.mass()
    return min(1.0, 0.5 * float((weights * np.abs(p - q)).sum()))

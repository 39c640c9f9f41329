"""Distances between distributions on a truncated domain.

``tv``, ``hellinger`` and ``w1`` read a continuous input, a Gaussian1D or a
GridDensity, as one measure: its density values on the grid nodes
(domains.grid_values, which discretizes a Gaussian as bayes.grid_update
does), integrated by the trapezoid rule.  Total variation and Hellinger are
trapezoid quadratures of the defining integrals (particle inputs are
rejected: TV against a continuous density is degenerate).  The
1-Wasserstein distance is the L1 distance between CDFs, exact in 1-D for
that measure, whose CDF is linear between nodes; this also makes
continuous-vs-empirical comparisons well defined.  The scaled-measure
Hellinger distance applies the same integral to unnormalized densities.
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np

from .domains import (DomainSpec, Gaussian1D, GridDensity, JointGrid2D, ParticleSet,
                      finite_nonnegative, grid_values)
from .errors import DomainMismatch, NonFinite, Unnormalized

Distribution = Union[Gaussian1D, GridDensity, ParticleSet]

_UNIT_TOL = 1e-9


def _unit_distance(metric: str, value: float) -> float:
    """Clamp a TV or Hellinger value to 1, rejecting overshoot beyond roundoff."""
    if value > 1.0 + _UNIT_TOL:
        raise NonFinite(f"{metric} value {value!r} exceeds 1 beyond tolerance")
    return finite_nonnegative("distance value", min(value, 1.0))


def normalized_values(dist: Distribution, d: DomainSpec) -> np.ndarray:
    """Unit-mass density values of `dist` on the nodes of `d` (see domains.grid_values)."""
    values = grid_values(dist, d)
    if isinstance(dist, Gaussian1D):
        return values
    if not dist.normalized:
        raise Unnormalized("tv/hellinger require normalized densities")
    return values / dist.mass()


def _root_gap(d: DomainSpec, p: np.ndarray, q: np.ndarray) -> float:
    """sqrt(0.5 * integral (sqrt p - sqrt q)^2) by trapezoid quadrature."""
    raw = d.integrate((np.sqrt(p) - np.sqrt(q)) ** 2)
    return math.sqrt(max(0.0, 0.5 * raw))


def grid_distance(metric: str, p: np.ndarray, q: np.ndarray, d: DomainSpec) -> float:
    """TV or Hellinger distance between unit-mass density values on the nodes of d.

    ``tv``, ``hellinger`` and ``tv_and_hellinger`` evaluate through here, so
    they give the same bits for the same pair.
    """
    if metric == "tv":
        return _unit_distance("tv", 0.5 * d.integrate(np.abs(p - q)))
    if metric == "hellinger":
        return _unit_distance("hellinger", _root_gap(d, p, q))
    raise ValueError(f"unknown grid distance {metric!r}")


def tv(a: Distribution, b: Distribution, d: DomainSpec) -> float:
    """Total variation distance: half the L1 distance between densities."""
    return grid_distance("tv", normalized_values(a, d), normalized_values(b, d), d)


def hellinger(a: Distribution, b: Distribution, d: DomainSpec) -> float:
    """Hellinger distance sqrt(0.5 * integral (sqrt p - sqrt q)^2)."""
    return grid_distance("hellinger", normalized_values(a, d), normalized_values(b, d), d)


def tv_and_hellinger(a: Distribution, b: Distribution, d: DomainSpec) -> dict:
    """{"tv": tv(a, b, d), "hellinger": hellinger(a, b, d)}, normalizing each side once."""
    p, q = normalized_values(a, d), normalized_values(b, d)
    return {m: grid_distance(m, p, q, d) for m in ("tv", "hellinger")}


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
    """CDF of the grid measure of ``dist`` on ``d`` (see domains.grid_values), at sorted
    points xs from d.lower to d.upper: linear between nodes, as the trapezoid rule reads it."""
    values = grid_values(dist, d)
    # cumulative trapezoid at the nodes, from 0
    nodal = np.concatenate(([0.0], np.cumsum(0.5 * d.spacing * (values[1:] + values[:-1]))))
    return np.interp(xs, d.nodes, nodal / nodal[-1])


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
    """1-Wasserstein distance as the L1 distance between CDFs on the domain.

    A Gaussian counts through its discretization, so w1(g, x, d) equals
    w1(discretize(g, d), x, d) bit for bit, and raises DomainTooSmall when d
    covers fewer than 8 standard deviations on either side of its mean.
    """
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

    if finite_nonnegative("distance value", value) > d.diameter() + _UNIT_TOL:
        raise NonFinite(f"w1 value {value!r} exceeds the domain diameter")
    return value


def scaled_hellinger(a: GridDensity, b: GridDensity) -> float:
    """Hellinger-type distance for scaled (not necessarily unit-mass) densities."""
    if a.domain != b.domain:
        raise DomainMismatch("scaled densities live on different domains")
    return _root_gap(a.domain, a.values, b.values)


# -- joint-grid variants (parameter-state posteriors) ----------------------


def tv_joint(a: JointGrid2D, b: JointGrid2D) -> float:
    if a.x_domain != b.x_domain or a.w_domain != b.w_domain:
        raise DomainMismatch("joint grids live on different domains")
    weights = np.outer(a.x_domain.trapezoid_weights, a.w_domain.trapezoid_weights)
    p, q = a.values / a.mass(), b.values / b.mass()
    return _unit_distance("tv", 0.5 * float((weights * np.abs(p - q)).sum()))

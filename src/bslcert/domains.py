"""Truncated 1-D metric domains and the distribution representations built on them.

Every other module works with the types defined here: a uniform grid on a
bounded interval (the reference measure is Lebesgue restricted to that grid,
integrated with the composite trapezoid rule), plus Gaussian, grid-density,
particle and 2-D joint-grid representations of distributions.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (DomainMismatch, DomainTooSmall, NonFinite, Unnormalized,
                     UnsupportedRepresentation)

NORMALIZATION_TOL = 1e-8
JOINT_NORMALIZATION_TOL = 1e-6
WEIGHT_SUM_TOL = 1e-12
MIN_SIGMA_COVERAGE = 8.0
VARIANCE_FLOOR = 1e-3
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_UNDERFLOW_Z = math.sqrt(2.0 * 746.0)  # exp(-z * z / 2) is exactly 0.0 beyond this |z|


@dataclass(frozen=True)
class DomainSpec:
    """Uniform grid on a bounded interval, endpoints included."""

    lower: float
    upper: float
    grid_points: int

    def __post_init__(self):
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise NonFinite("domain endpoints must be finite")
        if not self.lower < self.upper:
            raise ValueError(f"lower must be < upper, got [{self.lower}, {self.upper}]")
        if not math.isfinite(float(self.upper) - float(self.lower)):
            raise ValueError(f"upper - lower overflows on [{self.lower}, {self.upper}]")
        if not isinstance(self.grid_points, numbers.Integral):
            raise ValueError(f"grid_points must be an integer, got {self.grid_points!r}")
        if self.grid_points < 101:
            raise ValueError(f"grid_points must be >= 101, got {self.grid_points}")

    def diameter(self) -> float:
        return self.upper - self.lower

    @property
    def spacing(self) -> float:
        return (self.upper - self.lower) / (self.grid_points - 1)

    @cached_property
    def nodes(self) -> np.ndarray:
        # a copy owns its data (linspace returns a view), so _as_readonly reuses it
        xs = np.linspace(self.lower, self.upper, self.grid_points).copy()
        xs.setflags(write=False)
        return xs

    @cached_property
    def symmetric(self) -> bool:
        """Whether the nodes are symmetric about zero: nodes[::-1] == -nodes exactly.

        Exact equality, under which 0.0 and -0.0 agree; a node's sign of zero
        cannot matter where it is squared, as in the transition matrices.
        """
        return bool(np.array_equal(self.nodes[::-1], -self.nodes))

    @cached_property
    def trapezoid_weights(self) -> np.ndarray:
        w = np.full(self.grid_points, self.spacing)
        w[0] *= 0.5
        w[-1] *= 0.5
        w.setflags(write=False)
        return w

    def integrate(self, values: np.ndarray) -> float:
        """Composite trapezoid integral of nodal values over the domain."""
        return float(self.trapezoid_weights @ np.asarray(values, dtype=float))


def _pow2_exponent_scale(sd: float):
    """-0.5 / sd^2 = -2^(1-2e) when sd = 2^(e-1) lies in [2^-400, 2^400], else None."""
    mantissa, e = math.frexp(sd)
    if mantissa == 0.5 and 2.0 ** -400 <= sd <= 2.0 ** 400:
        return -math.ldexp(1.0, 1 - 2 * e)
    return None


def gauss_pdf(x, mean, var, out=None):
    """Normal density with the given mean and variance at x (broadcasting).

    Evaluated in one buffer, ``out`` when given; the bits equal
    exp(-0.5 * z * z) / (sd * sqrt(2 pi)) with z = (x - mean) / sd, because
    scaling by -0.5 is exact (when z * z is subnormal, exp gives 1.0 either
    way).  When sd = 2^(e-1) lies in [2^-400, 2^400], the exponent is
    fl(t * t) * -2^(1-2e) with t = x - mean, one pass fewer.  Scaling by a
    power of two is exact where the result is a normal number; elsewhere
    the exponent is so small or so large that exp gives 1.0 or 0.0 either
    way, and NaN and infinities pass through both alike.  The range keeps
    the constant finite, so t = 0 gives exp(-0.0), not NaN.  With sd > 1, a
    |t| above 1.3e154 overflows t * t and numpy warns where the division did
    not; the density is 0.0 either way.  Scalar inputs give a numpy scalar.
    """
    sd = math.sqrt(var)
    z = np.asarray(np.subtract(x, mean, dtype=float, out=out))
    scale = _pow2_exponent_scale(sd)
    if scale is not None:
        z *= z
        z *= scale
    else:
        z /= sd
        z *= z
        z *= -0.5
    np.exp(z, out=z)
    z /= sd * _SQRT_2PI
    return z if z.ndim else z[()]


@dataclass(frozen=True)
class Gaussian1D:
    mean: float
    variance: float

    def __post_init__(self):
        if not math.isfinite(self.mean):
            raise NonFinite("Gaussian mean must be finite")
        if not (math.isfinite(self.variance) and self.variance > 0.0):
            raise ValueError(f"variance must be positive and finite, got {self.variance}")

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    def pdf(self, x) -> np.ndarray:
        return gauss_pdf(x, self.mean, self.variance)


def finite_min(x: np.ndarray) -> float:
    """The least entry of x if every entry is finite, else NaN; inf when x is empty.

    One ``min`` and one ``max`` pass, each of which propagates NaN, in place of
    ``np.all(np.isfinite(x))`` plus a separate scan for negative entries.
    """
    if x.size == 0:
        return math.inf
    lo, hi = float(x.min()), float(x.max())
    return lo if math.isfinite(lo) and math.isfinite(hi) else math.nan


def finite_nonnegative(name: str, value: float) -> float:
    """Return value; raise NonFinite if it is not finite and ValueError if it is negative."""
    if not math.isfinite(value):
        raise NonFinite(f"{name} {value!r} is not finite")
    if value < 0.0:
        raise ValueError(f"{name} must be nonnegative, got {value!r}")
    return value


def _as_readonly(values) -> np.ndarray:
    """``values`` as a read-only float64 array: itself when it already is one
    that owns its data (no view of a writable base), else a read-only copy."""
    if (type(values) is np.ndarray and values.dtype == np.float64 and values.flags.owndata
            and not values.flags.writeable):
        return values
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


def _check_density(density, shape: tuple, shape_error: str, kind: str, mass_kind: str,
                   tol: float | None) -> None:
    """Store a read-only copy of ``density.values`` and check its shape, that its entries are
    finite and nonnegative, and that its mass is 1 within ``tol`` (None: positive)."""
    values = _as_readonly(density.values)
    object.__setattr__(density, "values", values)
    if values.shape != shape:
        raise ValueError(shape_error)
    lo = finite_min(values)
    if math.isnan(lo):
        raise NonFinite(f"{kind} values must be finite")
    if lo < 0.0:
        raise ValueError(f"{kind} values must be nonnegative")
    m = density.mass()
    if tol is not None:
        if abs(m - 1.0) > tol:
            raise Unnormalized(f"{mass_kind} mass {m!r} is not 1 within {tol}")
    elif not (math.isfinite(m) and m > 0.0):
        raise ValueError(f"scaled {kind} must have finite positive mass, got {m!r}")


@dataclass(frozen=True)
class GridDensity:
    """Density values on the nodes of a DomainSpec.

    ``normalized=True`` asserts unit trapezoid mass; otherwise the values
    describe a scaled (positively weighted) measure with finite positive mass.
    """

    domain: DomainSpec
    values: np.ndarray
    normalized: bool = True

    def __post_init__(self):
        _check_density(self, (self.domain.grid_points,),
                       "values must be 1-D with one entry per grid node",
                       "density", "trapezoid", NORMALIZATION_TOL if self.normalized else None)

    def mass(self) -> float:
        return self.domain.integrate(self.values)


@dataclass(frozen=True)
class ParticleSet:
    """Weighted empirical distribution."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points", _as_readonly(self.points))
        object.__setattr__(self, "weights", _as_readonly(self.weights))
        if self.points.ndim != 1 or self.points.shape != self.weights.shape:
            raise ValueError("points and weights must be 1-D arrays of equal length")
        if self.points.size == 0:
            raise ValueError("particle set must be nonempty")
        lo = finite_min(self.weights)
        if math.isnan(finite_min(self.points)) or math.isnan(lo):
            raise NonFinite("particles and weights must be finite")
        if lo < 0.0:
            raise ValueError("weights must be nonnegative")
        s = float(self.weights.sum())
        if abs(s - 1.0) > WEIGHT_SUM_TOL:
            raise Unnormalized(f"weights sum to {s!r}, expected 1 within {WEIGHT_SUM_TOL}")


@dataclass(frozen=True)
class JointGrid2D:
    """Unit-mass density values on the product grid of two domains (row-major: x by w)."""

    x_domain: DomainSpec
    w_domain: DomainSpec
    values: np.ndarray

    def __post_init__(self):
        shape = (self.x_domain.grid_points, self.w_domain.grid_points)
        _check_density(self, shape, f"values must have shape {shape}, got {np.shape(self.values)}",
                       "joint density", "2-D trapezoid", JOINT_NORMALIZATION_TOL)

    def mass(self) -> float:
        return joint_mass(self.x_domain, self.w_domain, self.values)


def joint_mass(xd: DomainSpec, wd: DomainSpec, values: np.ndarray) -> float:
    """2-D trapezoid mass of values on the product grid of xd and wd (row-major: x by w)."""
    return float(xd.trapezoid_weights @ values @ wd.trapezoid_weights)


def check_coverage(g: Gaussian1D, d: DomainSpec) -> None:
    """Raise DomainTooSmall unless d covers MIN_SIGMA_COVERAGE (8) standard deviations on
    each side of g's mean, so at most 2 * Phi(-8) ~ 1.2e-15 of g's mass lies outside d."""
    sigma = g.std
    if g.mean - MIN_SIGMA_COVERAGE * sigma < d.lower or g.mean + MIN_SIGMA_COVERAGE * sigma > d.upper:
        raise DomainTooSmall(
            f"domain [{d.lower}, {d.upper}] covers fewer than {MIN_SIGMA_COVERAGE} standard "
            f"deviations around mean {g.mean} (sigma {sigma})"
        )


# (Gaussian1D, DomainSpec, GridDensity) of the latest discretize evaluation, read and replaced
# as one tuple; holding the two objects keeps their ids from being reused by others
_last_discretized = (None, None, None)


def discretize(g: Gaussian1D, d: DomainSpec) -> GridDensity:
    """Project a Gaussian onto the grid as a normalized density; d must pass check_coverage.

    Called again with the same two objects (by identity, not value) as the
    latest evaluation, it returns that evaluation's read-only GridDensity: a
    projected Gaussian is read by the update, the metrics and the next step.
    """
    global _last_discretized
    last_g, last_d, last = _last_discretized
    if g is last_g and d is last_d:
        return last
    result = _discretize(g, d)
    _last_discretized = (g, d, result)
    return result


def _discretize(g: Gaussian1D, d: DomainSpec) -> GridDensity:
    check_coverage(g, d)
    sigma = g.std
    # nodes beyond _UNDERFLOW_Z standard deviations have density exactly 0.0:
    # evaluate only the window between, with one node of slack on each side,
    # so the values keep the bits of a full-grid evaluation
    reach = sigma * _UNDERFLOW_Z
    lo = max(0, math.floor((g.mean - reach - d.lower) / d.spacing) - 1)
    hi = min(d.grid_points, math.ceil((g.mean + reach - d.lower) / d.spacing) + 2)
    values = np.zeros(d.grid_points)
    values[lo:hi] = g.pdf(d.nodes[lo:hi])
    values = values / d.integrate(values)
    return GridDensity(d, values, normalized=True)


def discretize_product(gx: Gaussian1D, gw: Gaussian1D, xd: DomainSpec, wd: DomainSpec) -> JointGrid2D:
    """Normalized product of two independent Gaussians on a joint grid."""
    px = discretize(gx, xd).values
    pw = discretize(gw, wd).values
    values = np.outer(px, pw)
    values = values / joint_mass(xd, wd, values)
    return JointGrid2D(xd, wd, values)


def grid_values(dist, d: DomainSpec) -> np.ndarray:
    """Density values on the nodes of d: a Gaussian1D discretized, a GridDensity on d as stored."""
    if isinstance(dist, Gaussian1D):
        return discretize(dist, d).values
    if isinstance(dist, GridDensity):
        if dist.domain != d:
            raise DomainMismatch("grid density lives on a different domain")
        return dist.values
    raise UnsupportedRepresentation(f"no grid density for {type(dist).__name__}")


def moments(g: GridDensity) -> tuple[float, float]:
    """Trapezoid mean and (central) variance of a normalized grid density."""
    if not g.normalized:
        raise Unnormalized("moments require a normalized density")
    xs = g.domain.nodes
    w = g.domain.trapezoid_weights
    mean = float(w @ (xs * g.values))
    var = float(w @ ((xs - mean) ** 2 * g.values))
    return mean, var

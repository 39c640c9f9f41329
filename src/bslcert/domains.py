"""Truncated 1-D metric domains and the distribution representations built on them.

Every other module works with the types defined here: a uniform grid on a
bounded interval (the reference measure is Lebesgue restricted to that grid,
integrated with the composite trapezoid rule), plus Gaussian, grid-density,
particle and 2-D joint-grid representations of distributions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainTooSmall, NonFinite, Unnormalized

NORMALIZATION_TOL = 1e-8
JOINT_NORMALIZATION_TOL = 1e-6
WEIGHT_SUM_TOL = 1e-12
TAIL_MASS_LIMIT = 1e-10
MIN_SIGMA_COVERAGE = 8.0
VARIANCE_FLOOR = 1e-3
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_UNDERFLOW_Z = math.sqrt(2.0 * 746.0)  # exp(-z * z / 2) is exactly 0.0 beyond this |z|
_SQRT1_2 = 0.70710678118654752440

# cephes ndtr.c coefficients; the denominators carry their leading 1.0
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821794e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_MAXLOG = 7.09782712893383996843e2  # exp(-x * x) is taken as 0.0 beyond this x * x


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
        if self.grid_points < 101:
            raise ValueError(f"grid_points must be >= 101, got {self.grid_points}")

    def diameter(self) -> float:
        return self.upper - self.lower

    @property
    def spacing(self) -> float:
        return (self.upper - self.lower) / (self.grid_points - 1)

    @cached_property
    def nodes(self) -> np.ndarray:
        xs = np.linspace(self.lower, self.upper, self.grid_points)
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


def _polevl(x: np.ndarray, coef: tuple) -> np.ndarray:
    """Horner's rule from the leading coefficient, one multiply and one add a step (cephes polevl)."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def ndtr(a):
    """Standard normal CDF with the bits of ``scipy.special.ndtr``.

    A port of cephes' ndtr, erf and erfc as SciPy runs them: erf's rational
    function for |x| < 1 with x = a / sqrt(2), else 0.5 * erfc(|x|), reflected
    for x > 0, and 0.0 where x * x > MAXLOG.  exp comes from libm
    (``math.exp``), whose last bit ``np.exp`` does not always share; numpy's
    separate multiply and add match a build without fused multiply-add.
    Computes in float64; scalar inputs give a numpy scalar.
    """
    with np.errstate(invalid="ignore", over="ignore"):  # signalling NaNs, z * z past 1e154
        x = np.asarray(a, dtype=float) * _SQRT1_2
        z = np.abs(x)
        y = np.full(x.shape, np.nan)
        inner = z < 1.0
        if inner.any():
            xi = x[inner]
            y[inner] = 0.5 + 0.5 * (xi * _polevl(xi * xi, _ERF_T) / _polevl(xi * xi, _ERF_U))
        outer = z >= 1.0  # NaN is in neither branch
        zo = z[outer]
        sq = zo * zo
        erfc = np.zeros(zo.shape)
        live = sq <= _MAXLOG
        erfc[live] = list(map(math.exp, (-sq[live]).tolist()))
        for part, num, den in ((live & (zo < 8.0), _ERFC_P, _ERFC_Q),
                               (live & (zo >= 8.0), _ERFC_R, _ERFC_S)):
            if part.any():
                zp = zo[part]
                erfc[part] = erfc[part] * _polevl(zp, num) / _polevl(zp, den)
        erfc *= 0.5
        y[outer] = np.where(x[outer] > 0.0, 1.0 - erfc, erfc)
    return y if y.ndim else y[()]


def gauss_pdf(x, mean, var, out=None):
    """Normal density with the given mean and variance at x (broadcasting).

    Evaluated in one buffer, ``out`` when given; the bits equal
    exp(-0.5 * z * z) / (sd * sqrt(2 pi)) with z = (x - mean) / sd, because
    scaling by -0.5 is exact (when z * z is subnormal, exp gives 1.0 either
    way).  Scalar inputs give a numpy scalar.
    """
    sd = math.sqrt(var)
    z = np.asarray(np.subtract(x, mean, dtype=float, out=out))
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

    def cdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return ndtr((x - self.mean) / self.std)


def finite_min(x: np.ndarray) -> float:
    """The least entry of x if every entry is finite, else NaN; inf when x is empty.

    One ``min`` and one ``max`` pass, each of which propagates NaN, in place of
    ``np.all(np.isfinite(x))`` plus a separate scan for negative entries.
    """
    if x.size == 0:
        return math.inf
    lo, hi = float(x.min()), float(x.max())
    return lo if math.isfinite(lo) and math.isfinite(hi) else math.nan


def _as_readonly(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


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
        object.__setattr__(self, "values", _as_readonly(self.values))
        if self.values.ndim != 1 or self.values.shape[0] != self.domain.grid_points:
            raise ValueError("values must be 1-D with one entry per grid node")
        lo = finite_min(self.values)
        if math.isnan(lo):
            raise NonFinite("density values must be finite")
        if lo < 0.0:
            raise ValueError("density values must be nonnegative")
        m = self.mass()
        if self.normalized:
            if abs(m - 1.0) > NORMALIZATION_TOL:
                raise Unnormalized(f"trapezoid mass {m!r} is not 1 within {NORMALIZATION_TOL}")
        elif not (math.isfinite(m) and m > 0.0):
            raise ValueError(f"scaled density must have finite positive mass, got {m!r}")

    def mass(self) -> float:
        return self.domain.integrate(self.values)

    def cdf_values(self) -> np.ndarray:
        """CDF at the grid nodes (cumulative trapezoid, starts at 0)."""
        h = self.domain.spacing
        cells = 0.5 * h * (self.values[1:] + self.values[:-1])
        return np.concatenate(([0.0], np.cumsum(cells)))


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

    def mean(self) -> float:
        return float(self.weights @ self.points)


@dataclass(frozen=True)
class JointGrid2D:
    """Nonnegative values on the product grid of two domains (row-major: x by w)."""

    x_domain: DomainSpec
    w_domain: DomainSpec
    values: np.ndarray
    normalized: bool = True

    def __post_init__(self):
        object.__setattr__(self, "values", _as_readonly(self.values))
        shape = (self.x_domain.grid_points, self.w_domain.grid_points)
        if self.values.shape != shape:
            raise ValueError(f"values must have shape {shape}, got {self.values.shape}")
        lo = finite_min(self.values)
        if math.isnan(lo):
            raise NonFinite("joint density values must be finite")
        if lo < 0.0:
            raise ValueError("joint density values must be nonnegative")
        m = self.mass()
        if self.normalized and abs(m - 1.0) > JOINT_NORMALIZATION_TOL:
            raise Unnormalized(f"2-D trapezoid mass {m!r} is not 1 within {JOINT_NORMALIZATION_TOL}")
        if not self.normalized and not (math.isfinite(m) and m > 0.0):
            raise ValueError("scaled joint density must have finite positive mass")

    def mass(self) -> float:
        wx = self.x_domain.trapezoid_weights
        ww = self.w_domain.trapezoid_weights
        return float(wx @ self.values @ ww)


def discretize(g: Gaussian1D, d: DomainSpec) -> GridDensity:
    """Project a Gaussian onto the grid as a normalized density.

    Requires the domain to cover at least 8 standard deviations on each side
    of the mean; equivalently the truncated tail mass must stay below
    ``TAIL_MASS_LIMIT``.
    """
    sigma = g.std
    if g.mean - MIN_SIGMA_COVERAGE * sigma < d.lower or g.mean + MIN_SIGMA_COVERAGE * sigma > d.upper:
        raise DomainTooSmall(
            f"domain [{d.lower}, {d.upper}] covers fewer than {MIN_SIGMA_COVERAGE} standard "
            f"deviations around mean {g.mean} (sigma {sigma})"
        )
    # The coverage check leaves at most 2 * Phi(-8) ~ 1.2e-15 of mass outside the
    # domain, far below TAIL_MASS_LIMIT, so libm's erfc, whose last bits may
    # differ from ndtr's, cannot change this verdict.
    tail = 0.5 * (math.erfc((g.mean - d.lower) / sigma * _SQRT1_2)
                  + math.erfc((d.upper - g.mean) / sigma * _SQRT1_2))
    if tail > TAIL_MASS_LIMIT:
        raise DomainTooSmall(f"tail mass {tail!r} beyond the domain exceeds {TAIL_MASS_LIMIT}")
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
    values = values / float(xd.trapezoid_weights @ values @ wd.trapezoid_weights)
    return JointGrid2D(xd, wd, values, normalized=True)


def moments(g: GridDensity) -> tuple[float, float]:
    """Trapezoid mean and (central) variance of a normalized grid density."""
    if not g.normalized:
        raise Unnormalized("moments require a normalized density")
    xs = g.domain.nodes
    w = g.domain.trapezoid_weights
    mean = float(w @ (xs * g.values))
    var = float(w @ ((xs - mean) ** 2 * g.values))
    return mean, var

"""Likelihood/transition models and the per-step system constants.

The constants computed here are the ingredients of every bound in
:mod:`bslcert.bounds`: the likelihood supremum, the sup of the
transition-smoothed likelihood, and the Lipschitz-type quantities needed for
Wasserstein bounds.  Closed forms are used for the built-in linear-Gaussian
families; custom models fall back to grid estimates with a safety factor.
Every returned constant is checked against a brute-force grid estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .domains import DomainSpec, gauss_pdf
from .errors import (MissingConstant, NonFinite, UnboundedConstant, UnsupportedRepresentation,
                     ZeroEvidence)

EVIDENCE_FLOOR = 1e-300
CUSTOM_LIP_SAFETY = 2.0
_KERNEL_BLOCK = 256  # rows per kernel block: 4 MB temporaries at 2001 columns
_KERNEL_CACHE_BYTES = 64 * 2 ** 20  # largest dense transition matrix a system keeps
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_PEAK_SLOPE = math.exp(-0.5)  # max of |u * exp(-u^2/2)|


@dataclass(frozen=True)
class LikelihoodModel:
    """Observation density h(y, x) (or h(y, x, w) in parameter-state systems).

    The evaluator must be nonnegative, finite on the grid, and vectorized
    over numpy arrays.  ``declared_sup``/``declared_lip`` let custom models
    supply analytically known constants.
    """

    evaluator: Callable
    family: str = "custom"  # "linear_gaussian" | "custom"
    a: Optional[float] = None
    noise_var: Optional[float] = None
    declared_sup: Optional[float] = None
    declared_lip: Optional[float] = None

    @staticmethod
    def linear_gaussian(a: float, noise_var: float) -> "LikelihoodModel":
        """h(y, x) = Gaussian pdf of y with mean a*x and variance noise_var."""
        if noise_var <= 0:
            raise ValueError("noise_var must be positive")

        def evaluator(y, x, w=None):
            return gauss_pdf(y, a * np.asarray(x, dtype=float), noise_var)

        return LikelihoodModel(evaluator, "linear_gaussian", a=a, noise_var=noise_var)

    @staticmethod
    def custom(evaluator, declared_sup=None, declared_lip=None) -> "LikelihoodModel":
        return LikelihoodModel(evaluator, "custom", declared_sup=declared_sup, declared_lip=declared_lip)


@dataclass(frozen=True)
class TransitionModel:
    """Markov transition density T(x_next, x_prev) (or T(x_next, x_prev, w))."""

    kernel: Optional[Callable]
    family: str = "custom"
    a: Optional[float] = None
    q: Optional[float] = None
    drift: Optional[Callable] = None  # parameter -> drift coefficient
    sampler: Optional[Callable] = None  # (rng, x_prev[, w]) -> x_next

    @staticmethod
    def linear_gaussian(a: float, q: float) -> "TransitionModel":
        """T(x_next, x_prev) = Gaussian pdf of x_next with mean a*x_prev, variance q."""
        if q < 0:
            raise ValueError("q must be nonnegative")
        kernel = None
        if q > 0:
            def kernel(x_next, x_prev):
                return gauss_pdf(x_next, a * np.asarray(x_prev, dtype=float), q)

        def sampler(rng, x_prev):
            x_prev = np.asarray(x_prev, dtype=float)
            out = a * x_prev
            if q > 0:
                out = out + math.sqrt(q) * rng.standard_normal(x_prev.shape)
            return out

        return TransitionModel(kernel, "linear_gaussian", a=a, q=q, sampler=sampler)

    @staticmethod
    def parametric_linear_gaussian(q: float, drift: Callable = None) -> "TransitionModel":
        """T(x_next, x_prev, w) = Gaussian pdf with mean drift(w)*x_prev, variance q."""
        if q <= 0:
            raise ValueError("q must be positive")
        drift = drift if drift is not None else (lambda w: w)

        def kernel(x_next, x_prev, w):
            coef = np.asarray(drift(np.asarray(w, dtype=float)), dtype=float)
            return gauss_pdf(x_next, coef * np.asarray(x_prev, dtype=float), q)

        def sampler(rng, x_prev, w):
            x_prev = np.asarray(x_prev, dtype=float)
            coef = np.asarray(drift(np.asarray(w, dtype=float)), dtype=float)
            return coef * x_prev + math.sqrt(q) * rng.standard_normal(x_prev.shape)

        return TransitionModel(kernel, "parametric_linear_gaussian", q=q, drift=drift, sampler=sampler)

    @staticmethod
    def custom(kernel, sampler=None) -> "TransitionModel":
        return TransitionModel(kernel, "custom", sampler=sampler)


@dataclass(frozen=True)
class SystemSpec:
    """One of the three learning problems with its data sequence.

    variant "ip": likelihood only.  variant "se": transition + likelihood.
    variant "ps": parameterized transition/likelihood on a joint (x, w) domain.
    """

    variant: str
    likelihood: LikelihoodModel
    data: np.ndarray
    domain: DomainSpec
    transition: Optional[TransitionModel] = None
    w_domain: Optional[DomainSpec] = None
    # transition matrices keyed by DomainSpec, ConstantsReports keyed by ("constants", y, w1)
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.variant not in ("ip", "se", "ps"):
            raise ValueError(f"unknown variant {self.variant!r}")
        data = np.atleast_1d(np.asarray(self.data, dtype=float))
        if not np.all(np.isfinite(data)):
            raise NonFinite("data sequence must be finite")
        data.setflags(write=False)
        object.__setattr__(self, "data", data)
        if self.variant in ("se", "ps") and self.transition is None:
            raise ValueError(f"variant {self.variant!r} requires a transition model")
        if self.variant == "ip" and self.transition is not None:
            raise ValueError("inverse problems take no transition model")
        if self.variant == "ps" and self.w_domain is None:
            raise ValueError("parameter-state systems need a parameter domain")

    @property
    def n_steps(self) -> int:
        return int(self.data.shape[0])

    def y(self, k: int) -> float:
        if not 1 <= k <= self.n_steps:
            raise ValueError(f"step {k} outside 1..{self.n_steps}")
        return float(self.data[k - 1])

    def diameter(self) -> float:
        """Diameter of the (product) domain; PS uses |dx| + |dw|."""
        d = self.domain.diameter()
        if self.variant == "ps":
            d += self.w_domain.diameter()
        return d

    def transition_density(self) -> Callable:
        """The transition density T; UnsupportedRepresentation when it has none.

        A zero-noise linear-Gaussian transition is deterministic: it has a
        sampler (enough for particle steps) but no density on the grid.
        """
        if self.transition.kernel is None:
            raise UnsupportedRepresentation("transition has no density")
        return self.transition.kernel

    def transition_kernel(self, domain: DomainSpec):
        """The SE transition kernel on ``domain``'s nodes, for kernel_matvec/rmatvec.

        The dense matrix K[i, j] = T(x_i, x_j) is built on first use and kept
        for the life of the system, unless it is larger than
        _KERNEL_CACHE_BYTES; then the density callable is returned, and each
        product streams it in blocks.
        """
        if 8 * domain.grid_points ** 2 > _KERNEL_CACHE_BYTES:
            return self.transition_density()
        matrix = self._cache.get(domain)
        if matrix is None:
            matrix = kernel_matrix(self.transition_density(), domain.nodes, domain.nodes)
            matrix.setflags(write=False)
            self._cache[domain] = matrix
        return matrix


@dataclass(frozen=True)
class ConstantsReport:
    """System constants for one step; only fields defined for the variant are set."""

    variant: str
    d: float
    c_h: Optional[float] = None
    c_th: Optional[float] = None
    c_th_star: Optional[float] = None
    c_th_tilde: Optional[float] = None
    c_th_tilde_star: Optional[float] = None
    h_lip: Optional[float] = None

    def __post_init__(self):
        for name in ("d", "c_h", "c_th", "c_th_tilde"):
            v = getattr(self, name)
            if v is not None and not (math.isfinite(v) and v > 0.0):
                raise NonFinite(f"constant {name}={v!r} must be finite and positive")
        # Lipschitz-type constants may legitimately be zero (constant models)
        for name in ("c_th_star", "c_th_tilde_star", "h_lip"):
            v = getattr(self, name)
            if v is not None and not (math.isfinite(v) and v >= 0.0):
                raise NonFinite(f"constant {name}={v!r} must be finite and nonnegative")


# -- grid evaluation helpers -------------------------------------------------


def lik_values(s: SystemSpec, k: int, xs=None) -> np.ndarray:
    """Likelihood h(y_k, x) on the given nodes (IP and SE variants)."""
    xs = s.domain.nodes if xs is None else xs
    out = np.asarray(s.likelihood.evaluator(s.y(k), xs), dtype=float)
    if not np.all(np.isfinite(out)) or np.any(out < 0):
        raise NonFinite("likelihood must be finite and nonnegative on the grid")
    return out


def lik_values_ps(s: SystemSpec, k: int) -> np.ndarray:
    """Likelihood h(y_k, x, w) on the joint grid, shape (nx, nw)."""
    xs = s.domain.nodes[:, None]
    ws = s.w_domain.nodes[None, :]
    out = np.asarray(s.likelihood.evaluator(s.y(k), xs, ws), dtype=float)
    out = np.broadcast_to(out, (s.domain.grid_points, s.w_domain.grid_points)).astype(float)
    if not np.all(np.isfinite(out)) or np.any(out < 0):
        raise NonFinite("likelihood must be finite and nonnegative on the joint grid")
    return out


def _kernel_rows(kernel, xs_next, xs_prev, *extra):
    """Yield (rows, K[rows]) of K[i, j] = kernel(xs_next[i], xs_prev[j], *extra), block by block."""
    for start in range(0, xs_next.shape[0], _KERNEL_BLOCK):
        rows = slice(start, start + _KERNEL_BLOCK)
        yield rows, np.asarray(kernel(xs_next[rows, None], xs_prev[None, :], *extra), dtype=float)


def kernel_matrix(kernel, xs_next, xs_prev, *extra) -> np.ndarray:
    """Dense K[i, j] = kernel(xs_next[i], xs_prev[j], *extra)."""
    out = np.empty((xs_next.shape[0], xs_prev.shape[0]))
    for rows, block in _kernel_rows(kernel, xs_next, xs_prev, *extra):
        out[rows] = block
    return out


def kernel_matvec(kernel, xs_next, xs_prev, vec, *extra) -> np.ndarray:
    """K @ vec with K[i, j] = kernel(xs_next[i], xs_prev[j], *extra).

    ``kernel`` is the density callable, streamed in row blocks, or K itself.
    """
    if not callable(kernel):
        return kernel @ vec
    out = np.empty(xs_next.shape[0])
    for rows, block in _kernel_rows(kernel, xs_next, xs_prev, *extra):
        out[rows] = block @ vec
    return out


def kernel_rmatvec(kernel, xs_next, xs_prev, vec, *extra) -> np.ndarray:
    """vec @ K with K[i, j] = kernel(xs_next[i], xs_prev[j], *extra).

    ``kernel`` is the density callable, streamed in column blocks, or K itself.
    """
    if not callable(kernel):
        return vec @ kernel
    out = np.empty(xs_prev.shape[0])
    for start in range(0, xs_prev.shape[0], _KERNEL_BLOCK):
        cols = slice(start, start + _KERNEL_BLOCK)
        block = kernel(xs_next[:, None], xs_prev[None, cols], *extra)
        out[cols] = vec @ np.asarray(block, dtype=float)
    return out


def se_g_values(s: SystemSpec, k: int, domain: DomainSpec = None) -> np.ndarray:
    """g(x_prev) = integral of h(y_k, x) T(x, x_prev) dx, one value per node."""
    d = domain if domain is not None else s.domain
    xs = d.nodes
    h = np.asarray(s.likelihood.evaluator(s.y(k), xs), dtype=float)
    return kernel_rmatvec(s.transition_kernel(d), xs, xs, d.trapezoid_weights * h)


def ps_g_values(s: SystemSpec, k: int) -> np.ndarray:
    """g(x_prev, w) = integral of h(y_k, x, w) T(x, x_prev, w) dx, shape (nx, nw)."""
    xs = s.domain.nodes
    hw = lik_values_ps(s, k)  # (nx, nw)
    wquad = s.domain.trapezoid_weights
    kernel = s.transition_density()
    out = np.empty((xs.shape[0], s.w_domain.grid_points))
    for j, w in enumerate(s.w_domain.nodes):
        out[:, j] = kernel_rmatvec(kernel, xs, xs, wquad * hw[:, j], w)
    return out


# -- constants ----------------------------------------------------------------


def _coarse_guard(fine: float, coarse: float) -> float:
    """Reject estimates that explode from a nested coarse grid to the full grid."""
    if not math.isfinite(fine) or (coarse > 0 and fine > 4.0 * coarse) or (coarse == 0 and fine > 1e6):
        raise UnboundedConstant("grid estimate diverges under refinement")
    return fine


def _grid_sup_h(s: SystemSpec, k: int, n: int) -> float:
    d = DomainSpec(s.domain.lower, s.domain.upper, n)
    return float(np.max(lik_values(s, k, d.nodes)))


def _grid_lip_h(s: SystemSpec, k: int, n: int) -> float:
    d = DomainSpec(s.domain.lower, s.domain.upper, n)
    h = lik_values(s, k, d.nodes)
    return float(np.max(np.abs(np.diff(h))) / d.spacing)


def _grid_c_th(s: SystemSpec, k: int, n: int) -> float:
    d = DomainSpec(s.domain.lower, s.domain.upper, n)
    return float(np.max(se_g_values(s, k, d)))


def _grid_c_th_star(s: SystemSpec, k: int, n: int) -> float:
    d = DomainSpec(s.domain.lower, s.domain.upper, n)
    xs = d.nodes
    h = np.asarray(s.likelihood.evaluator(s.y(k), xs), dtype=float)
    # T_lip(x_next) = sup of adjacent difference quotients in x_prev
    t_lip = np.empty(xs.shape[0])
    for rows, block in _kernel_rows(s.transition_density(), xs, xs):
        t_lip[rows] = np.max(np.abs(np.diff(block, axis=1)), axis=1) / d.spacing
    return float(d.integrate(h * t_lip))


def grid_constant_estimates(s: SystemSpec, k: int, metric: str, n: int) -> ConstantsReport:
    """Brute-force grid estimates of the constants at resolution n (oracle path)."""
    want_w1 = metric == "w1"
    if s.variant == "ip":
        return ConstantsReport(
            "ip", s.diameter(),
            c_h=_grid_sup_h(s, k, n),
            h_lip=_grid_lip_h(s, k, n) if want_w1 else None)
    if s.variant == "se":
        return ConstantsReport(
            "se", s.diameter(),
            c_th=_grid_c_th(s, k, n),
            c_th_star=_grid_c_th_star(s, k, n) if want_w1 else None)
    g = ps_g_values(s, k)
    report = ConstantsReport("ps", s.diameter(), c_th_tilde=float(np.max(g)))
    if want_w1:
        report = ConstantsReport("ps", s.diameter(), c_th_tilde=report.c_th_tilde,
                                 c_th_tilde_star=_ps_star_estimate(s, k))
    return report


def _ps_star_estimate(s: SystemSpec, k: int, n: int = 161) -> float:
    """Grid estimate of the joint Lipschitz constant integral for PS systems."""
    xd = DomainSpec(s.domain.lower, s.domain.upper, max(101, n))
    wd = DomainSpec(s.w_domain.lower, s.w_domain.upper, max(101, n))
    xs, ws = xd.nodes, wd.nodes
    kernel = s.transition_density()
    lip = np.zeros(xs.shape[0])
    for i, xn in enumerate(xs):
        h_row = np.asarray(s.likelihood.evaluator(s.y(k), xn, ws[None, :]), dtype=float)
        t_row = np.asarray(kernel(xn, xs[:, None], ws[None, :]), dtype=float)
        f = np.broadcast_to(h_row, t_row.shape) * t_row  # (x_prev, w)
        dx = np.max(np.abs(np.diff(f, axis=0))) / xd.spacing
        dw = np.max(np.abs(np.diff(f, axis=1))) / wd.spacing
        # metric |dx| + |dw| has dual-norm max of the coordinate slopes
        lip[i] = max(dx, dw)
    return float(xd.integrate(lip))


def system_constants(s: SystemSpec, k: int, metric: str) -> ConstantsReport:
    """Constants for step k and the given metric ("tv", "hellinger", "w1").

    They depend on k only through y_k, and on the metric only through whether
    it is w1, so each system keeps them per (y_k, metric == "w1"): tv and
    hellinger share one entry, as do the steps of a repeated observation.  A
    computation that raises stores nothing, so the next call raises again.
    """
    if metric not in ("tv", "hellinger", "w1"):
        raise ValueError(f"unknown metric {metric!r}")
    want_w1 = metric == "w1"
    key = ("constants", s.y(k), want_w1)
    report = s._cache.get(key)
    if report is None:
        report = s._cache[key] = _compute_constants(s, k, want_w1)
    return report


def _compute_constants(s: SystemSpec, k: int, want_w1: bool) -> ConstantsReport:
    lik = s.likelihood
    trans = s.transition
    diam = s.diameter()

    if s.variant == "ip":
        h = lik_values(s, k)
        if lik.family == "linear_gaussian":
            c_h = 1.0 / math.sqrt(2.0 * math.pi * lik.noise_var)
            h_lip = abs(lik.a) * _PEAK_SLOPE / (_SQRT_2PI * lik.noise_var)
        else:
            c_h = lik.declared_sup if lik.declared_sup is not None else \
                _coarse_guard(float(np.max(h)), float(np.max(h[::2])))
            h_lip = None
            if want_w1:
                if lik.declared_lip is not None:
                    h_lip = lik.declared_lip
                else:
                    quot = np.abs(np.diff(h)) / s.domain.spacing
                    coarse = np.abs(np.diff(h[::2])) / (2.0 * s.domain.spacing)
                    h_lip = CUSTOM_LIP_SAFETY * _coarse_guard(float(np.max(quot)), float(np.max(coarse)))
        if lik.declared_sup is not None and float(np.max(h)) > lik.declared_sup * (1.0 + 1e-9):
            raise UnboundedConstant("declared likelihood sup is below the grid maximum")
        if want_w1 and h_lip is None:
            raise MissingConstant("Lipschitz constant unavailable for this likelihood")
        _verify_floor(c_h, float(np.max(h)))
        return ConstantsReport("ip", diam, c_h=c_h, h_lip=h_lip if want_w1 else None)

    if s.variant == "se":
        if lik.family == "linear_gaussian" and trans.family == "linear_gaussian" and trans.q > 0:
            mixed_var = lik.a ** 2 * trans.q + lik.noise_var
            if trans.a != 0 and lik.a != 0:
                c_th = 1.0 / math.sqrt(2.0 * math.pi * mixed_var)
            else:
                c_th = float(gauss_pdf(s.y(k), 0.0, mixed_var)) if lik.a != 0 \
                    else 1.0 / math.sqrt(2.0 * math.pi * lik.noise_var)
            c_th_star = None
            if want_w1:
                t_lip = abs(trans.a) * _PEAK_SLOPE / (_SQRT_2PI * trans.q)
                h_mass = (1.0 / abs(lik.a)) if lik.a != 0 else \
                    diam / math.sqrt(2.0 * math.pi * lik.noise_var)
                c_th_star = t_lip * h_mass
            _verify_floor(c_th, _grid_c_th(s, k, min(s.domain.grid_points, 801)))
        else:
            g = se_g_values(s, k)
            c_th = _coarse_guard(float(np.max(g)), float(np.max(g[::2])))
            c_th_star = CUSTOM_LIP_SAFETY * _grid_c_th_star(s, k, s.domain.grid_points) \
                if want_w1 else None
        return ConstantsReport("se", diam, c_th=c_th, c_th_star=c_th_star if want_w1 else None)

    # parameter-state
    if lik.family == "linear_gaussian" and trans.family == "parametric_linear_gaussian":
        c_th_tilde = 1.0 / math.sqrt(2.0 * math.pi * (lik.a ** 2 * trans.q + lik.noise_var)) \
            if lik.a != 0 else 1.0 / math.sqrt(2.0 * math.pi * lik.noise_var)
        c_th_tilde_star = None
        if want_w1:
            ws = np.linspace(s.w_domain.lower, s.w_domain.upper, 20001)
            coefs = np.asarray(trans.drift(ws), dtype=float)
            a_max = float(np.max(np.abs(coefs)))
            a_slope = float(np.max(np.abs(np.diff(coefs)))) / (ws[1] - ws[0])
            x_max = max(abs(s.domain.lower), abs(s.domain.upper))
            h_mass = (1.0 / abs(lik.a)) if lik.a != 0 else \
                s.domain.diameter() / math.sqrt(2.0 * math.pi * lik.noise_var)
            c_th_tilde_star = _PEAK_SLOPE / (_SQRT_2PI * trans.q) * max(a_max, a_slope * x_max) * h_mass
        _verify_floor(c_th_tilde, float(np.max(ps_g_values(s, k))))
    else:
        g = ps_g_values(s, k)
        c_th_tilde = _coarse_guard(float(np.max(g)), float(np.max(g[::2, ::2])))
        c_th_tilde_star = CUSTOM_LIP_SAFETY * _ps_star_estimate(s, k) if want_w1 else None
    return ConstantsReport("ps", diam, c_th_tilde=c_th_tilde,
                           c_th_tilde_star=c_th_tilde_star if want_w1 else None)


def _verify_floor(value: float, grid_estimate: float) -> None:
    """Closed-form constants are true suprema: they must dominate any grid estimate."""
    if value < grid_estimate * (1.0 - 1e-9):
        raise UnboundedConstant(
            f"constant {value!r} fell below its brute-force grid estimate {grid_estimate!r}")


def validate_admissible(s: SystemSpec, k: int, prior) -> float:
    """Return the evidence of `prior` at step k; raise if it is inadmissible."""
    from .bayes import evidence

    z = evidence(s, k, prior)
    if not math.isfinite(z):
        raise NonFinite(f"evidence {z!r} is not finite")
    if z <= EVIDENCE_FLOOR:
        raise ZeroEvidence(f"evidence {z!r} at or below the admissibility floor {EVIDENCE_FLOOR}")
    return z

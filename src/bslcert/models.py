"""Likelihood/transition models and the per-step system constants.

Every bound in :mod:`bslcert.bounds` is built from sup g and a Lipschitz
constant or integral of g, for the weighting function g of ``g_values``.  A
claimed constant (a linear-Gaussian closed form, or an inverse problem's
declared sup or Lipschitz constant) is checked against the grid values of g:
a sup against their maximum (on at most 801 nodes for state estimation), an
IP Lipschitz constant against their largest difference quotient, a lower
bound by the mean value theorem.  The SE and PS closed-form Lipschitz
integrals are not checked: their grid counterparts are quadratures, not lower
bounds.  Any other constant is a grid estimate: sup g (and the IP slope) is
guarded against growth on refinement from the stride-2 subgrid, and every
Lipschitz estimate is scaled by CUSTOM_LIP_SAFETY.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .domains import DomainSpec, finite_min, gauss_pdf
from .errors import NonFinite, UnboundedConstant, UnsupportedRepresentation, ZeroEvidence

EVIDENCE_FLOOR = 1e-300
CUSTOM_LIP_SAFETY = 2.0
# Rows per kernel block: 4 MB temporaries at 2001 columns.  Each streamed block
# is its own BLAS call, so changing this changes the bits of streamed products:
# with 16-row blocks, a particle prior near the upper edge of a 2001-node grid
# predicts a different last value.
_KERNEL_BLOCK = 256
_KERNEL_CACHE_BYTES = 64 * 2 ** 20  # largest dense transition matrix a system keeps
# Threads that evaluate kernel blocks and per-parameter kernels: one per CPU this process may use.
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
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
    sampler: Optional[Callable] = None  # (rng, x_prev) -> x_next

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
    def parametric_linear_gaussian(q: float) -> "TransitionModel":
        """T(x_next, x_prev, w) = Gaussian pdf with mean w*x_prev, variance q."""
        if q <= 0:
            raise ValueError("q must be positive")

        def kernel(x_next, x_prev, w):
            return gauss_pdf(x_next, np.asarray(w, dtype=float) * np.asarray(x_prev, dtype=float), q)

        return TransitionModel(kernel, "parametric_linear_gaussian", q=q)

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
    # transition matrices keyed by DomainSpec, ConstantsReports keyed by ("constants", y.hex(), w1),
    # and under "lik_values" the latest observation's likelihood on the grid, as (y.hex(), values)
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
            matrix = transition_matrix(self, domain)
            matrix.setflags(write=False)
            self._cache[domain] = matrix
        return matrix


# variant -> (field holding sup g, field holding the Lipschitz constant or integral of g)
_FIELDS = {"ip": ("c_h", "h_lip"), "se": ("c_th", "c_th_star"),
           "ps": ("c_th_tilde", "c_th_tilde_star")}


@dataclass(frozen=True)
class ConstantsReport:
    """System constants for one step; only ``d`` and the variant's ``sup`` and ``lip`` fields are set."""

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

    @property
    def sup(self) -> float:
        return getattr(self, _FIELDS[self.variant][0])

    @property
    def lip(self) -> Optional[float]:
        return getattr(self, _FIELDS[self.variant][1])


# -- grid evaluation helpers -------------------------------------------------


def lik_values(s: SystemSpec, k: int, xs=None, *ws) -> np.ndarray:
    """Likelihood h(y_k, x) on the given nodes, or h(y_k, x, w) given parameter points.

    Every grid evaluation of the likelihood goes through here: NonFinite
    unless the values are finite and nonnegative.  Without nodes it
    evaluates on the system grid and keeps the latest observation's values,
    read-only, in the system's cache, so the P and Q updates of a step and
    an IP ``g_values`` share one evaluation.  The memo is keyed by the bits
    of y_k (0.0 and -0.0 may evaluate differently); an evaluation that
    raises stores nothing.
    """
    if xs is not None:
        return _evaluate_lik(s, k, xs, *ws)
    key = s.y(k).hex()
    memo = s._cache.get("lik_values")
    if memo is None or memo[0] != key:
        values = _evaluate_lik(s, k, s.domain.nodes).view()
        values.setflags(write=False)  # on a view: the evaluator's own array keeps its flags
        memo = s._cache["lik_values"] = (key, values)
    return memo[1]


def _evaluate_lik(s: SystemSpec, k: int, xs, *ws) -> np.ndarray:
    out = np.asarray(s.likelihood.evaluator(s.y(k), xs, *ws), dtype=float)
    if not finite_min(out) >= 0.0:  # NaN for a non-finite entry
        raise NonFinite("likelihood must be finite and nonnegative on the grid")
    return out


def lik_values_ps(s: SystemSpec, k: int, domain: DomainSpec = None) -> np.ndarray:
    """Likelihood h(y_k, x, w) on the joint grid, shape (nx, nw); x on ``domain``'s nodes."""
    d = domain if domain is not None else s.domain
    out = lik_values(s, k, d.nodes[:, None], s.w_domain.nodes[None, :])
    return np.broadcast_to(out, (d.grid_points, s.w_domain.grid_points)).astype(float)


# (process id, worker count) -> ThreadPoolExecutor, made on first use; a forked
# child has none of its parent's threads, so it makes its own pool
_pools: dict = {}
_pools_lock = threading.Lock()
_thread = threading.local()  # .worker is True on the pool's threads


def _mark_worker() -> None:
    _thread.worker = True


def _executor(workers: int):
    """This process's ThreadPoolExecutor of ``workers`` threads, created on first use.

    concurrent.futures is imported here: it loads logging, which a run that
    never needs the pool should not pay for at start-up.
    """
    from concurrent.futures import ThreadPoolExecutor

    key = os.getpid(), workers
    with _pools_lock:
        pool = _pools.get(key)
        if pool is None:
            pool = _pools[key] = ThreadPoolExecutor(
                workers, thread_name_prefix="bslcert-kernel", initializer=_mark_worker)
        return pool


def _run_each(fn, items) -> None:
    """Call fn(item) for every item, on _WORKERS threads when that can help.

    The items must be independent, each writing only its own output slot,
    and fn must call nothing that benches/tracer.py traces.  Items run inline
    when there is one worker or one item, or when the caller is itself a
    worker, so nested calls cannot deadlock.  Either way the exception of the
    first failing item, in item order, is raised: inline at once, on the pool
    after every item has finished.
    """
    items = list(items)
    if _WORKERS == 1 or len(items) < 2 or getattr(_thread, "worker", False):
        for item in items:
            fn(item)
        return
    pool = _executor(_WORKERS)
    futures = [pool.submit(fn, item) for item in items]
    for error in [future.exception() for future in futures]:  # waits for every item
        if error is not None:
            raise error


def _deal(n: int) -> list:
    """range(n) dealt round-robin into one share per worker, as items for _run_each."""
    return [range(i, n, _WORKERS) for i in range(_WORKERS)]


def _blocks(n: int):
    """Slices of _KERNEL_BLOCK consecutive indices covering range(n)."""
    return [slice(start, start + _KERNEL_BLOCK) for start in range(0, n, _KERNEL_BLOCK)]


def _kernel_block(kernel, xs_next, xs_prev, *extra) -> np.ndarray:
    """K[i, j] = kernel(xs_next[i], xs_prev[j], *extra) for the given node slices."""
    return np.asarray(kernel(xs_next[:, None], xs_prev[None, :], *extra), dtype=float)


def kernel_matrix(kernel, xs_next, xs_prev, *extra, out=None) -> np.ndarray:
    """Dense K[i, j] = kernel(xs_next[i], xs_prev[j], *extra), written into ``out`` if given."""
    out = np.empty((xs_next.shape[0], xs_prev.shape[0])) if out is None else out
    for rows in _blocks(xs_next.shape[0]):
        out[rows] = _kernel_block(kernel, xs_next[rows], xs_prev, *extra)
    return out


def transition_matrix(s: SystemSpec, domain: DomainSpec, *w, out=None) -> np.ndarray:
    """K[i, j] = T(x_i, x_j[, w]) on ``domain``'s nodes, written into ``out`` if given.

    The bits are those of kernel_matrix(s.transition_density(), nodes, nodes, *w).
    A linear-Gaussian density is evaluated straight into the matrix, with the
    coefficient its density closure uses.  On a grid symmetric about zero only
    rows :ceil(n/2) are evaluated and the rest are their reflection: with
    x_i = -x_{n-1-i}, fl(c * -x) = -fl(c * x) and fl(-a - -b) = -fl(a - b),
    so z changes only its sign and T(x_i, x_j) has the bits of
    T(x_{n-1-i}, x_{n-1-j}).  Custom densities are evaluated in row blocks.
    """
    density = s.transition_density()  # UnsupportedRepresentation for a zero-noise transition
    xs = domain.nodes
    trans = s.transition
    if trans.family == "linear_gaussian":
        coef = trans.a
    elif trans.family == "parametric_linear_gaussian":
        (param,) = w
        coef = np.asarray(param, dtype=float)
    else:
        return kernel_matrix(density, xs, xs, *w, out=out)
    n = xs.shape[0]
    out = np.empty((n, n)) if out is None else out
    h = (n + 1) // 2 if domain.symmetric else n
    gauss_pdf(xs[:h, None], coef * xs, trans.q, out=out[:h])
    if h < n:
        out[h:] = out[n - h - 1::-1, ::-1]
    return out


def kernel_matvec(kernel, xs_next, xs_prev, vec, *extra) -> np.ndarray:
    """K @ vec with K[i, j] = kernel(xs_next[i], xs_prev[j], *extra).

    ``kernel`` is the density callable, streamed in row blocks, or K itself.
    Each row block is evaluated and multiplied on a pool thread (_run_each);
    each is its own BLAS call whatever the thread, so the bits do not depend
    on the worker count.
    """
    if not callable(kernel):
        return kernel @ vec
    out = np.empty(xs_next.shape[0])

    def row_block(rows):
        out[rows] = _kernel_block(kernel, xs_next[rows], xs_prev, *extra) @ vec

    _run_each(row_block, _blocks(xs_next.shape[0]))
    return out


def kernel_rmatvec(kernel, xs_next, xs_prev, vec, *extra) -> np.ndarray:
    """vec @ K with K[i, j] = kernel(xs_next[i], xs_prev[j], *extra).

    ``kernel`` is the density callable, streamed in column blocks on pool
    threads as in kernel_matvec, or K itself.
    """
    if not callable(kernel):
        return vec @ kernel
    out = np.empty(xs_prev.shape[0])

    def column_block(cols):
        out[cols] = vec @ _kernel_block(kernel, xs_next, xs_prev[cols], *extra)

    _run_each(column_block, _blocks(xs_prev.shape[0]))
    return out


def se_g_values(s: SystemSpec, k: int, domain: DomainSpec = None) -> np.ndarray:
    """g(x_prev) = integral of h(y_k, x) T(x, x_prev) dx, one value per node."""
    d = domain if domain is not None else s.domain
    xs = d.nodes
    h = lik_values(s, k, xs)
    return kernel_rmatvec(s.transition_kernel(d), xs, xs, d.trapezoid_weights * h)


def ps_g_values(s: SystemSpec, k: int, domain: DomainSpec = None) -> np.ndarray:
    """g(x_prev, w) = integral of h(y_k, x, w) T(x, x_prev, w) dx on ``domain``, shape (nx, nw)."""
    d = domain if domain is not None else s.domain
    xs = d.nodes
    hw = lik_values_ps(s, k, d)  # (nx, nw)
    wquad = d.trapezoid_weights
    kernel = s.transition_density()
    out = np.empty((xs.shape[0], s.w_domain.grid_points))
    for j, w in enumerate(s.w_domain.nodes):
        out[:, j] = kernel_rmatvec(kernel, xs, xs, wquad * hw[:, j], w)
    return out


def g_values(s: SystemSpec, k: int, domain: DomainSpec = None) -> np.ndarray:
    """g, whose integral against a prior is its evidence: h, se_g_values or ps_g_values."""
    if s.variant == "ip":
        return lik_values(s, k, None if domain is None else domain.nodes)
    if s.variant == "se":
        return se_g_values(s, k, domain)
    return ps_g_values(s, k, domain)


# -- constants ----------------------------------------------------------------


def _coarse_guard(fine: float, coarse: float) -> float:
    """Reject estimates that explode from a nested coarse grid to the full grid."""
    if not math.isfinite(fine) or (coarse > 0 and fine > 4.0 * coarse) or (coarse == 0 and fine > 1e6):
        raise UnboundedConstant("grid estimate diverges under refinement")
    return fine


def _verify_floor(value: float, grid_estimate: float) -> None:
    """Claimed constants are true bounds: they must dominate the grid's lower bound."""
    if value < grid_estimate * (1.0 - 1e-9):
        raise UnboundedConstant(
            f"constant {value!r} fell below its brute-force grid estimate {grid_estimate!r}")


def _max_slope(values: np.ndarray, spacing: float) -> float:
    """Largest adjacent difference quotient of nodal values."""
    return float(np.max(np.abs(np.diff(values)))) / spacing


def _se_star_estimate(s: SystemSpec, k: int, d: DomainSpec) -> float:
    """Grid estimate of the integral of h(y_k, x) sup_x_prev |dT(x, x_prev)/dx_prev| dx."""
    xs = d.nodes
    h = lik_values(s, k, xs)
    # T_lip(x_next) = sup of adjacent difference quotients in x_prev
    density = s.transition_density()
    t_lip = np.empty(xs.shape[0])
    for rows in _blocks(xs.shape[0]):
        block = _kernel_block(density, xs[rows], xs)
        t_lip[rows] = np.max(np.abs(np.diff(block, axis=1)), axis=1) / d.spacing
    return float(d.integrate(h * t_lip))


def _ps_star_estimate(s: SystemSpec, k: int) -> float:
    """Grid estimate of the joint Lipschitz constant integral, on 161-node x and w grids."""
    xd = DomainSpec(s.domain.lower, s.domain.upper, 161)
    wd = DomainSpec(s.w_domain.lower, s.w_domain.upper, 161)
    xs, ws = xd.nodes, wd.nodes
    kernel = s.transition_density()
    lip = np.zeros(xs.shape[0])
    for i, xn in enumerate(xs):
        h_row = lik_values(s, k, xn, ws[None, :])
        t_row = np.asarray(kernel(xn, xs[:, None], ws[None, :]), dtype=float)
        f = np.broadcast_to(h_row, t_row.shape) * t_row  # (x_prev, w)
        dx = np.max(np.abs(np.diff(f, axis=0))) / xd.spacing
        dw = np.max(np.abs(np.diff(f, axis=1))) / wd.spacing
        # metric |dx| + |dw| has dual-norm max of the coordinate slopes
        lip[i] = max(dx, dw)
    return float(xd.integrate(lip))


def _lip_estimate(s: SystemSpec, k: int, d: DomainSpec, g: np.ndarray) -> float:
    """Grid estimate of the Lipschitz term of g = g_values(s, k, d), before any safety factor."""
    if s.variant == "ip":
        return _coarse_guard(_max_slope(g, d.spacing), _max_slope(g[::2], 2.0 * d.spacing))
    if s.variant == "se":
        return _se_star_estimate(s, k, d)
    return _ps_star_estimate(s, k)


def _report(s: SystemSpec, sup: float, lip: Optional[float]) -> ConstantsReport:
    sup_field, lip_field = _FIELDS[s.variant]
    return ConstantsReport(s.variant, float(s.diameter()), **{
        sup_field: float(sup), lip_field: None if lip is None else float(lip)})


def grid_constant_estimates(s: SystemSpec, k: int, metric: str, n: int) -> ConstantsReport:
    """Brute-force grid estimates of the constants at n x-nodes (oracle path).

    The PS Lipschitz estimate keeps the fixed 161-node grids that system_constants uses.
    """
    d = DomainSpec(s.domain.lower, s.domain.upper, n)
    g = g_values(s, k, d)
    return _report(s, float(np.max(g)), _lip_estimate(s, k, d, g) if metric == "w1" else None)


def system_constants(s: SystemSpec, k: int, metric: str) -> ConstantsReport:
    """Constants for step k and the given metric ("tv", "hellinger", "w1").

    They depend on k only through y_k, and on the metric only through whether
    it is w1, so each system keeps them per (bits of y_k, metric == "w1"): tv
    and hellinger share one entry, as do the steps of a repeated observation,
    while 0.0 and -0.0 stay apart as in the likelihood memo.  A computation
    that raises stores nothing, so the next call raises again.
    """
    if metric not in ("tv", "hellinger", "w1"):
        raise ValueError(f"unknown metric {metric!r}")
    want_w1 = metric == "w1"
    key = ("constants", s.y(k).hex(), want_w1)
    report = s._cache.get(key)
    if report is None:
        report = s._cache[key] = _compute_constants(s, k, want_w1)
    return report


def _closed_form(s: SystemSpec, k: int) -> Optional[tuple[float, float]]:
    """(sup g, its Lipschitz term) for the three linear-Gaussian families, else None.

    The SE and PS terms bound the integral over x of h(y_k, x) times the sup
    of |grad T(x, .)|: the slope of a Gaussian pdf in its mean is at most
    _PEAK_SLOPE / (sqrt(2 pi) q), and h integrates to h_mass.  An SE mean
    a x' carries |a|.  A PS mean w x' carries |w| in dT/dx' and |x'| in
    dT/dw; the dual norm of the metric |dx| + |dw| is the larger of the two,
    so the sup is max(max |w|, max |x|) over the domains.
    """
    lik, trans = s.likelihood, s.transition
    if lik.family != "linear_gaussian":
        return None
    if s.variant == "ip":
        h_lip = abs(lik.a) * _PEAK_SLOPE / (_SQRT_2PI * lik.noise_var)
        return 1.0 / math.sqrt(2.0 * math.pi * lik.noise_var), h_lip
    # integral of h(y, x) dx: 1/|a|, or the diameter times sup h when h is flat in x
    h_mass = (1.0 / abs(lik.a)) if lik.a != 0 else \
        s.domain.diameter() / math.sqrt(2.0 * math.pi * lik.noise_var)
    if s.variant == "se" and trans.family == "linear_gaussian" and trans.q > 0:
        mixed_var = lik.a ** 2 * trans.q + lik.noise_var
        if trans.a != 0 and lik.a != 0:
            c_th = 1.0 / math.sqrt(2.0 * math.pi * mixed_var)
        else:
            c_th = float(gauss_pdf(s.y(k), 0.0, mixed_var)) if lik.a != 0 \
                else 1.0 / math.sqrt(2.0 * math.pi * lik.noise_var)
        t_lip = abs(trans.a) * _PEAK_SLOPE / (_SQRT_2PI * trans.q)
        return c_th, t_lip * h_mass
    if s.variant == "ps" and trans.family == "parametric_linear_gaussian":
        c_th_tilde = 1.0 / math.sqrt(2.0 * math.pi * (lik.a ** 2 * trans.q + lik.noise_var)) \
            if lik.a != 0 else 1.0 / math.sqrt(2.0 * math.pi * lik.noise_var)
        reach = max(abs(s.w_domain.lower), abs(s.w_domain.upper),
                    abs(s.domain.lower), abs(s.domain.upper))
        return c_th_tilde, _PEAK_SLOPE / (_SQRT_2PI * trans.q) * reach * h_mass
    return None


def _compute_constants(s: SystemSpec, k: int, want_w1: bool) -> ConstantsReport:
    """One rule for every variant and family; the module docstring states it."""
    claim = _closed_form(s, k)
    if claim is None and s.variant == "ip":
        # a declaration bounds h, which is g only in an inverse problem
        claim = s.likelihood.declared_sup, s.likelihood.declared_lip
    sup, lip = claim or (None, None)
    d = s.domain
    if s.variant == "se" and sup is not None:
        # se_g_values costs O(n^2): an SE closed form is checked on at most 801 nodes
        d = DomainSpec(d.lower, d.upper, min(d.grid_points, 801))
    g = g_values(s, k, d)
    if sup is None:
        sup = _coarse_guard(float(np.max(g)), float(np.max(g[(slice(None, None, 2),) * g.ndim])))
    else:
        _verify_floor(sup, float(np.max(g)))
    if want_w1 and lip is None:
        lip = CUSTOM_LIP_SAFETY * _lip_estimate(s, k, d, g)
    elif want_w1 and s.variant == "ip":
        # mean value theorem: no Lipschitz constant of h is below a difference quotient
        _verify_floor(lip, _max_slope(g, d.spacing))
    return _report(s, sup, lip if want_w1 else None)


def admissible_evidence(z: float) -> float:
    """Return the evidence z; raise NonFinite if it is not finite and
    ZeroEvidence if it is at or below EVIDENCE_FLOOR."""
    if not math.isfinite(z):
        raise NonFinite(f"evidence {z!r} is not finite")
    if z <= EVIDENCE_FLOOR:
        raise ZeroEvidence(f"evidence {z!r} at or below the admissibility floor {EVIDENCE_FLOOR}")
    return z


def validate_admissible(s: SystemSpec, k: int, prior) -> float:
    """Return the evidence of `prior` at step k; raise if it is inadmissible."""
    from .bayes import evidence

    return admissible_evidence(evidence(s, k, prior))

"""Likelihood/transition models and the per-step system constants.

Every bound in :mod:`bslcert.bounds` is built from sup g and a Lipschitz
constant or integral of g, for the weighting function g of ``g_values``.  A
claimed constant (a linear-Gaussian closed form, or an inverse problem's
declared sup or Lipschitz constant) is checked against the grid values of g:
a sup against their maximum, an IP Lipschitz constant against their largest
difference quotient, a lower bound by the mean value theorem.  A state-
estimation closed form is checked on at most 801 nodes, in kernel passes of
up to 256 of the system's observations.  The SE and PS closed-form Lipschitz
integrals are not checked: their grid counterparts are quadratures, not lower
bounds.  Any other constant is a grid estimate: sup g (and the IP slope) is
guarded against growth on refinement from the stride-2 subgrid, and every
Lipschitz estimate is scaled by CUSTOM_LIP_SAFETY.
"""

from __future__ import annotations

import inspect
import math
import os
import threading
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .domains import _SQRT_2PI, DomainSpec, finite_min, gauss_pdf
from .errors import NonFinite, UnboundedConstant, UnsupportedRepresentation, ZeroEvidence

EVIDENCE_FLOOR = 1e-300
CUSTOM_LIP_SAFETY = 2.0
# Rows (or columns) per kernel block; a product's last block takes the rest,
# down to one.  Every product with a transition kernel, cached or streamed, is
# one BLAS call per block, so the height sets the bits: 65-row blocks change
# the bytes of kernel-reuse benchmark seeds 0, 5 and 11, and one 65-row block
# gave an 8001-node streamed product other bits on two BLAS threads than on
# one.  A streamed block at 2000 columns takes 1,024,000 B, within a core's
# L2 cache.  A cached matrix's blocks stay on the calling thread: on the pool,
# the w1-dyn fuzz, whose 201-node products are small, took 40% longer.
_KERNEL_BLOCK = 64
_KERNEL_CACHE_BYTES = 64 * 2 ** 20  # largest dense transition matrix a system keeps
# Bytes of per-parameter kernels a parameter-state system keeps across steps, those of
# largest |w| first (each_parameter_kernel).  The larger |w|, the more of a kernel's
# Gaussian underflows to zero or subnormal values, whose np.exp lanes cost 14-110 ns
# against about 1 ns on a 2-core x86 machine: vi_demo's 107 half-stored kernels of
# largest |w|, of 241, take 24.96 MB and about 60% of its kernel build time.  A 5-step
# vi_demo alone then peaks at about 66 MB instead of 42, below the particle filter's
# 73 MB; 32 MiB was no faster and raised the kernel-reuse benchmark's peak to 76.5 MB.
_PARAMETER_KERNEL_BYTES = 24 * 2 ** 20
_SE_CHECK_ROWS = 256  # observations per kernel pass of the SE closed-form check (_se_g_max)
# Threads that evaluate kernel blocks and per-parameter kernels: one per CPU this process may use.
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_PEAK_SLOPE = math.exp(-0.5)  # max of |u * exp(-u^2/2)|


def _check_family(model, families: dict) -> None:
    """ValueError unless ``model.family`` is a key of ``families``, which maps
    each family to (the parameters it needs, the optional ones it takes), and
    each parameter is set if its family needs it and None if the family does
    not take it."""
    kind = type(model).__name__
    if model.family not in families:
        raise ValueError(f"unknown {kind} family {model.family!r}")
    needs, optional = families[model.family]
    for name in dict.fromkeys(p for n, o in families.values() for p in n + o):
        if name in needs and getattr(model, name) is None:
            raise ValueError(f"a {model.family!r} {kind} needs {name!r}")
        if name not in needs + optional and getattr(model, name) is not None:
            raise ValueError(f"a {model.family!r} {kind} takes no {name!r}")


def _takes(fn: Callable, n: int) -> bool:
    """Whether fn's signature binds n positional arguments; True if it has none to read.

    fn is not called, so a kernel's cost and side effects are left alone."""
    try:
        signature = inspect.signature(fn)
    except (TypeError, ValueError):
        return True
    try:
        signature.bind(*range(n))
    except TypeError:
        return False
    return True


def _set_built(model, **built) -> None:
    """Set a Gaussian-family model's callables to the ones built from its parameters.

    ValueError if one was passed in: it could contradict the parameters, which
    the closed-form constants read while the grid and particle updates call it.
    """
    passed = [name for name in built if getattr(model, name) is not None]
    if passed:
        raise ValueError(f"a {model.family!r} {type(model).__name__} builds its own "
                         f"{', '.join(map(repr, passed))} from its parameters")
    for name, fn in built.items():
        object.__setattr__(model, name, fn)


@dataclass(frozen=True)
class LikelihoodModel:
    """Observation density h(y, x) (or h(y, x, w) in parameter-state systems).

    The evaluator must be nonnegative, finite on the grid, and vectorized
    over numpy arrays; a linear-Gaussian model builds its own from a and
    noise_var.  ``declared_sup``/``declared_lip`` let custom models supply
    analytically known constants; a linear-Gaussian model takes none, because
    its closed form ignores them.
    """

    evaluator: Optional[Callable]
    family: str = "custom"  # "linear_gaussian" | "custom"
    a: Optional[float] = None
    noise_var: Optional[float] = None
    declared_sup: Optional[float] = None
    declared_lip: Optional[float] = None

    def __post_init__(self):
        _check_family(self, {"linear_gaussian": (("a", "noise_var"), ()),
                             "custom": ((), ("declared_sup", "declared_lip"))})
        if self.family == "linear_gaussian":
            a, noise_var = self.a, self.noise_var
            if noise_var <= 0:
                raise ValueError("noise_var must be positive")

            def evaluator(y, x, w=None):
                return gauss_pdf(y, a * np.asarray(x, dtype=float), noise_var)

            _set_built(self, evaluator=evaluator)
        elif not callable(self.evaluator):
            raise ValueError("a 'custom' LikelihoodModel needs a callable evaluator")

    @staticmethod
    def linear_gaussian(a: float, noise_var: float) -> "LikelihoodModel":
        """h(y, x) = Gaussian pdf of y with mean a*x and variance noise_var."""
        return LikelihoodModel(None, "linear_gaussian", a=a, noise_var=noise_var)

    @staticmethod
    def custom(evaluator, declared_sup=None, declared_lip=None) -> "LikelihoodModel":
        return LikelihoodModel(evaluator, "custom", declared_sup=declared_sup, declared_lip=declared_lip)


@dataclass(frozen=True)
class TransitionModel:
    """Markov transition density T(x_next, x_prev) (or T(x_next, x_prev, w)).

    The Gaussian families build their own kernel from a and q; the
    linear-Gaussian one also builds the sampler, which no other transition has.
    """

    kernel: Optional[Callable]
    family: str = "custom"
    a: Optional[float] = None
    q: Optional[float] = None
    sampler: Optional[Callable] = field(default=None, init=False)  # (rng, x_prev) -> x_next

    def __post_init__(self):
        _check_family(self, {"linear_gaussian": (("a", "q"), ()),
                             "parametric_linear_gaussian": (("q",), ()),
                             "custom": ((), ())})
        a, q = self.a, self.q
        if self.family == "linear_gaussian":
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

            _set_built(self, kernel=kernel, sampler=sampler)
        elif self.family == "parametric_linear_gaussian":
            if q <= 0:
                raise ValueError("q must be positive")

            def kernel(x_next, x_prev, w):
                return gauss_pdf(x_next, np.asarray(w, dtype=float) * np.asarray(x_prev, dtype=float), q)

            _set_built(self, kernel=kernel)
        elif self.kernel is not None and not callable(self.kernel):
            raise ValueError("a 'custom' TransitionModel's kernel must be callable")

    @staticmethod
    def linear_gaussian(a: float, q: float) -> "TransitionModel":
        """T(x_next, x_prev) = Gaussian pdf of x_next with mean a*x_prev, variance q."""
        return TransitionModel(None, "linear_gaussian", a=a, q=q)

    @staticmethod
    def parametric_linear_gaussian(q: float) -> "TransitionModel":
        """T(x_next, x_prev, w) = Gaussian pdf with mean w*x_prev, variance q."""
        return TransitionModel(None, "parametric_linear_gaussian", q=q)

    @staticmethod
    def custom(kernel) -> "TransitionModel":
        return TransitionModel(kernel, "custom")


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
    # the system grid's transition matrix under "transition_matrix", ConstantsReports keyed by
    # ("constants", y.hex(), w1), under "lik_values" the latest observation's likelihood on the
    # grid, as (y.hex(), values), under "se_g_max" the SE closed-form check's max g by y.hex(),
    # and under "parameter_kernels" the kept per-parameter kernel rows by node index
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
        kernel = None if self.transition is None else self.transition.kernel
        if self.variant == "ps" and kernel is None:
            raise ValueError("parameter-state systems need a transition kernel")
        if self.variant == "se" and kernel is None and self.transition.sampler is None:
            raise ValueError("state-estimation systems need a transition kernel or sampler")
        # one arity rule for every transition kernel, whatever its family
        args = ("x_next", "x_prev") if self.variant == "se" else ("x_next", "x_prev", "w")
        if kernel is not None and not _takes(kernel, len(args)):
            raise ValueError(f"variant {self.variant!r} takes no {self.transition.family!r} "
                             f"transition: its kernel must take ({', '.join(args)})")
        if self.variant == "ps" and self.w_domain is None:
            raise ValueError("parameter-state systems need a parameter domain")
        if self.variant != "ps" and self.w_domain is not None:
            raise ValueError(f"variant {self.variant!r} takes no parameter domain")
        if self.variant != "ip" and (self.likelihood.declared_sup is not None
                                     or self.likelihood.declared_lip is not None):
            raise ValueError("declared constants bound h, which is g only in an inverse problem")

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

    def transition_kernel(self):
        """The SE transition kernel on the system grid, for kernel_matvec/rmatvec.

        The dense matrix K[i, j] = T(x_i, x_j) is built on first use and kept
        for the life of the system, unless it is larger than _KERNEL_CACHE_BYTES:
        then the density is returned, and each product streams it in blocks.
        Another grid is another system, dataclasses.replace(s, domain=d).
        """
        if 8 * self.domain.grid_points ** 2 > _KERNEL_CACHE_BYTES:
            return self.transition_density()
        matrix = self._cache.get("transition_matrix")
        if matrix is None:
            matrix = transition_matrix(self)
            matrix.setflags(write=False)
            self._cache["transition_matrix"] = matrix
        return matrix


@dataclass(frozen=True)
class ConstantsReport:
    """System constants of one step: the diameter d, sup g and the Lipschitz term of g.

    In the paper's names, sup is C_h (ip), C_{T,h} (se) or C~_{T,h} (ps), and
    lip, set only for w1, is Lip(h), C*_{T,h} or C~*_{T,h}.
    """

    variant: str
    d: float
    sup: float
    lip: Optional[float] = None

    def __post_init__(self):
        for name in ("d", "sup"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise NonFinite(f"constant {name}={v!r} must be finite and positive")
        # a Lipschitz-type constant may legitimately be zero (constant models)
        if self.lip is not None and not (math.isfinite(self.lip) and self.lip >= 0.0):
            raise NonFinite(f"constant lip={self.lip!r} must be finite and nonnegative")


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


def lik_values_ps(s: SystemSpec, k: int) -> np.ndarray:
    """Likelihood h(y_k, x, w) on the joint grid, shape (nx, nw)."""
    out = lik_values(s, k, s.domain.nodes[:, None], s.w_domain.nodes[None, :])
    return np.broadcast_to(out, (s.domain.grid_points, s.w_domain.grid_points)).astype(float)


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


def _blocks(n: int):
    """Slices of _KERNEL_BLOCK consecutive indices covering range(n) in order;
    the last one is shorter when _KERNEL_BLOCK does not divide n."""
    return [slice(start, min(start + _KERNEL_BLOCK, n)) for start in range(0, n, _KERNEL_BLOCK)]


def _each_block(kernel, fn, n: int) -> None:
    """fn(block) for each of _blocks(n): on the pool (_run_each) when ``kernel``
    is a density, whose blocks are evaluated there, and inline for a matrix."""
    if callable(kernel):
        _run_each(fn, _blocks(n))
    else:
        for block in _blocks(n):
            fn(block)


def _kernel_block(kernel, xs_next, xs_prev, *extra) -> np.ndarray:
    """K[i, j] = kernel(xs_next[i], xs_prev[j], *extra) for the given node slices."""
    return np.asarray(kernel(xs_next[:, None], xs_prev[None, :], *extra), dtype=float)


def kernel_matrix(kernel, xs_next, xs_prev, *extra, out=None) -> np.ndarray:
    """Dense K[i, j] = kernel(xs_next[i], xs_prev[j], *extra), written into ``out`` if given."""
    out = np.empty((xs_next.shape[0], xs_prev.shape[0])) if out is None else out
    for rows in _blocks(xs_next.shape[0]):
        out[rows] = _kernel_block(kernel, xs_next[rows], xs_prev, *extra)
    return out


def transition_matrix(s: SystemSpec, *w, out=None) -> np.ndarray:
    """K[i, j] = T(x_i, x_j[, w]) on the system grid's nodes, written into ``out`` if given.

    The bits are those of kernel_matrix(s.transition_density(), nodes, nodes, *w).
    A linear-Gaussian density is evaluated straight into the matrix, with the
    coefficient its density closure uses.  On a grid symmetric about zero only
    rows :ceil(n/2) are evaluated and the rest are their reflection: with
    x_i = -x_{n-1-i}, fl(c * -x) = -fl(c * x) and fl(-a - -b) = -fl(a - b),
    so z changes only its sign and T(x_i, x_j) has the bits of
    T(x_{n-1-i}, x_{n-1-j}).  Custom densities are evaluated in row blocks.
    """
    density = s.transition_density()  # UnsupportedRepresentation for a zero-noise transition
    xs = s.domain.nodes
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
    h = _evaluated_rows(s)
    gauss_pdf(xs[:h, None], coef * xs, trans.q, out=out[:h])
    _reflect(out, h)
    return out


def _evaluated_rows(s: SystemSpec) -> int:
    """How many leading rows of its kernel transition_matrix evaluates: ceil(n/2) for
    a Gaussian family on a grid symmetric about zero, n otherwise."""
    n = s.domain.grid_points
    return (n + 1) // 2 if s.transition.family != "custom" and s.domain.symmetric else n


def _reflect(kernel: np.ndarray, h: int) -> None:
    """Set the rows of the n x n ``kernel`` after its first h to their reflection,
    kernel[i, j] = kernel[n-1-i, n-1-j]; nothing when h = n."""
    n = kernel.shape[0]
    if h < n:
        kernel[h:] = kernel[n - h - 1::-1, ::-1]


def _kept_parameter_kernels(s: SystemSpec, kernel_bytes: int) -> dict:
    """The system's kept per-parameter kernels, node index -> rows (None until built).

    The kept nodes are fixed on first use, before any work is dealt to a
    worker: those of largest |w|, ties by index, while their kernel_bytes
    each fit in _PARAMETER_KERNEL_BYTES.
    """
    kept = s._cache.get("parameter_kernels")
    if kept is None:
        order = np.argsort(-np.abs(s.w_domain.nodes), kind="stable")
        kept = s._cache["parameter_kernels"] = dict.fromkeys(
            order[:_PARAMETER_KERNEL_BYTES // kernel_bytes].tolist())
    return kept


def each_parameter_kernel(s: SystemSpec, apply) -> None:
    """Call apply(j, K_j) with K_j = transition_matrix(s, w_j) for each parameter node w_j.

    The nodes are dealt round-robin to the kernel pool's workers (_run_each).
    Each worker writes its nodes' kernels into one n x n buffer, which the
    next node's kernel overwrites, so apply must not keep K_j.  apply must
    write only node j's outputs and call nothing that benches/tracer.py traces.
    The kernels of the nodes of largest |w|, the costliest to evaluate, are
    kept for the life of the system within _PARAMETER_KERNEL_BYTES: a
    read-only copy of the rows transition_matrix evaluates, copied back and
    reflected as it does, so K_j has the same bits on every pass.
    """
    ws = s.w_domain.nodes
    n, h = s.domain.grid_points, _evaluated_rows(s)
    kept = _kept_parameter_kernels(s, 8 * h * n)

    def share(js):
        kernel = np.empty((n, n))
        for j in js:
            rows = kept.get(j)
            if rows is not None:
                kernel[:h] = rows
                _reflect(kernel, h)
            else:
                transition_matrix(s, ws[j], out=kernel)
                if j in kept:
                    rows = kept[j] = kernel[:h].copy()
                    rows.setflags(write=False)
            apply(j, kernel)

    _run_each(share, [range(i, ws.shape[0], _WORKERS) for i in range(_WORKERS)])


def _distinct_points(xs):
    """(the distinct points of xs, the index of each point of xs among them), distinct
    by bit pattern; (xs, None) when no point repeats."""
    xs = np.asarray(xs)
    _, first, inverse = np.unique(np.asarray(xs, dtype=float).view(np.int64),
                                  return_index=True, return_inverse=True)
    if first.shape[0] == xs.shape[0]:
        return xs, None
    return xs[first], inverse


def kernel_matvec(kernel, xs_next, xs_prev, vec) -> np.ndarray:
    """K @ vec with K[i, j] = kernel(xs_next[i], xs_prev[j]), one BLAS call per row block.

    ``kernel`` is K itself or the density callable, whose row blocks are
    evaluated and multiplied on pool threads (_each_block).  Either way each
    block of _blocks is its own product of the same shape, so a cached and a
    streamed kernel give the same bits, whatever the worker count.  When
    xs_prev repeats a point, as a resampled particle cloud does, a streamed
    block evaluates the density once per distinct point, distinct by bit
    pattern so that 0.0 and -0.0 stay apart, and ``np.take`` copies the
    columns back into a contiguous block: the gemv sees the same matrix.
    """
    out = np.empty(xs_next.shape[0])
    distinct, inverse = _distinct_points(xs_prev) if callable(kernel) else (None, None)

    def row_block(rows):
        if callable(kernel):
            block = _kernel_block(kernel, xs_next[rows], distinct)
            if inverse is not None:
                block = np.take(block, inverse, axis=1)
        else:
            block = kernel[rows]
        out[rows] = block @ vec

    _each_block(kernel, row_block, out.shape[0])
    return out


def kernel_rmatvec(kernel, xs_next, xs_prev, vec) -> np.ndarray:
    """vec @ K with K[i, j] = kernel(xs_next[i], xs_prev[j]), one BLAS call per
    column block, as in kernel_matvec.

    ``vec`` may also be a stack of vectors, shape (m, n), for an (m, n_prev)
    result.  Each column block is then evaluated (or copied) once and each
    row multiplied by it in its own gemv, so row r has the bits of
    kernel_rmatvec(kernel, xs_next, xs_prev, vec[r]); one gemm over the
    stack gives other bits.  A cached matrix's column block is copied into a
    contiguous array, the layout of a streamed block: BLAS gives other bits
    for a 2- or 3-column block that is a strided view.
    """
    out = np.empty(vec.shape[:-1] + xs_prev.shape)
    rows = list(zip(np.atleast_2d(vec), np.atleast_2d(out)))  # views of each vector and its result

    def column_block(cols):
        block = _kernel_block(kernel, xs_next, xs_prev[cols]) if callable(kernel) \
            else np.ascontiguousarray(kernel[:, cols])
        for v, o in rows:
            o[cols] = v @ block

    _each_block(kernel, column_block, xs_prev.shape[0])
    return out


def se_g_values(s: SystemSpec, k: int) -> np.ndarray:
    """g(x_prev) = integral of h(y_k, x) T(x, x_prev) dx, one value per node of the system grid."""
    d = s.domain
    return kernel_rmatvec(s.transition_kernel(), d.nodes, d.nodes,
                          d.trapezoid_weights * lik_values(s, k))


def ps_g_values(s: SystemSpec, k: int) -> np.ndarray:
    """g(x_prev, w) = integral of h(y_k, x, w) T(x, x_prev, w) dx on the joint grid, shape (nx, nw)."""
    weights = s.domain.trapezoid_weights
    hw = lik_values_ps(s, k)  # (nx, nw), on this thread: the kernel pass runs on workers
    out = np.empty(hw.shape)

    def column(j, kernel):
        out[:, j] = (weights * hw[:, j]) @ kernel

    each_parameter_kernel(s, column)
    return out


def g_values(s: SystemSpec, k: int) -> np.ndarray:
    """g, whose integral against a prior is its evidence: h, se_g_values or ps_g_values."""
    if s.variant == "ip":
        return lik_values(s, k)
    if s.variant == "se":
        return se_g_values(s, k)
    return ps_g_values(s, k)


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


def _max_slope(values: np.ndarray, spacing: float, axis: int = -1) -> float:
    """Largest adjacent difference quotient of nodal values along ``axis``."""
    return float(np.max(np.abs(np.diff(values, axis=axis)))) / spacing


def _se_star_estimate(s: SystemSpec, k: int) -> float:
    """Grid estimate of the integral of h(y_k, x) sup_x_prev |dT(x, x_prev)/dx_prev| dx."""
    d, xs = s.domain, s.domain.nodes
    h = lik_values(s, k)
    # T_lip(x_next) = sup of adjacent difference quotients in x_prev
    density = s.transition_density()
    t_lip = np.empty(xs.shape[0])
    for rows in _blocks(xs.shape[0]):
        block = _kernel_block(density, xs[rows], xs)
        t_lip[rows] = np.max(np.abs(np.diff(block, axis=1)), axis=1) / d.spacing
    return float(d.integrate(h * t_lip))


def _slabs(s: SystemSpec, xs: np.ndarray, ws: np.ndarray):
    """For each node x of xs, T(x, x', w) on the nodes x' of xs by w of ws, shape (n_x, n_w)."""
    kernel = s.transition_density()
    for xn in xs:
        yield np.asarray(kernel(xn, xs[:, None], ws[None, :]), dtype=float)


def _ps_star_estimate(s: SystemSpec, k: int) -> float:
    """Grid estimate of the joint Lipschitz constant integral, on 161-node x and w grids."""
    xd = DomainSpec(s.domain.lower, s.domain.upper, 161)
    wd = DomainSpec(s.w_domain.lower, s.w_domain.upper, 161)
    lip = np.zeros(xd.grid_points)
    for i, (xn, t) in enumerate(zip(xd.nodes, _slabs(s, xd.nodes, wd.nodes))):
        f = t * lik_values(s, k, xn, wd.nodes[None, :])  # (x_prev, w)
        # metric |dx| + |dw| has dual-norm max of the coordinate slopes
        lip[i] = max(_max_slope(f, xd.spacing, axis=0), _max_slope(f, wd.spacing, axis=1))
    return float(xd.integrate(lip))


def c_vi_tilde_estimate(s: SystemSpec, k: int) -> float:
    """Grid estimate of the transition parameter-Lipschitz integral, on 201-node x and w grids.

    sup over previous states and parameter pairs of the transition difference
    quotient in the parameter, integrated against the observation density's
    sup over the parameter grid.  Over-approximates custom families by the
    usual safety factor.
    """
    if s.variant != "ps":
        raise UnsupportedRepresentation("the estimator needs a parameter-state system")
    xd = DomainSpec(s.domain.lower, s.domain.upper, 201)
    wd = DomainSpec(s.w_domain.lower, s.w_domain.upper, 201)
    g_lip = np.array([_max_slope(t, wd.spacing, axis=1) for t in _slabs(s, xd.nodes, wd.nodes)])
    h = np.broadcast_to(lik_values(s, k, xd.nodes[:, None], wd.nodes[None, :]), (201, 201)).max(axis=1)
    value = float(xd.integrate(h * g_lip))
    if s.transition.family == "custom":
        value *= CUSTOM_LIP_SAFETY
    return value


def _lip_estimate(s: SystemSpec, k: int, g: np.ndarray) -> float:
    """Grid estimate of the Lipschitz term of g = g_values(s, k), before any safety factor."""
    if s.variant == "ip":
        dx = s.domain.spacing
        return _coarse_guard(_max_slope(g, dx), _max_slope(g[::2], 2.0 * dx))
    if s.variant == "se":
        return _se_star_estimate(s, k)
    return _ps_star_estimate(s, k)


def _report(s: SystemSpec, sup: float, lip: Optional[float]) -> ConstantsReport:
    return ConstantsReport(s.variant, float(s.diameter()), float(sup),
                           None if lip is None else float(lip))


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


def _gauss_peak(var: float) -> float:
    """The peak of a Gaussian pdf of variance ``var``."""
    return 1.0 / math.sqrt(2.0 * math.pi * var)


def _gauss_peak_slope(scale: float, var: float) -> float:
    """``scale`` times the largest slope of a Gaussian pdf of variance ``var`` in its mean.

    ``scale`` multiplies before the division, which gives the pinned constants their bits."""
    return scale * _PEAK_SLOPE / (_SQRT_2PI * var)


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
        return _gauss_peak(lik.noise_var), _gauss_peak_slope(abs(lik.a), lik.noise_var)
    # integral of h(y, x) dx: 1/|a|, or the diameter times sup h when h is flat in x
    h_mass = (1.0 / abs(lik.a)) if lik.a != 0 else \
        s.domain.diameter() / math.sqrt(2.0 * math.pi * lik.noise_var)
    if s.variant == "se" and trans.family == "linear_gaussian" and trans.q > 0:
        mixed_var = lik.a ** 2 * trans.q + lik.noise_var
        if trans.a != 0 and lik.a != 0:
            c_th = _gauss_peak(mixed_var)
        else:
            c_th = float(gauss_pdf(s.y(k), 0.0, mixed_var)) if lik.a != 0 \
                else _gauss_peak(lik.noise_var)
        return c_th, _gauss_peak_slope(abs(trans.a), trans.q) * h_mass
    if s.variant == "ps" and trans.family == "parametric_linear_gaussian":
        c_th_tilde = _gauss_peak(lik.a ** 2 * trans.q + lik.noise_var if lik.a != 0
                                 else lik.noise_var)
        reach = max(abs(s.w_domain.lower), abs(s.w_domain.upper),
                    abs(s.domain.lower), abs(s.domain.upper))
        return c_th_tilde, _gauss_peak_slope(1.0, trans.q) * reach * h_mass
    return None


def _compute_constants(s: SystemSpec, k: int, want_w1: bool) -> ConstantsReport:
    """One rule for every variant and family; the module docstring states it."""
    # only an inverse problem takes declared constants (SystemSpec)
    sup, lip = _closed_form(s, k) or (s.likelihood.declared_sup, s.likelihood.declared_lip)
    if s.variant == "se" and sup is not None:
        # against this observation's max g from one check of every observation
        _verify_floor(sup, _se_g_max(s)[s.y(k).hex()])
        return _report(s, sup, lip if want_w1 else None)
    g = g_values(s, k)
    if sup is None:
        sup = _coarse_guard(float(np.max(g)), float(np.max(g[(slice(None, None, 2),) * g.ndim])))
    else:
        _verify_floor(sup, float(np.max(g)))
    if want_w1 and lip is None:
        lip = CUSTOM_LIP_SAFETY * _lip_estimate(s, k, g)
    elif want_w1 and s.variant == "ip":
        # mean value theorem: no Lipschitz constant of h is below a difference quotient
        _verify_floor(lip, _max_slope(g, s.domain.spacing))
    return _report(s, sup, lip if want_w1 else None)


def _se_g_max(s: SystemSpec) -> dict:
    """max g on at most 801 nodes for each distinct observation of an SE system, by y.hex().

    g costs O(n^2) on n nodes, so an SE closed form is checked on min(n, 801)
    nodes spanning the system's domain, streaming the density: no system is
    built on that grid, so no second matrix is kept, and a streamed product
    has the bits of one through the kept matrix.  Each kernel_rmatvec over a stack
    of up to _SE_CHECK_ROWS observations' weighted likelihoods evaluates each
    kernel block once; each row keeps the bits of se_g_values of the system
    on that grid.  Keyed by the bits of y, as the constants memo is, and kept
    for the life of the system.  kernel_rmatvec is called on the calling
    thread, where benches/tracer.py records it.
    """
    maxima = s._cache.get("se_g_max")
    if maxima is None:
        d = DomainSpec(s.domain.lower, s.domain.upper, min(s.domain.grid_points, 801))
        steps = {}  # y.hex() -> the first step that observes it
        for k in range(1, s.n_steps + 1):
            steps.setdefault(s.y(k).hex(), k)
        keys, maxima = list(steps), {}
        for start in range(0, len(keys), _SE_CHECK_ROWS):
            chunk = keys[start:start + _SE_CHECK_ROWS]
            h = d.trapezoid_weights * np.stack([lik_values(s, steps[y], d.nodes) for y in chunk])
            g_max = np.max(kernel_rmatvec(s.transition_density(), d.nodes, d.nodes, h), axis=1)
            maxima.update(zip(chunk, g_max.tolist()))
        s._cache["se_g_max"] = maxima
    return maxima


def admissible_evidence(z: float) -> float:
    """Return the evidence z; raise NonFinite if it is not finite and
    ZeroEvidence if it is at or below EVIDENCE_FLOOR."""
    if not math.isfinite(z):
        raise NonFinite(f"evidence {z!r} is not finite")
    if z <= EVIDENCE_FLOOR:
        raise ZeroEvidence(f"evidence {z!r} at or below the admissibility floor {EVIDENCE_FLOOR}")
    return z

"""Shared construction helpers and independent oracles used across the suite."""

import dataclasses
import math
import os
import subprocess
import sys

import numpy as np

from bslcert.bayes import UpdateResult, conjugate_update_ip
from bslcert.domains import DomainSpec, Gaussian1D, GridDensity
from bslcert.harness import _mixture_density as mixture_density
from bslcert.models import (ConstantsReport, LikelihoodModel, SystemSpec, TransitionModel,
                            _lip_estimate, _report, g_values, system_constants)

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")


def run_python(args, blas_threads: int, timeout: float = 120.0) -> str:
    """Stdout of ``python args`` in a fresh process that imports bslcert from src
    and the test modules, with BLAS on ``blas_threads`` threads; fails on a non-zero exit."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, TESTS]), PYTHONHASHSEED="0")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads)
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def random_density(d: DomainSpec, rng, max_components: int = 3) -> GridDensity:
    n = int(rng.integers(1, max_components + 1))
    weights = rng.dirichlet(np.ones(n))
    span = d.upper - d.lower
    comps = []
    for i in range(n):
        mean = rng.uniform(d.lower + 0.25 * span, d.upper - 0.25 * span)
        var = rng.uniform(0.001, 0.01) * span ** 2
        comps.append((weights[i], Gaussian1D(mean, var)))
    return mixture_density(d, comps)


def two_temporary_pdf(x, mean, var):
    """The expression domains.gauss_pdf evaluates in one buffer; it must keep its bits."""
    sd = math.sqrt(var)
    z = (np.asarray(x, dtype=float) - mean) / sd
    return np.exp(-0.5 * z * z) / (sd * math.sqrt(2.0 * math.pi))


XS = np.linspace(-40.0, 40.0, 8001)
# (x, mean) pairs: Python floats, 0-d arrays, a grid, and a broadcast (n, 1) x (1, m) pair
PDF_INPUTS = {
    "float": (0.3, 1.7),
    "0-d": (np.array(0.3), np.array(1.7)),
    "1-D": (XS, 1.7),
    "broadcast": (XS[::40, None], XS[None, ::50]),
}


def on_grid(s: SystemSpec, d: DomainSpec) -> SystemSpec:
    """The system ``s`` on the grid ``d``: another system, with an empty cache of its own."""
    return dataclasses.replace(s, domain=d)


def grid_constant_estimates(s: SystemSpec, k: int, metric: str, n: int) -> ConstantsReport:
    """Brute-force grid estimates of the constants at n x-nodes (the oracle for system_constants).

    The PS Lipschitz estimate keeps the fixed 161-node grids that system_constants uses.
    """
    r = on_grid(s, DomainSpec(s.domain.lower, s.domain.upper, n))
    g = g_values(r, k)
    return _report(r, float(np.max(g)), _lip_estimate(r, k, g) if metric == "w1" else None)


def conjugate_update_se(prior: Gaussian1D, trans_a: float, trans_q: float,
                        a: float, noise_var: float, y: float) -> UpdateResult:
    """The Kalman step: Gaussian pushforward, then the conjugate update."""
    predicted = Gaussian1D(trans_a * prior.mean, trans_a ** 2 * prior.variance + trans_q)
    return conjugate_update_ip(predicted, a, noise_var, y)


def gaussian_hellinger(a: Gaussian1D, b: Gaussian1D) -> float:
    """Closed-form Hellinger distance between two Gaussians."""
    v1, v2 = a.variance, b.variance
    bc = math.sqrt(2.0 * math.sqrt(v1 * v2) / (v1 + v2)) * math.exp(
        -((a.mean - b.mean) ** 2) / (4.0 * (v1 + v2))
    )
    return math.sqrt(max(0.0, 1.0 - bc))


def gauss_tv_equal_var(m1: float, m2: float, var: float) -> float:
    """Closed-form TV distance for equal-variance Gaussians (crossing at midpoint)."""
    from scipy.special import ndtr

    return float(2.0 * ndtr(abs(m1 - m2) / (2.0 * math.sqrt(var))) - 1.0)


# Non-recursive transcription of the cumulative bound sums: the per-step
# coefficient is the product of the per-step table cells, written out directly
# (this is the oracle the ledgers are checked against).


def _cells(s: SystemSpec, metric: str, evidences, i: int) -> float:
    c = system_constants(s, i, metric)
    z = evidences[i - 1]
    if metric == "tv":
        return c.sup / z
    if metric == "hellinger":
        return 2.0 * math.sqrt(c.sup) / math.sqrt(z)
    if c.variant == "se":
        return 2.0 * c.d * c.lip / z
    return (2.0 * c.d * c.lip + c.sup) / z


def double_sum_bound(metric: str, s: SystemSpec, evidences, eps,
                     initial: float = 0.0, first_factor: float = None) -> float:
    """Direct double-sum evaluation of the cumulative bound at the final step."""
    k = len(eps)
    total = eps[k - 1]
    for j in range(1, k):
        coef = 1.0
        for i in range(j + 1, k + 1):
            coef *= _cells(s, metric, evidences, i)
        total += coef * eps[j - 1]
    if initial:
        coef = first_factor if first_factor is not None else _cells(s, metric, evidences, 1)
        for i in range(2, k + 1):
            coef *= _cells(s, metric, evidences, i)
        total += coef * initial
    return total


# Frozen error-reduction fixtures, one strictly-certifying instance per
# theorem tag.  The first four share one geometry: the priors agree on a
# component where the likelihood concentrates and differ far away from it.
# The dynamic-Wasserstein instance came out of a randomized search (the three
# conditions pinch near an equality manifold; inner-edge likelihood bumps
# anti-correlate the pair cost enough to open a strict margin).


def reduction_fixtures() -> dict:
    d = DomainSpec(-10.0, 10.0, 2001)
    shared_sigma2 = (1.0 / (1.2 * math.sqrt(2.0 * math.pi))) ** 2
    narrow = SystemSpec("ip", LikelihoodModel.linear_gaussian(1.0, 1e-4), [0.0], d)
    bumpy = SystemSpec("ip", LikelihoodModel.linear_gaussian(1.0, 0.0025), [0.0], d)

    p_mix = mixture_density(d, [(0.5, Gaussian1D(0.0, 0.01)), (0.5, Gaussian1D(-5.0, 0.04))])
    q_mix = mixture_density(d, [(0.5, Gaussian1D(0.0, 0.01)), (0.5, Gaussian1D(5.0, 0.04))])
    p_wide = mixture_density(d, [(0.5, Gaussian1D(0.0, shared_sigma2)), (0.5, Gaussian1D(-6.0, 0.04))])
    q_wide = mixture_density(d, [(0.5, Gaussian1D(0.0, shared_sigma2)), (0.5, Gaussian1D(6.0, 0.04))])

    dyn_domain = DomainSpec(0.0, 1.0, 401)
    c1, c2, width = 0.3777, 0.4880, 0.0480

    def dyn_lik(y, x, w=None):
        x = np.asarray(x, dtype=float)
        return (np.exp(-0.5 * (x - c1) ** 2 / width ** 2)
                + np.exp(-0.5 * (x - c2) ** 2 / width ** 2))

    dyn_system = SystemSpec("se", LikelihoodModel.custom(dyn_lik), [0.0], dyn_domain,
                            transition=TransitionModel.linear_gaussian(0.8811, 0.000345))
    dyn_p = mixture_density(dyn_domain, [(1.0, Gaussian1D(0.3203, 0.000553))])
    dyn_q = mixture_density(dyn_domain, [(1.0, Gaussian1D(0.6465, 0.000668))])

    return {
        "tv": (narrow, p_mix, q_mix),
        "h_er1": (bumpy, p_wide, q_wide),
        "h_er2": (narrow, p_mix, q_mix),
        "w1_ip": (narrow, p_mix, q_mix),
        "w1_dyn": (dyn_system, dyn_p, dyn_q),
    }

"""Experiments: posterior-pair reproduction, bound validation runs, reduction
fuzzing and the online-VI demo, each run by ``run_config`` from an
``ExperimentConfig``, which checks every setting; and CSV/SVG emission.

Every run is a pure function of (config, seed): trial seeds are spawned
deterministically and trials run serially in order, so outputs are
byte-identical across runs.  ``threads`` is accepted for compatibility and
has no effect.
"""

from __future__ import annotations

import json
import math
import os
import typing
from collections import Counter
from dataclasses import dataclass, field, is_dataclass
from typing import Optional, Sequence

import numpy as np

from . import bayes, bounds, metrics, onlinevi, reduction
from .domains import (DomainSpec, Gaussian1D, GridDensity, JointGrid2D,
                      ParticleSet, VARIANCE_FLOOR, discretize,
                      discretize_product, moments)
from .errors import BslError, IOFailure
from .models import LikelihoodModel, SystemSpec, TransitionModel
from .onlinevi import GaussianPair, VIBoundInputs

BOUND_SLACK = 1e-9
OBSERVATION_GAIN = 1.1
OBSERVATION_NOISE_VAR = 3.0
DEFAULT_DOMAIN = DomainSpec(-40.0, 40.0, 8001)
FILTER_DOMAINS = {"gauss_proj": DEFAULT_DOMAIN, "particle": DomainSpec(-25.0, 25.0, 2001)}

FUZZ_THEOREMS = ("tv", "hellinger", "w1-ip", "w1-dyn")
# The config keys each experiment reads, each with its default: the one owner
# of experiment settings.  Only the reproduce cases read a grid; the other
# experiments run on fixed grids.
_REPRODUCE_KEYS = {"steps": 20, "seed": 0, "trials": 1, "lower": DEFAULT_DOMAIN.lower,
                   "upper": DEFAULT_DOMAIN.upper, "grid_points": DEFAULT_DOMAIN.grid_points,
                   "out_dir": None, "threads": 1}
EXPERIMENTS = {
    "reproduce_case1": _REPRODUCE_KEYS,
    "reproduce_case2": _REPRODUCE_KEYS,
    "reproduce_case3": _REPRODUCE_KEYS,
    "bound_validate": {"steps": 10, "seed": 0, "filter_kind": "gauss_proj", "out_dir": None},
    "reduction_fuzz": {"trials": 1000, "seed": 0, "theorem": "tv"},
    "vi_demo": {"steps": 5, "seed": 0, "out_dir": None},
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment's settings, and their one check.  A key left unset (None)
    takes the experiment's default from EXPERIMENTS; setting a key that the
    experiment does not read, to a value not of its type (numpy integers count
    as ints) or out of its range is a ValueError."""

    experiment: str
    steps: int = None
    seed: int = None
    trials: int = None
    filter_kind: str = None  # bound_validate: "gauss_proj" | "particle"
    theorem: str = None      # reduction_fuzz: tv | hellinger | w1-ip | w1-dyn
    lower: Optional[float] = None
    upper: Optional[float] = None
    grid_points: Optional[int] = None
    out_dir: Optional[str] = None
    threads: int = None      # accepted and validated; has no effect

    def __post_init__(self):
        for key in CONFIG_FIELDS:
            if isinstance(getattr(self, key), np.integer):
                object.__setattr__(self, key, int(getattr(self, key)))
        wrong = _type_problems({k: getattr(self, k) for k in CONFIG_FIELDS
                                if getattr(self, k) is not None}, CONFIG_FIELDS)
        if wrong:
            raise ValueError("; ".join(wrong))
        reads = EXPERIMENTS.get(self.experiment)
        if reads is None:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        unread = [k for k in CONFIG_FIELDS
                  if k != "experiment" and k not in reads and getattr(self, k) is not None]
        if unread:
            raise ValueError(f"{self.experiment} takes no {', '.join(map(repr, unread))}")
        for key, default in reads.items():
            if getattr(self, key) is None:
                object.__setattr__(self, key, default)
        for key in ("steps", "trials", "threads"):
            if key in reads and getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1")
        if "filter_kind" in reads and self.filter_kind not in FILTER_DOMAINS:
            raise ValueError(f"unknown filter {self.filter_kind!r}")
        if "theorem" in reads and self.theorem not in FUZZ_THEOREMS:
            raise ValueError(f"unknown theorem tag {self.theorem!r}")
        if "grid_points" in reads:
            self.domain()  # a bad grid fails here, before a run makes its out_dir

    def domain(self) -> DomainSpec:
        """The grid of a reproduce experiment."""
        if self.grid_points is None:
            raise ValueError(f"{self.experiment} runs on fixed grids")
        return DomainSpec(self.lower, self.upper, self.grid_points)


CONFIG_FIELDS = typing.get_type_hints(ExperimentConfig)


def _conforms(value, hint) -> bool:
    """Whether a value has type ``hint``: a class, ``Optional[...]``,
    ``list[...]`` or a dataclass (an object holding exactly its fields)."""
    if typing.get_origin(hint) is typing.Union:
        return any(_conforms(value, h) for h in typing.get_args(hint))
    if typing.get_origin(hint) is list:
        return isinstance(value, list) and all(_conforms(v, *typing.get_args(hint)) for v in value)
    if is_dataclass(hint):
        hints = typing.get_type_hints(hint)
        return (isinstance(value, dict) and set(value) == set(hints)
                and all(_conforms(v, hints[k]) for k, v in value.items()))
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def read_config(path: str, fields: dict, required: Sequence[str] = ()) -> dict:
    """The JSON object in ``path``.  Raises ValueError unless every key is one
    of ``fields``, every ``required`` key is present, and each value has the
    type ``fields`` gives it (ints count as floats)."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("config file must hold a JSON object")
    problems = [f"unknown key {k!r}" for k in sorted(set(raw) - set(fields))]
    problems += [f"missing key {k!r}" for k in required if k not in raw]
    problems += _type_problems({k: v for k, v in raw.items() if k in fields}, fields)
    if problems:
        raise ValueError("; ".join(problems))
    return raw


def _type_problems(values: dict, fields: dict) -> list:
    """One message per value whose type is not the one ``fields`` gives its key."""
    return [f"key {k!r} must be {_type_name(fields[k])}, got {v!r}"
            for k, v in values.items() if not _conforms(v, fields[k])]


def _type_name(hint) -> str:
    return hint.__name__ if type(hint) is type else str(hint).replace("typing.", "")


@dataclass(frozen=True)
class Row:
    step: int
    metric: str
    distance: float
    bound: float
    evidence_p: float
    evidence_q: float
    series: str = ""  # distinguishes bound sets within one run; not a CSV column


@dataclass(frozen=True)
class RunRecord:
    experiment: str
    rows: tuple
    meta: dict = field(default_factory=dict)

    @property
    def violations(self) -> int:
        return sum(1 for r in self.rows if r.distance > r.bound + BOUND_SLACK)


@dataclass(frozen=True)
class FuzzRecord:
    theorem: str
    trials: int
    guaranteed: int
    violations: int
    worst_excess: float  # max of post - prior over guaranteed verdicts


def _trial_seeds(seed: int, trials: int) -> list[int]:
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(trials)]


# -- posterior-pair reproduction ----------------------------------------------


def _case_priors(case: int, rng) -> tuple[Gaussian1D, Gaussian1D]:
    if case == 1:
        return Gaussian1D(-10.0, 5.0), Gaussian1D(8.0, 5.0)
    if case == 2:
        return Gaussian1D(0.0, 1.0), Gaussian1D(2.0, 1.0)
    means = rng.uniform(-10.0, 10.0, size=2)
    variances = np.maximum(rng.uniform(0.0, 5.0, size=2), VARIANCE_FLOOR)
    return Gaussian1D(means[0], variances[0]), Gaussian1D(means[1], variances[1])


def _reproduce_trial(case: int, steps: int, trial_seed: int, domain: DomainSpec):
    rng = np.random.default_rng(trial_seed)
    mu, mu_prime = _case_priors(case, rng)
    x_star = mu.mean + mu.std * rng.standard_normal()
    y = OBSERVATION_GAIN * x_star + math.sqrt(OBSERVATION_NOISE_VAR) * rng.standard_normal()
    system = SystemSpec(
        "ip", LikelihoodModel.linear_gaussian(OBSERVATION_GAIN, OBSERVATION_NOISE_VAR),
        np.full(steps, y), domain)

    rows = []
    dist = metrics.tv_and_hellinger(mu, mu_prime, domain)
    for k in range(1, steps + 1):
        up_p = bayes.conjugate_update_ip(mu, OBSERVATION_GAIN, OBSERVATION_NOISE_VAR, y)
        up_q = bayes.conjugate_update_ip(mu_prime, OBSERVATION_GAIN, OBSERVATION_NOISE_VAR, y)
        z = max(up_p.evidence, up_q.evidence)
        bound = {m: bounds.pointwise_K(system, k, m, z) * dist[m] for m in dist}
        mu, mu_prime = up_p.posterior, up_q.posterior
        dist = metrics.tv_and_hellinger(mu, mu_prime, domain)
        for m in dist:
            rows.append(Row(k, m, dist[m], bound[m], up_p.evidence, up_q.evidence))
    return rows, {"y": y, "x_star": x_star}


def _reproduce(case: int, steps: int, seed: int, trials: int, domain: DomainSpec) -> RunRecord:
    """Run the paired conjugate chains and the symmetric per-step bounds; trials run serially."""
    results = [_reproduce_trial(case, steps, ts, domain) for ts in _trial_seeds(seed, trials)]
    rows = tuple(r for chunk, _ in results for r in chunk)
    meta = {
        "experiment": f"reproduce_case{case}", "steps": steps, "seed": seed,
        "trials": trials, "observation_gain": OBSERVATION_GAIN,
        "observation_noise_var": OBSERVATION_NOISE_VAR,
        "realized_y": [m["y"] for _, m in results],
        "realized_x_star": [m["x_star"] for _, m in results],
    }
    return RunRecord(f"reproduce_case{case}", rows, meta)


# -- bound validation ----------------------------------------------------------


BIMODAL_PRIOR = Gaussian1D(0.0, 4.0)
BIMODAL_OFFSET = 2.0  # the likelihood's bumps sit at x -/+ this
BIMODAL_BUMP_VAR = 0.25
SE_TRANS_A = 0.9
SE_TRANS_Q = 1.0
SE_OBS_VAR = 1.0
N_PARTICLES = 2000


def bimodal_ip_system(steps: int, rng, domain: DomainSpec) -> SystemSpec:
    """Inverse problem whose two-bump likelihood defeats a single Gaussian."""
    offset, bump_var = BIMODAL_OFFSET, BIMODAL_BUMP_VAR

    def evaluator(y, x, w=None):
        x = np.asarray(x, dtype=float)
        z1 = (np.asarray(y) - (x - offset))
        z2 = (np.asarray(y) - (x + offset))
        norm = 1.0 / math.sqrt(2.0 * math.pi * bump_var)
        return 0.5 * norm * (np.exp(-0.5 * z1 ** 2 / bump_var) + np.exp(-0.5 * z2 ** 2 / bump_var))

    x_star = BIMODAL_PRIOR.std * rng.standard_normal()
    signs = rng.choice([-offset, offset], size=steps)
    ys = x_star + signs + math.sqrt(bump_var) * rng.standard_normal(steps)
    return SystemSpec("ip", LikelihoodModel.custom(evaluator), ys, domain)


def _ar1_observations(steps: int, rng, a: float, q: float, obs_var: float) -> np.ndarray:
    """y_k = x_k + N(0, obs_var) noise along x_k = a x_{k-1} + N(0, q) noise from x_0 ~ N(0, 1);
    draws x_0, then each step's transition noise before its observation noise."""
    x = rng.standard_normal()
    ys = np.empty(steps)
    for k in range(steps):
        x = a * x + math.sqrt(q) * rng.standard_normal()
        ys[k] = x + math.sqrt(obs_var) * rng.standard_normal()
    return ys


def linear_se_system(steps: int, rng, domain: DomainSpec) -> SystemSpec:
    """Linear-Gaussian state estimation observed directly: the particle filter's system."""
    ys = _ar1_observations(steps, rng, SE_TRANS_A, SE_TRANS_Q, SE_OBS_VAR)
    return SystemSpec("se", LikelihoodModel.linear_gaussian(1.0, SE_OBS_VAR), ys, domain,
                      transition=TransitionModel.linear_gaussian(SE_TRANS_A, SE_TRANS_Q))


def _ledger_rows(metric: str, distances, eps, z1, z2, system) -> list[Row]:
    led1 = bounds.recursion_set1(metric, system, z1, eps)
    led2 = bounds.recursion_set2(metric, system, z2, eps)
    rows = []
    for i, (dist, b1, b2) in enumerate(zip(distances, led1.bounds(), led2.bounds())):
        rows.append(Row(i + 1, metric, dist, b1, z1[i], z2[i], series="set1"))
        rows.append(Row(i + 1, metric, dist, b2, z1[i], z2[i], series="set2"))
    return rows


def _bound_validate(filter_kind: str, steps: int, seed: int) -> RunRecord:
    """Exact and approximate sequences side by side on the filter's grid in
    FILTER_DOMAINS, with both bound sets: each step records the error against
    the exact update of the previous Q and d(P_k, Q_k)."""
    domain = FILTER_DOMAINS[filter_kind]
    rng = np.random.default_rng(seed)
    meta = {"experiment": "bound_validate", "filter": filter_kind, "steps": steps, "seed": seed}
    if filter_kind == "gauss_proj":
        system = bimodal_ip_system(steps, rng, domain)
        prior, names = BIMODAL_PRIOR, ("tv", "hellinger")
    else:
        system = linear_se_system(steps, rng, domain)
        step_seeds = [int(s) for s in rng.integers(0, 2 ** 62, size=steps)]
        prior, names = Gaussian1D(0.0, 1.0), ("w1",)
        # the initial cloud draw belongs to the first approximate step: Q_0 = P_0
        cloud = ParticleSet(prior.mean + prior.std * rng.standard_normal(N_PARTICLES),
                            np.full(N_PARTICLES, 1.0 / N_PARTICLES))
        meta["n_particles"] = N_PARTICLES
    p, q = discretize(prior, domain), prior
    z1, z2 = [], []
    eps = {m: [] for m in names}
    dist = {m: [] for m in names}
    for k in range(1, steps + 1):
        exact_p = bayes.grid_update(system, k, p)
        if filter_kind == "gauss_proj":
            q, exact_q, inc = bayes.gaussian_projection_step(system, k, q)
        else:
            exact_q = bayes.grid_update(system, k, q)
            q = cloud = bayes.particle_step(system, k, cloud, N_PARTICLES, step_seeds[k - 1])
            inc = {"w1": metrics.w1(exact_q.posterior, cloud, domain)}
        p = exact_p.posterior
        z1.append(exact_p.evidence)
        z2.append(exact_q.evidence)
        for m in names:
            eps[m].append(inc[m])
            dist[m].append(getattr(metrics, m)(p, q, domain))
    rows = [row for m in names for row in _ledger_rows(m, dist[m], eps[m], z1, z2, system)]
    meta["data"] = list(map(float, system.data))
    return RunRecord("bound_validate", tuple(rows), meta)


# -- reduction fuzzing ---------------------------------------------------------


def _mixture_density(d: DomainSpec, comps) -> GridDensity:
    vals = np.zeros(d.grid_points)
    for wgt, g in comps:
        vals += wgt * g.pdf(d.nodes)
    return GridDensity(d, vals / d.integrate(vals), normalized=True)


def _random_mixture(d: DomainSpec, rng) -> GridDensity:
    """One to three components; draws n, the weights, then each mean and variance."""
    n = int(rng.integers(1, 4))
    span = d.upper - d.lower
    return _mixture_density(d, [(wgt, Gaussian1D(rng.uniform(d.lower + 0.2 * span, d.upper - 0.2 * span),
                                                 rng.uniform(0.0005, 0.02) * span ** 2))
                                for wgt in rng.dirichlet(np.ones(n))])


def _bumps(centers, variances, heights) -> LikelihoodModel:
    """The likelihood sum of heights * exp(-(x - center)^2 / (2 variance)), whatever y is."""

    def evaluator(y, x, w=None):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for c, s2, h in zip(centers, variances, heights):
            out = out + h * np.exp(-0.5 * (x - c) ** 2 / s2)
        return out

    return LikelihoodModel.custom(evaluator)


def _fuzz_ip_instance(rng, d: DomainSpec):
    """(system, p, q) draw; a fraction of draws sits near certifiable geometry."""
    if rng.random() < 0.4:
        # priors sharing a component where a concentrated likelihood sits
        c = rng.uniform(-2.0, 2.0)
        share = rng.uniform(0.3, 0.7)
        shared = Gaussian1D(c, rng.uniform(0.005, 0.5))
        p = _mixture_density(d, [(share, shared),
                                 (1 - share, Gaussian1D(rng.uniform(-8, -4), rng.uniform(0.01, 0.2)))])
        q = _mixture_density(d, [(share, shared),
                                 (1 - share, Gaussian1D(rng.uniform(4, 8), rng.uniform(0.01, 0.2)))])
        a = rng.uniform(0.8, 1.2)
        s = rng.uniform(1e-4, 0.05)
        system = SystemSpec("ip", LikelihoodModel.linear_gaussian(a, s), [a * c], d)
        return system, p, q
    p, q = _random_mixture(d, rng), _random_mixture(d, rng)
    if rng.random() < 0.5:
        a = rng.uniform(0.5, 1.5)
        s = rng.uniform(0.02, 4.0)
        y = rng.uniform(-0.3, 0.3) * (d.upper - d.lower)
        return SystemSpec("ip", LikelihoodModel.linear_gaussian(a, s), [y], d), p, q
    centers = rng.uniform(d.lower + 1.0, d.upper - 1.0, size=2)
    variances = rng.uniform(0.01, 1.0, size=2) ** 2 + 1e-4
    heights = rng.uniform(0.1, 3.0, size=2)
    return SystemSpec("ip", _bumps(centers, variances, heights), [0.0], d), p, q


def _fuzz_se_instance(rng, d: DomainSpec):
    """(system, p, q) draw for the dynamic check: ordered narrow priors, two-bump h."""
    a = rng.uniform(0.6, 0.95)
    q_var = rng.uniform(2e-5, 5e-4)
    mp, mq = rng.uniform(0.2, 0.45), rng.uniform(0.55, 0.8)
    if rng.random() < 0.5:
        # bumps near the inner edges of the predicted modes
        centers = (a * mp + rng.uniform(0.0, 0.1), a * mq - rng.uniform(0.0, 0.1))
        width = rng.uniform(0.03, 0.06)
    else:
        centers = tuple(rng.uniform(0.1, 0.9, size=2))
        width = rng.uniform(0.02, 0.3)
    system = SystemSpec("se", _bumps(centers, (width ** 2,) * 2, (1.0, 1.0)), [0.0], d,
                        transition=TransitionModel.linear_gaussian(a, q_var))
    p = discretize(Gaussian1D(mp, rng.uniform(2e-4, 1e-3)), d)
    q = discretize(Gaussian1D(mq, rng.uniform(2e-4, 1e-3)), d)
    return system, p, q


def _reduction_fuzz(theorem: str, trials: int, seed: int, skips: Optional[Counter]) -> FuzzRecord:
    """Randomized soundness sweep: no GUARANTEED verdict may see the distance grow.

    A trial whose draw or check raises a ``BslError`` is skipped; ``skips``,
    when given, counts the skipped trials by exception class name.
    """
    rng = np.random.default_rng(seed)
    guaranteed = violations = 0
    worst = -math.inf
    # looked up per call, so wrappers installed on the reduction module see the checks
    check = {"tv": reduction.check_tv, "hellinger": reduction.check_hellinger}.get(
        theorem, reduction.check_w1)
    # one grid per sweep: a new DomainSpec would compute its nodes and weights again
    if theorem == "w1-dyn":
        draw, grid = _fuzz_se_instance, DomainSpec(0.0, 1.0, 201)
    else:
        draw, grid = _fuzz_ip_instance, DomainSpec(-10.0, 10.0, 401)
    for _ in range(trials):
        try:
            system, p, q = draw(rng, grid)
            v = check(system, 1, p, q)
        except BslError as exc:
            if skips is not None:
                skips[type(exc).__name__] += 1
            continue
        if v.guaranteed:
            guaranteed += 1
            excess = v.measured_post_dist - v.measured_prior_dist
            worst = max(worst, excess)
            if excess > 1e-8:
                violations += 1
    return FuzzRecord(theorem, trials, guaranteed, violations,
                      worst if guaranteed else float("nan"))


# -- online-VI demo ------------------------------------------------------------


PS_TRUE_PARAM = 0.7
PS_TRANS_VAR = 0.25
PS_OBS_VAR = 0.5
PS_X_DOMAIN = DomainSpec(-15.0, 15.0, 241)
PS_W_DOMAIN = DomainSpec(-0.25, 1.45, 241)
ELBO_SAMPLES = 4000


def ps_toy_system(steps: int, rng) -> SystemSpec:
    """1-D linear-Gaussian parameter-state toy: the transition coefficient w is unknown."""
    ys = _ar1_observations(steps, rng, PS_TRUE_PARAM, PS_TRANS_VAR, PS_OBS_VAR)
    return SystemSpec("ps", LikelihoodModel.linear_gaussian(1.0, PS_OBS_VAR), ys, PS_X_DOMAIN,
                      transition=TransitionModel.parametric_linear_gaussian(PS_TRANS_VAR),
                      w_domain=PS_W_DOMAIN)


def _joint_factor_moments(j: JointGrid2D) -> GaussianPair:
    mass = j.mass()
    mx, vx = moments(GridDensity(j.x_domain, (j.values @ j.w_domain.trapezoid_weights) / mass))
    mw, vw = moments(GridDensity(j.w_domain, (j.x_domain.trapezoid_weights @ j.values) / mass))
    return GaussianPair(Gaussian1D(mx, max(vx, 1e-12)), Gaussian1D(mw, max(vw, 1e-12)))


def _vi_demo(steps: int, seed: int) -> RunRecord:
    """Type-1 bound pipeline on the parameter-state toy with factorized Gaussians."""
    rng = np.random.default_rng(seed)
    system = ps_toy_system(steps, rng)
    xd, wd = system.domain, system.w_domain
    prior_pair = GaussianPair(Gaussian1D(0.0, 1.0), Gaussian1D(0.6, 0.01))
    p_joint = discretize_product(prior_pair.x, prior_pair.w, xd, wd)
    q_pair = prior_pair
    q_joint = discretize_product(q_pair.x, q_pair.w, xd, wd)
    elbo_seeds = [int(s) for s in rng.integers(0, 2 ** 62, size=steps)]

    evidences, floors, rows = [], [], []
    for k in range(1, steps + 1):
        exact_p, exact_q = bayes.grid_updates(system, k, [p_joint, q_joint])
        next_pair = _joint_factor_moments(exact_q.posterior)
        elbo = onlinevi.elbo_mc(next_pair, system, k, q_pair, ELBO_SAMPLES, elbo_seeds[k - 1])
        evidences.append(exact_q.evidence)
        floors.append(elbo)
        inputs = VIBoundInputs(r=1, det_gamma=PS_OBS_VAR,
                               elbo_floors=floors, evidences=evidences,
                               d=system.diameter())
        bound = onlinevi.vi_bound_type1(inputs, "tv")
        p_joint = exact_p.posterior
        q_pair = next_pair
        q_joint = discretize_product(q_pair.x, q_pair.w, xd, wd)
        distance = metrics.tv_joint(p_joint, q_joint)
        rows.append(Row(k, "tv", distance, bound, exact_p.evidence, exact_q.evidence))
    meta = {"experiment": "vi_demo", "steps": steps, "seed": seed,
            "elbo_samples": ELBO_SAMPLES, "true_param": PS_TRUE_PARAM,
            "data": list(map(float, system.data))}
    return RunRecord("vi_demo", tuple(rows), meta)


# -- emission ------------------------------------------------------------------


CSV_HEADER = "step,metric,distance,bound,evidence_p,evidence_q"


def _fmt(x: float) -> str:
    return repr(float(x))


def _svg_chart(rows: Sequence[Row], title: str) -> str:
    width, height, pad = 640, 420, 56.0
    floor, ceil = 1e-300, 1e300

    def clamp(v):
        return min(max(abs(v), floor), ceil)

    series = {"distance": [(r.step, clamp(r.distance)) for r in rows],
              "bound": [(r.step, clamp(r.bound)) for r in rows]}
    logs = [math.log10(v) for pts in series.values() for _, v in pts]
    steps = [s for s, _ in series["distance"]]
    lo, hi = min(logs), max(logs)
    if hi - lo < 1e-12:
        hi = lo + 1.0
    s_lo, s_hi = min(steps), max(steps)
    span = max(1, s_hi - s_lo)

    def sx(step):
        return pad + (step - s_lo) / span * (width - 2 * pad)

    def sy(val):
        return height - pad - (math.log10(val) - lo) / (hi - lo) * (height - 2 * pad)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad:.2f}" y1="{height - pad:.2f}" x2="{width - pad:.2f}" '
        f'y2="{height - pad:.2f}" stroke="black"/>',
        f'<line x1="{pad:.2f}" y1="{pad:.2f}" x2="{pad:.2f}" y2="{height - pad:.2f}" stroke="black"/>',
        f'<text x="{width / 2:.2f}" y="24" text-anchor="middle" font-size="14">{title}</text>',
        f'<text x="{width / 2:.2f}" y="{height - 16:.2f}" text-anchor="middle" font-size="12">step</text>',
        f'<text x="18" y="{height / 2:.2f}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 18 {height / 2:.2f})">log10 value</text>',
    ]
    styles = {"distance": ('stroke="crimson"', ""), "bound": ('stroke="steelblue"', ' stroke-dasharray="6 3"')}
    for name, pts in series.items():
        coords = " ".join(f"{sx(s):.2f},{sy(v):.2f}" for s, v in pts)
        color, dash = styles[name]
        parts.append(f'<polyline fill="none" {color}{dash} stroke-width="1.5" points="{coords}"/>')
    parts.append(f'<text x="{width - pad:.2f}" y="{pad - 14:.2f}" text-anchor="end" font-size="11" '
                 f'fill="crimson">distance</text>')
    parts.append(f'<text x="{width - pad:.2f}" y="{pad:.2f}" text-anchor="end" font-size="11" '
                 f'fill="steelblue">bound (dashed)</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _write_text(out_dir: str, name: str, body: str) -> str:
    """Write ``body`` to ``out_dir/name`` with LF line endings; returns the path."""
    path = os.path.join(out_dir, name)
    try:
        os.makedirs(out_dir, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(body)
    except OSError as exc:
        raise IOFailure(f"failed to write {path!r}: {exc}") from exc
    return path


def emit(record: RunRecord, fmt: str, out_dir: str) -> list[str]:
    """Write one CSV (or SVG) per metric/bound-set group; returns the paths."""
    if not record.rows:
        raise ValueError("cannot emit an empty record")
    if fmt not in ("csv", "svg"):
        raise ValueError(f"unknown format {fmt!r}")
    groups: dict[tuple[str, str], list[Row]] = {}
    for r in record.rows:
        groups.setdefault((r.metric, r.series), []).append(r)
    paths = []
    for (metric, series) in sorted(groups):
        stem = metric if not series else f"{metric}_{series}"
        rows = groups[(metric, series)]
        if fmt == "csv":
            lines = [CSV_HEADER]
            lines += [f"{r.step},{r.metric},{_fmt(r.distance)},{_fmt(r.bound)},"
                      f"{_fmt(r.evidence_p)},{_fmt(r.evidence_q)}" for r in rows]
            body = "\n".join(lines) + "\n"
        else:
            body = _svg_chart(rows, f"{record.experiment}: {stem}")
        paths.append(_write_text(out_dir, f"{stem}.{fmt}", body))
    return paths


def write_meta(record: RunRecord, out_dir: str) -> str:
    payload = dict(record.meta, violations=record.violations)
    return _write_text(out_dir, "run_meta.json",
                       json.dumps(payload, sort_keys=True, indent=2) + "\n")


def run_config(config: ExperimentConfig, fuzz_skips: Optional[Counter] = None):
    """Run the experiment a config names, the library's one way to run an
    experiment; returns a RunRecord, or a FuzzRecord for a reduction fuzz.

    ``fuzz_skips`` receives a reduction fuzz's skipped trials by exception class.
    """
    if config.experiment.startswith("reproduce_case"):
        case = int(config.experiment[-1])
        return _reproduce(case, config.steps, config.seed, config.trials, config.domain())
    if config.experiment == "bound_validate":
        return _bound_validate(config.filter_kind, config.steps, config.seed)
    if config.experiment == "reduction_fuzz":
        return _reduction_fuzz(config.theorem, config.trials, config.seed, fuzz_skips)
    return _vi_demo(config.steps, config.seed)

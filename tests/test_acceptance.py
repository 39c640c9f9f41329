"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Tolerances are pinned here and nowhere else.
"""

import math
import os
import time
from pathlib import Path

import numpy as np

from bslcert import bayes, metrics
from bslcert.bounds import literature_ratio, pointwise_K, table_constant
from bslcert.domains import (DomainSpec, Gaussian1D, GridDensity, ParticleSet,
                             discretize)
from bslcert.harness import (bound_validate, emit, reduction_fuzz, reproduce,
                             vi_demo)
from bslcert.models import LikelihoodModel, SystemSpec, system_constants
from bslcert.onlinevi import BetaInputs, VIBoundInputs, beta_term, elbo_mc_stats, vi_bound_type1
from bslcert.reduction import check_hellinger, check_tv, check_w1
from helpers import random_density, reduction_fixtures

D40 = DomainSpec(-40.0, 40.0, 8001)
SLACK = 1e-9


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_reproduction_dominance():
    start = time.monotonic()
    violations = 0
    rows = 0
    for case, trials in ((1, 1), (2, 1), (3, 200)):
        rec = reproduce(case, 20, seed=2024 + case, trials=trials, threads=4)
        violations += rec.violations
        rows += len(rec.rows)
    elapsed = time.monotonic() - start
    _report(1, violations == 0 and elapsed < 30.0,
            f"cases 1-3 ({rows} rows): {violations} violations, {elapsed:.1f}s (< 30s)")


def test_criterion_2_literature_ratio_exact():
    rng = np.random.default_rng(0)
    pairs = [(0.2, 0.1), (1.0, 1.0), (1e-280, 3.0), (1e100, 1e-100)]
    pairs += [tuple(rng.uniform(1e-6, 1e6, size=2)) for _ in range(500)]
    ok = all(literature_ratio(za, zb)[2] == 0.5 for za, zb in pairs)
    _report(2, ok, f"{len(pairs)} evidence pairs, ratio exactly 0.5 with no tolerance")


def test_criterion_3_one_step_lipschitz_suite():
    rng = np.random.default_rng(31)
    s = SystemSpec("ip", LikelihoodModel.linear_gaussian(1.1, 3.0), [0.0], D40)
    checked = {"tv": 0, "hellinger": 0, "w1": 0}
    w = D40.trapezoid_weights
    nodes = D40.nodes
    h = s.likelihood.evaluator(0.0, nodes)
    c_w1 = system_constants(s, 1, "w1")

    def atomic(masses):
        return ParticleSet(nodes, masses / masses.sum())

    for _ in range(500):
        a = Gaussian1D(rng.uniform(-10, 10), rng.uniform(0.01, 5.0))
        b = Gaussian1D(rng.uniform(-10, 10), rng.uniform(0.01, 5.0))
        pa, pb = bayes.grid_update(s, 1, a), bayes.grid_update(s, 1, b)
        for metric, fn in (("tv", metrics.tv), ("hellinger", metrics.hellinger)):
            d_prior = fn(a, b, D40).value
            d_post = fn(pa.posterior, pb.posterior, D40).value
            for z in (pa.evidence, pb.evidence, max(pa.evidence, pb.evidence)):
                assert d_post <= pointwise_K(s, 1, metric, z) * d_prior + SLACK
            checked[metric] += 1
        # Wasserstein on the node-atomic discretization (exact discrete system)
        ma = w * discretize(a, D40).values
        mb = w * discretize(b, D40).values
        za = float((ma / ma.sum()) @ h)
        zb = float((mb / mb.sum()) @ h)
        d_prior = metrics.w1(atomic(ma), atomic(mb), D40).value
        d_post = metrics.w1(atomic(ma * h), atomic(mb * h), D40).value
        for z in (za, zb, max(za, zb)):
            assert d_post <= table_constant(c_w1, "w1", z) * d_prior + SLACK
        checked["w1"] += 1
    _report(3, all(v == 500 for v in checked.values()),
            "500 admissible Gaussian pairs per metric, both anchors + max form, slack 1e-9")


def test_criterion_4_sequence_bound_suite():
    start = time.monotonic()
    violations = 0
    for seed in range(20):
        violations += bound_validate("gauss_proj", 10, seed).violations
        violations += bound_validate("particle", 10, seed, n_particles=2000).violations
    elapsed = time.monotonic() - start
    _report(4, violations == 0 and elapsed < 120.0,
            f"projection(TV,H) + particle(W1), 10 steps x 20 seeds, "
            f"{violations} violations, {elapsed:.1f}s (< 120s)")


def test_criterion_5_oracle_equivalence():
    s = SystemSpec("ip", LikelihoodModel.linear_gaussian(1.1, 3.0), np.full(20, 1.0), D40)
    gauss = Gaussian1D(0.0, 1.0)
    grid = discretize(gauss, D40)
    worst_mean, worst_var, worst_mass = 0.0, 0.0, 0.0
    from bslcert.domains import moments

    for k in range(1, 21):
        gauss = bayes.conjugate_update_ip(gauss, 1.1, 3.0, 1.0).posterior
        grid = bayes.grid_update(s, k, grid).posterior
        worst_mass = max(worst_mass, abs(grid.mass() - 1.0))
        mean, var = moments(grid)
        worst_mean = max(worst_mean, abs(mean - gauss.mean))
        worst_var = max(worst_var, abs(var - gauss.variance) / gauss.variance)
    ok = worst_mean < 1e-6 and worst_var < 1e-6 and worst_mass < 1e-8
    _report(5, ok, f"20 chained steps: mean gap {worst_mean:.2e} (<1e-6 abs), "
                   f"variance gap {worst_var:.2e} (<1e-6 rel), mass gap {worst_mass:.2e} (<1e-8)")


def test_criterion_6_metric_suite():
    rng = np.random.default_rng(67)
    d = DomainSpec(-10.0, 10.0, 501)
    # axioms on 300 random triples for all four distances
    fns = {
        "tv": lambda a, b: metrics.tv(a, b, d).value,
        "hellinger": lambda a, b: metrics.hellinger(a, b, d).value,
        "w1": lambda a, b: metrics.w1(a, b, d).value,
        "scaled_hellinger": metrics.scaled_hellinger,
    }
    for _ in range(300):
        g1, g2, g3 = (random_density(d, rng) for _ in range(3))
        for fn in fns.values():
            assert abs(fn(g1, g2) - fn(g2, g1)) <= 1e-12
            assert fn(g1, g3) <= fn(g1, g2) + fn(g2, g3) + 1e-9
            assert fn(g1, g2) >= 0.0

    # sandwich + Wasserstein-from-TV on 500 Gaussian pairs
    big = DomainSpec(-40.0, 40.0, 4001)
    for _ in range(500):
        a = Gaussian1D(rng.uniform(-5, 5), rng.uniform(0.01, 9.0))
        b = Gaussian1D(rng.uniform(-5, 5), rng.uniform(0.01, 9.0))
        d_tv = metrics.tv(a, b, big).value
        d_h = metrics.hellinger(a, b, big).value
        assert d_h ** 2 <= d_tv + SLACK
        assert d_tv <= math.sqrt(2.0) * d_h + SLACK
        assert metrics.w1(a, b, big).value <= big.diameter() * d_tv + SLACK

    # scaled-measure mass-gap inequalities on 200 pairs, plus the tight scale-4 case
    for _ in range(200):
        p, q = random_density(d, rng), random_density(d, rng)
        cp, cq = rng.uniform(0.1, 5.0, size=2)
        sp = GridDensity(d, cp * p.values, normalized=False)
        sq = GridDensity(d, cq * q.values, normalized=False)
        dist = metrics.scaled_hellinger(sp, sq)
        assert abs(math.sqrt(sp.mass()) - math.sqrt(sq.mass())) <= math.sqrt(2.0) * dist + SLACK
        assert metrics.hellinger(p, q, d).value <= 2.0 / math.sqrt(sp.mass()) * dist + SLACK
    base = discretize(Gaussian1D(0.0, 1.0), d).values
    tight = metrics.scaled_hellinger(GridDensity(d, 4.0 * base, normalized=False),
                                     GridDensity(d, base, normalized=False))
    assert abs(math.sqrt(2.0) * tight - 1.0) <= SLACK
    _report(6, True, "axioms on 300 triples (4 distances), sandwich + diameter bound on 500 "
                     "pairs, mass-gap inequalities on 200 scaled pairs incl. the exact k=4,k'=1 case")


def test_criterion_7_reduction_soundness():
    total_guaranteed = 0
    # the hellinger lane checks both certificate branches per trial, so it is
    # run twice over to give each branch tag its own thousand trials
    for theorem, trials in (("tv", 1000), ("hellinger", 2000),
                            ("w1-ip", 1000), ("w1-dyn", 1000)):
        rec = reduction_fuzz(theorem, trials, seed=97)
        assert rec.violations == 0, f"{theorem}: unsound verdicts"
        total_guaranteed += rec.guaranteed
    # one frozen, strictly certifying fixture per theorem tag
    checks = {"tv": lambda s, p, q: check_tv(s, 1, p, q),
              "h_er1": lambda s, p, q: check_hellinger(s, 1, p, q),
              "h_er2": lambda s, p, q: check_hellinger(s, 1, p, q),
              "w1_ip": lambda s, p, q: check_w1(s, 1, p, q, "ip"),
              "w1_dyn": lambda s, p, q: check_w1(s, 1, p, q, "dyn")}
    for tag, (system, p, q) in reduction_fixtures().items():
        v = checks[tag](system, p, q)
        assert v.guaranteed and v.measured_prior_dist > 0.05
        assert v.measured_post_dist <= v.measured_prior_dist + 1e-8
    _report(7, True, f"5000 fuzz trials ({total_guaranteed} certified, 0 unsound) "
                     "+ 5 frozen GUARANTEED fixtures")


def test_criterion_8_online_vi_suite():
    # (a) the ELBO never exceeds the log evidence beyond Monte Carlo noise
    s = SystemSpec("ip", LikelihoodModel.linear_gaussian(1.1, 3.0), [1.0], D40)
    up = bayes.conjugate_update_ip(Gaussian1D(0.0, 1.0), 1.1, 3.0, 1.0)
    log_z = math.log(up.evidence)
    rng = np.random.default_rng(80)
    for seed in range(100):
        q = Gaussian1D(up.posterior.mean + rng.uniform(0.3, 2.0) * rng.choice([-1.0, 1.0]),
                       up.posterior.variance * rng.uniform(0.4, 3.0))
        est = elbo_mc_stats(q, s, 1, Gaussian1D(0.0, 1.0), 1500, seed)
        assert est.value <= log_z + 3.0 * est.stderr

    # (b) type-1 dominance on the parameter-state toy
    violations = sum(vi_demo(5, seed).violations for seed in range(10))
    assert violations == 0

    # (c) zero parameter error kills the augmentation exactly
    assert all(beta_term(BetaInputs(0.7, 0.0, 0.3), m) == 0.0
               for m in ("tv", "hellinger", "w1"))

    # (d) the Wasserstein row is the diameter times the TV row
    for _ in range(50):
        k = int(rng.integers(1, 6))
        inputs = VIBoundInputs(r=1, det_gamma=0.5,
                               elbo_floors=[math.log(1 / math.sqrt(math.pi)) - rng.uniform(0.1, 2.0)
                                            for _ in range(k)],
                               evidences=rng.uniform(0.05, 0.5, size=k),
                               d=float(rng.uniform(1.0, 50.0)))
        tv_val = vi_bound_type1(inputs, "tv")
        assert abs(vi_bound_type1(inputs, "w1") - inputs.d * tv_val) <= 1e-12 * max(1.0, tv_val)
    _report(8, True, "ELBO cap (100 seeds), type-1 dominance (5 steps x 10 seeds, TV, "
                     "0 violations), beta(0)=0 exact, W1 row = D x TV row")


def test_criterion_9_determinism(tmp_path):
    def run(threads, tag):
        rec = reproduce(3, 10, seed=55, trials=8, threads=threads)
        out = str(tmp_path / tag)
        return {os.path.basename(p): Path(p).read_bytes() for p in emit(rec, "csv", out)}

    first = run(1, "a")
    second = run(1, "b")
    threaded = run(4, "c")
    ok = first == second == threaded
    _report(9, ok, "byte-identical CSVs across reruns and 1 vs 4 worker threads")

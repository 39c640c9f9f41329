import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from bslcert.domains import DomainSpec, Gaussian1D, discretize
from bslcert.errors import UnsupportedRepresentation
from bslcert.harness import reduction_fuzz
from bslcert.models import LikelihoodModel, SystemSpec, TransitionModel, se_g_values
from bslcert.reduction import (_abs_gap_matvec, check_hellinger, check_tv, check_w1,
                               g_function, hellinger_branch, hellinger_condition_values,
                               tv_condition_values, tv_conditions_hold)
from helpers import mixture_density, random_density, reduction_fixtures

D = DomainSpec(-10.0, 10.0, 2001)
IP = SystemSpec("ip", LikelihoodModel.linear_gaussian(1.0, 1.0), [0.0], D)


class TestHandFixtures:
    """Three explicit nodes with unit weights, summed by hand."""

    w = [1.0, 1.0, 1.0]
    g = [2.0, 1.0, 0.5]
    p = [0.5, 0.3, 0.2]
    q = [0.2, 0.3, 0.5]

    def test_tv_condition_integrals(self):
        vals = tv_condition_values(self.w, self.g, self.p, self.q)
        assert abs(vals["z_p"] - (2 * 0.5 + 1 * 0.3 + 0.5 * 0.2)) < 1e-12
        assert abs(vals["z_q"] - (2 * 0.2 + 1 * 0.3 + 0.5 * 0.5)) < 1e-12
        # z_p >= z_q, so the restricted set is {p >= q} = first two nodes (tie in)
        assert abs(vals["restricted_g_absdiff"] - 2 * 0.3) < 1e-12
        assert abs(vals["restricted_g_mass"] - 3.0) < 1e-12
        assert abs(vals["restricted_absdiff"] - 0.3) < 1e-12
        assert not tv_conditions_hold(vals)  # 3.0 > max evidence 1.4

    def test_hellinger_condition_integrals(self):
        vals = hellinger_condition_values(self.w, self.g, self.p, self.q)
        exp_root_pq = (2 * math.sqrt(0.5 * 0.2) + 1 * math.sqrt(0.3 * 0.3)
                       + 0.5 * math.sqrt(0.2 * 0.5))
        assert abs(vals["g_root_pq"] - exp_root_pq) < 1e-12
        exp_gap = sum(gg * (math.sqrt(pp) - math.sqrt(qq)) ** 2
                      for gg, pp, qq in zip(self.g, self.p, self.q))
        assert abs(vals["g_root_gap"] - exp_gap) < 1e-12
        assert abs(vals["g_mass"] - 3.5) < 1e-12

    def test_constant_g_reduces_to_reference_mass(self):
        # with g = c every condition collapses to comparing the reference-measure
        # mass against 1: both branches certify iff that mass is exactly 1
        for total, expect in ((3.0, None), (1.0, "er1")):
            w = np.full(3, total / 3.0)
            dens_p = np.asarray(self.p) / (total / 3.0)  # keep unit probability mass
            dens_q = np.asarray(self.q) / (total / 3.0)
            vals = hellinger_condition_values(w, [2.0, 2.0, 2.0], dens_p, dens_q)
            assert abs(vals["g_root_pq"] - 2.0 * vals["root_pq_mass"]) < 1e-12
            assert abs(vals["g_root_gap"] - 2.0 * vals["root_gap_mass"]) < 1e-12
            assert abs(vals["g_mass"] - 2.0 * total) < 1e-12
            assert abs(vals["geo_mean_prior_g"] - 2.0) < 1e-12
            assert hellinger_branch(vals) == expect


class TestTrivialPairs:
    def test_identical_priors_tv(self):
        p = discretize(Gaussian1D(0.0, 1.0), D)
        v = check_tv(IP, 1, p, p)
        assert v.measured_prior_dist == 0.0
        assert v.measured_post_dist <= 1e-12

    def test_identical_priors_hellinger(self):
        p = discretize(Gaussian1D(0.5, 0.5), D)
        v = check_hellinger(IP, 1, p, p)
        assert v.condition_values["g_root_gap"] == 0.0
        assert v.measured_post_dist <= 1e-12

    def test_identical_priors_w1(self):
        p = discretize(Gaussian1D(0.0, 1.0), D)
        v = check_w1(IP, 1, p, p, "ip")
        assert v.condition_values["sup_dual_prior"] <= 1e-12
        assert v.measured_post_dist <= v.measured_prior_dist + 1e-8


class TestFrozenGuaranteedFixtures:
    @pytest.mark.parametrize("tag", ["tv", "h_er1", "h_er2", "w1_ip", "w1_dyn"])
    def test_certificate_is_strict_and_sound(self, tag):
        system, p, q = reduction_fixtures()[tag]
        if tag == "tv":
            v = check_tv(system, 1, p, q)
        elif tag in ("h_er1", "h_er2"):
            v = check_hellinger(system, 1, p, q)
            assert v.theorem == ("h_er1" if tag == "h_er1" else v.theorem)
        elif tag == "w1_ip":
            v = check_w1(system, 1, p, q, "ip")
        else:
            v = check_w1(system, 1, p, q, "dyn")
        assert v.guaranteed
        assert v.measured_prior_dist > 0.05  # non-vacuous certificate
        assert v.measured_post_dist <= v.measured_prior_dist + 1e-8

    def test_h_er2_fixture_certifies_second_branch(self):
        system, p, q = reduction_fixtures()["h_er2"]
        vals = hellinger_condition_values(system.domain.trapezoid_weights,
                                          g_function(system, 1).values, p.values, q.values)
        assert hellinger_branch(vals) == "er2"

    def test_h_er1_fixture_certifies_first_branch(self):
        system, p, q = reduction_fixtures()["h_er1"]
        vals = hellinger_condition_values(system.domain.trapezoid_weights,
                                          g_function(system, 1).values, p.values, q.values)
        assert hellinger_branch(vals) == "er1"


class TestSwapSymmetry:
    def test_relabeling_flips_branch_not_verdict(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            p, q = random_density(D, rng), random_density(D, rng)
            a = check_tv(IP, 1, p, q)
            b = check_tv(IP, 1, q, p)
            assert a.guaranteed == b.guaranteed
            assert abs(a.condition_values["restricted_g_mass"]
                       - b.condition_values["restricted_g_mass"]) < 1e-10
            assert abs(a.condition_values["restricted_absdiff"]
                       - b.condition_values["restricted_absdiff"]) < 1e-10
            assert abs(a.measured_post_dist - b.measured_post_dist) < 1e-12


class TestGFunction:
    def test_ip_is_the_likelihood(self):
        g = g_function(IP, 1)
        assert g.variant == "ip"
        assert np.array_equal(g.values, IP.likelihood.evaluator(0.0, D.nodes))

    def test_se_matches_constants_integrand(self):
        dse = DomainSpec(-10.0, 10.0, 501)
        s = SystemSpec("se", LikelihoodModel.linear_gaussian(1.0, 2.0), [0.3], dse,
                       transition=TransitionModel.linear_gaussian(0.8, 0.5))
        g = g_function(s, 1).values
        assert np.max(np.abs(g - se_g_values(s, 1))) < 1e-12
        h = s.likelihood.evaluator(0.3, dse.nodes)
        for idx in (0, 123, 250, 500):
            direct = dse.integrate(h * s.transition.kernel(dse.nodes, dse.nodes[idx]))
            assert abs(g[idx] - direct) < 1e-12

    def test_ps_shape(self):
        xd = DomainSpec(-15.0, 15.0, 121)
        wd = DomainSpec(-0.25, 1.45, 111)
        s = SystemSpec("ps", LikelihoodModel.linear_gaussian(1.0, 0.5), [0.0], xd,
                       transition=TransitionModel.parametric_linear_gaussian(0.25),
                       w_domain=wd)
        g = g_function(s, 1)
        assert g.values.shape == (121, 111)
        assert np.all(g.values >= 0.0) and np.all(np.isfinite(g.values))


class TestGapProduct:
    """The O(n) prefix-sum product against the dense |x_i - x_j| matrix."""

    @pytest.mark.parametrize("n", [201, 401, 2001])
    @pytest.mark.parametrize("signed", [True, False], ids=["zero-sum", "nonnegative"])
    def test_matches_dense_matrix(self, n, signed):
        d = DomainSpec(-10.0, 10.0, n)
        xs = d.nodes
        rng = np.random.default_rng(n)
        w = d.trapezoid_weights
        p = discretize(Gaussian1D(rng.uniform(-2, 2), rng.uniform(0.2, 0.8)), d).values
        q = discretize(Gaussian1D(rng.uniform(-2, 2), rng.uniform(0.2, 0.8)), d).values
        v = w * (p - q) if signed else w * p * rng.uniform(0.0, 2.0, n)
        dense = np.abs(xs[:, None] - xs[None, :]) @ v
        tol = 1e-12 * d.diameter() * np.abs(v).sum()
        assert np.max(np.abs(_abs_gap_matvec(xs, v) - dense)) <= tol

    def test_w1_check_builds_no_square_matrix(self):
        d = DomainSpec(-10.0, 10.0, 8001)
        s = SystemSpec("ip", LikelihoodModel.linear_gaussian(1.0, 1.0), [0.5], d)
        p = discretize(Gaussian1D(-1.0, 0.5), d)
        q = discretize(Gaussian1D(1.0, 0.8), d)
        check_w1(s, 1, p, q, "ip")  # fills the lazy grid properties
        tracemalloc.start()
        try:
            check_w1(s, 1, p, q, "ip")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20  # 512 rows of the 8001-node gap matrix alone take 31 MB


class TestFuzzVerdictsPinned:
    """Seed-0 FuzzRecords; the W1 sweeps as computed with the dense gap matrix."""

    @pytest.mark.parametrize("expected", [
        ("tv", 250, 6, 0, -0.30313284538564234),
        ("hellinger", 250, 33, 0, -0.5505750134047515),
        ("w1-ip", 250, 209, 0, -0.3443602928386138),
        ("w1-dyn", 250, 3, 0, -0.08610432240100324),
    ], ids=lambda e: e[0])
    def test_seed0(self, expected):
        # repr, as the benchmark digests it: every bit of worst_excess counts
        assert repr(dataclasses.astuple(reduction_fuzz(expected[0], 250, 0))) == repr(expected)


class TestVariantGuards:
    def test_dyn_requires_se(self):
        p = discretize(Gaussian1D(0.0, 1.0), D)
        with pytest.raises(UnsupportedRepresentation):
            check_w1(IP, 1, p, p, "dyn")

    def test_unknown_variant(self):
        p = discretize(Gaussian1D(0.0, 1.0), D)
        with pytest.raises(ValueError):
            check_w1(IP, 1, p, p, "static")


class TestSoundnessSample:
    """Small randomized sweep here; the full 1000-per-tag sweep is acceptance."""

    def test_no_unsound_tv_or_hellinger_verdicts(self):
        rng = np.random.default_rng(23)
        d = DomainSpec(-10.0, 10.0, 401)
        hits = 0
        for _ in range(150):
            center = rng.uniform(-2, 2)
            share = rng.uniform(0.3, 0.7)
            shared = Gaussian1D(center, rng.uniform(0.005, 0.5))
            p = mixture_density(d, [(share, shared),
                                    (1 - share, Gaussian1D(rng.uniform(-8, -4), 0.05))])
            q = mixture_density(d, [(share, shared),
                                    (1 - share, Gaussian1D(rng.uniform(4, 8), 0.05))])
            s = SystemSpec("ip", LikelihoodModel.linear_gaussian(1.0, rng.uniform(1e-4, 0.05)),
                           [center], d)
            for v in (check_tv(s, 1, p, q), check_hellinger(s, 1, p, q)):
                if v.guaranteed:
                    hits += 1
                    assert v.measured_post_dist <= v.measured_prior_dist + 1e-8
        assert hits > 0

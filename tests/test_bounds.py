import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bslcert import bayes, bounds, harness, metrics
from bslcert.bounds import (BoundLedger, LedgerRow, inaccurate_prior_bound,
                            literature_ratio, pointwise_K, recursion_set1,
                            recursion_set2, table_constant, tv_to_w1_bound, two_output_bound)
from bslcert.domains import (DomainSpec, Gaussian1D, GridDensity, ParticleSet,
                             discretize)
from bslcert.errors import MissingConstant, NonFinite, ZeroEvidence
from bslcert.metrics import hellinger, scaled_hellinger, tv
from bslcert.models import LikelihoodModel, SystemSpec, TransitionModel, system_constants
from helpers import double_sum_bound

D40 = DomainSpec(-40.0, 40.0, 8001)
C_H = 1.0 / math.sqrt(2 * math.pi * 3.0)


def ip_system(n_steps=1, y=1.0, domain=D40):
    return SystemSpec("ip", LikelihoodModel.linear_gaussian(1.1, 3.0),
                      np.full(n_steps, y), domain)


class TestPointwiseK:
    def test_tv_cell(self):
        k = pointwise_K(ip_system(), 1, "tv", 0.19443)
        assert abs(k - 0.23033 / 0.19443) < 1e-4

    def test_hellinger_cell_is_two_at_unit_ratio(self):
        k = pointwise_K(ip_system(), 1, "hellinger", C_H)
        assert abs(k - 2.0) < 1e-12

    def test_w1_cell(self):
        k = pointwise_K(ip_system(), 1, "w1", 0.19443)
        h_lip = 1.1 * math.exp(-0.5) / (3.0 * math.sqrt(2 * math.pi))
        assert abs(k - (2 * 80.0 * h_lip + C_H) / 0.19443) < 1e-12
        assert abs(k - 74.19) < 0.01

    def test_zero_evidence_rejected(self):
        with pytest.raises(ZeroEvidence):
            pointwise_K(ip_system(), 1, "tv", 0.0)

    def test_missing_w1_constant(self):
        c = system_constants(ip_system(), 1, "tv")  # no Lipschitz data requested
        with pytest.raises(MissingConstant):
            table_constant(c, "w1", 0.2)


class TestStepBoundSymmetric:
    """reproduce's symmetric one-step bound: the factor at the larger evidence times the prior distance."""

    def test_case2_step1(self):
        s = ip_system(y=0.0)
        z_a = bayes.conjugate_update_ip(Gaussian1D(0, 1), 1.1, 3.0, 0.0).evidence
        z_b = bayes.conjugate_update_ip(Gaussian1D(2, 1), 1.1, 3.0, 0.0).evidence
        d_tv = tv(Gaussian1D(0, 1), Gaussian1D(2, 1), D40)
        d_h = hellinger(Gaussian1D(0, 1), Gaussian1D(2, 1), D40)
        b_tv = pointwise_K(s, 1, "tv", max(z_a, z_b)) * d_tv
        b_h = pointwise_K(s, 1, "hellinger", max(z_a, z_b)) * d_h
        assert abs(b_tv - 0.808725381256378) < 1e-9
        assert abs(b_h - 1.3654495369700108) < 1e-9


# evidences every evidence check rejects, with the class models.admissible_evidence raises
BAD_EVIDENCES = [(math.nan, NonFinite), (math.inf, NonFinite), (-math.inf, NonFinite),
                 (0.0, ZeroEvidence), (1e-301, ZeroEvidence)]


class TestEvidenceChecks:
    @pytest.mark.parametrize("metric", ["tv", "hellinger", "w1"])
    @pytest.mark.parametrize("z,error", BAD_EVIDENCES)
    def test_table_constant(self, z, error, metric):
        c = system_constants(ip_system(), 1, "w1")
        with pytest.raises(error):
            table_constant(c, metric, z)

    def test_admissible_evidences_keep_their_bits(self):
        c = system_constants(ip_system(), 1, "tv")
        for z in (1e-300 * (1 + 2 ** -52), 0.19443, 7.5):
            assert table_constant(c, "tv", z) == c.sup / z


class TestRecursions:
    def test_exact_method_gives_zero(self):
        led = recursion_set1("tv", ip_system(4), [0.2, 0.2, 0.2, 0.2], [0.0] * 4)
        assert led.bounds() == [0.0, 0.0, 0.0, 0.0]

    def test_two_step_unrolling(self):
        # evidences chosen so the per-step factors are exactly 1.2 and 0.9
        led = recursion_set2("tv", ip_system(2), [C_H / 1.2, C_H / 0.9], [0.05, 0.02])
        assert abs(led.rows[0].factor - 1.2) < 1e-12
        assert abs(led.rows[1].factor - 0.9) < 1e-12
        assert abs(led.bounds()[0] - 0.05) < 1e-15
        assert abs(led.bounds()[1] - 0.065) < 1e-12

    def test_set2_arithmetic(self):
        led = recursion_set2("tv", ip_system(2), [0.2, 0.25], [0.03, 0.01])
        assert abs(led.final_bound - (C_H / 0.25 * 0.03 + 0.01)) < 1e-15
        assert abs(led.final_bound - 0.03764) < 1e-5

    def test_single_step_bound_is_eps(self):
        led = recursion_set2("hellinger", ip_system(1), [0.2], [0.7])
        assert led.final_bound == 0.7

    def test_matches_double_sum_oracle(self):
        rng = np.random.default_rng(5)
        for metric in ("tv", "hellinger", "w1"):
            for _ in range(10):
                n = int(rng.integers(2, 7))
                s = ip_system(n)
                evid = rng.uniform(0.05, 0.4, size=n)
                eps = rng.uniform(0.0, 0.2, size=n)
                led = recursion_set2(metric, s, evid, eps)
                oracle = double_sum_bound(metric, s, evid, eps)
                assert abs(led.final_bound - oracle) <= 1e-12 * max(1.0, oracle)
                assert led.replay_consistent()

    def test_projection_chain_matches_double_sum(self):
        s = ip_system(3)
        q = Gaussian1D(0.0, 1.0)
        evid, eps = [], []
        for k in range(1, 4):
            approx, exact, inc = bayes.gaussian_projection_step(s, k, q)
            evid.append(exact.evidence)
            eps.append(inc["tv"])
            q = approx
        led = recursion_set2("tv", s, evid, eps)
        oracle = double_sum_bound("tv", s, evid, eps)
        assert abs(led.final_bound - oracle) <= 1e-12 * max(1.0, oracle)

    def test_saturates_at_infinity(self):
        led = recursion_set2("tv", ip_system(3), [1e-250] * 3, [0.1, 0.1, 0.1])
        assert math.isinf(led.final_bound)
        assert led.replay_consistent()

    def test_zero_evidence_rejected(self):
        with pytest.raises(ZeroEvidence):
            recursion_set1("tv", ip_system(2), [0.2, 0.0], [0.1, 0.1])


class TestReplay:
    @staticmethod
    def gauss_proj_ledger(steps=10, seed=0):
        system = harness.bimodal_ip_system(steps, np.random.default_rng(seed), D40)
        q, evid, eps = harness.BIMODAL_PRIOR, [], []
        for k in range(1, steps + 1):
            q, exact, inc = bayes.gaussian_projection_step(system, k, q)
            evid.append(exact.evidence)
            eps.append(inc["tv"])
        return recursion_set2("tv", system, evid, eps)

    def test_one_ulp_off_cum_bound_fails(self):
        led = self.gauss_proj_ledger()
        assert led.replay_consistent() and all(map(math.isfinite, led.bounds()))
        rows = list(led.rows)
        rows[4] = dataclasses.replace(rows[4], cum_bound=math.nextafter(rows[4].cum_bound, math.inf))
        assert not dataclasses.replace(led, rows=tuple(rows)).replay_consistent()

    def test_negative_eps_fails(self):
        led = BoundLedger("tv", "set2", (LedgerRow(1, 2.0, 0.1, 0.1), LedgerRow(2, 2.0, -0.1, 0.1)))
        assert not led.replay_consistent()

    def test_infinite_factor_times_zero_saturates(self):
        led = bounds._build_ledger("tv", "set2", [math.inf, 2.0], [0.0, 0.1])
        assert led.bounds() == [math.inf, math.inf]
        assert led.replay_consistent()


class TestLedgerInputs:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_eps_rejected(self, bad):
        with pytest.raises(NonFinite):
            recursion_set2("tv", ip_system(3), [0.2] * 3, [0.1, bad, 0.1])

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError, match="eps must be nonnegative"):
            recursion_set1("tv", ip_system(3), [0.2] * 3, [0.1, -0.5, 0.1])

    def test_empty_sequences_rejected(self):
        with pytest.raises(ValueError, match="at least one step"):
            recursion_set2("tv", ip_system(3), [], [])

    @pytest.mark.parametrize("bad,error", [(math.nan, NonFinite), (math.inf, NonFinite),
                                           (-0.1, ValueError)])
    def test_bad_prior_error_rejected(self, bad, error):
        with pytest.raises(error):
            inaccurate_prior_bound("tv", ip_system(3), [0.2] * 3, [0.01] * 3, bad)

    def test_two_output_checks_both_sequences(self):
        with pytest.raises(NonFinite):
            two_output_bound("tv", ip_system(2), [0.1, 0.1], [0.1, math.nan], [0.2, 0.2])


class TestFactors:
    def test_bound_validate_factors_are_pointwise_K(self, monkeypatch):
        calls = []
        for name in ("recursion_set1", "recursion_set2"):
            def record(metric, s, z, eps, _fn=getattr(bounds, name)):
                led = _fn(metric, s, z, eps)
                calls.append((s, z, led))
                return led
            monkeypatch.setattr(bounds, name, record)
        harness.run_config(harness.ExperimentConfig("bound_validate", filter_kind="gauss_proj",
                                                    steps=10, seed=0))
        assert sorted((led.metric, led.variant) for _, _, led in calls) == [
            ("hellinger", "set1"), ("hellinger", "set2"), ("tv", "set1"), ("tv", "set2")]
        for s, z, led in calls:
            assert [row.step for row in led.rows] == list(range(1, 11))
            for row in led.rows:
                expected = pointwise_K(s, row.step, led.metric, z[row.step - 1])
                assert row.factor.hex() == expected.hex()


class TestTvToW1:
    def test_values(self):
        assert tv_to_w1_bound(0.0, 80.0) == 0.0
        assert tv_to_w1_bound(0.5, 80.0) == 40.0

    def test_dominates_measured_w1(self):
        rng = np.random.default_rng(9)
        d = DomainSpec(-40.0, 40.0, 4001)
        for _ in range(40):
            a = Gaussian1D(rng.uniform(-5, 5), rng.uniform(0.05, 9.0))
            b = Gaussian1D(rng.uniform(-5, 5), rng.uniform(0.05, 9.0))
            w = metrics.w1(a, b, d)
            assert w <= tv_to_w1_bound(tv(a, b, d), d.diameter()) + 1e-9

    @pytest.mark.parametrize("tv_bound,d,error", [
        (math.nan, 80.0, NonFinite), (math.inf, 80.0, NonFinite), (0.5, math.nan, NonFinite),
        (0.5, math.inf, NonFinite), (-0.1, 80.0, ValueError), (0.5, -1.0, ValueError)])
    def test_rejects_bad_input(self, tv_bound, d, error):
        with pytest.raises(error):
            tv_to_w1_bound(tv_bound, d)


class TestInaccuratePrior:
    def test_zero_prior_error_matches_recursion(self):
        s = ip_system(3)
        evid, eps = [0.2, 0.25, 0.3], [0.03, 0.01, 0.02]
        led0 = inaccurate_prior_bound("tv", s, evid, eps, 0.0)
        led = recursion_set2("tv", s, evid, eps)
        assert led0.bounds() == led.bounds()

    def test_single_step_theorem(self):
        led = inaccurate_prior_bound("tv", ip_system(1), [0.2], [0.0], 0.4)
        assert abs(led.final_bound - C_H / 0.2 * 0.4) < 1e-15

    def test_three_step_replay(self):
        s = ip_system(3)
        d0 = tv(Gaussian1D(0, 1), Gaussian1D(0.5, 1), D40)
        evid, eps = [0.21, 0.26, 0.19], [0.015, 0.03, 0.01]
        led = inaccurate_prior_bound("tv", s, evid, eps, d0)
        oracle = double_sum_bound("tv", s, evid, eps, initial=d0)
        assert abs(led.final_bound - oracle) <= 1e-12 * max(1.0, oracle)
        assert led.replay_consistent()

    @pytest.mark.parametrize("metric,distance", [("tv", tv), ("hellinger", hellinger)])
    def test_paper_series_is_the_prior_distance_times_the_step_factors(self, metric, distance):
        # ROADMAP item 1's paper series: a filter started from N(3, 1) in place of
        # N(0, 1), with no approximation error after the prior
        d = harness.FILTER_DOMAINS["particle"]
        s = harness.linear_se_system(20, np.random.default_rng(0), d)
        d0 = distance(Gaussian1D(0.0, 1.0), Gaussian1D(3.0, 1.0), d)
        prior, z = Gaussian1D(3.0, 1.0), []
        for k in range(1, 21):
            up = bayes.grid_update(s, k, prior)
            prior = up.posterior
            z.append(up.evidence)
        expected, product = [], d0
        for k in range(1, 21):
            product = product * pointwise_K(s, k, metric, z[k - 1])
            expected.append(product)
        assert inaccurate_prior_bound(metric, s, z, [0.0] * 20, d0).bounds() == expected


class TestTwoOutput:
    def test_zero_errors(self):
        s = ip_system(3)
        assert two_output_bound("tv", s, [0.0] * 3, [0.0] * 3, [0.2] * 3) == 0.0

    def test_linearity(self):
        s = ip_system(4)
        evid = [0.2, 0.3, 0.25, 0.28]
        ea = [0.02, 0.01, 0.03, 0.02]
        eb = [0.01, 0.04, 0.0, 0.05]
        total = two_output_bound("hellinger", s, ea, eb, evid)
        parts = (recursion_set1("hellinger", s, evid, ea).final_bound
                 + recursion_set1("hellinger", s, evid, eb).final_bound)
        assert total == parts

    def test_dominates_measured_pair_distance(self):
        # two filters on the same state-estimation data at a fixed seed
        domain = DomainSpec(-25.0, 25.0, 2001)
        rng = np.random.default_rng(12)
        ys = []
        x = rng.standard_normal()
        for _ in range(5):
            x = 0.9 * x + rng.standard_normal()
            ys.append(x + rng.standard_normal())
        s = SystemSpec("se", LikelihoodModel.linear_gaussian(1.0, 1.0), ys, domain,
                       transition=TransitionModel.linear_gaussian(0.9, 1.0))
        p = discretize(Gaussian1D(0.0, 1.0), domain)
        qa = Gaussian1D(0.0, 1.0)
        cloud = ParticleSet(rng.standard_normal(1000), np.full(1000, 1e-3))
        qb_prev = Gaussian1D(0.0, 1.0)
        z1, eps_a, eps_b = [], [], []
        for k in range(1, 6):
            z1.append(bayes.grid_update(s, k, p).evidence)
            p = bayes.grid_update(s, k, p).posterior
            qa, exact_a, _ = bayes.gaussian_projection_step(s, k, qa)
            eps_a.append(metrics.w1(exact_a.posterior, qa, domain))
            exact_b = bayes.grid_update(s, k, qb_prev)
            cloud = bayes.particle_step(s, k, cloud, 1000, 100 + k)
            qb_prev = cloud
            eps_b.append(metrics.w1(exact_b.posterior, cloud, domain))
        bound = two_output_bound("w1", s, eps_a, eps_b, z1)
        measured = metrics.w1(qa, cloud, domain)
        assert measured <= bound + 1e-9


class TestLiteratureRatio:
    def test_reference_pairs(self):
        assert literature_ratio(0.2, 0.1) == (5.0, 10.0, 0.5)
        assert literature_ratio(1.0, 1.0) == (1.0, 2.0, 0.5)

    @settings(max_examples=200, deadline=None)
    @given(z_a=st.floats(1e-280, 1e100), z_b=st.floats(1e-280, 1e100),
           scale=st.floats(1e-10, 1e10))
    def test_ratio_is_exactly_half(self, z_a, z_b, scale):
        ours, lit, ratio = literature_ratio(z_a, z_b)
        assert ratio == 0.5
        assert literature_ratio(z_a * scale, z_b * scale)[2] == 0.5

    @pytest.mark.parametrize("z_a,z_b,error", [
        (math.inf, 1.0, NonFinite), (1.0, math.inf, NonFinite), (math.nan, 1.0, NonFinite),
        (1.0, math.nan, NonFinite), (0.0, 1.0, ValueError), (1.0, -2.0, ValueError)])
    def test_rejects_bad_evidence(self, z_a, z_b, error):
        with pytest.raises(error):
            literature_ratio(z_a, z_b)


class TestOneStepDominance:
    def test_posterior_distance_below_factor_times_prior(self):
        rng = np.random.default_rng(21)
        s = ip_system()
        for _ in range(50):
            a = Gaussian1D(rng.uniform(-10, 10), rng.uniform(0.05, 5.0))
            b = Gaussian1D(rng.uniform(-10, 10), rng.uniform(0.05, 5.0))
            pa = bayes.grid_update(s, 1, a)
            pb = bayes.grid_update(s, 1, b)
            for metric, fn in (("tv", tv), ("hellinger", hellinger)):
                d_prior = fn(a, b, D40)
                d_post = fn(pa.posterior, pb.posterior, D40)
                for z in (pa.evidence, pb.evidence, max(pa.evidence, pb.evidence)):
                    assert d_post <= pointwise_K(s, 1, metric, z) * d_prior + 1e-9


class TestUnnormalizedLipschitz:
    def test_scaled_update_contraction(self):
        # the unnormalized update contracts Hellinger by sqrt of the likelihood sup
        rng = np.random.default_rng(31)
        s = ip_system()
        h = s.likelihood.evaluator(1.0, D40.nodes)
        root_sup = math.sqrt(system_constants(s, 1, "tv").sup)
        for _ in range(200):
            a = discretize(Gaussian1D(rng.uniform(-8, 8), rng.uniform(0.05, 5.0)), D40)
            b = discretize(Gaussian1D(rng.uniform(-8, 8), rng.uniform(0.05, 5.0)), D40)
            fa = GridDensity(D40, h * a.values, normalized=False)
            fb = GridDensity(D40, h * b.values, normalized=False)
            lhs = scaled_hellinger(fa, fb)
            rhs = root_sup * hellinger(a, b, D40)
            assert lhs <= rhs + 1e-9


def test_ledger_is_immutable():
    led = recursion_set2("tv", ip_system(2), [0.2, 0.2], [0.1, 0.1])
    with pytest.raises(AttributeError):
        led.rows = ()
    assert isinstance(led, BoundLedger)

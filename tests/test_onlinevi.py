import math

import numpy as np
import pytest

from bslcert.bayes import conjugate_update_ip
from bslcert.domains import DomainSpec, Gaussian1D, ParticleSet, discretize
from bslcert.errors import (DomainMismatch, MissingD, NonFinite, UnsupportedRepresentation,
                            VacuousBound, ZeroEvidence)
from bslcert.models import (CUSTOM_LIP_SAFETY, LikelihoodModel, SystemSpec, TransitionModel,
                            c_vi_tilde_estimate)
from bslcert.onlinevi import (BetaInputs, GaussianPair, VIBoundInputs,
                              beta_term, elbo_mc,
                              elbo_mc_stats, log_sup_likelihood,
                              vi_bound_type1, vi_bound_type2, vi_coefficient)

D40 = DomainSpec(-40.0, 40.0, 8001)
IP = SystemSpec("ip", LikelihoodModel.linear_gaussian(1.1, 3.0), [1.0], D40)
PS_X = DomainSpec(-15.0, 15.0, 241)
PS_W = DomainSpec(-0.25, 1.45, 241)


def ps_system(transition=None):
    return SystemSpec("ps", LikelihoodModel.linear_gaussian(1.0, 0.5), [0.4], PS_X,
                      transition=transition or TransitionModel.parametric_linear_gaussian(0.25),
                      w_domain=PS_W)


def table_transcription(metric, r, det_gamma, evidences, j, k, d=None):
    """Literal transcription of the per-step coefficient cells."""
    span = k - j
    if metric in ("tv", "w1"):
        num = (2 * math.pi) ** (-r * span / 2) * det_gamma ** (-span / 2)
        den = math.sqrt(2.0) * math.prod(evidences[j:k])
        cell = num / den
        return cell * d if metric == "w1" else cell
    num = 2 ** span * (2 * math.pi) ** (-r * span / 4) * det_gamma ** (-span / 4)
    den = math.sqrt(2.0) * math.prod(math.sqrt(z) for z in evidences[j:k])
    return num / den


class TestType1Bound:
    def test_single_step_reference(self):
        inputs = VIBoundInputs(r=1, det_gamma=3.0, elbo_floors=[-2.0], evidences=[0.2])
        value = vi_bound_type1(inputs, "tv")
        gap = -0.5 * math.log(2 * math.pi) - 0.5 * math.log(3.0) + 2.0
        assert abs(value - math.sqrt(gap) / math.sqrt(2.0)) < 1e-12
        assert abs(value - 0.51563) < 1e-5

    def test_zero_gap_gives_zero(self):
        cap = log_sup_likelihood(1, 3.0)
        inputs = VIBoundInputs(r=1, det_gamma=3.0, elbo_floors=[cap, cap],
                               evidences=[0.2, 0.2])
        assert vi_bound_type1(inputs, "tv") == 0.0

    def test_w1_is_diameter_times_tv(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            k = int(rng.integers(1, 6))
            cap = log_sup_likelihood(2, 0.7)
            inputs = VIBoundInputs(
                r=2, det_gamma=0.7,
                elbo_floors=cap - rng.uniform(0.1, 3.0, size=k),
                evidences=rng.uniform(0.05, 0.5, size=k), d=float(rng.uniform(1, 100)))
            tv_val = vi_bound_type1(inputs, "tv")
            w1_val = vi_bound_type1(inputs, "w1")
            assert abs(w1_val - inputs.d * tv_val) <= 1e-12 * max(1.0, w1_val)

    def test_coefficients_match_table_transcription(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            k = int(rng.integers(2, 7))
            r = int(rng.integers(1, 4))
            dg = float(rng.uniform(0.2, 5.0))
            evid = list(rng.uniform(0.05, 0.5, size=k))
            inputs = VIBoundInputs(r=r, det_gamma=dg,
                                   elbo_floors=[log_sup_likelihood(r, dg) - 1.0] * k,
                                   evidences=evid, d=7.0)
            for j in range(1, k):
                for metric in ("tv", "hellinger", "w1"):
                    mine = vi_coefficient(inputs, metric, j)
                    ref = table_transcription(metric, r, dg, evid, j, k, d=7.0)
                    assert abs(mine - ref) <= 1e-12 * max(1.0, ref)

    def test_internal_row_identity(self):
        # hellinger cell squared, times the evidence product, equals
        # 2^(2(k-j)-1) times the tv cell times sqrt(2) times that product
        rng = np.random.default_rng(6)
        for _ in range(25):
            k = int(rng.integers(2, 7))
            j = int(rng.integers(1, k))
            r = int(rng.integers(1, 4))
            dg = float(rng.uniform(0.2, 5.0))
            evid = list(rng.uniform(0.05, 0.5, size=k))
            h_cell = table_transcription("hellinger", r, dg, evid, j, k)
            tv_cell = table_transcription("tv", r, dg, evid, j, k)
            prod_z = math.prod(evid[j:k])
            lhs = h_cell ** 2 * prod_z
            rhs = 2.0 ** (2 * (k - j) - 1) * tv_cell * math.sqrt(2.0) * prod_z
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, rhs)

    @pytest.mark.parametrize("k", [1, 3])
    def test_last_step_coefficient_is_the_empty_product(self, k):
        inputs = VIBoundInputs(r=1, det_gamma=3.0, elbo_floors=[-2.0] * k,
                               evidences=[0.2, 0.3, 0.25][:k], d=31.7)
        for metric in ("tv", "hellinger"):
            assert vi_coefficient(inputs, metric, k) == 1 / math.sqrt(2)
        w1_coef = vi_coefficient(inputs, "w1", k)
        assert abs(w1_coef - 31.7 / math.sqrt(2)) <= math.ulp(31.7 / math.sqrt(2))

    @pytest.mark.parametrize("j", [0, 4])
    def test_coefficient_step_out_of_range(self, j):
        inputs = VIBoundInputs(r=1, det_gamma=3.0, elbo_floors=[-2.0] * 3,
                               evidences=[0.2, 0.3, 0.25])
        with pytest.raises(ValueError, match=r"j must be in 1\.\.3"):
            vi_coefficient(inputs, "tv", j)

    def test_vacuous_bound_rejected(self):
        with pytest.raises(VacuousBound):
            VIBoundInputs(r=1, det_gamma=3.0, elbo_floors=[1.0], evidences=[0.2])

    def test_w1_needs_diameter(self):
        inputs = VIBoundInputs(r=1, det_gamma=3.0, elbo_floors=[-2.0], evidences=[0.2])
        with pytest.raises(MissingD):
            vi_bound_type1(inputs, "w1")

    def test_nonpositive_evidence_rejected(self):
        with pytest.raises(ZeroEvidence):
            VIBoundInputs(r=1, det_gamma=3.0, elbo_floors=[-2.0], evidences=[0.0])


class TestPinnedBounds:
    # the sum adds the last step's term first, then steps 1..k-1, in this order
    PINNED = {("tv", 1): "0x1.e6d020d4df09ap+0", ("hellinger", 1): "0x1.fe8bff11af21ap+1",
              ("tv", 2): "0x1.f0e67eda04f6bp+0", ("hellinger", 2): "0x1.4ed4314158a02p+2"}

    @pytest.mark.parametrize("metric,bound_type", sorted(PINNED))
    def test_three_step_bounds_keep_their_bits(self, metric, bound_type):
        betas = [BetaInputs(0.3, 0.02, 0.2), BetaInputs(0.1, 0.05, 0.4), BetaInputs(0.2, 0.01, 0.3)]
        inputs = VIBoundInputs(r=1, det_gamma=3.0, elbo_floors=[-2.0, -2.5, -3.0],
                               evidences=[0.2, 0.3, 0.25], d=31.7,
                               beta_inputs=betas if bound_type == 2 else None)
        bound = vi_bound_type1 if bound_type == 1 else vi_bound_type2
        assert bound(inputs, metric).hex() == self.PINNED[(metric, bound_type)]


class TestType2Bound:
    def test_exact_parameter_reduces_to_type1(self):
        betas = [BetaInputs(0.3, 0.0, 0.2), BetaInputs(0.1, 0.0, 0.4)]
        inputs = VIBoundInputs(r=1, det_gamma=3.0, elbo_floors=[-2.0, -1.5],
                               evidences=[0.2, 0.3], beta_inputs=betas)
        plain = VIBoundInputs(r=1, det_gamma=3.0, elbo_floors=[-2.0, -1.5],
                              evidences=[0.2, 0.3])
        for metric in ("tv", "hellinger"):
            assert vi_bound_type2(inputs, metric) == vi_bound_type1(plain, metric)

    def test_single_step_reference(self):
        inputs = VIBoundInputs(r=1, det_gamma=3.0, elbo_floors=[-2.0], evidences=[0.2],
                               beta_inputs=[BetaInputs(0.1, 0.5, 0.2)])
        value = vi_bound_type2(inputs, "tv")
        gap = -0.5 * math.log(2 * math.pi) - 0.5 * math.log(3.0) + 2.0
        expected = (math.sqrt(gap) + math.sqrt(2.0) * 0.1 * 0.5 / 0.2) / math.sqrt(2.0)
        assert abs(value - expected) < 1e-12
        assert abs(value - 0.7657) < 1e-4

    def test_hellinger_beta_at_unit_ratio(self):
        assert beta_term(BetaInputs(2.0, 0.1, 0.2), "hellinger") == 2.0

    def test_beta_of_zero_error_is_exactly_zero(self):
        for metric in ("tv", "hellinger", "w1"):
            assert beta_term(BetaInputs(0.7, 0.0, 0.3), metric) == 0.0


class TestElboMc:
    def test_exact_posterior_recovers_log_evidence(self):
        up = conjugate_update_ip(Gaussian1D(0.0, 1.0), 1.1, 3.0, 1.0)
        est = elbo_mc_stats(up.posterior, IP, 1, Gaussian1D(0.0, 1.0), 2000, 0)
        # the integrand is constant when q is the exact posterior
        assert abs(est.value - math.log(up.evidence)) <= max(2 * est.stderr, 1e-10)
        assert est.stderr < 1e-10

    def test_tail_q_is_strictly_worse(self):
        up = conjugate_update_ip(Gaussian1D(0.0, 1.0), 1.1, 3.0, 1.0)
        far = Gaussian1D(up.posterior.mean + 5 * up.posterior.std, up.posterior.variance)
        value = elbo_mc(far, IP, 1, Gaussian1D(0.0, 1.0), 2000, 0)
        assert value < math.log(up.evidence) - 1.0

    def test_seeded_determinism(self):
        q = Gaussian1D(0.3, 0.8)
        a = elbo_mc(q, IP, 1, Gaussian1D(0.0, 1.0), 500, 42)
        b = elbo_mc(q, IP, 1, Gaussian1D(0.0, 1.0), 500, 42)
        assert a == b

    def test_jensen_gap_is_nonnegative(self):
        up = conjugate_update_ip(Gaussian1D(0.0, 1.0), 1.1, 3.0, 1.0)
        log_z = math.log(up.evidence)
        rng = np.random.default_rng(8)
        for _ in range(40):
            q = Gaussian1D(up.posterior.mean + rng.uniform(0.3, 2.0) * rng.choice([-1, 1]),
                           up.posterior.variance * rng.uniform(0.4, 3.0))
            est = elbo_mc_stats(q, IP, 1, Gaussian1D(0.0, 1.0), 1500, int(rng.integers(1 << 30)))
            assert est.value <= log_z + 3 * est.stderr

    def test_se_variant_uses_predicted_prior(self):
        se = SystemSpec("se", LikelihoodModel.linear_gaussian(1.0, 3.0), [0.0],
                        DomainSpec(-30.0, 30.0, 2001),
                        transition=TransitionModel.linear_gaussian(1.0, 1.0))
        # exact smoothed posterior is N(0, 1.2); its ELBO equals log N(0; 0, 5)
        q = Gaussian1D(0.0, 1.2)
        est = elbo_mc_stats(q, se, 1, Gaussian1D(0.0, 1.0), 2000, 3)
        assert abs(est.value - math.log(1.0 / math.sqrt(2 * math.pi * 5.0))) < 1e-9

    def test_ps_variant_runs_and_is_deterministic(self):
        xd = DomainSpec(-15.0, 15.0, 241)
        wd = DomainSpec(-0.25, 1.45, 241)
        ps = SystemSpec("ps", LikelihoodModel.linear_gaussian(1.0, 0.5), [0.4], xd,
                        transition=TransitionModel.parametric_linear_gaussian(0.25),
                        w_domain=wd)
        q = GaussianPair(Gaussian1D(0.2, 0.8), Gaussian1D(0.6, 0.01))
        prev = GaussianPair(Gaussian1D(0.0, 1.0), Gaussian1D(0.6, 0.01))
        a = elbo_mc(q, ps, 1, prev, 800, 5)
        b = elbo_mc(q, ps, 1, prev, 800, 5)
        assert a == b and math.isfinite(a)

    def test_zero_density_sample_raises(self):
        def ev(y, x, w=None):
            x = np.asarray(x, dtype=float)
            return np.where(np.abs(x) < 0.5, 1.0, 0.0)

        s = SystemSpec("ip", LikelihoodModel.custom(ev), [0.0], D40)
        with pytest.raises(NonFinite):
            elbo_mc(Gaussian1D(4.0, 1.0), s, 1, Gaussian1D(0.0, 1.0), 500, 0)

    def test_minimum_samples(self):
        with pytest.raises(ValueError):
            elbo_mc(Gaussian1D(0, 1), IP, 1, Gaussian1D(0, 1), 10, 0)

    @pytest.mark.parametrize("system", [
        IP,
        SystemSpec("se", LikelihoodModel.linear_gaussian(1.0, 3.0), [0.5],
                   DomainSpec(-30.0, 30.0, 2001),
                   transition=TransitionModel.linear_gaussian(0.9, 1.0)),
    ], ids=["ip", "se"])
    def test_grid_prior_matches_gaussian_prior(self, system):
        q = Gaussian1D(0.2, 0.8)
        prior = Gaussian1D(0.0, 1.0)
        exact = elbo_mc_stats(q, system, 1, prior, 2000, 4).value
        grid = elbo_mc_stats(q, system, 1, discretize(prior, system.domain), 2000, 4).value
        assert abs(grid - exact) < 1e-3


class TestWrongRepresentation:
    """An input of the wrong kind is UnsupportedRepresentation, not a numerical failure."""

    def test_non_gaussian_q_on_a_1d_system(self):
        with pytest.raises(UnsupportedRepresentation):
            elbo_mc(discretize(Gaussian1D(0.0, 1.0), D40), IP, 1, Gaussian1D(0.0, 1.0), 500, 0)

    def test_prior_without_a_density(self):
        cloud = ParticleSet(np.linspace(-1.0, 1.0, 50), np.full(50, 1 / 50))
        with pytest.raises(UnsupportedRepresentation, match="no density"):
            elbo_mc(Gaussian1D(0.0, 1.0), IP, 1, cloud, 500, 0)

    def test_grid_prior_on_another_domain(self):
        d = DomainSpec(-10.0, 10.0, 2001)
        s = SystemSpec("ip", LikelihoodModel.linear_gaussian(1.0, 1.0), [0.0], d)
        elsewhere = discretize(Gaussian1D(-10.0, 1.0), DomainSpec(-20.0, 0.0, 2001))
        with pytest.raises(DomainMismatch):
            elbo_mc(Gaussian1D(0.0, 1.0), s, 1, elsewhere, 2000, 0)
        # on the system's own domain the grid prior keeps its value
        assert elbo_mc(Gaussian1D(0.0, 1.0), s, 1, discretize(Gaussian1D(0.0, 1.0), d), 2000, 0) \
            == -1.4195287470598532

    def test_ps_inputs_must_be_gaussian_pairs(self):
        pair = GaussianPair(Gaussian1D(0.0, 1.0), Gaussian1D(0.6, 0.01))
        with pytest.raises(UnsupportedRepresentation):
            elbo_mc(Gaussian1D(0.0, 1.0), ps_system(), 1, pair, 500, 0)

    def test_ps_elbo_needs_the_parametric_family(self):
        custom = TransitionModel.custom(TransitionModel.parametric_linear_gaussian(0.25).kernel)
        pair = GaussianPair(Gaussian1D(0.0, 1.0), Gaussian1D(0.6, 0.01))
        with pytest.raises(UnsupportedRepresentation):
            elbo_mc(pair, ps_system(custom), 1, pair, 500, 0)

    # a parameter-state system without a kernel is refused when it is built
    @pytest.mark.parametrize("system,error", [
        (lambda: IP, UnsupportedRepresentation),
        (lambda: ps_system(TransitionModel.custom(None)), ValueError)],
        ids=["ip", "ps-without-kernel"])
    def test_c_vi_tilde_needs_a_ps_kernel(self, system, error):
        with pytest.raises(error):
            c_vi_tilde_estimate(system(), 1)


class TestParameterLipschitzEstimate:
    def test_custom_family_carries_the_safety_factor(self):
        parametric = TransitionModel.parametric_linear_gaussian(0.25)
        custom = TransitionModel.custom(parametric.kernel)
        base = c_vi_tilde_estimate(ps_system(parametric), 1)
        assert c_vi_tilde_estimate(ps_system(custom), 1) == CUSTOM_LIP_SAFETY * base

    def test_grid_estimate_close_to_derivative_bound(self):
        xd = DomainSpec(-15.0, 15.0, 241)
        wd = DomainSpec(-0.25, 1.45, 241)
        ps = SystemSpec("ps", LikelihoodModel.linear_gaussian(1.0, 0.5), [0.0], xd,
                        transition=TransitionModel.parametric_linear_gaussian(0.25),
                        w_domain=wd)
        est = c_vi_tilde_estimate(ps, 1)
        # analytic overbound: |x'|max * e^{-1/2} / (sqrt(2 pi) q) times the h mass
        q = 0.25
        bound = 15.0 * math.exp(-0.5) / (math.sqrt(2 * math.pi) * q) * 1.0
        assert 0.0 < est <= bound * 1.001
        assert est > 0.2 * bound

    def test_w_dependent_likelihood_takes_the_sup_over_w(self):
        # observation gain = parameter: h(0, x, w) = N(0; w x, 0.5)
        xd = DomainSpec(-15.0, 15.0, 241)
        wd = DomainSpec(-0.25, 1.45, 241)

        def gain_lik(w_fixed=None):
            def evaluator(y, x, w=None):
                gain = np.asarray(w if w_fixed is None else w_fixed, dtype=float)
                return np.exp(-(y - gain * np.asarray(x, dtype=float)) ** 2) / math.sqrt(math.pi)
            return LikelihoodModel.custom(evaluator)

        def system(lik):
            return SystemSpec("ps", lik, [0.0], xd, w_domain=wd,
                              transition=TransitionModel.parametric_linear_gaussian(0.25))

        est = c_vi_tilde_estimate(system(gain_lik()), 1)
        # parameters from the estimator's own 201-node w grid, where its sup is taken
        fixed = [c_vi_tilde_estimate(system(gain_lik(w0)), 1)
                 for w0 in DomainSpec(wd.lower, wd.upper, 201).nodes[::20]]
        # the sup over w dominates every fixed-parameter likelihood, including
        # gains near 0 that are far larger than h at ws[0] = -0.25
        assert est >= max(fixed) * (1.0 - 1e-12)
        assert max(fixed) > 2.0 * fixed[0]

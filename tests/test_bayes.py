import math

import numpy as np
import pytest

from bslcert import metrics, models
from bslcert.bayes import (_ps_predicted_values, conjugate_update_ip, gaussian_projection_step,
                           grid_update, grid_updates, particle_step, predicted_values)
from bslcert.domains import (DomainSpec, Gaussian1D, ParticleSet, discretize,
                             discretize_product, moments)
from bslcert.errors import (AllWeightsZero, DegenerateVariance, DomainMismatch, NonFinite,
                            UnsupportedRepresentation)
from bslcert.models import (_KERNEL_BLOCK, LikelihoodModel, SystemSpec,
                            TransitionModel, kernel_matrix, se_g_values,
                            system_constants)
from helpers import conjugate_update_se

D40 = DomainSpec(-40.0, 40.0, 8001)
DSE = DomainSpec(-25.0, 25.0, 2001)

IP = SystemSpec("ip", LikelihoodModel.linear_gaussian(1.1, 3.0), [1.0], D40)
SE = SystemSpec("se", LikelihoodModel.linear_gaussian(1.0, 3.0), [0.0], DSE,
                transition=TransitionModel.linear_gaussian(1.0, 1.0))


def bimodal_system(y=0.0, offset=2.0, bump_var=0.25, domain=D40):
    def evaluator(yy, x, w=None):
        x = np.asarray(x, dtype=float)
        norm = 1.0 / math.sqrt(2 * math.pi * bump_var)
        return 0.5 * norm * (np.exp(-0.5 * (yy - (x - offset)) ** 2 / bump_var)
                             + np.exp(-0.5 * (yy - (x + offset)) ** 2 / bump_var))

    return SystemSpec("ip", LikelihoodModel.custom(evaluator), [y], domain)


class TestConjugateUpdate:
    def test_reference_values(self):
        r = conjugate_update_ip(Gaussian1D(0.0, 1.0), 1.1, 3.0, 1.0)
        assert abs(r.posterior.variance - 0.7125890736342043) < 1e-12
        assert abs(r.posterior.mean - 0.2612826603325416) < 1e-12
        assert abs(r.evidence - 0.17265934968031169) < 1e-12

    def test_uninformative_gain(self):
        prior = Gaussian1D(0.3, 2.0)
        r = conjugate_update_ip(prior, 0.0, 3.0, 1.0)
        assert r.posterior == prior
        assert abs(r.evidence - math.exp(-0.5 / 3.0) / math.sqrt(2 * math.pi * 3.0)) < 1e-15

    def test_confirming_observation_keeps_mean(self):
        r = conjugate_update_ip(Gaussian1D(-10.0, 5.0), 1.1, 3.0, 1.1 * -10.0)
        assert abs(r.posterior.mean + 10.0) < 1e-12

    def test_degenerate_variance(self):
        with pytest.raises(DegenerateVariance):
            conjugate_update_ip(Gaussian1D(0.0, 1.0), 1.0, 0.0, 0.0)

    @pytest.mark.parametrize("noise_var", [0.0, -1.0])
    def test_degenerate_noise_message(self, noise_var):
        with pytest.raises(DegenerateVariance,
                           match="^prior variance and noise variance must be positive$"):
            conjugate_update_ip(Gaussian1D(0.0, 1.0), 1.0, noise_var, 0.0)


class TestPriorRepresentations:
    """1-D grid updates read a prior's node values by one rule, whatever the variant."""

    @pytest.mark.parametrize("system", [IP, SE], ids=["ip", "se"])
    def test_grid_density_on_another_domain(self, system):
        with pytest.raises(DomainMismatch):
            grid_update(system, 1, discretize(Gaussian1D(0.0, 1.0), DomainSpec(-20.0, 20.0, 2001)))

    @pytest.mark.parametrize("system", [IP, SE], ids=["ip", "se"])
    def test_joint_grid_prior(self, system):
        joint = discretize_product(Gaussian1D(0.0, 1.0), Gaussian1D(0.5, 0.003), system.domain,
                                   DomainSpec(0.0, 1.0, 101))
        with pytest.raises(UnsupportedRepresentation):
            grid_update(system, 1, joint)
        with pytest.raises(UnsupportedRepresentation):
            predicted_values(system, joint)

    def test_particle_prior_on_an_inverse_problem(self):
        cloud = ParticleSet(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
        with pytest.raises(UnsupportedRepresentation):
            grid_update(IP, 1, cloud)
        with pytest.raises(UnsupportedRepresentation):
            grid_updates(IP, 1, [discretize(Gaussian1D(0.0, 1.0), D40), cloud])


class TestGridUpdate:
    def test_constant_likelihood_is_identity(self):
        c = 0.37

        def ev(y, x, w=None):
            return np.full_like(np.asarray(x, dtype=float), c)

        s = SystemSpec("ip", LikelihoodModel.custom(ev), [0.0], D40)
        prior = discretize(Gaussian1D(0.0, 1.0), D40)
        r = grid_update(s, 1, prior)
        assert abs(r.evidence - c) < 1e-12
        assert np.allclose(r.posterior.values, prior.values, rtol=0, atol=1e-13)

    def test_matches_conjugate(self):
        r_grid = grid_update(IP, 1, Gaussian1D(0.0, 1.0))
        r_conj = conjugate_update_ip(Gaussian1D(0.0, 1.0), 1.1, 3.0, 1.0)
        assert metrics.tv(r_grid.posterior, r_conj.posterior, D40) < 1e-7
        assert abs(r_grid.evidence - r_conj.evidence) < 1e-12

    def test_evidence_equals_admissibility_certificate(self):
        prior = discretize(Gaussian1D(0.5, 2.0), D40)
        r = grid_update(IP, 1, prior)
        # g's integral against the prior, checked by the rule every evidence passes
        assert r.evidence == models.admissible_evidence(
            D40.integrate(models.g_values(IP, 1) * prior.values))
        assert abs(r.posterior.mass() - 1.0) < 1e-8

    def test_se_two_stage(self):
        r = grid_update(SE, 1, Gaussian1D(0.0, 1.0))
        mean, var = moments(r.posterior)
        assert abs(mean) < 1e-9
        assert abs(var - 1.2) < 1e-9
        assert abs(r.evidence - 1.0 / math.sqrt(2 * math.pi * 5.0)) < 1e-12
        assert abs(DSE.integrate(predicted_values(SE, Gaussian1D(0.0, 1.0))) - 1.0) < 1e-6
        oracle = conjugate_update_se(Gaussian1D(0.0, 1.0), 1.0, 1.0, 1.0, 3.0, 0.0)
        assert abs(var - oracle.posterior.variance) < 1e-9

    def test_chained_against_conjugate(self):
        # twenty assimilations of the same observation
        s = SystemSpec("ip", LikelihoodModel.linear_gaussian(1.1, 3.0),
                       np.full(20, 1.0), D40)
        gauss = Gaussian1D(0.0, 1.0)
        grid = discretize(gauss, D40)
        for k in range(1, 21):
            gauss = conjugate_update_ip(gauss, 1.1, 3.0, 1.0).posterior
            res = grid_update(s, k, grid)
            grid = res.posterior
            assert abs(grid.mass() - 1.0) < 1e-8
            mean, var = moments(grid)
            assert abs(mean - gauss.mean) < 1e-6
            assert abs(var - gauss.variance) / gauss.variance < 1e-6


class TestGaussianProjection:
    def test_conjugate_case_has_no_incremental_error(self):
        approx, exact, eps = gaussian_projection_step(IP, 1, Gaussian1D(0.0, 1.0))
        assert eps["tv"] < 1e-9 and eps["hellinger"] < 1e-9
        # the W1 floor is the cumulative-trapezoid CDF error, ~1e-5 at this spacing
        assert metrics.w1(exact.posterior, approx, D40) < 1e-4
        assert abs(approx.mean - 0.2612826603325416) < 1e-6

    def test_bimodal_case_incurs_real_error(self):
        # oracle run froze the incremental TV error at 0.50434
        approx, exact, eps = gaussian_projection_step(bimodal_system(), 1, Gaussian1D(0.0, 4.0))
        assert eps["tv"] > 0.05
        assert abs(eps["tv"] - 0.5043406048015163) < 1e-9

    def test_deterministic(self):
        a1 = gaussian_projection_step(bimodal_system(), 1, Gaussian1D(0.0, 4.0))
        a2 = gaussian_projection_step(bimodal_system(), 1, Gaussian1D(0.0, 4.0))
        assert a1[0] == a2[0] and a1[2] == a2[2]

    @pytest.mark.parametrize("system", [IP, bimodal_system()], ids=["conjugate", "bimodal"])
    def test_increments_are_the_metrics_of_the_pair(self, system):
        approx, exact, eps = gaussian_projection_step(system, 1, Gaussian1D(0.0, 4.0))
        assert set(eps) == {"tv", "hellinger"}
        for m in eps:
            measured = getattr(metrics, m)(exact.posterior, approx, system.domain)
            assert eps[m].hex() == measured.hex()

    def test_discretizes_the_prior_and_the_projection_once_each(self, monkeypatch):
        import bslcert.domains as domains_module

        seen = []

        def counting(g, d):
            seen.append(g)
            return discretize(g, d)

        monkeypatch.setattr(domains_module, "discretize", counting)
        prior = Gaussian1D(0.0, 4.0)
        approx, _, _ = gaussian_projection_step(bimodal_system(), 1, prior)
        assert seen == [prior, approx]


def _identity_likelihood(y, x, w=None):
    return np.asarray(x, dtype=float)


def _uniform_cloud(n=200):
    points = np.random.default_rng(0).uniform(-3.0, 3.0, n)
    return ParticleSet(points, np.full(n, 1.0 / n))


class TestParticleStep:
    def test_uninformative_weights_resample_inputs(self):
        def ev(y, x, w=None):
            return np.full_like(np.asarray(x, dtype=float), 2.0)

        s = SystemSpec("se", LikelihoodModel.custom(ev), [0.0], DSE,
                       transition=TransitionModel.linear_gaussian(1.0, 0.0))
        rng = np.random.default_rng(1)
        prior = ParticleSet(rng.standard_normal(500), np.full(500, 1 / 500))
        out = particle_step(s, 1, prior, 500, 9)
        assert set(out.points).issubset(set(prior.points))
        # resampled mean is unbiased for the input mean
        means = [particle_step(s, 1, prior, 500, sd).points.mean() for sd in range(200)]
        se_mean = np.std(means, ddof=1) / math.sqrt(len(means))
        assert abs(np.mean(means) - float(prior.weights @ prior.points)) < 4 * se_mean + 1e-12

    def test_zero_noise_transition_needs_no_density(self):
        s = SystemSpec("se", LikelihoodModel.linear_gaussian(1.0, 1.0), [0.5], DSE,
                       transition=TransitionModel.linear_gaussian(0.9, 0.0))
        cloud = ParticleSet(np.linspace(-1.0, 1.0, 50), np.full(50, 1 / 50))
        out = particle_step(s, 1, cloud, 50, 0)
        assert set(out.points).issubset(set(0.9 * cloud.points))
        grid_prior = discretize(Gaussian1D(0.0, 1.0), DSE)
        for use in (lambda: grid_update(s, 1, grid_prior),
                    lambda: se_g_values(s, 1),
                    lambda: system_constants(s, 1, "tv"),
                    lambda: predicted_values(s, cloud)):
            with pytest.raises(UnsupportedRepresentation, match="no density"):
                use()

    def test_moves_outside_the_domain_are_redrawn(self):
        d = DomainSpec(-10.0, 10.0, 2001)
        s = SystemSpec("se", LikelihoodModel.linear_gaussian(1.0, 1.0), [9.9], d,
                       transition=TransitionModel.linear_gaussian(1.0, 1.0))
        cloud = ParticleSet(np.full(500, 9.9), np.full(500, 1 / 500))
        out = particle_step(s, 1, cloud, 500, 0)
        # about half the first moves leave the domain; redrawn, none is clipped to its edge
        assert out.points.min() >= -10.0 and out.points.max() < 10.0
        assert out.points.tobytes() == particle_step(s, 1, cloud, 500, 0).points.tobytes()

    def test_transition_without_sampler_is_unsupported(self):
        kernel = TransitionModel.linear_gaussian(0.9, 1.0).kernel
        s = SystemSpec("se", LikelihoodModel.linear_gaussian(1.0, 1.0), [0.5], DSE,
                       transition=TransitionModel.custom(kernel))
        cloud = ParticleSet(np.linspace(-1.0, 1.0, 50), np.full(50, 1 / 50))
        with pytest.raises(UnsupportedRepresentation, match="no sampler"):
            particle_step(s, 1, cloud, 50, 0)

    def test_one_step_accuracy_seed0(self):
        s = SystemSpec("se", LikelihoodModel.linear_gaussian(1.0, 1.0), [0.5], DSE,
                       transition=TransitionModel.linear_gaussian(0.9, 1.0))
        rng = np.random.default_rng(0)
        cloud = ParticleSet(rng.standard_normal(2000), np.full(2000, 1 / 2000))
        out = particle_step(s, 1, cloud, 2000, 0)
        exact = grid_update(s, 1, Gaussian1D(0.0, 1.0))
        # oracle run at seed 0 gave 0.1073; frozen threshold just above it
        assert metrics.w1(exact.posterior, out, DSE) < 0.12

    def test_seeded_determinism(self):
        rng = np.random.default_rng(2)
        cloud = ParticleSet(rng.standard_normal(300), np.full(300, 1 / 300))
        a = particle_step(SE, 1, cloud, 300, 77)
        b = particle_step(SE, 1, cloud, 300, 77)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.weights, b.weights)

    def test_all_weights_zero(self):
        def ev(y, x, w=None):
            return np.zeros_like(np.asarray(x, dtype=float))

        s = SystemSpec("se", LikelihoodModel.custom(ev), [0.0], DSE,
                       transition=TransitionModel.linear_gaussian(0.9, 1.0))
        cloud = ParticleSet(np.zeros(10), np.full(10, 0.1))
        with pytest.raises(AllWeightsZero):
            particle_step(s, 1, cloud, 10, 0)

    def test_rejects_non_se(self):
        cloud = ParticleSet(np.zeros(10), np.full(10, 0.1))
        with pytest.raises(UnsupportedRepresentation):
            particle_step(IP, 1, cloud, 10, 0)

    def test_negative_likelihood_is_non_finite(self):
        # h(y, x) = x is negative on half the cloud
        s = SystemSpec("se", LikelihoodModel.custom(_identity_likelihood), [0.0],
                       DomainSpec(-10.0, 10.0, 401),
                       transition=TransitionModel.linear_gaussian(0.9, 1.0))
        with pytest.raises(NonFinite, match="likelihood"):
            particle_step(s, 1, _uniform_cloud(), 200, 0)

    def test_mean_error_halves_when_n_quadruples(self):
        s = SystemSpec("se", LikelihoodModel.linear_gaussian(1.0, 1.0), [0.5], DSE,
                       transition=TransitionModel.linear_gaussian(0.9, 1.0))
        exact_mean = moments(grid_update(s, 1, Gaussian1D(0.0, 1.0)).posterior)[0]
        errors = {n: [] for n in (500, 2000)}
        for seed in range(50):
            rng = np.random.default_rng(1000 + seed)
            for n in errors:
                cloud = ParticleSet(rng.standard_normal(n), np.full(n, 1.0 / n))
                out = particle_step(s, 1, cloud, n, seed)
                errors[n].append(abs(out.points.mean() - exact_mean))
        ratio = np.mean(errors[2000]) / np.mean(errors[500])
        assert 0.5 * 0.7 <= ratio <= 0.5 * 1.3


def _same_update(a, b):
    assert a.evidence == b.evidence
    assert a.posterior.values.tobytes() == b.posterior.values.tobytes()


class TestKernelReuse:
    def test_se_kernel_is_evaluated_once_per_system(self):
        blocks = []
        base = TransitionModel.linear_gaussian(1.0, 1.0)

        def counting_kernel(x_next, x_prev):
            blocks.append(1)
            return base.kernel(x_next, x_prev)

        s = SystemSpec("se", LikelihoodModel.linear_gaussian(1.0, 3.0), np.zeros(10), DSE,
                       transition=TransitionModel.custom(counting_kernel))
        prior = discretize(Gaussian1D(0.0, 1.0), DSE)
        for k in range(1, 11):
            prior = grid_update(s, k, prior).posterior
        assert len(blocks) == math.ceil(DSE.grid_points / _KERNEL_BLOCK) == len(models._blocks(2001))

    def test_paired_se_updates_match_single_updates(self):
        priors = [discretize(Gaussian1D(0.0, 1.0), DSE), discretize(Gaussian1D(1.5, 2.0), DSE)]
        for pair, prior in zip(grid_updates(SE, 1, priors), priors):
            _same_update(pair, grid_update(SE, 1, prior))

    def test_paired_ps_updates_match_single_updates(self):
        xd, wd = DomainSpec(-15.0, 15.0, 241), DomainSpec(-0.25, 1.45, 241)
        s = SystemSpec("ps", LikelihoodModel.linear_gaussian(1.0, 0.5), [0.5], xd,
                       transition=TransitionModel.parametric_linear_gaussian(0.25),
                       w_domain=wd)
        priors = [discretize_product(Gaussian1D(0.0, 1.0), Gaussian1D(0.6, 0.01), xd, wd),
                  discretize_product(Gaussian1D(0.5, 1.5), Gaussian1D(0.7, 0.005), xd, wd)]
        paired = grid_updates(s, 1, priors)
        for pair, prior in zip(paired, priors):
            _same_update(pair, grid_update(s, 1, prior))
        # each column is the product with that parameter's kernel matrix
        predicted = _ps_predicted_values(s, priors)[1]
        xs, wquad = xd.nodes, xd.trapezoid_weights
        for j in (0, 120, 240):
            w = wd.nodes[j]
            dense = kernel_matrix(s.transition.kernel, xs, xs, w) @ (wquad * priors[1].values[:, j])
            assert predicted[:, j].tobytes() == dense.tobytes()

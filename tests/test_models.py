import math

import numpy as np
import pytest

from bslcert import models
from bslcert.bayes import predicted_values
from bslcert.domains import DomainSpec, Gaussian1D, discretize
from bslcert.errors import NonFinite, UnboundedConstant, ZeroEvidence
from bslcert.models import (ConstantsReport, LikelihoodModel, SystemSpec,
                            TransitionModel, grid_constant_estimates, kernel_matrix,
                            se_g_values, system_constants, validate_admissible)

D40 = DomainSpec(-40.0, 40.0, 8001)


def ip_system(a=1.1, noise_var=3.0, y=1.0, domain=D40, n_steps=1):
    return SystemSpec("ip", LikelihoodModel.linear_gaussian(a, noise_var),
                      np.full(n_steps, y), domain)


def se_system(trans_a=1.0, trans_q=1.0, a=1.0, noise_var=3.0, y=0.0,
              domain=DomainSpec(-30.0, 30.0, 2001)):
    return SystemSpec("se", LikelihoodModel.linear_gaussian(a, noise_var), [y], domain,
                      transition=TransitionModel.linear_gaussian(trans_a, trans_q))


class TestSystemConstants:
    def test_ip_likelihood_sup(self):
        c = system_constants(ip_system(), 1, "tv")
        assert abs(c.c_h - 1.0 / math.sqrt(2 * math.pi * 3.0)) < 1e-15
        assert abs(c.c_h - 0.23033) < 1e-5
        assert c.d == 80.0

    def test_ip_lipschitz(self):
        c = system_constants(ip_system(), 1, "w1")
        expected = 1.1 * math.exp(-0.5) / (3.0 * math.sqrt(2 * math.pi))
        assert abs(c.h_lip - expected) < 1e-15
        assert abs(c.h_lip - 0.08872) < 1e-5

    def test_se_smoothed_sup(self):
        c = system_constants(se_system(), 1, "tv")
        assert abs(c.c_th - 1.0 / math.sqrt(2 * math.pi * 4.0)) < 1e-15
        assert abs(c.c_th - 0.19947) < 1e-5

    def test_closed_form_vs_grid_estimates(self):
        s = ip_system()
        for metric in ("tv", "w1"):
            closed = system_constants(s, 1, metric)
            fine = grid_constant_estimates(s, 1, metric, 8001)
            finer = grid_constant_estimates(s, 1, metric, 32001)
            assert closed.c_h >= fine.c_h
            assert abs(closed.c_h - fine.c_h) / closed.c_h < 1e-4
            assert abs(closed.c_h - finer.c_h) <= abs(closed.c_h - fine.c_h)
            if metric == "w1":
                assert closed.h_lip >= fine.h_lip
                assert abs(closed.h_lip - fine.h_lip) / closed.h_lip < 1e-4
                assert abs(closed.h_lip - finer.h_lip) <= abs(closed.h_lip - fine.h_lip)

    def test_se_closed_form_vs_grid(self):
        s = se_system()
        closed = system_constants(s, 1, "tv")
        fine = grid_constant_estimates(s, 1, "tv", 2001)
        finer = grid_constant_estimates(s, 1, "tv", 8001)
        assert closed.c_th >= fine.c_th * (1 - 1e-12)
        assert abs(closed.c_th - fine.c_th) / closed.c_th < 1e-4
        assert abs(closed.c_th - finer.c_th) <= abs(closed.c_th - fine.c_th) + 1e-15

    def test_smoothed_sup_below_likelihood_sup(self):
        s = se_system()
        c = system_constants(s, 1, "tv")
        sup_h = 1.0 / math.sqrt(2 * math.pi * 3.0)
        assert c.c_th <= sup_h

    def test_declared_sup_validated(self):
        def ev(y, x, w=None):
            return np.exp(-0.5 * np.asarray(x, dtype=float) ** 2)

        lik = LikelihoodModel.custom(ev, declared_sup=0.5)  # true sup is 1
        s = SystemSpec("ip", lik, [0.0], D40)
        with pytest.raises(UnboundedConstant):
            system_constants(s, 1, "tv")

    def test_divergence_guard(self):
        d = DomainSpec(-10.0, 10.0, 401)
        spike = d.nodes[1]  # present on the fine grid, absent from the stride-2 subgrid

        def ev(y, x, w=None):
            x = np.asarray(x, dtype=float)
            return 1.0 + 1e6 * np.exp(-0.5 * ((x - spike) / 1e-4) ** 2)

        s = SystemSpec("ip", LikelihoodModel.custom(ev), [0.0], d)
        with pytest.raises(UnboundedConstant):
            system_constants(s, 1, "tv")

    def test_ps_constants(self):
        xd = DomainSpec(-15.0, 15.0, 241)
        wd = DomainSpec(-0.25, 1.45, 241)
        s = SystemSpec("ps", LikelihoodModel.linear_gaussian(1.0, 0.5), [0.3], xd,
                       transition=TransitionModel.parametric_linear_gaussian(0.25),
                       w_domain=wd)
        c = system_constants(s, 1, "tv")
        assert abs(c.c_th_tilde - 1.0 / math.sqrt(2 * math.pi * 0.75)) < 1e-12
        assert c.d == xd.diameter() + wd.diameter()
        grid = grid_constant_estimates(s, 1, "tv", 241)
        assert c.c_th_tilde >= grid.c_th_tilde * (1 - 1e-12)

    def test_report_rejects_nonpositive_sup(self):
        with pytest.raises(NonFinite):
            ConstantsReport("ip", 80.0, c_h=0.0)


class TestValidateAdmissible:
    def test_ip_gaussian_evidence(self):
        z = validate_admissible(ip_system(), 1, Gaussian1D(0.0, 1.0))
        marg_var = 1.1 ** 2 * 1.0 + 3.0
        expected = math.exp(-0.5 / marg_var) / math.sqrt(2 * math.pi * marg_var)
        assert abs(z - expected) < 1e-9
        assert abs(z - 0.17266) < 1e-5

    def test_zero_evidence(self):
        d = DomainSpec(-10.0, 10.0, 1001)

        def ev(y, x, w=None):  # support only on [5, 6]
            x = np.asarray(x, dtype=float)
            return np.where((x >= 5.0) & (x <= 6.0), 1.0, 0.0)

        s = SystemSpec("ip", LikelihoodModel.custom(ev), [0.0], d)
        prior = discretize(Gaussian1D(-8.0, 0.01), d)
        with pytest.raises(ZeroEvidence):
            validate_admissible(s, 1, prior)

    def test_se_nested_evidence(self):
        z = validate_admissible(se_system(), 1, Gaussian1D(0.0, 1.0))
        assert abs(z - 1.0 / math.sqrt(2 * math.pi * 5.0)) < 1e-9
        assert abs(z - 0.17841) < 1e-5


class TestTransitionModel:
    def test_kernel_rows_normalized_in_the_interior(self):
        s = se_system()
        d = s.domain
        interior = d.nodes[d.grid_points // 4: 3 * d.grid_points // 4: 200]
        for x_prev in interior:
            col = s.transition.kernel(d.nodes, x_prev)
            assert abs(d.integrate(col) - 1.0) < 1e-6

    def test_se_g_matches_direct_quadrature(self):
        s = se_system()
        d = s.domain
        g = se_g_values(s, 1)
        h = s.likelihood.evaluator(0.0, d.nodes)
        for idx in (0, 500, 1000, 1999):
            direct = d.integrate(h * s.transition.kernel(d.nodes, d.nodes[idx]))
            assert abs(g[idx] - direct) < 1e-12

    def test_sampler_is_seeded(self):
        t = TransitionModel.linear_gaussian(0.9, 1.0)
        a = t.sampler(np.random.default_rng(0), np.zeros(5))
        b = t.sampler(np.random.default_rng(0), np.zeros(5))
        assert np.array_equal(a, b)


class TestSystemSpec:
    def test_step_indexing(self):
        s = ip_system(n_steps=3)
        assert s.y(1) == 1.0
        with pytest.raises(ValueError):
            s.y(0)
        with pytest.raises(ValueError):
            s.y(4)

    def test_variant_validation(self):
        with pytest.raises(ValueError):
            SystemSpec("se", LikelihoodModel.linear_gaussian(1.0, 1.0), [0.0], D40)
        with pytest.raises(ValueError):
            SystemSpec("xx", LikelihoodModel.linear_gaussian(1.0, 1.0), [0.0], D40)


class TestTransitionCache:
    def test_cached_matrix_is_the_dense_kernel(self):
        s = se_system()
        xs = s.domain.nodes
        matrix = s.transition_kernel(s.domain)
        dense = s.transition.kernel(xs[:, None], xs[None, :])
        assert matrix.tobytes() == dense.tobytes()
        assert kernel_matrix(s.transition.kernel, xs, xs).tobytes() == dense.tobytes()
        assert s.transition_kernel(s.domain) is matrix
        assert not matrix.flags.writeable

    def test_grid_over_the_cap_streams(self, monkeypatch):
        d = DomainSpec(-30.0, 30.0, 3001)  # a 72 MB matrix
        prior = discretize(Gaussian1D(0.0, 1.0), d)
        streamed_system = se_system(domain=d)
        assert streamed_system.transition_kernel(d) is streamed_system.transition.kernel
        streamed = predicted_values(streamed_system, 1, prior)
        monkeypatch.setattr(models, "_KERNEL_CACHE_BYTES", 8 * d.grid_points ** 2)
        cached_system = se_system(domain=d)
        assert isinstance(cached_system.transition_kernel(d), np.ndarray)
        assert predicted_values(cached_system, 1, prior).tobytes() == streamed.tobytes()

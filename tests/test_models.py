import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from bslcert import domains, harness, models
from bslcert.bayes import grid_update, predicted_values
from bslcert.domains import DomainSpec, Gaussian1D, discretize
from bslcert.errors import (NonFinite, UnboundedConstant, UnsupportedRepresentation,
                            ZeroEvidence)
from bslcert.models import (ConstantsReport, LikelihoodModel, SystemSpec,
                            TransitionModel, kernel_matrix, se_g_values, system_constants,
                            transition_matrix)
from helpers import PDF_INPUTS, grid_constant_estimates, on_grid, two_temporary_pdf

D40 = DomainSpec(-40.0, 40.0, 8001)


def ip_system(a=1.1, noise_var=3.0, y=1.0, domain=D40, n_steps=1):
    return SystemSpec("ip", LikelihoodModel.linear_gaussian(a, noise_var),
                      np.full(n_steps, y), domain)


def se_system(trans_a=1.0, trans_q=1.0, a=1.0, noise_var=3.0, y=0.0,
              domain=DomainSpec(-30.0, 30.0, 2001)):
    return SystemSpec("se", LikelihoodModel.linear_gaussian(a, noise_var), [y], domain,
                      transition=TransitionModel.linear_gaussian(trans_a, trans_q))


def ps_system():
    return SystemSpec("ps", LikelihoodModel.linear_gaussian(1.0, 0.5), [0.3],
                      DomainSpec(-15.0, 15.0, 241),
                      transition=TransitionModel.parametric_linear_gaussian(0.25),
                      w_domain=DomainSpec(-0.25, 1.45, 241))


class TestSystemConstants:
    def test_ip_likelihood_sup(self):
        c = system_constants(ip_system(), 1, "tv")
        assert abs(c.sup - 1.0 / math.sqrt(2 * math.pi * 3.0)) < 1e-15
        assert abs(c.sup - 0.23033) < 1e-5
        assert c.d == 80.0

    def test_ip_lipschitz(self):
        c = system_constants(ip_system(), 1, "w1")
        expected = 1.1 * math.exp(-0.5) / (3.0 * math.sqrt(2 * math.pi))
        assert abs(c.lip - expected) < 1e-15
        assert abs(c.lip - 0.08872) < 1e-5

    def test_se_smoothed_sup(self):
        c = system_constants(se_system(), 1, "tv")
        assert abs(c.sup - 1.0 / math.sqrt(2 * math.pi * 4.0)) < 1e-15
        assert abs(c.sup - 0.19947) < 1e-5

    def test_closed_form_vs_grid_estimates(self):
        s = ip_system()
        for metric in ("tv", "w1"):
            closed = system_constants(s, 1, metric)
            fine = grid_constant_estimates(s, 1, metric, 8001)
            finer = grid_constant_estimates(s, 1, metric, 32001)
            assert closed.sup >= fine.sup
            assert abs(closed.sup - fine.sup) / closed.sup < 1e-4
            assert abs(closed.sup - finer.sup) <= abs(closed.sup - fine.sup)
            if metric == "w1":
                assert closed.lip >= fine.lip
                assert abs(closed.lip - fine.lip) / closed.lip < 1e-4
                assert abs(closed.lip - finer.lip) <= abs(closed.lip - fine.lip)

    def test_se_closed_form_vs_grid(self):
        s = se_system()
        closed = system_constants(s, 1, "tv")
        fine = grid_constant_estimates(s, 1, "tv", 2001)
        finer = grid_constant_estimates(s, 1, "tv", 8001)
        assert closed.sup >= fine.sup * (1 - 1e-12)
        assert abs(closed.sup - fine.sup) / closed.sup < 1e-4
        assert abs(closed.sup - finer.sup) <= abs(closed.sup - fine.sup) + 1e-15

    def test_smoothed_sup_below_likelihood_sup(self):
        s = se_system()
        c = system_constants(s, 1, "tv")
        sup_h = 1.0 / math.sqrt(2 * math.pi * 3.0)
        assert c.sup <= sup_h

    def test_declared_sup_validated(self):
        def ev(y, x, w=None):
            return np.exp(-0.5 * np.asarray(x, dtype=float) ** 2)

        lik = LikelihoodModel.custom(ev, declared_sup=0.5)  # true sup is 1
        s = SystemSpec("ip", lik, [0.0], D40)
        for _ in range(2):  # a failed computation is not kept
            with pytest.raises(UnboundedConstant):
                system_constants(s, 1, "tv")

    def test_declared_lip_validated(self):
        def ev(y, x, w=None):
            return np.exp(-0.5 * np.asarray(x, dtype=float) ** 2)

        # the grid's largest difference quotient is 0.606, far above the declaration
        lik = LikelihoodModel.custom(ev, declared_lip=1e-3)
        s = SystemSpec("ip", lik, [0.0], DomainSpec(-10.0, 10.0, 401))
        assert system_constants(s, 1, "tv").sup == 1.0
        with pytest.raises(UnboundedConstant):
            system_constants(s, 1, "w1")

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
        s = ps_system()
        c = system_constants(s, 1, "tv")
        assert abs(c.sup - 1.0 / math.sqrt(2 * math.pi * 0.75)) < 1e-12
        assert c.d == s.domain.diameter() + s.w_domain.diameter()
        grid = grid_constant_estimates(s, 1, "tv", 241)
        assert c.sup >= grid.sup * (1 - 1e-12)

    def test_ps_w1_term_is_the_exact_closed_form(self):
        # on the vi_demo grids max(max |w|, max |x|) = 15, and h = N(y; x, 0.5) has unit mass in x
        s = harness.ps_toy_system(5, np.random.default_rng(0))
        exact = math.exp(-0.5) / (math.sqrt(2 * math.pi) * 0.25) * 15.0
        for k in range(1, 6):
            c = system_constants(s, k, "w1").lip
            assert c == 14.518243471148601
            assert abs(c - exact) <= 1e-15 * exact
            assert c >= models._ps_star_estimate(s, k)

    def test_ps_oracle_evaluates_g_at_n_nodes(self):
        s = ps_system()
        sups = {n: grid_constant_estimates(s, 1, "tv", n).sup for n in (201, 241, 401)}
        assert sups[201] != sups[401]
        assert sups[241] == 0.46065886596178074  # n is the system grid

    def test_report_rejects_nonpositive_sup(self):
        with pytest.raises(NonFinite):
            ConstantsReport("ip", 80.0, sup=0.0)


def _identity_lik(y, x, w=None):
    return np.asarray(x, dtype=float)


class TestLikelihoodChecked:
    """Every grid evaluation of h rejects negative values, as the updates do."""

    def se_negative(self):
        return SystemSpec("se", LikelihoodModel.custom(_identity_lik), [0.0],
                          DomainSpec(-10.0, 10.0, 401),
                          transition=TransitionModel.linear_gaussian(0.9, 1.0))

    def ps_negative(self):
        return SystemSpec("ps", LikelihoodModel.custom(_identity_lik), [0.0],
                          DomainSpec(-10.0, 10.0, 121),
                          transition=TransitionModel.parametric_linear_gaussian(0.25),
                          w_domain=DomainSpec(-0.25, 1.45, 101))

    @pytest.mark.parametrize("metric", ["tv", "w1"])
    def test_se_constants_reject_a_negative_likelihood(self, metric):
        # h(y, x) = x: the update refuses it, so its constants must too
        s = self.se_negative()
        with pytest.raises(NonFinite):
            grid_update(s, 1, discretize(Gaussian1D(0.0, 1.0), s.domain))
        with pytest.raises(NonFinite):
            system_constants(s, 1, metric)

    @pytest.mark.parametrize("metric", ["tv", "w1"])
    def test_ps_constants_reject_a_negative_likelihood(self, metric):
        with pytest.raises(NonFinite):
            system_constants(self.ps_negative(), 1, metric)

    def test_lipschitz_estimates_reject_a_negative_likelihood(self):
        se = self.se_negative()
        with pytest.raises(NonFinite):
            models._se_star_estimate(se, 1)
        with pytest.raises(NonFinite):
            models._ps_star_estimate(self.ps_negative(), 1)
        with pytest.raises(NonFinite):
            models.c_vi_tilde_estimate(self.ps_negative(), 1)


class TestConstantsMemo:
    def test_computed_once_per_observation_and_w1_flag(self):
        calls = []

        def ev(y, x, w=None):
            calls.append(y)
            return np.exp(-0.5 * (y - np.asarray(x, dtype=float)) ** 2)

        s = SystemSpec("ip", LikelihoodModel.custom(ev), [1.0] * 20 + [2.0], D40)
        first = system_constants(s, 1, "tv")
        for metric in ("tv", "hellinger"):
            for k in range(1, 21):
                assert system_constants(s, k, metric) is first
        assert calls == [1.0]
        assert system_constants(s, 21, "tv") is not first
        assert calls == [1.0, 2.0]
        w1 = system_constants(s, 1, "w1")
        assert w1.lip is not None and first.lip is None
        assert system_constants(s, 20, "w1") is w1
        assert calls == [1.0, 2.0, 1.0]

    @pytest.mark.parametrize("make", [ip_system, se_system, ps_system], ids=["ip", "se", "ps"])
    def test_memoized_reports_equal_fresh_ones(self, make):
        s = make()
        memoized = {m: system_constants(s, 1, m) for m in ("tv", "hellinger", "w1")}
        for metric, report in memoized.items():
            assert system_constants(s, 1, metric) is report
            assert report == system_constants(make(), 1, metric)

    def test_signed_zero_observations_are_kept_apart(self):
        def ev(y, x, w=None):
            scale = 2.0 if math.copysign(1.0, y) < 0 else 1.0
            return scale * np.exp(-0.5 * np.asarray(x, dtype=float) ** 2)

        def make():
            return SystemSpec("ip", LikelihoodModel.custom(ev), [0.0, -0.0],
                              DomainSpec(-10.0, 10.0, 401))

        s = make()
        assert system_constants(s, 1, "tv").sup == 1.0
        assert system_constants(s, 2, "tv").sup == 2.0 == models.lik_values(s, 2).max()
        assert system_constants(s, 2, "tv") == system_constants(make(), 2, "tv")


class TestLikelihoodMemo:
    """lik_values(s, k) on the system grid keeps the latest observation's values."""

    @staticmethod
    def counted(ys=(1.0, 1.0, 2.0), domain=DomainSpec(-10.0, 10.0, 401)):
        calls = []

        def ev(y, x, w=None):
            calls.append(y)
            return np.exp(-0.5 * (y - np.asarray(x, dtype=float)) ** 2)

        return SystemSpec("ip", LikelihoodModel.custom(ev), list(ys), domain), calls

    def test_one_evaluation_per_observation(self):
        s, calls = self.counted()
        p = discretize(Gaussian1D(0.0, 1.0), s.domain)
        q = discretize(Gaussian1D(1.0, 1.0), s.domain)
        post_p = grid_update(s, 1, p)
        post_q = grid_update(s, 1, q)
        g = models.g_values(s, 1)
        assert calls == [1.0]
        assert g is models.lik_values(s, 1)
        fresh, _ = self.counted()
        assert np.array_equal(grid_update(fresh, 1, p).posterior.values, post_p.posterior.values)
        assert np.array_equal(grid_update(fresh, 1, q).posterior.values, post_q.posterior.values)
        models.lik_values(s, 2)  # a repeated observation
        assert calls == [1.0]
        models.lik_values(s, 3)
        assert calls == [1.0, 2.0]

    def test_explicit_nodes_bypass_the_memo(self):
        s, calls = self.counted()
        held = models.lik_values(s, 1)
        for _ in range(2):
            assert np.array_equal(models.lik_values(s, 1, s.domain.nodes), held)
        models.lik_values(s, 3, np.array([0.5, 1.5]))
        assert calls == [1.0, 1.0, 1.0, 2.0]
        key, values = s._cache["lik_values"]
        assert key == (1.0).hex() and values is held
        assert models.lik_values(s, 1) is held

    def test_memo_is_read_only_and_leaves_the_evaluators_array_alone(self):
        own = np.ones(401)
        s = SystemSpec("ip", LikelihoodModel.custom(lambda y, x, w=None: own), [0.0],
                       DomainSpec(-10.0, 10.0, 401))
        h = models.lik_values(s, 1)
        assert not h.flags.writeable
        with pytest.raises(ValueError):
            h[0] = 2.0
        assert own.flags.writeable

    def test_signed_zero_observations_are_kept_apart(self):
        s, calls = self.counted(ys=(0.0, -0.0))
        models.lik_values(s, 1)
        models.lik_values(s, 2)
        assert [math.copysign(1.0, y) for y in calls] == [1.0, -1.0]

    @pytest.mark.parametrize("bad", ["nan", "raise"])
    def test_a_failed_evaluation_stores_nothing(self, bad):
        calls = []

        def ev(y, x, w=None):
            calls.append(y)
            if bad == "raise":
                raise ArithmeticError("evaluator failed")
            return np.full(np.shape(x), np.nan)

        s = SystemSpec("ip", LikelihoodModel.custom(ev), [0.0], DomainSpec(-10.0, 10.0, 401))
        for _ in range(2):
            with pytest.raises(NonFinite if bad == "nan" else ArithmeticError):
                models.lik_values(s, 1)
            assert "lik_values" not in s._cache
        assert calls == [0.0, 0.0]


class TestValidateAdmissible:
    """The grid update's evidence, which passes models.admissible_evidence."""

    def test_ip_gaussian_evidence(self):
        z = grid_update(ip_system(), 1, Gaussian1D(0.0, 1.0)).evidence
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
            grid_update(s, 1, prior)

    def test_se_nested_evidence(self):
        z = grid_update(se_system(), 1, Gaussian1D(0.0, 1.0)).evidence
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

    @pytest.mark.parametrize("shape", PDF_INPUTS)
    def test_linear_gaussian_densities_keep_their_bits(self, shape):
        y, x = PDF_INPUTS[shape]
        lik = LikelihoodModel.linear_gaussian(1.1, 3.0).evaluator(y, x)
        trans = TransitionModel.linear_gaussian(0.9, 0.5).kernel(y, x)
        for new, old in ((lik, two_temporary_pdf(y, 1.1 * np.asarray(x, dtype=float), 3.0)),
                         (trans, two_temporary_pdf(y, 0.9 * np.asarray(x, dtype=float), 0.5))):
            assert type(new) is type(old)
            assert np.array_equal(new, old)

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


class TestUnreadSettingsFail:
    """A model setting that nothing would read is a ValueError, not ignored."""

    def test_only_parameter_state_systems_take_a_parameter_domain(self):
        s = se_system()
        with pytest.raises(ValueError, match="'se' takes no parameter domain"):
            dataclasses.replace(s, w_domain=DomainSpec(0.0, 1.0, 101))
        with pytest.raises(ValueError, match="'ip' takes no parameter domain"):
            dataclasses.replace(ip_system(), w_domain=DomainSpec(0.0, 1.0, 101))

    def test_unknown_family_tags(self):
        # "Custom" would miss CUSTOM_LIP_SAFETY, which applies to the tag "custom" only
        with pytest.raises(ValueError, match="unknown TransitionModel family 'Custom'"):
            TransitionModel(_laplace_kernel, "Custom")
        with pytest.raises(ValueError, match="unknown LikelihoodModel family 'gaussian'"):
            LikelihoodModel(_identity_lik, "gaussian", a=1.0, noise_var=1.0)

    @pytest.mark.parametrize("make,missing", [
        (lambda: LikelihoodModel(_identity_lik, "linear_gaussian", a=1.0), "noise_var"),
        (lambda: LikelihoodModel(_identity_lik, "linear_gaussian", noise_var=1.0), "a"),
        (lambda: TransitionModel(None, "linear_gaussian", q=0.5), "a"),
        (lambda: TransitionModel(None, "parametric_linear_gaussian"), "q"),
    ])
    def test_gaussian_families_need_their_parameters(self, make, missing):
        with pytest.raises(ValueError, match=f"needs {missing!r}"):
            make()

    @pytest.mark.parametrize("declared", [{"declared_sup": 1.0}, {"declared_lip": 1.0}])
    def test_gaussian_likelihood_takes_no_declared_constants(self, declared):
        with pytest.raises(ValueError, match=f"takes no {next(iter(declared))!r}"):
            LikelihoodModel(_identity_lik, "linear_gaussian", a=1.0, noise_var=1.0, **declared)

    @pytest.mark.parametrize("make,extra", [
        (lambda: LikelihoodModel(_identity_lik, a=1.0), "a"),
        (lambda: LikelihoodModel(_identity_lik, noise_var=1.0), "noise_var"),
        (lambda: TransitionModel(_half_gain_kernel, q=0.5), "q"),
        (lambda: TransitionModel(_half_gain_kernel, a=0.5), "a"),
        (lambda: TransitionModel(_laplace_kernel, "parametric_linear_gaussian", a=0.5, q=0.5), "a"),
    ])
    def test_other_families_take_no_gaussian_parameters(self, make, extra):
        with pytest.raises(ValueError, match=f"takes no {extra!r}"):
            make()

    @pytest.mark.parametrize("declared", [{"declared_sup": 1e-6}, {"declared_lip": 1.0}])
    def test_declared_constants_only_on_inverse_problems(self, declared):
        lik = LikelihoodModel.custom(_bump, **declared)
        with pytest.raises(ValueError, match="only in an inverse problem"):
            _se(lik, TransitionModel.linear_gaussian(0.9, 0.5))
        with pytest.raises(ValueError, match="only in an inverse problem"):
            SystemSpec("ps", lik, [0.0], DomainSpec(-5.0, 5.0, 101),
                       transition=TransitionModel.parametric_linear_gaussian(0.25),
                       w_domain=DomainSpec(0.0, 1.0, 101))
        SystemSpec("ip", lik, [0.0], D10)

    @pytest.mark.parametrize("make,passed", [
        (lambda: LikelihoodModel(_identity_lik, "linear_gaussian", a=1.0, noise_var=1.0),
         "'evaluator'"),
        (lambda: TransitionModel(_half_gain_kernel, "linear_gaussian", a=0.9, q=1.0), "'kernel'"),
    ])
    def test_gaussian_families_refuse_a_passed_callable(self, make, passed):
        # a callable could contradict the parameters that the closed forms read
        with pytest.raises(ValueError, match=f"builds its own {passed} from its parameters"):
            make()

    @pytest.mark.parametrize("variant,transition", [
        ("se", TransitionModel.parametric_linear_gaussian(0.5)),
        ("ps", TransitionModel.linear_gaussian(0.5, 1.0)),
    ])
    def test_transition_family_matches_the_variant(self, variant, transition):
        w_domain = DomainSpec(0.0, 1.0, 101) if variant == "ps" else None
        with pytest.raises(ValueError, match=f"variant {variant!r} takes no "
                                             f"{transition.family!r} transition"):
            SystemSpec(variant, LikelihoodModel.linear_gaussian(1.0, 1.0), [0.3],
                       DomainSpec(-10.0, 10.0, 401), transition=transition, w_domain=w_domain)

    @pytest.mark.parametrize("variant,kernel,args", [
        ("se", TransitionModel.parametric_linear_gaussian(0.5).kernel, "(x_next, x_prev)"),
        ("ps", TransitionModel.linear_gaussian(0.5, 1.0).kernel, "(x_next, x_prev, w)"),
    ], ids=["se-takes-no-w", "ps-needs-w"])
    def test_custom_kernel_takes_the_variant_arguments(self, variant, kernel, args):
        # a custom family passes the family check, so the kernel's own signature is read
        w_domain = DomainSpec(0.0, 1.0, 101) if variant == "ps" else None
        with pytest.raises(ValueError, match=f"variant {variant!r} takes no 'custom' transition: "
                                             f"its kernel must take {re.escape(args)}"):
            SystemSpec(variant, LikelihoodModel.linear_gaussian(1.0, 1.0), [0.3],
                       DomainSpec(-10.0, 10.0, 401), transition=TransitionModel.custom(kernel),
                       w_domain=w_domain)

    def test_the_arity_check_calls_no_kernel(self):
        def unreachable(x_next, x_prev):
            raise AssertionError("the kernel was called")

        for kernel in (unreachable, max):  # max has no signature to read: it is let through
            SystemSpec("se", LikelihoodModel.linear_gaussian(1.0, 1.0), [0.3],
                       DomainSpec(-10.0, 10.0, 401), transition=TransitionModel.custom(kernel))

    @pytest.mark.parametrize("make,message", [
        # a zero-noise linear-Gaussian transition has a sampler but no kernel
        (lambda: SystemSpec("ps", LikelihoodModel.linear_gaussian(1.0, 1.0), [0.3],
                            DomainSpec(-10.0, 10.0, 401),
                            transition=TransitionModel.linear_gaussian(0.5, 0.0),
                            w_domain=DomainSpec(0.0, 1.0, 101)),
         "parameter-state systems need a transition kernel"),
        (lambda: SystemSpec("se", LikelihoodModel.linear_gaussian(1.0, 1.0), [0.3],
                            DomainSpec(-10.0, 10.0, 401), transition=TransitionModel.custom(None)),
         "state-estimation systems need a transition kernel or sampler"),
        (lambda: TransitionModel.custom(np.eye(3)), "kernel must be callable"),
        (lambda: LikelihoodModel.custom(None), "needs a callable evaluator"),
    ], ids=["ps-without-kernel", "se-without-kernel-or-sampler", "kernel-not-callable",
            "evaluator-not-callable"])
    def test_unusable_models_are_refused_when_built(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()


class TestTransitionCache:
    def test_cached_matrix_is_the_dense_kernel(self):
        s = se_system()
        xs = s.domain.nodes
        matrix = s.transition_kernel()
        dense = s.transition.kernel(xs[:, None], xs[None, :])
        assert matrix.tobytes() == dense.tobytes()
        assert kernel_matrix(s.transition.kernel, xs, xs).tobytes() == dense.tobytes()
        assert s.transition_kernel() is matrix
        assert not matrix.flags.writeable

    def test_grid_over_the_cap_streams(self, monkeypatch):
        d = DomainSpec(-30.0, 30.0, 3001)  # a 72 MB matrix
        prior = discretize(Gaussian1D(0.0, 1.0), d)
        streamed_system = se_system(domain=d)
        assert streamed_system.transition_kernel() is streamed_system.transition.kernel
        streamed = predicted_values(streamed_system, prior)
        monkeypatch.setattr(models, "_KERNEL_CACHE_BYTES", 8 * d.grid_points ** 2)
        cached_system = se_system(domain=d)
        assert isinstance(cached_system.transition_kernel(), np.ndarray)
        assert predicted_values(cached_system, prior).tobytes() == streamed.tobytes()

    def test_only_the_system_grid_is_kept(self):
        s = se_system()
        matrix = s.transition_kernel()
        assert _matrices(s) == [matrix]
        assert s._cache["transition_matrix"] is matrix
        other = on_grid(s, DomainSpec(-30.0, 30.0, 801))  # another system, with a cache of its own
        assert other._cache == {}
        assert other.transition_kernel().shape == (801, 801)
        assert _matrices(s) == [matrix]


def _matrices(s):
    return [v for v in s._cache.values() if isinstance(v, np.ndarray)]


D801 = DomainSpec(-25.0, 25.0, 801)


def _particle_system(steps=10):
    """The particle bound-validate system of seed 0, on its 2001-node grid."""
    return harness.linear_se_system(steps, np.random.default_rng(0), harness.FILTER_DOMAINS["particle"])


def _counting_rmatvec(monkeypatch):
    """Record the kernel and the stacked input of every models.kernel_rmatvec call."""
    calls = []
    rmatvec = models.kernel_rmatvec

    def counting(kernel, xs_next, xs_prev, vec):
        calls.append((kernel, vec.shape))
        return rmatvec(kernel, xs_next, xs_prev, vec)

    monkeypatch.setattr(models, "kernel_rmatvec", counting)
    return calls


class TestSEClosedFormCheck:
    """An SE closed-form sup is checked against max g on at most 801 nodes, in
    one streamed kernel pass over all of the system's observations."""

    def test_stored_maxima_are_the_check_grid_maxima(self, monkeypatch):
        s = _particle_system()
        calls = _counting_rmatvec(monkeypatch)
        for k in range(1, s.n_steps + 1):
            for metric in ("tv", "w1"):
                system_constants(s, k, metric)
        assert calls == [(s.transition.kernel, (10, 801))]
        maxima = s._cache["se_g_max"]
        assert len(maxima) == 10
        check_grid = on_grid(s, D801)
        for k in range(1, s.n_steps + 1):
            expected = np.max(se_g_values(check_grid, k))
            assert maxima[s.y(k).hex()].hex() == float(expected).hex()

    def test_an_understated_sup_fails_at_its_own_step(self, monkeypatch):
        s = _particle_system()
        closed_form = models._closed_form
        # each step claims exactly its own grid max, step 3 slightly less: a check against
        # any other step's max, or a max over all steps, would fail elsewhere or pass here
        check_grid = on_grid(s, D801)
        own_max = {k: float(np.max(se_g_values(check_grid, k))) for k in range(1, 11)}
        assert len(set(own_max.values())) > 1

        def claimed(sys, k):
            lip = closed_form(sys, k)[1]
            return own_max[k] * (1.0 - 1e-6 if k == 3 else 1.0), lip

        monkeypatch.setattr(models, "_closed_form", claimed)
        for k in range(1, 11):
            if k == 3:
                with pytest.raises(UnboundedConstant):
                    system_constants(s, k, "w1")
                assert ("constants", s.y(k).hex(), True) not in s._cache
            else:
                assert system_constants(s, k, "w1").sup == own_max[k]

    def test_repeated_observations_share_one_entry(self, monkeypatch):
        s = SystemSpec("se", LikelihoodModel.linear_gaussian(1.0, 3.0), [0.3, 0.0, 0.3, -0.0, 0.0],
                       DomainSpec(-30.0, 30.0, 2001),
                       transition=TransitionModel.linear_gaussian(1.0, 1.0))
        calls = _counting_rmatvec(monkeypatch)
        for k in range(1, 6):
            system_constants(s, k, "tv")
        assert calls == [(s.transition.kernel, (3, 801))]
        assert sorted(s._cache["se_g_max"]) == sorted(y.hex() for y in (0.3, 0.0, -0.0))

    def test_a_small_system_grid_streams_with_the_kept_matrix_bits(self, monkeypatch):
        calls = _counting_rmatvec(monkeypatch)
        # symmetric and asymmetric grids, with and without a one-column tail block
        for domain in (DomainSpec(-25.0, 25.0, 201), DomainSpec(-20.0, 25.0, 513), D801):
            s = SystemSpec("se", LikelihoodModel.linear_gaussian(1.0, 1.0), [0.3, -1.2], domain,
                           transition=TransitionModel.linear_gaussian(0.9, 1.0))
            calls.clear()
            system_constants(s, 1, "tv")
            assert calls == [(s.transition.kernel, (2, domain.grid_points))]
            assert _matrices(s) == []  # the check keeps no matrix
            for k in (1, 2):  # se_g_values multiplies by the kept matrix
                assert s._cache["se_g_max"][s.y(k).hex()] == float(np.max(se_g_values(s, k)))

    def test_the_particle_system_keeps_one_matrix_and_a_small_peak(self, monkeypatch):
        # one worker, so the peak does not depend on the core count: each worker
        # evaluates one 801 x 64 block (410 KB) at a time
        monkeypatch.setattr(models, "_WORKERS", 1)
        s = _particle_system()
        grid_update(s, 1, discretize(Gaussian1D(0.0, 1.0), s.domain))  # the update keeps its kernel
        tracemalloc.start()
        try:
            for k in range(1, s.n_steps + 1):
                system_constants(s, k, "w1")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert _matrices(s) == [s.transition_kernel()]
        assert peak < 2 ** 20  # the 801-node matrix alone took 5 MB

    def test_a_long_sequence_is_checked_in_bounded_memory(self, monkeypatch):
        # 1000 distinct observations go to kernel_rmatvec 256 at a time; the
        # whole stack at once peaked at 19.7 MiB
        monkeypatch.setattr(models, "_WORKERS", 2)
        s = _particle_system(1000)
        calls = _counting_rmatvec(monkeypatch)
        tracemalloc.start()
        try:
            system_constants(s, 1, "w1")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20
        assert calls == [(s.transition.kernel, (256, 801))] * 3 + [(s.transition.kernel, (232, 801))]
        maxima = s._cache["se_g_max"]
        check_grid = on_grid(s, D801)
        for k in (1, 256, 257, 1000):
            assert maxima[s.y(k).hex()] == float(np.max(se_g_values(check_grid, k)))


# -- pinned constants -----------------------------------------------------------

D10 = DomainSpec(-10, 10, 401)  # integer bounds: the reported diameter is still a float


def _bump(y, x, w=None):
    return np.exp(-0.5 * (y - np.asarray(x, dtype=float)) ** 2)


def _ps_bump(y, x, w):
    return _bump(y, x) * (1.0 + 0.5 * np.asarray(w, dtype=float) ** 2)


def _half_gain_kernel(x_next, x_prev):
    z = np.asarray(x_next, dtype=float) - 0.5 * np.asarray(x_prev, dtype=float)
    return np.exp(-z * z) / math.sqrt(math.pi)


def _se(lik, trans, domain=DomainSpec(-30.0, 30.0, 601)):
    return SystemSpec("se", lik, [0.0, 1.7], domain, transition=trans)


PINNED_SYSTEMS = {
    "ip-reproduce": lambda: SystemSpec(
        "ip", LikelihoodModel.linear_gaussian(1.1, 3.0), [0.7, -2.3], D40),
    "ip-gain-0": lambda: SystemSpec(
        "ip", LikelihoodModel.linear_gaussian(0.0, 3.0), [0.7, -2.3], D40),
    "ip-bimodal": lambda: harness.bimodal_ip_system(3, np.random.default_rng(0), D40),
    "ip-custom": lambda: SystemSpec("ip", LikelihoodModel.custom(_bump), [0.0, 1.5], D10),
    "ip-custom-declared-sup": lambda: SystemSpec(
        "ip", LikelihoodModel.custom(_bump, declared_sup=1.0), [0.0, 1.5], D10),
    "ip-custom-declared": lambda: SystemSpec(
        "ip", LikelihoodModel.custom(_bump, declared_sup=1.0, declared_lip=1.0), [0.0, 1.5], D10),
    "ip-custom-sup-too-low": lambda: SystemSpec(
        "ip", LikelihoodModel.custom(_bump, declared_sup=0.5), [0.0, 1.5], D10),
    "se-particle": lambda: harness.linear_se_system(
        3, np.random.default_rng(0), harness.FILTER_DOMAINS["particle"]),
    "se-transition-gain-0": lambda: _se(LikelihoodModel.linear_gaussian(1.0, 3.0),
                                        TransitionModel.linear_gaussian(0.0, 1.0)),
    "se-likelihood-gain-0": lambda: _se(LikelihoodModel.linear_gaussian(0.0, 3.0),
                                        TransitionModel.linear_gaussian(0.9, 1.0)),
    "se-fuzz-custom": lambda: harness._fuzz_se_instance(np.random.default_rng(3),
                                                        DomainSpec(0.0, 1.0, 201))[0],
    "se-custom-transition": lambda: _se(LikelihoodModel.linear_gaussian(1.0, 1.0),
                                        TransitionModel.custom(_half_gain_kernel), domain=D10),
    "se-zero-noise": lambda: _se(LikelihoodModel.linear_gaussian(1.0, 3.0),
                                 TransitionModel.linear_gaussian(0.9, 0.0)),
    "ps-vi-demo": lambda: harness.ps_toy_system(5, np.random.default_rng(0)),
    "ps-custom": lambda: SystemSpec(
        "ps", LikelihoodModel.custom(_ps_bump), [0.0, 0.8], DomainSpec(-5.0, 5.0, 101),
        transition=TransitionModel.parametric_linear_gaussian(0.25),
        w_domain=DomainSpec(0.0, 1.0, 101)),
}

CR = ConstantsReport
# system_constants(s, k, metric) for k = 1, 2, ... as computed by the
# per-variant closed-form and grid branches; a class is what that step raises
PINNED_CONSTANTS = {
    "ip-reproduce": {
        "tv": [
            CR("ip", d=80.0, sup=0.23032943298089034),
            CR("ip", d=80.0, sup=0.23032943298089034),
        ],
        "w1": [
            CR("ip", d=80.0, sup=0.23032943298089034, lip=0.08872259899035258),
            CR("ip", d=80.0, sup=0.23032943298089034, lip=0.08872259899035258),
        ],
    },
    "ip-gain-0": {
        "tv": [
            CR("ip", d=80.0, sup=0.23032943298089034),
            CR("ip", d=80.0, sup=0.23032943298089034),
        ],
        "w1": [
            CR("ip", d=80.0, sup=0.23032943298089034, lip=0.0),
            CR("ip", d=80.0, sup=0.23032943298089034, lip=0.0),
        ],
    },
    "ip-bimodal": {
        "tv": [
            CR("ip", d=80.0, sup=0.39893007932437274),
            CR("ip", d=80.0, sup=0.3989317914661375),
            CR("ip", d=80.0, sup=0.39893821246606853),
        ],
        "w1": [
            CR("ip", d=80.0, sup=0.39893007932437274, lip=0.9678461141261752),
            CR("ip", d=80.0, sup=0.3989317914661375, lip=0.9678434199724917),
            CR("ip", d=80.0, sup=0.39893821246606853, lip=0.9678217585967097),
        ],
    },
    "ip-custom": {
        "tv": [
            CR("ip", d=20.0, sup=1.0),
            CR("ip", d=20.0, sup=1.0),
        ],
        "w1": [
            CR("ip", d=20.0, sup=1.0, lip=1.2120634416333598),
            CR("ip", d=20.0, sup=1.0, lip=1.2120634416333598),
        ],
    },
    "ip-custom-declared-sup": {
        "tv": [
            CR("ip", d=20.0, sup=1.0),
            CR("ip", d=20.0, sup=1.0),
        ],
        "w1": [
            CR("ip", d=20.0, sup=1.0, lip=1.2120634416333598),
            CR("ip", d=20.0, sup=1.0, lip=1.2120634416333598),
        ],
    },
    "ip-custom-declared": {
        "tv": [
            CR("ip", d=20.0, sup=1.0),
            CR("ip", d=20.0, sup=1.0),
        ],
        "w1": [
            CR("ip", d=20.0, sup=1.0, lip=1.0),
            CR("ip", d=20.0, sup=1.0, lip=1.0),
        ],
    },
    "ip-custom-sup-too-low": {
        "tv": [UnboundedConstant, UnboundedConstant],
        "w1": [UnboundedConstant, UnboundedConstant],
    },
    "se-particle": {
        "tv": [
            CR("se", d=50.0, sup=0.28209479177387814),
            CR("se", d=50.0, sup=0.28209479177387814),
            CR("se", d=50.0, sup=0.28209479177387814),
        ],
        "w1": [
            CR("se", d=50.0, sup=0.28209479177387814, lip=0.21777365206722907),
            CR("se", d=50.0, sup=0.28209479177387814, lip=0.21777365206722907),
            CR("se", d=50.0, sup=0.28209479177387814, lip=0.21777365206722907),
        ],
    },
    "se-transition-gain-0": {
        "tv": [
            CR("se", d=60.0, sup=0.19947114020071635),
            CR("se", d=60.0, sup=0.13899244306549824),
        ],
        "w1": [
            CR("se", d=60.0, sup=0.19947114020071635, lip=0.0),
            CR("se", d=60.0, sup=0.13899244306549824, lip=0.0),
        ],
    },
    "se-likelihood-gain-0": {
        "tv": [
            CR("se", d=60.0, sup=0.23032943298089034),
            CR("se", d=60.0, sup=0.23032943298089034),
        ],
        "w1": [
            CR("se", d=60.0, sup=0.23032943298089034, lip=3.009580907929354),
            CR("se", d=60.0, sup=0.23032943298089034, lip=3.009580907929354),
        ],
    },
    "se-fuzz-custom": {
        "tv": [
            CR("se", d=1.0, sup=0.9875742462744722),
        ],
        "w1": [
            CR("se", d=1.0, sup=0.9875742462744722, lip=394.64207445047003),
        ],
    },
    "se-custom-transition": {
        "tv": [
            CR("se", d=20.0, sup=0.32573500793528),
            CR("se", d=20.0, sup=0.32573500793528004),
        ],
        "w1": [
            CR("se", d=20.0, sup=0.32573500793528, lip=0.4838633485437452),
            CR("se", d=20.0, sup=0.32573500793528004, lip=0.4838614387563026),
        ],
    },
    "se-zero-noise": {
        "tv": [UnsupportedRepresentation, UnsupportedRepresentation],
        "w1": [UnsupportedRepresentation, UnsupportedRepresentation],
    },
    "ps-vi-demo": {
        "tv": [
            CR("ps", d=31.7, sup=0.4606588659617807),
            CR("ps", d=31.7, sup=0.4606588659617807),
            CR("ps", d=31.7, sup=0.4606588659617807),
            CR("ps", d=31.7, sup=0.4606588659617807),
            CR("ps", d=31.7, sup=0.4606588659617807),
        ],
        "w1": [
            CR("ps", d=31.7, sup=0.4606588659617807, lip=14.518243471148601),
            CR("ps", d=31.7, sup=0.4606588659617807, lip=14.518243471148601),
            CR("ps", d=31.7, sup=0.4606588659617807, lip=14.518243471148601),
            CR("ps", d=31.7, sup=0.4606588659617807, lip=14.518243471148601),
            CR("ps", d=31.7, sup=0.4606588659617807, lip=14.518243471148601),
        ],
    },
    "ps-custom": {
        "tv": [
            CR("ps", d=11.0, sup=1.341640786499874),
            CR("ps", d=11.0, sup=1.3416407864998743),
        ],
        "w1": [
            CR("ps", d=11.0, sup=1.341640786499874, lip=24.624965928988154),
            CR("ps", d=11.0, sup=1.3416407864998743, lip=24.941830391486995),
        ],
    },
}


class TestConstantsPinned:
    @pytest.mark.parametrize("name", sorted(PINNED_SYSTEMS))
    def test_reports_equal_the_recorded_ones(self, name):
        s = PINNED_SYSTEMS[name]()
        for metric, steps in PINNED_CONSTANTS[name].items():
            for k, expected in enumerate(steps, start=1):
                if isinstance(expected, type):
                    with pytest.raises(expected):
                        system_constants(s, k, metric)
                else:
                    assert system_constants(s, k, metric) == expected

    @pytest.mark.parametrize("name", sorted(PINNED_SYSTEMS))
    def test_every_field_is_a_float(self, name):
        s = PINNED_SYSTEMS[name]()
        for metric, steps in PINNED_CONSTANTS[name].items():
            for k, expected in enumerate(steps, start=1):
                if not isinstance(expected, type):
                    fields = dataclasses.astuple(system_constants(s, k, metric))[1:]
                    assert all(type(v) is float for v in fields if v is not None)


# -- transition matrices ---------------------------------------------------------

VI_W = DomainSpec(-0.25, 1.45, 241)  # the vi_demo parameter grid, w < 0 included


def _transition_systems(d):
    """(system, parameter nodes) pairs covering every transition_matrix branch on ``d``."""
    lik = LikelihoodModel.linear_gaussian(1.0, 1.0)
    w_nodes = VI_W.nodes if d.grid_points <= 241 else VI_W.nodes[::40]
    for a in (0.9, -0.9, 0.0):
        yield SystemSpec("se", lik, [0.0], d,
                         transition=TransitionModel.linear_gaussian(a, 0.5)), [()]
    yield SystemSpec("ps", lik, [0.0], d,
                     transition=TransitionModel.parametric_linear_gaussian(0.25),
                     w_domain=VI_W), [(w,) for w in w_nodes]
    yield SystemSpec("se", lik, [0.0], d,
                     transition=TransitionModel.custom(_half_gain_kernel)), [()]


class TestTransitionMatrix:
    @pytest.mark.parametrize("d", [DomainSpec(-15.0, 15.0, 241), DomainSpec(-50.5, 50.5, 102),
                                   DomainSpec(-25.0, 25.0, 801), DomainSpec(-25.0, 25.0, 2001)])
    def test_bits_equal_the_row_block_matrix(self, d):
        out = np.empty((d.grid_points, d.grid_points))
        for s, params in _transition_systems(d):
            for w in params:
                expected = kernel_matrix(s.transition_density(), d.nodes, d.nodes, *w)
                assert np.array_equal(transition_matrix(s, *w).view(np.int64),
                                      expected.view(np.int64))
                assert transition_matrix(s, *w, out=out) is out
                assert np.array_equal(out.view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize("d,rows", [(DomainSpec(-15.0, 15.0, 241), 121),
                                        (DomainSpec(-50.5, 50.5, 102), 51),
                                        (DomainSpec(-10.0, 10.0, 401), 401)])
    def test_symmetric_grids_evaluate_half_the_entries(self, monkeypatch, d, rows):
        entries = []

        def counting_pdf(x, mean, var, out=None):
            values = domains.gauss_pdf(x, mean, var, out=out)
            entries.append(values.size)
            return values

        monkeypatch.setattr(models, "gauss_pdf", counting_pdf)
        s = se_system(trans_a=0.9, domain=d)
        s.transition_kernel()
        ps = SystemSpec("ps", LikelihoodModel.linear_gaussian(1.0, 1.0), [0.0], d,
                        transition=TransitionModel.parametric_linear_gaussian(0.25),
                        w_domain=VI_W)
        transition_matrix(ps, 0.7)
        assert entries == [rows * d.grid_points] * 2

    def test_shipped_domains(self):
        vi = harness.ps_toy_system(1, np.random.default_rng(0))
        symmetric = {
            harness.DEFAULT_DOMAIN: False,
            harness.FILTER_DOMAINS["particle"]: False,
            DomainSpec(-25.0, 25.0, 801): True,  # the particle system's constants grid
            vi.domain: True,
            vi.w_domain: False,
            DomainSpec(-10.0, 10.0, 401): False,  # reduction fuzz: tv, hellinger, w1-ip
            DomainSpec(0.0, 1.0, 201): False,  # reduction fuzz: w1-dyn
        }
        assert {d: d.symmetric for d in symmetric} == symmetric


# -- the per-parameter kernel pass and the slab scans ----------------------------


def _laplace_kernel(x_next, x_prev, w):
    return 0.5 * np.exp(-np.abs(x_next - np.asarray(w, dtype=float) * x_prev))


def _vi_toy(transition=None):
    """The vi_demo toy system of seed 0, optionally with another transition."""
    s = harness.ps_toy_system(5, np.random.default_rng(0))
    if transition is None:
        return s
    return SystemSpec("ps", s.likelihood, s.data, s.domain, transition=transition,
                      w_domain=s.w_domain)


class TestParameterStateKernels:
    # the toy's own 241-node grid, and a 401-node x grid whose products span two column blocks
    @pytest.mark.parametrize("n,steps", [(241, range(1, 6)), (401, (1, 3))])
    def test_ps_g_is_the_per_column_kernel_matrix_product(self, n, steps):
        s = _vi_toy()
        d = DomainSpec(s.domain.lower, s.domain.upper, n)
        s = on_grid(s, d)
        for k in steps:
            h = models.lik_values_ps(s, k)
            expected = np.empty(h.shape)
            for j, w in enumerate(s.w_domain.nodes):
                kernel = kernel_matrix(s.transition.kernel, d.nodes, d.nodes, w)
                expected[:, j] = (d.trapezoid_weights * h[:, j]) @ kernel
            assert models.ps_g_values(s, k).tobytes() == expected.tobytes()

    def test_slab_estimates_keep_their_bits(self):
        # values recorded before both estimates shared one slab loop; c_vi_tilde's
        # at its 201-node grids, when they were still the default of two arguments
        s, custom = _vi_toy(), _vi_toy(TransitionModel.custom(_laplace_kernel))
        assert models._ps_star_estimate(s, 1).hex() == "0x1.cb9b685633e8ep+3"
        assert models._ps_star_estimate(s, 3).hex() == "0x1.cba90aaf0e03fp+3"
        assert models._ps_star_estimate(custom, 2).hex() == "0x1.ad08fd06343bap+2"
        assert models.c_vi_tilde_estimate(s, 1).hex() == "0x1.cd3d97ebd5abap+3"
        assert models.c_vi_tilde_estimate(custom, 2).hex() == "0x1.b8c6a2efae146p+3"

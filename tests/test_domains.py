import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtr as scipy_ndtr

from bslcert.domains import (DomainSpec, Gaussian1D, GridDensity, JointGrid2D,
                             ParticleSet, discretize, discretize_product, gauss_pdf,
                             moments, ndtr)
from bslcert import bayes
from bslcert.errors import DomainTooSmall, NonFinite, Unnormalized
from bslcert.models import LikelihoodModel, SystemSpec, lik_values
from helpers import PDF_INPUTS, XS, two_temporary_pdf


class TestDomainSpec:
    def test_diameter(self):
        d = DomainSpec(-40.0, 40.0, 8001)
        assert d.diameter() == 80.0
        assert d.nodes[0] == -40.0 and d.nodes[-1] == 40.0

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            DomainSpec(1.0, 0.0, 101)
        with pytest.raises(ValueError):
            DomainSpec(0.0, 1.0, 100)
        with pytest.raises(NonFinite):
            DomainSpec(0.0, float("inf"), 101)

    def test_trapezoid_weights_sum_to_length(self):
        d = DomainSpec(-3.0, 5.0, 257)
        assert np.isclose(d.trapezoid_weights.sum(), 8.0, rtol=0, atol=1e-12)

    def test_nodes_are_immutable(self):
        d = DomainSpec(0.0, 1.0, 101)
        with pytest.raises(ValueError):
            d.nodes[0] = 3.0


class TestGaussPdf:
    @pytest.mark.parametrize("var", [1e-3, 0.7, 25.0])
    @pytest.mark.parametrize("shape", PDF_INPUTS)
    def test_bits_and_type_unchanged(self, shape, var):
        x, mean = PDF_INPUTS[shape]
        new, old = gauss_pdf(x, mean, var), two_temporary_pdf(x, mean, var)
        assert type(new) is type(old)
        assert np.array_equal(new, old)

    @pytest.mark.parametrize("x", [0.3, np.array(0.3), XS, np.add.outer(XS[::40], XS[::50])],
                             ids=["float", "0-d", "1-D", "2-D"])
    def test_gaussian1d_pdf(self, x):
        g = Gaussian1D(1.7, 0.7)
        new, old = g.pdf(x), two_temporary_pdf(x, g.mean, g.variance)
        assert type(new) is type(old)
        assert np.array_equal(new, old)

    def test_input_is_not_written(self):
        x = XS.copy()
        gauss_pdf(x, 0.0, 1.0)
        assert np.array_equal(x, XS)


def assert_same_bits(new, old):
    assert type(new) is type(old)
    assert np.shape(new) == np.shape(old)
    assert np.array_equal(np.asarray(new).view(np.int64), np.asarray(old).view(np.int64))


_SQRT2 = math.sqrt(2.0)
# branch points in a: erf below sqrt(2), erfc's second fit from 8 sqrt(2),
# exp(-a * a / 2) cut past sqrt(2 MAXLOG) ~ 37.68
_NDTR_BRANCHES = [_SQRT2, 8.0 * _SQRT2, math.sqrt(2.0 * 7.09782712893383996843e2)]
NDTR_EDGES = np.array(
    [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2e-308, 1e300, -1e300,
     37.68, -37.68]
    + [sign * step for b in _NDTR_BRANCHES for sign in (1.0, -1.0)
       for step in (np.nextafter(b, 0.0), b, np.nextafter(b, math.inf))])
# the cdf arguments (nodes - mean) / std of every grid and Gaussian scale the library meets
NDTR_GRIDS = [(d, mean, sd) for d in (DomainSpec(-40.0, 40.0, 8001), DomainSpec(-10.0, 10.0, 401),
                                      DomainSpec(-3.0, 3.0, 101))
              for mean, sd in ((0.0, 1.0), (1.7, 0.35), (-2.3, 0.01), (0.3, 2.0), (d.upper, 5.0))]


class TestNdtr:
    """domains.ndtr and Gaussian1D.cdf keep scipy.special.ndtr's bits, type and shape."""

    def test_edge_values(self):
        assert_same_bits(ndtr(NDTR_EDGES), scipy_ndtr(NDTR_EDGES))
        for a in NDTR_EDGES:
            assert_same_bits(ndtr(float(a)), scipy_ndtr(float(a)))

    def test_around_branch_points(self):
        a = np.concatenate([sign * b * (1.0 + np.arange(-2000, 2001) * 1e-13)
                            for b in _NDTR_BRANCHES for sign in (1.0, -1.0)])
        assert_same_bits(ndtr(a), scipy_ndtr(a))

    @settings(max_examples=300, deadline=None)
    @given(st.floats(width=64))
    def test_any_float(self, a):
        assert_same_bits(ndtr(a), scipy_ndtr(a))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-60.0, 60.0), min_size=1, max_size=200))
    def test_arrays(self, values):
        a = np.array(values)
        assert_same_bits(ndtr(a), scipy_ndtr(a))

    def test_dense_sweep(self):
        a = np.linspace(-45.0, 45.0, 200_001)
        assert_same_bits(ndtr(a), scipy_ndtr(a))

    @pytest.mark.parametrize("d, mean, sd", NDTR_GRIDS)
    def test_grid_arguments(self, d, mean, sd):
        g = Gaussian1D(mean, sd * sd)
        u = (d.nodes - g.mean) / g.std
        assert_same_bits(ndtr(u), scipy_ndtr(u))
        assert_same_bits(g.cdf(d.nodes), scipy_ndtr(u))
        assert_same_bits(g.cdf(d.lower), scipy_ndtr((d.lower - g.mean) / g.std))

    @pytest.mark.parametrize("x", [0.3, -7, np.float64(-9.1), np.array(0.3), XS,
                                   np.add.outer(XS[::40], XS[::50])],
                             ids=["float", "int", "np.float64", "0-d", "1-D", "2-D"])
    def test_types_and_shapes(self, x):
        assert_same_bits(ndtr(x), scipy_ndtr(x))
        g = Gaussian1D(1.7, 0.7)
        assert_same_bits(g.cdf(x), scipy_ndtr((np.asarray(x, dtype=float) - g.mean) / g.std))


class TestDiscretize:
    def test_standard_normal(self):
        g = discretize(Gaussian1D(0.0, 1.0), DomainSpec(-20.0, 20.0, 4001))
        mean, var = moments(g)
        assert abs(mean) < 1e-9  # symmetry forces mean 0
        assert abs(var - 1.0) < 1e-6

    def test_case1_prior(self):
        g = discretize(Gaussian1D(-10.0, 5.0), DomainSpec(-40.0, 40.0, 8001))
        assert g.normalized
        mean, var = moments(g)
        assert abs(mean + 10.0) < 1e-5
        assert abs(var - 5.0) < 1e-4

    @pytest.mark.parametrize("d", [DomainSpec(-40.0, 40.0, 8001), DomainSpec(-10.0, 10.0, 401),
                                   DomainSpec(-3.0, 3.0, 101)], ids=["8001", "401", "101"])
    def test_window_keeps_the_full_grid_bits(self, d):
        rng = np.random.default_rng(11)
        cases = []
        for sd in np.geomspace(0.01, 5.0, 30):
            lo, hi = d.lower + 8.001 * sd, d.upper - 8.001 * sd
            if lo < hi:  # means at either end clip the window; a random one may too
                cases += [(m, sd) for m in (lo, hi, rng.uniform(lo, hi))]
        # wider than the grid: the window covers every node
        wide = d.diameter() / 16.5
        assert wide * math.sqrt(2.0 * 746.0) > d.diameter()
        cases.append((0.5 * (d.lower + d.upper) + 0.01 * wide, wide))
        for mean, sd in cases:
            g = Gaussian1D(mean, sd ** 2)
            full = g.pdf(d.nodes)
            assert discretize(g, d).values.tobytes() == (full / d.integrate(full)).tobytes()

    def test_domain_too_small(self):
        with pytest.raises(DomainTooSmall):
            discretize(Gaussian1D(0.0, 1.0), DomainSpec(-2.0, 2.0, 101))

    def test_one_sided_coverage_rejected(self):
        with pytest.raises(DomainTooSmall):
            discretize(Gaussian1D(0.0, 1.0), DomainSpec(-3.0, 30.0, 1001))

    @settings(max_examples=40, deadline=None)
    @given(mean=st.floats(-5.0, 5.0), var=st.floats(0.01, 25.0))
    def test_moment_round_trip(self, mean, var):
        g = discretize(Gaussian1D(mean, var), DomainSpec(-60.0, 60.0, 8001))
        m, v = moments(g)
        assert abs(m - mean) <= 1e-5 * max(1.0, abs(mean))
        assert abs(v - var) <= 1e-5 * var
        assert abs(g.mass() - 1.0) < 1e-8


class TestMoments:
    def test_shifted_normal(self):
        g = discretize(Gaussian1D(2.0, 1.0), DomainSpec(-20.0, 20.0, 4001))
        mean, var = moments(g)
        assert abs(mean - 2.0) < 1e-6
        assert abs(var - 1.0) < 1e-5

    def test_uniform(self):
        d = DomainSpec(0.0, 1.0, 1001)
        u = GridDensity(d, np.ones(d.grid_points))
        mean, var = moments(u)
        assert abs(mean - 0.5) < 1e-12
        assert abs(var - 1.0 / 12.0) < 1e-6

    def test_requires_normalized(self):
        d = DomainSpec(0.0, 1.0, 101)
        scaled = GridDensity(d, np.full(101, 2.0), normalized=False)
        with pytest.raises(Unnormalized):
            moments(scaled)


class TestGridDensity:
    def test_normalization_enforced(self):
        d = DomainSpec(0.0, 1.0, 101)
        with pytest.raises(Unnormalized):
            GridDensity(d, np.full(101, 2.0), normalized=True)

    def test_rejects_negative_and_nonfinite(self):
        d = DomainSpec(0.0, 1.0, 101)
        bad = np.ones(101)
        bad[3] = -0.5
        with pytest.raises(ValueError):
            GridDensity(d, bad, normalized=False)
        bad[3] = np.nan
        with pytest.raises(NonFinite):
            GridDensity(d, bad, normalized=False)

    def test_scaled_measure_allowed(self):
        d = DomainSpec(0.0, 1.0, 101)
        g = GridDensity(d, np.full(101, 3.0), normalized=False)
        assert abs(g.mass() - 3.0) < 1e-12


class TestParticleSet:
    def test_weight_sum(self):
        with pytest.raises(Unnormalized):
            ParticleSet(np.array([0.0, 1.0]), np.array([0.5, 0.6]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ParticleSet(np.array([]), np.array([]))

    def test_mean(self):
        ps = ParticleSet(np.array([0.0, 2.0]), np.array([0.25, 0.75]))
        assert ps.mean() == 1.5


class TestJointGrid2D:
    def test_product_normalization(self):
        xd = DomainSpec(-15.0, 15.0, 201)
        wd = DomainSpec(-2.0, 2.0, 151)
        j = discretize_product(Gaussian1D(0.0, 1.0), Gaussian1D(0.3, 0.04), xd, wd)
        assert abs(j.mass() - 1.0) < 1e-6

    def test_shape_mismatch(self):
        xd = DomainSpec(0.0, 1.0, 101)
        wd = DomainSpec(0.0, 1.0, 111)
        with pytest.raises(ValueError):
            JointGrid2D(xd, wd, np.ones((101, 101)))


# -- the one-pass value checks: min and max in place of isfinite plus a < 0 scan

_D101 = DomainSpec(-10.0, 10.0, 101)


def _inject(base: np.ndarray, bad: tuple) -> np.ndarray:
    """A copy of ``base`` (any shape) with the flat entries 50, 51, ... set to ``bad``."""
    out = np.array(base, dtype=float)
    out.flat[50:50 + len(bad)] = bad
    return out


def _ip_system(values) -> SystemSpec:
    return SystemSpec("ip", LikelihoodModel.custom(lambda y, x, w=None: values), [0.0], _D101)


_WEIGHTS = np.r_[np.full(4, 0.25), np.zeros(96)]  # zeros at the injected entries
_UNNORM = 0.3 * discretize(Gaussian1D(0.0, 1.0), _D101).values

# site -> (call with the injected entries, outcome for non-finite, outcome for -1.0)
_VALUE_SITES = {
    "GridDensity": (lambda bad: GridDensity(_D101, _inject(np.ones(101), bad), normalized=False),
                    (NonFinite, "density values must be finite"),
                    (ValueError, "density values must be nonnegative")),
    "ParticleSet.points": (lambda bad: ParticleSet(_inject(np.arange(100.0), bad), _WEIGHTS),
                           (NonFinite, "particles and weights must be finite"), None),
    "ParticleSet.weights": (lambda bad: ParticleSet(np.arange(100.0), _inject(_WEIGHTS, bad)),
                            (NonFinite, "particles and weights must be finite"),
                            (ValueError, "weights must be nonnegative")),
    "JointGrid2D": (lambda bad: JointGrid2D(_D101, _D101, _inject(np.ones((101, 101)), bad),
                                            normalized=False),
                    (NonFinite, "joint density values must be finite"),
                    (ValueError, "joint density values must be nonnegative")),
    "lik_values": (lambda bad: lik_values(_ip_system(_inject(np.ones(101), bad)), 1),
                   (NonFinite, "likelihood must be finite and nonnegative on the grid"),
                   (NonFinite, "likelihood must be finite and nonnegative on the grid")),
    "bayes._normalize": (lambda bad: bayes._normalize(_ip_system(None), _inject(_UNNORM, bad), None),
                         (NonFinite, "unnormalized posterior contains non-finite values"),
                         (ValueError, "density values must be nonnegative")),
}


class TestValueChecks:
    """Each site keeps its exception class and message for every kind of bad entry."""

    @pytest.mark.parametrize("site", sorted(_VALUE_SITES))
    @pytest.mark.parametrize("bad", [(math.nan,), (math.inf,), (-math.inf,), (-1.0,), (-0.0,),
                                     (-1.0, math.nan), (math.inf, -math.inf)], ids=repr)
    def test_outcome(self, site, bad):
        call, nonfinite, negative = _VALUE_SITES[site]
        if not all(math.isfinite(v) for v in bad):
            expected = nonfinite
        else:
            expected = negative if min(bad) < 0.0 else None  # -0.0 is not negative
        if expected is None:
            call(bad)
            return
        with pytest.raises(expected[0], match=re.escape(expected[1])) as info:
            call(bad)
        assert info.type is expected[0]

    def test_empty_likelihood_passes(self):
        assert lik_values(_ip_system(np.empty(0)), 1, np.empty(0)).shape == (0,)

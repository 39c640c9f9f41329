import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bslcert.domains import (DomainSpec, Gaussian1D, GridDensity, JointGrid2D,
                             ParticleSet, discretize, discretize_product, gauss_pdf,
                             joint_mass, moments)
from bslcert import bayes, domains, reduction
from bslcert.errors import DomainTooSmall, NonFinite, Unnormalized
from bslcert.models import LikelihoodModel, SystemSpec, TransitionModel, lik_values
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
        with pytest.raises(ValueError, match="overflows"):
            DomainSpec(-1e308, 1e308, 101)

    @pytest.mark.parametrize("points", [201.0, 200.5, np.float64(201), "201"],
                             ids=["201.0", "200.5", "float64", "str"])
    def test_rejects_grid_points_that_are_not_integers(self, points):
        with pytest.raises(ValueError, match="must be an integer"):
            DomainSpec(0.0, 1.0, points)

    @pytest.mark.parametrize("points", [np.int64(201), np.int32(201), np.uint16(201)])
    def test_numpy_integer_grid_points_build_the_same_grid(self, points):
        d = DomainSpec(0.0, 1.0, points)
        assert d.nodes.tobytes() == DomainSpec(0.0, 1.0, 201).nodes.tobytes()

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


# t = x - mean at which exp's argument under- or overflows, is a zero, an infinity or NaN
_EDGE_TS = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 2.0 ** -520, 1e154, 1.4e154,
                     -1e200, 1e300, 1.7976931348623157e308, np.inf, -np.inf, np.nan])


def _pdf_pair(t, mean, var):
    """gauss_pdf and the division path's expression at x = mean + t, as bytes."""
    with np.errstate(over="ignore", invalid="ignore"):
        x = mean + t
        return gauss_pdf(x, mean, var).tobytes(), two_temporary_pdf(x, mean, var).tobytes()


class TestPowerOfTwoSd:
    """sd = 2^k <= 1 squares x - mean and scales it once by -2^(1-2e), with the bits of the division."""

    # k = 0 and -1: the particle system (variance 1) and every vi_demo kernel (variance 0.25)
    @pytest.mark.parametrize("k", range(-40, 41))
    def test_bits_equal_the_division_path(self, k):
        sd = 2.0 ** k
        if k <= 0:
            assert domains._pow2_exponent_scale(sd) == -0.5 / (sd * sd)
        else:
            assert domains._pow2_exponent_scale(sd) is None
        rng = np.random.default_rng(k + 40)
        with np.errstate(over="ignore"):
            t = np.concatenate([sd * rng.uniform(-45.0, 45.0, 2000), sd * rng.standard_normal(2000),
                                _EDGE_TS, sd * _EDGE_TS])
        for mean in (0.0, 1.7 * sd):
            new, old = _pdf_pair(t, mean, sd * sd)
            assert new == old
        for t0 in _EDGE_TS:  # scalar inputs
            new, old = _pdf_pair(float(t0), 0.0, sd * sd)
            assert new == old

    @pytest.mark.parametrize("sd", [2.0 ** -400, 2.0 ** 400])
    def test_the_guard_edges(self, sd):
        if sd < 1.0:
            assert domains._pow2_exponent_scale(sd) == -0.5 / sd / sd
        else:
            assert domains._pow2_exponent_scale(sd) is None
        with np.errstate(over="ignore"):
            t = sd * np.concatenate([_EDGE_TS, np.linspace(-40.0, 40.0, 801)])
        new, old = _pdf_pair(t, 0.0, sd * sd)
        assert new == old

    @pytest.mark.parametrize("sd", [2.0 ** -401, 2.0 ** 401, 2.0 ** -520, 2.0 ** 511, 0.7, 5.0,
                                    2.0, math.nextafter(1.0, 2.0), math.nextafter(0.5, 0.0)])
    def test_other_sds_take_the_division_path(self, sd):
        assert domains._pow2_exponent_scale(sd) is None
        new, old = _pdf_pair(np.concatenate([_EDGE_TS, sd * np.linspace(-40.0, 40.0, 801)]), 0.0,
                             sd * sd)
        assert new == old

    @pytest.mark.parametrize("k", range(-40, 41))
    def test_no_overflow_the_division_path_does_not_raise(self, k):
        sd = 2.0 ** k
        with np.errstate(over="ignore"):
            ts = np.concatenate([_EDGE_TS, sd * np.array([1e154, 1.4e154, 1e300])])
        for t in ts:
            with np.errstate(over="raise"):
                try:  # the division path's exponent: z = t / sd, z * z, times -0.5
                    z = np.float64(t) / sd
                    (z * z) * -0.5
                except FloatingPointError:
                    continue
                gauss_pdf(t, 0.0, sd * sd)

    def test_huge_t_at_a_large_sd_does_not_warn(self):  # pytest makes RuntimeWarnings errors
        assert gauss_pdf(1e160, 0.0, 2.0 ** 80) == 0.0

    def test_zero_at_a_tiny_sd_is_not_nan(self):
        # -2^(1-2e) overflows at sd = 2^-520, and 0 * inf would be NaN
        assert gauss_pdf(0.0, 0.0, 2.0 ** -1040) == 1.0 / (2.0 ** -520 * math.sqrt(2.0 * math.pi))


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


class TestDiscretizeMemo:
    @pytest.fixture
    def evaluations(self, monkeypatch):
        """The (Gaussian, domain) pairs that discretize evaluates, from an empty memo."""
        seen, real = [], domains._discretize

        def spy(g, d):
            seen.append((g, d))
            return real(g, d)

        monkeypatch.setattr(domains, "_last_discretized", (None, None, None))
        monkeypatch.setattr(domains, "_discretize", spy)
        return seen

    def test_the_same_two_objects_return_the_same_density(self, evaluations):
        g, d = Gaussian1D(0.3, 1.2), DomainSpec(-20.0, 20.0, 401)
        first = discretize(g, d)
        assert discretize(g, d) is first and discretize(g, d) is first
        assert evaluations == [(g, d)]
        assert not first.values.flags.writeable

    def test_equal_but_other_objects_are_evaluated_afresh(self, evaluations):
        g, d = Gaussian1D(0.3, 1.2), DomainSpec(-20.0, 20.0, 401)
        first = discretize(g, d)
        g2, d2 = Gaussian1D(0.3, 1.2), DomainSpec(-20.0, 20.0, 401)
        assert g2 == g and d2 == d
        others = [discretize(g2, d), discretize(g2, d2), discretize(g, d2)]
        assert len(evaluations) == 4
        assert all(o is not first and o.values.tobytes() == first.values.tobytes() for o in others)

    def test_only_the_latest_pair_is_kept(self, evaluations):
        d = DomainSpec(-20.0, 20.0, 401)
        a, b = Gaussian1D(0.0, 1.0), Gaussian1D(1.0, 2.0)
        for g in (a, b, a, a, b):
            discretize(g, d)
        assert [g for g, _ in evaluations] == [a, b, a, b]

    def test_a_failed_evaluation_stores_nothing(self, evaluations):
        g, d = Gaussian1D(0.0, 1.0), DomainSpec(-20.0, 20.0, 401)
        first = discretize(g, d)
        with pytest.raises(DomainTooSmall):
            discretize(g, DomainSpec(-2.0, 2.0, 101))
        assert discretize(g, d) is first
        assert len(evaluations) == 2


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


class TestShapeAndMassChecks:
    """The shape and mass outcomes that GridDensity and JointGrid2D share, with their messages."""

    D = DomainSpec(0.0, 2.0, 101)

    def test_grid_density_shape(self):
        with pytest.raises(ValueError, match=re.escape("values must be 1-D with one entry per grid node")):
            GridDensity(self.D, np.ones((101, 1)))

    def test_joint_shape(self):
        with pytest.raises(ValueError, match=re.escape("values must have shape (101, 101), got (101,)")):
            JointGrid2D(self.D, self.D, np.ones(101))

    @pytest.mark.parametrize("make,message", [
        (lambda d, v: GridDensity(d, v[0]), "trapezoid mass "),
        (lambda d, v: JointGrid2D(d, d, v), "2-D trapezoid mass "),
    ], ids=["grid", "joint"])
    def test_unit_mass(self, make, message):
        with pytest.raises(Unnormalized, match=f"^{message}" + r"\S+ is not 1 within 1e-0[68]$"):
            make(self.D, np.ones((101, 101)))

    @pytest.mark.parametrize("make,message", [
        (lambda d, v: GridDensity(d, v[0], normalized=False), "scaled density"),
    ], ids=["grid"])
    def test_scaled_mass(self, make, message):
        with pytest.raises(ValueError, match=re.escape(f"{message} must have finite positive mass, got 0.0")):
            make(self.D, np.zeros((101, 101)))


class TestParticleSet:
    def test_weight_sum(self):
        with pytest.raises(Unnormalized):
            ParticleSet(np.array([0.0, 1.0]), np.array([0.5, 0.6]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ParticleSet(np.array([]), np.array([]))

    def test_read_only_grid_nodes_are_not_copied(self):
        s = SystemSpec("se", LikelihoodModel.linear_gaussian(1.0, 1.0), [0.0], _D101,
                       transition=TransitionModel.linear_gaussian(0.9, 1.0))
        masses = discretize(Gaussian1D(0.0, 1.0), _D101).values
        assert reduction._atomic(s, masses).points is s.domain.nodes

    def test_writable_and_view_inputs_are_copied(self):
        view = np.array([0.0, 1.0, 2.0]).view()  # read-only view of a writable base
        view.setflags(write=False)
        for points in (np.array([0.0, 1.0, 2.0]), view, [0.0, 1.0, 2.0], np.arange(3)):
            ps = ParticleSet(points, np.full(3, 1.0 / 3.0))
            assert ps.points is not points and not ps.points.flags.writeable
            assert ps.points.dtype == np.float64 and ps.points.tolist() == [0.0, 1.0, 2.0]

    def test_read_only_non_finite_points_still_raise(self):
        points = np.array([0.0, math.nan, 2.0])
        points.setflags(write=False)
        with pytest.raises(NonFinite, match="particles and weights must be finite"):
            ParticleSet(points, np.full(3, 1.0 / 3.0))


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
_JOINT = np.r_[np.zeros((1, 101)), np.ones((100, 101))]  # zeros at the injected entries
_JOINT /= joint_mass(_D101, _D101, _JOINT)
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
    "JointGrid2D": (lambda bad: JointGrid2D(_D101, _D101, _inject(_JOINT, bad)),
                    (NonFinite, "joint density values must be finite"),
                    (ValueError, "joint density values must be nonnegative")),
    "lik_values": (lambda bad: lik_values(_ip_system(_inject(np.ones(101), bad)), 1),
                   (NonFinite, "likelihood must be finite and nonnegative on the grid"),
                   (NonFinite, "likelihood must be finite and nonnegative on the grid")),
    "bayes._normalize": (lambda bad: bayes._normalize(_ip_system(None), _inject(_UNNORM, bad)),
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

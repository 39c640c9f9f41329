import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import trapezoid
from scipy.special import ndtr
from scipy.stats import wasserstein_distance

from bslcert import metrics
from bslcert.domains import (DomainSpec, Gaussian1D, GridDensity, ParticleSet, discretize,
                             discretize_product)
from bslcert.errors import (DomainMismatch, DomainTooSmall, NonFinite, Unnormalized,
                            UnsupportedRepresentation)
from bslcert.metrics import hellinger, scaled_hellinger, tv, w1
from helpers import gauss_tv_equal_var, gaussian_hellinger, random_density

D40 = DomainSpec(-40.0, 40.0, 8001)
D10 = DomainSpec(-10.0, 10.0, 1001)


class TestTV:
    def test_identical(self):
        assert tv(Gaussian1D(0, 1), Gaussian1D(0, 1), D40) == 0.0

    def test_unit_shift_pair(self):
        # equal variances cross at the midpoint; closed form 2*Phi(1) - 1
        r = tv(Gaussian1D(0, 1), Gaussian1D(2, 1), D40)
        assert abs(r - gauss_tv_equal_var(0.0, 2.0, 1.0)) < 1e-5

    def test_near_disjoint_pair(self):
        # oracle: 2*Phi(18 / (2*sqrt(5))) - 1 = 0.9999430058837666
        r = tv(Gaussian1D(-10, 5), Gaussian1D(8, 5), D40)
        assert abs(r - 0.9999430058837666) < 1e-7
        assert 1.0 - r < 1e-4

    def test_rejects_particles(self):
        ps = ParticleSet(np.array([0.0]), np.array([1.0]))
        with pytest.raises(UnsupportedRepresentation):
            tv(ps, Gaussian1D(0, 1), D40)

    def test_rejects_unnormalized(self):
        g = GridDensity(D10, np.full(D10.grid_points, 2.0), normalized=False)
        with pytest.raises(Unnormalized):
            tv(g, Gaussian1D(0, 1), D10)


class TestHellinger:
    def test_identical(self):
        assert hellinger(Gaussian1D(3, 2), Gaussian1D(3, 2), D40) == 0.0

    def test_unit_shift_pair(self):
        r = hellinger(Gaussian1D(0, 1), Gaussian1D(2, 1), D40)
        assert abs(r - math.sqrt(1.0 - math.exp(-0.5))) < 1e-9

    def test_variance_pair(self):
        # closed form sqrt(1 - sqrt(4/5)) = 0.3249196962329063
        r = hellinger(Gaussian1D(0, 1), Gaussian1D(0, 4), D40)
        assert abs(r - 0.3249196962329063) < 1e-9
        assert abs(r - gaussian_hellinger(Gaussian1D(0, 1), Gaussian1D(0, 4))) < 1e-9

    @settings(max_examples=40, deadline=None)
    @given(v1=st.floats(0.01, 25.0), v2=st.floats(0.01, 25.0), dm=st.floats(-4.0, 4.0))
    def test_closed_form_matches_quadrature(self, v1, v2, dm):
        a, b = Gaussian1D(0.0, v1), Gaussian1D(dm, v2)
        r = hellinger(a, b, DomainSpec(-60.0, 60.0, 8001))
        assert abs(r - gaussian_hellinger(a, b)) < 1e-7


class TestW1:
    def test_mean_shift(self):
        r = w1(Gaussian1D(0, 1), Gaussian1D(2, 1), D40)
        assert abs(r - 2.0) < 1e-9

    def test_particle_self(self):
        ps = ParticleSet(np.array([0.0, 1.0, 2.5]), np.array([0.2, 0.3, 0.5]))
        assert w1(ps, ps, D10) == 0.0

    def test_uniform_translation(self):
        d = DomainSpec(-2.0, 3.0, 501)  # spacing 0.01 makes 0.5 an exact shift
        base = ((d.nodes >= 0.0) & (d.nodes <= 1.0)).astype(float)
        shifted = ((d.nodes >= 0.5) & (d.nodes <= 1.5)).astype(float)
        a = GridDensity(d, base / d.integrate(base))
        b = GridDensity(d, shifted / d.integrate(shifted))
        assert abs(w1(a, b, d) - 0.5) < 1e-12

    def test_empirical_matches_scipy(self):
        rng = np.random.default_rng(3)
        a = ParticleSet(rng.uniform(-5, 5, 400), np.full(400, 1 / 400))
        b = ParticleSet(rng.uniform(-4, 6, 300), np.full(300, 1 / 300))
        mine = w1(a, b, D10)
        assert abs(mine - wasserstein_distance(a.points, b.points)) < 1e-10

    def test_mixed_continuous_empirical(self):
        rng = np.random.default_rng(5)
        pts = rng.standard_normal(2000)
        cloud = ParticleSet(pts, np.full(2000, 5e-4))
        value = w1(Gaussian1D(0.0, 1.0), cloud, D10)
        # dense-grid oracle for the CDF gap integral
        xs = np.linspace(-10, 10, 200001)
        fg = ndtr(xs)
        fe = np.searchsorted(np.sort(pts), xs, side="right") / 2000
        oracle = trapezoid(np.abs(fg - fe), xs)
        assert abs(value - oracle) < 1e-4

    def test_particles_outside_domain(self):
        ps = ParticleSet(np.array([50.0]), np.array([1.0]))
        with pytest.raises(DomainMismatch):
            w1(ps, Gaussian1D(0, 1), D10)

    @pytest.mark.parametrize("other", ["gaussian", "grid", "particles"])
    def test_gaussian_reads_as_its_discretization(self, other):
        g = Gaussian1D(0.3, 0.8)
        x = {"gaussian": Gaussian1D(-0.5, 1.2),
             "grid": discretize(Gaussian1D(1.0, 0.5), D10),
             "particles": ParticleSet(np.random.default_rng(7).normal(0.0, 1.5, 500),
                                      np.full(500, 1 / 500))}[other]
        q = discretize(g, D10)
        assert w1(g, x, D10).hex() == w1(q, x, D10).hex()
        assert w1(x, g, D10).hex() == w1(x, q, D10).hex()


@pytest.fixture
def general_w1_calls(monkeypatch):
    """Sizes of the breakpoint sets that w1's general empirical branch builds."""
    calls = []
    real = metrics._empirical_cdf

    def spy(ps, xs):
        calls.append(xs.size)
        return real(ps, xs)

    monkeypatch.setattr(metrics, "_empirical_cdf", spy)
    return calls


def _node_atomic(rng, d: DomainSpec, points=None) -> ParticleSet:
    """Random weights on ``points`` (the nodes by default), about a third of them zero."""
    points = d.nodes if points is None else points
    m = rng.random(points.size) ** 4
    m[rng.random(points.size) < 0.3] = 0.0
    return ParticleSet(points, m / m.sum())


class TestW1SharedSupport:
    """Two particle sets on the grid's nodes take the prefix-sum branch of w1."""

    @pytest.mark.parametrize("d, pairs", [(DomainSpec(0.0, 1.0, 101), 40),
                                          (DomainSpec(-10.0, 10.0, 401), 40),
                                          (D40, 8)], ids=lambda v: str(getattr(v, "grid_points", v)))
    def test_same_bits_as_general_branch(self, d, pairs, general_w1_calls):
        rng = np.random.default_rng(d.grid_points)
        for _ in range(pairs):
            a, b = _node_atomic(rng, d), _node_atomic(rng, d)
            fast = w1(a, b, d)
            assert general_w1_calls == []
            perm = rng.permutation(d.grid_points)
            general = w1(a, ParticleSet(b.points[perm], b.weights[perm]), d)
            assert general_w1_calls == [d.grid_points] * 2
            general_w1_calls.clear()
            assert fast.hex() == general.hex()

    @pytest.mark.parametrize("case", ["different_supports", "short_of_lower", "short_of_upper",
                                      "unsorted", "repeated_point"])
    def test_other_supports_take_general_branch(self, case, general_w1_calls):
        d = DomainSpec(-10.0, 10.0, 401)
        rng = np.random.default_rng(7)
        pts = d.nodes.copy()
        if case == "short_of_lower":
            pts = pts[1:]
        elif case == "short_of_upper":
            pts = pts[:-1]
        elif case == "unsorted":
            pts = rng.permutation(pts)
        elif case == "repeated_point":
            pts[200] = pts[199]
        a = _node_atomic(rng, d, pts)
        b_pts = pts.copy()
        if case == "different_supports":
            b_pts[100] += d.spacing / 3
        b = _node_atomic(rng, d, b_pts)
        value = w1(a, b, d)
        assert general_w1_calls
        assert abs(value - wasserstein_distance(a.points, b.points, a.weights, b.weights)) < 1e-12


class TestScaledHellinger:
    def test_scale_four_equality_case(self):
        p = discretize(Gaussian1D(0, 1), D10).values
        a = GridDensity(D10, 4.0 * p, normalized=False)
        b = GridDensity(D10, p, normalized=False)
        val = scaled_hellinger(a, b)
        assert abs(val - 1.0 / math.sqrt(2.0)) < 1e-9
        # the mass gap bound is tight here: |sqrt(4) - sqrt(1)| = sqrt(2) * distance
        assert abs(abs(2.0 - 1.0) - math.sqrt(2.0) * val) < 1e-9

    def test_identical(self):
        a = GridDensity(D10, np.full(D10.grid_points, 0.7), normalized=False)
        assert scaled_hellinger(a, a) == 0.0

    def test_normalized_case_reduces_to_hellinger(self):
        a = discretize(Gaussian1D(0, 1), D10)
        b = discretize(Gaussian1D(2, 1), D10)
        assert abs(scaled_hellinger(a, b) - hellinger(a, b, D10)) < 1e-12


class TestRepresentationErrors:
    """Every metric reads node values by one rule, so each bad input fails the same way."""

    CLOUD = ParticleSet(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
    SECOND = [(tv, Gaussian1D(0.0, 1.0)), (hellinger, Gaussian1D(0.0, 1.0)),
              (w1, Gaussian1D(0.0, 1.0)), (w1, CLOUD)]

    @pytest.mark.parametrize("fn", [tv, hellinger, w1], ids=lambda f: f.__name__)
    def test_under_covered_gaussian(self, fn):
        # mean 5 + 8 sigma reaches 13, past the upper end 10
        with pytest.raises(DomainTooSmall, match="covers fewer than 8.0 standard deviations"):
            fn(Gaussian1D(5.0, 1.0), Gaussian1D(0.0, 1.0), DomainSpec(-10.0, 10.0, 401))

    def test_under_covered_gaussian_against_particles(self):
        with pytest.raises(DomainTooSmall):
            w1(Gaussian1D(5.0, 1.0), self.CLOUD, DomainSpec(-10.0, 10.0, 401))

    @pytest.mark.parametrize("fn,other", SECOND, ids=["tv", "hellinger", "w1", "w1-particles"])
    def test_grid_density_on_another_domain(self, fn, other):
        with pytest.raises(DomainMismatch, match="grid density lives on a different domain"):
            fn(discretize(Gaussian1D(0.0, 1.0), D10), other, D40)

    @pytest.mark.parametrize("fn,other", SECOND, ids=["tv", "hellinger", "w1", "w1-particles"])
    def test_joint_grid_has_no_1d_values(self, fn, other):
        xd, wd = DomainSpec(-10.0, 10.0, 101), DomainSpec(0.0, 1.0, 101)
        joint = discretize_product(Gaussian1D(0.0, 1.0), Gaussian1D(0.5, 0.003), xd, wd)
        with pytest.raises(UnsupportedRepresentation):
            fn(joint, other, xd)


class TestTVJoint:
    XD, WD = DomainSpec(-10.0, 10.0, 101), DomainSpec(0.0, 1.0, 101)

    def pair(self):
        return (discretize_product(Gaussian1D(0.0, 1.0), Gaussian1D(0.5, 0.003), self.XD, self.WD),
                discretize_product(Gaussian1D(1.0, 1.0), Gaussian1D(0.5, 0.003), self.XD, self.WD))

    def test_matches_the_marginal_tv_of_product_pairs(self):
        a, b = self.pair()
        # the w factors are equal, so the joint TV is the x marginals' TV
        x_tv = tv(discretize(Gaussian1D(0.0, 1.0), self.XD), discretize(Gaussian1D(1.0, 1.0), self.XD),
                  self.XD)
        assert abs(metrics.tv_joint(a, b) - x_tv) < 1e-12
        assert metrics.tv_joint(a, a) == 0.0

    def test_nan_raises(self):
        a, b = self.pair()
        values = a.values.copy()
        values[50, 50] = math.nan
        object.__setattr__(a, "values", values)  # past the constructor's check
        with pytest.raises(NonFinite):
            metrics.tv_joint(a, b)

    def test_overshoot_beyond_one_raises(self):
        a, b = self.pair()
        # signed values of unit mass: half the L1 distance to b is 2
        values = np.zeros_like(a.values)
        cell = self.XD.spacing * self.WD.spacing
        values[10, 10], values[20, 20] = 2.0 / cell, -1.0 / cell
        object.__setattr__(a, "values", values)
        with pytest.raises(NonFinite):
            metrics.tv_joint(a, b)


class TestMetricProperties:
    def test_axioms_on_random_triples(self):
        rng = np.random.default_rng(42)
        d = DomainSpec(-10.0, 10.0, 501)
        for _ in range(40):
            g1, g2, g3 = (random_density(d, rng) for _ in range(3))
            for fn in (lambda a, b: tv(a, b, d),
                       lambda a, b: hellinger(a, b, d),
                       lambda a, b: w1(a, b, d),
                       scaled_hellinger):
                d12, d21 = fn(g1, g2), fn(g2, g1)
                assert abs(d12 - d21) <= 1e-12
                assert fn(g1, g3) <= d12 + fn(g2, g3) + 1e-9

    def test_sandwich_and_w1_bound(self):
        rng = np.random.default_rng(7)
        d = DomainSpec(-40.0, 40.0, 4001)
        for _ in range(60):
            a = Gaussian1D(rng.uniform(-5, 5), rng.uniform(0.01, 9.0))
            b = Gaussian1D(rng.uniform(-5, 5), rng.uniform(0.01, 9.0))
            d_tv = tv(a, b, d)
            d_h = hellinger(a, b, d)
            assert d_h ** 2 <= d_tv + 1e-9
            assert d_tv <= math.sqrt(2.0) * d_h + 1e-9
            assert w1(a, b, d) <= d.diameter() * d_tv + 1e-9

    def test_mass_gap_inequalities_on_scaled_pairs(self):
        rng = np.random.default_rng(11)
        d = DomainSpec(-10.0, 10.0, 501)
        for _ in range(50):
            p = random_density(d, rng)
            q = random_density(d, rng)
            cp, cq = rng.uniform(0.1, 5.0, size=2)
            sp = GridDensity(d, cp * p.values, normalized=False)
            sq = GridDensity(d, cq * q.values, normalized=False)
            dist = scaled_hellinger(sp, sq)
            kp, kq = sp.mass(), sq.mass()
            assert abs(math.sqrt(kp) - math.sqrt(kq)) <= math.sqrt(2.0) * dist + 1e-9
            assert hellinger(p, q, d) <= 2.0 / math.sqrt(kp) * dist + 1e-9

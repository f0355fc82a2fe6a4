"""Edge-weight family contracts: exact values, derivative consistency,
bounds, sampling moments, and domain guards."""

import math

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from bimoment import ConfigError, DomainError, get_family
from bimoment.families import LOGISTIC_ETA_CAP, POISSON_ETA_CAP

import oracles

LOGISTIC = get_family("logistic")
POISSON = get_family("poisson")

ETA_GRID = np.linspace(-5.0, 5.0, 81)


def central_diff(fn, eta, step=1e-5):
    return (fn(eta + step) - fn(eta - step)) / (2.0 * step)


class TestExactValues:
    def test_logistic_mean_at_zero(self):
        assert LOGISTIC.mean(0.0) == pytest.approx(0.5)

    def test_poisson_mean_at_zero(self):
        assert POISSON.mean(0.0) == pytest.approx(1.0)

    def test_logistic_mean_at_log3(self):
        # e^eta / (1 + e^eta) = 3 / 4 by hand
        assert LOGISTIC.mean(math.log(3.0)) == pytest.approx(0.75, abs=1e-12)

    def test_logistic_slope_at_zero(self):
        assert LOGISTIC.mean_d1(0.0) == pytest.approx(0.25)

    def test_logistic_curvature_at_zero(self):
        assert LOGISTIC.mean_d2(0.0) == pytest.approx(0.0, abs=1e-15)

    def test_variances_at_zero(self):
        assert LOGISTIC.variance(0.0) == pytest.approx(0.25)
        assert POISSON.variance(0.0) == pytest.approx(1.0)

    def test_oracle_log_densities_match_scipy(self):
        # the likelihood maximizer of acceptance 6 keeps its own log
        # densities, since the families compute none
        eta = np.linspace(-8.0, 8.0, 41)
        for x in (0.0, 1.0):
            np.testing.assert_allclose(
                oracles.log_density("logistic", x, eta),
                scipy.stats.bernoulli.logpmf(x, scipy.special.expit(eta)), rtol=1e-12)
        for x in (0.0, 1.0, 2.0, 7.0):
            np.testing.assert_allclose(
                oracles.log_density("poisson", x, eta),
                scipy.stats.poisson.logpmf(x, np.exp(eta)), rtol=1e-12)


class TestDerivativeConsistency:
    @pytest.mark.parametrize("family", [LOGISTIC, POISSON], ids=lambda f: f.name)
    def test_d1_matches_finite_difference(self, family):
        for eta in (-3.0, -1.0, 0.0, 1.0, 3.0):
            fd = central_diff(family.mean, eta)
            assert family.mean_d1(eta) == pytest.approx(fd, rel=1e-6)

    @pytest.mark.parametrize("family", [LOGISTIC, POISSON], ids=lambda f: f.name)
    def test_derivative_ladder_on_grid(self, family):
        pairs = [
            (family.mean, family.mean_d1),
            (family.mean_d1, family.mean_d2),
        ]
        for lower, upper in pairs:
            fd = central_diff(lower, ETA_GRID)
            exact = upper(ETA_GRID)
            scale = np.maximum(np.abs(exact), 1e-3)
            assert np.max(np.abs(fd - exact) / scale) < 1e-5

    @pytest.mark.parametrize("family, cap", [(LOGISTIC, LOGISTIC_ETA_CAP),
                                             (POISSON, POISSON_ETA_CAP)],
                             ids=["logistic", "poisson"])
    def test_slope_from_mean_is_exact(self, family, cap):
        # the fitter derives its slopes from the mean it already computed;
        # the values must be the very bits mean_d1 gives, also at and
        # beyond the clip caps and where the mean underflows
        eta = np.concatenate([ETA_GRID, np.linspace(-cap - 10.0, cap, 997),
                              [-cap, cap, -745.0, -800.0, 1e-300, -0.0]])
        if family is LOGISTIC:
            eta = np.concatenate([eta, [cap + 1.0, 1e6, -1e6]])
        for values in (eta, eta[:120].reshape(8, 15)):
            slope = family.mean_d1_given_mean(values, family.mean(values))
            assert np.array_equal(slope, family.mean_d1(values))
        for scalar in (0.0, -cap, cap):
            assert family.mean_d1_given_mean(scalar, family.mean(scalar)) == \
                family.mean_d1(scalar)

    def test_logistic_derivatives_in_place_are_exact(self):
        # slope and curvature are formed in place, with the very bits of
        # mu (1 - mu) and mu (1 - mu) (1 - 2 mu), and touch neither the
        # caller's eta nor its mean; a 0-d input gives a numpy float
        eta = np.concatenate([ETA_GRID, [-LOGISTIC_ETA_CAP, LOGISTIC_ETA_CAP, 1e6, -0.0]])
        for values in (eta, eta[:80].reshape(8, 10), np.float64(0.7), np.array(-1.3), 2.0):
            mu = LOGISTIC.mean(values)
            eta_before, mu_before = np.copy(values), np.copy(mu)
            slope = LOGISTIC.mean_d1_given_mean(values, mu)
            curvature = LOGISTIC.mean_d2(values)
            assert np.array_equal(slope, mu * (1.0 - mu))
            assert np.array_equal(curvature, mu * (1.0 - mu) * (1.0 - 2.0 * mu))
            assert np.array_equal(values, eta_before) and np.array_equal(mu, mu_before)
            if np.ndim(values) == 0:
                assert type(slope) is np.float64 and type(curvature) is np.float64

    @pytest.mark.parametrize("family", [LOGISTIC, POISSON], ids=lambda f: f.name)
    def test_mean_strictly_increasing(self, family):
        values = family.mean(ETA_GRID)
        assert np.all(np.diff(values) > 0)


class TestBoundsAndIdentities:
    @given(eta=st.floats(-30.0, 30.0))
    def test_logistic_derivatives_bounded_by_quarter(self, eta):
        for d in (LOGISTIC.mean_d1, LOGISTIC.mean_d2):
            assert abs(d(eta)) <= 0.25 + 1e-12

    @given(eta=st.floats(-25.0, 25.0))
    def test_exponential_family_variance_identity(self, eta):
        # exact identity, not approximate
        assert LOGISTIC.variance(eta) == LOGISTIC.mean_d1(eta)
        assert POISSON.variance(eta) == POISSON.mean_d1(eta)

    @settings(max_examples=30)
    @given(eta=st.floats(-30.0, 30.0))
    def test_logistic_mean_in_unit_interval(self, eta):
        mu = LOGISTIC.mean(eta)
        assert 0.0 < mu < 1.0


class TestSampling:
    @pytest.mark.parametrize("family", [LOGISTIC, POISSON], ids=lambda f: f.name)
    @pytest.mark.parametrize("eta", [-1.0, 0.0, 1.0])
    def test_sample_mean_within_four_se(self, family, eta):
        rng = np.random.default_rng(777)
        draws = family.sample(np.full(100_000, eta), rng)
        se = math.sqrt(family.variance(eta) / draws.size)
        assert abs(draws.mean() - family.mean(eta)) <= 4.0 * se

    def test_logistic_support(self):
        rng = np.random.default_rng(5)
        draws = LOGISTIC.sample(np.zeros(1000), rng)
        assert set(np.unique(draws)) <= {0.0, 1.0}

    def test_poisson_clt_bound_at_unit_mean(self):
        rng = np.random.default_rng(11)
        draws = POISSON.sample(np.zeros(100_000), rng)
        assert abs(draws.mean() - 1.0) <= 3.0 / math.sqrt(100_000)

    @pytest.mark.parametrize("family", [LOGISTIC, POISSON], ids=lambda f: f.name)
    @pytest.mark.parametrize("eta", [0.3, np.float64(0.3), np.asarray(0.3)],
                             ids=["float", "float64", "0-d array"])
    def test_zero_d_predictor_gives_floats(self, family, eta):
        rng = np.random.default_rng(3)
        for value in (family.mean(eta), family.mean_d1(eta), family.mean_d2(eta),
                      family.variance(eta), family.sample(eta, rng)):
            assert isinstance(value, float)
        draws = family.sample(np.full((2, 3), eta), rng)
        assert draws.dtype == float and draws.shape == (2, 3)

    def test_sampling_is_reproducible(self):
        a = LOGISTIC.sample(np.zeros(100), np.random.default_rng(42))
        b = LOGISTIC.sample(np.zeros(100), np.random.default_rng(42))
        assert np.array_equal(a, b)


class TestDomainGuards:
    def test_logistic_saturates_stably(self):
        assert LOGISTIC.mean(1e4) == pytest.approx(1.0)
        assert LOGISTIC.mean(-1e4) == pytest.approx(0.0, abs=1e-12)
        assert LOGISTIC.mean_d1(1e4) > 0.0

    def test_poisson_rejects_overflowing_predictor(self):
        with pytest.raises(DomainError):
            POISSON.mean(31.0)

    @pytest.mark.parametrize("family", [LOGISTIC, POISSON], ids=lambda f: f.name)
    def test_nonfinite_predictor_rejected(self, family):
        with pytest.raises(DomainError):
            family.mean(np.nan)
        with pytest.raises(DomainError):
            family.mean(np.inf)


def test_family_registry():
    assert LOGISTIC.name == "logistic" and LOGISTIC.support == "binary"
    assert POISSON.name == "poisson" and POISSON.support == "count"
    assert LOGISTIC.exponential_family and POISSON.exponential_family
    with pytest.raises(ConfigError):
        get_family("probit")

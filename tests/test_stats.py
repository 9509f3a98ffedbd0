"""Statistical utilities: KS machinery, Laplace estimator, finite differences."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from cir_particles import (
    ConfigError,
    TooFewSamples,
    binomial_summary,
    empirical_laplace,
    finite_diff_gradient,
    ks_distance,
    ks_distance_two_sample,
    ks_test,
    ks_test_two_sample,
    moment_summary,
    z_score,
)
from cir_particles.stats import StatSummary

uniform_cdf = lambda x: np.clip(np.asarray(x, dtype=float), 0.0, 1.0)  # noqa: E731


class TestKsDistance:
    def test_two_point_hand_value(self):
        assert ks_distance([0.25, 0.75], uniform_cdf) == pytest.approx(0.25)

    def test_degenerate_mass_at_zero(self):
        assert ks_distance([0.0] * 5, uniform_cdf) == pytest.approx(1.0)

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=50))
    @settings(max_examples=200, deadline=None)
    def test_bounds(self, xs):
        d = ks_distance(xs, uniform_cdf)
        assert 0.0 <= d <= 1.0


class TestKsTest:
    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            ks_test([0.1, 0.2], uniform_cdf)

    def test_null_p_values_are_uniform(self):
        # Kolmogorov calibration: 200 replications, chi-square GOF at 0.01.
        rng = np.random.default_rng(2718)
        pvals = np.array(
            [ks_test(rng.random(200), uniform_cdf)[1] for _ in range(200)]
        )
        counts, _ = np.histogram(pvals, bins=10, range=(0.0, 1.0))
        stat = ((counts - 20.0) ** 2 / 20.0).sum()
        assert chi2.sf(stat, df=9) >= 0.01

    def test_detects_wrong_distribution(self):
        rng = np.random.default_rng(3)
        _, p = ks_test(rng.random(1000) ** 2, uniform_cdf)
        assert p < 1e-6


class TestTwoSampleKs:
    def test_identical_samples(self):
        x = np.arange(10.0)
        assert ks_distance_two_sample(x, x) == 0.0

    def test_disjoint_samples(self):
        assert ks_distance_two_sample([0.0, 1.0], [5.0, 6.0]) == 1.0

    def test_null_acceptance(self):
        rng = np.random.default_rng(4)
        _, p = ks_test_two_sample(rng.normal(size=2000), rng.normal(size=2000))
        assert p >= 0.01


class TestEmpiricalLaplace:
    def test_mu_zero(self):
        s = empirical_laplace([0.3, 1.2, 5.0], 0.0)
        assert s.estimate == 1.0 and s.stderr == 0.0

    def test_hand_value(self):
        s = empirical_laplace([0.0, math.log(2.0)], 1.0)
        assert s.estimate == pytest.approx(0.75)

    def test_range_for_nonnegative_samples(self):
        rng = np.random.default_rng(5)
        s = empirical_laplace(rng.gamma(2.0, 1.0, 500), 0.7)
        assert 0.0 < s.estimate <= 1.0

    @pytest.mark.parametrize("mu", [math.nan, -1.0])
    def test_bad_mu_is_a_config_error(self, mu):
        with pytest.raises(ConfigError, match="mu must be"):
            empirical_laplace([0.3, 1.2, 5.0], mu)


class TestZScore:
    def test_hand_value(self):
        s = empirical_laplace([0.0, math.log(2.0)], 1.0)  # 0.75, stderr 0.25
        assert z_score(s, 0.5) == pytest.approx(1.0)

    def test_zero_stderr_is_nan(self):
        # mu = 0 makes every sample 1: no information, not agreement.
        s = empirical_laplace([0.3, 1.2, 5.0], 0.0)
        assert math.isnan(z_score(s, 1.0)) and math.isnan(z_score(s, 0.5))


class TestFiniteDiff:
    def test_quadratic_exactness(self):
        grad = finite_diff_gradient(lambda x: float((x**2).sum()), np.array([1.0, 2.0]), 1e-5)
        np.testing.assert_allclose(grad, [2.0, 4.0], atol=1e-8)

    def test_h_squared_convergence(self):
        f = lambda x: float(np.sin(x).sum())  # noqa: E731
        x = np.array([0.7, 1.3])
        exact = np.cos(x)
        errors = []
        for h in (1e-2, 5e-3, 2.5e-3):
            errors.append(np.max(np.abs(finite_diff_gradient(f, x, h) - exact)))
        # halving h divides the error by ~4 until the rounding floor
        assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.1)
        assert errors[1] / errors[2] == pytest.approx(4.0, rel=0.1)


class TestSummaries:
    def test_moment_summary_contains_estimate(self):
        s = moment_summary([1.0, 2.0, 3.0, 4.0])
        assert s.ci95[0] <= s.estimate <= s.ci95[1]
        assert s.n_samples == 4

    def test_binomial_summary_edge_cases(self):
        zero = binomial_summary(0, 100)
        full = binomial_summary(100, 100)
        assert zero.ci95[0] <= 0.0 <= zero.ci95[1]
        assert full.ci95[0] <= 1.0 <= full.ci95[1]

    def test_stat_summary_validates_ci(self):
        with pytest.raises(ValueError):
            StatSummary("x", 1.0, 0.1, (2.0, 3.0), 10)

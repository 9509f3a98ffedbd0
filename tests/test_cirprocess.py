"""Exact CIR oracle checks: transition moments, invariant law, transform."""

import math

import numpy as np
import pytest
from scipy.special import chndtr, gammainc

from cir_particles import (
    CirParams,
    ConfigError,
    ModelParams,
    exact_step,
    gamma_sum_law,
    integrated_laplace,
    integrated_sum_paths,
    ks_test,
    multiple_collision_threshold,
    rng_streams,
    sum_process,
)


def transition_variance(cir: CirParams, r0: float, dt: float) -> float:
    """Independent oracle: closed-form conditional variance of the CIR step.

    Var = r0 sigma^2 (e^{-b dt} - e^{-2 b dt})/b + a sigma^2 (1-e^{-b dt})^2/(2 b^2),
    with the b -> 0 limit r0 sigma^2 dt + a sigma^2 dt^2 / 2.
    """
    a, b, s2 = cir.a, cir.b, cir.sigma**2
    if b == 0.0:
        return r0 * s2 * dt + a * s2 * dt**2 / 2.0
    e1 = math.exp(-b * dt)
    return r0 * s2 * (e1 - e1**2) / b + a * s2 * (1.0 - e1) ** 2 / (2.0 * b**2)


class TestExactStep:
    def test_mean_matches_conditional_mean(self):
        # E[r_dt | r_0] = r_0 e^{-b dt} + (a/b)(1 - e^{-b dt}) = 1/2 + 1 at dt = ln 2.
        cir = CirParams(2, 1, 2)
        rng = rng_streams(12, 0)
        samples = exact_step(cir, np.full(100_000, 1.0), math.log(2), rng)
        se = samples.std(ddof=1) / math.sqrt(samples.size)
        assert abs(samples.mean() - 1.5) <= 4 * se

    def test_variance_matches_closed_form(self):
        cir = CirParams(2, 1, 2)
        rng = rng_streams(13, 0)
        samples = exact_step(cir, np.full(100_000, 1.0), math.log(2), rng)
        var = samples.var(ddof=1)
        target = transition_variance(cir, 1.0, math.log(2))
        # stderr of the sample variance via the fourth moment
        m4 = np.mean((samples - samples.mean()) ** 4)
        se_var = math.sqrt((m4 - var**2) / samples.size)
        assert abs(var - target) <= 5 * se_var

    def test_absorbed_at_zero_without_drift(self):
        cir = CirParams(0, 1, 2)
        rng = rng_streams(14, 0)
        assert exact_step(cir, 0.0, 0.5, rng) == 0.0
        assert np.all(exact_step(cir, np.zeros(100), 0.5, rng) == 0.0)

    def test_nonnegative_and_b_zero_mean(self):
        cir = CirParams(1.5, 0, 2)
        rng = rng_streams(15, 0)
        samples = exact_step(cir, np.full(50_000, 0.7), 0.3, rng)
        assert np.all(samples >= 0.0)
        se = samples.std(ddof=1) / math.sqrt(samples.size)
        assert abs(samples.mean() - (0.7 + 1.5 * 0.3)) <= 4 * se

    def test_huge_step_reaches_invariant_law_without_overflow(self):
        cir = CirParams(2, 2, 2)
        rng = rng_streams(17, 0)
        samples = exact_step(cir, np.full(20_000, 5.0), 1e3, rng)
        se = samples.std(ddof=1) / math.sqrt(samples.size)
        assert abs(samples.mean() - cir.a / cir.b) <= 4 * se

    def test_invariant_law_reached_from_arbitrary_start(self):
        # The invariant law of CIR(a, b, sigma) is Gamma(2a/sigma^2, rate 2b/sigma^2).
        cir = CirParams(4, 2, 2)
        shape, rate = 2.0, 1.0
        rng = rng_streams(16, 0)
        r = np.full(10_000, 9.0)
        # burn-in so that b * t >= 10, then one decorrelated endpoint per path
        for _ in range(10):
            r = exact_step(cir, r, 0.5, rng)
        d, p = ks_test(r, lambda x: gammainc(shape, rate * np.asarray(x)))
        assert p >= 0.01

    def test_exploded_entries_are_nan_and_leave_the_generator_alone(self):
        # nu = 0.5 draws the Poisson mixture.  b dt = -9: the noncentrality is
        # about 10 r, so r = 1e30 is past numpy's Poisson limit, and a NaN r
        # has a NaN mean.
        cir = CirParams(0.5, -10, 2)
        got = exact_step(cir, np.array([1.0, 1e30, math.nan]), 0.9, rng_streams(18, 0))
        assert np.isnan(got[1:]).all()
        want = exact_step(cir, np.array([1.0]), 0.9, rng_streams(18, 0))
        assert got[0] == want[0]
        assert math.isnan(exact_step(cir, math.inf, 0.9, rng_streams(18, 0)))


class _SpyGenerator:
    """A generator that records the name of every method drawn from it."""

    def __init__(self, rng):
        self._rng = rng
        self.calls = []

    def __getattr__(self, name):
        self.calls.append(name)
        return getattr(self._rng, name)


def transition_cdf(cir: CirParams, r0: float, dt: float):
    """Independent oracle: CDF of the exact CIR step, c * chi'^2_nu(nc), for b != 0."""
    decay = math.exp(-cir.b * dt)
    c = cir.sigma**2 * (1.0 - decay) / (4.0 * cir.b)
    nu = 4.0 * cir.a / cir.sigma**2
    nc = r0 * decay / c
    return lambda x: chndtr(np.asarray(x) / c, nu, nc)


class TestTransitionLaw:
    @pytest.mark.parametrize("r0", [1e-3, 1.0, 50.0])
    @pytest.mark.parametrize("nu", [0.6, 1.0, 1.6, 2.0, 3.0, 4.0])
    def test_law_is_the_noncentral_chi_square(self, nu, r0):
        cir = CirParams(a=nu, b=1.0, sigma=2.0)  # nu = 4a/sigma^2
        rng = rng_streams(21, int(10 * nu))
        samples = exact_step(cir, np.full(100_000, r0), 0.5, rng)
        d, p = ks_test(samples, transition_cdf(cir, r0, 0.5))
        assert p >= 1e-3, (d, p)

    @pytest.mark.parametrize(
        "a, r0, dt, seed",
        [(4.0, 3.0, 2.5e-3, 777), (6.0, 6.0, 1.0, 2024)],
        ids=["nu4_laplace_check_c7", "nu6_c1_reference"],
    )
    def test_law_in_the_oracle_regimes(self, a, r0, dt, seed):
        # The sum process (b = 2 gamma = 2, sigma = 2) at the first step of
        # criterion 7 and laplace-check (n alpha = 4, sum 3, dt 2.5e-3) and
        # at criterion 1's reference sample (n alpha = 6, sum 6, t = 1),
        # drawn from the same rng_streams stream as the criterion.
        cir = CirParams(a=a, b=2.0, sigma=2.0)
        samples = exact_step(cir, np.full(50_000, r0), dt, rng_streams(seed, 0))
        d, p = ks_test(samples, transition_cdf(cir, r0, dt))
        assert p >= 1e-3, (d, p)

    @pytest.mark.parametrize("nu", [1.0, 1.6, 2.0, 3.0, 4.0])
    def test_mean_and_variance_match_closed_forms(self, nu):
        cir = CirParams(a=nu, b=1.0, sigma=2.0)
        rng = rng_streams(22, int(10 * nu))
        dt = math.log(2)
        samples = exact_step(cir, np.full(100_000, 1.0), dt, rng)
        # E[r_dt | r_0] = r_0 e^{-b dt} + (a/b)(1 - e^{-b dt}) = 1/2 + a/2 at dt = ln 2.
        se = samples.std(ddof=1) / math.sqrt(samples.size)
        assert abs(samples.mean() - (0.5 + 0.5 * cir.a)) <= 4 * se
        var = samples.var(ddof=1)
        m4 = np.mean((samples - samples.mean()) ** 4)
        se_var = math.sqrt((m4 - var**2) / samples.size)
        assert abs(var - transition_variance(cir, 1.0, dt)) <= 5 * se_var

    @pytest.mark.parametrize("nu, draws", [
        (0.6, ["poisson", "gamma"]),
        (1.0, ["standard_normal"]),
        (2.0, ["standard_normal", "standard_normal"]),
        (3.0, ["standard_normal", "gamma"]),
    ])
    def test_generator_calls(self, nu, draws):
        # Below nu = 1 the law is a Poisson mixture of Gammas.  At nu = 2 the
        # chi^2_1 part is a squared normal, never numpy's slow Gamma(1/2).
        cir = CirParams(a=nu, b=1.0, sigma=2.0)
        r = np.array([0.0, 0.3, 2.0, 40.0])
        spy = _SpyGenerator(rng_streams(25, 0))
        got = exact_step(cir, r, 0.1, spy)
        assert spy.calls == draws
        if nu == 2.0:
            rng = rng_streams(25, 0)
            z, z2 = rng.standard_normal(r.shape), rng.standard_normal(r.shape)
            decay = math.exp(-0.1)
            c = 1.0 - decay  # sigma^2 (1 - e^{-b dt}) / (4 b)
            want = c * ((z + np.sqrt(r * decay / c)) ** 2 + z2**2)
            np.testing.assert_allclose(got, want, rtol=1e-12)

    @pytest.mark.parametrize("nu", [1.0, 2.0])
    def test_infinite_noncentrality_is_not_finite(self, nu):
        cir = CirParams(a=nu, b=1.0, sigma=2.0)
        got = exact_step(cir, np.array([1.0, math.inf, math.nan]), 0.1, rng_streams(24, 0))
        assert np.isfinite(got[0]) and got[0] >= 0.0
        assert not np.isfinite(got[1:]).any()
        assert not math.isfinite(exact_step(cir, math.inf, 0.1, rng_streams(24, 0)))


class TestIntegratedSumPathsProbes:
    """Every probe time is checked before the first step."""

    @pytest.fixture(autouse=True)
    def refuse_steps(self, monkeypatch):
        from cir_particles import cirprocess

        def refuse(*args, **kwargs):
            raise AssertionError("a step was taken")

        monkeypatch.setattr(cirprocess, "exact_step", refuse)

    @pytest.mark.parametrize(
        "dt, probes, message",
        [
            (0.1, (0.25, 0.0), "probe time t=0.25 is not a multiple of dt=0.1"),
            (0.1, (0.5, 0.0), "probe time t=0 is step 0 of dt=0.1, outside 1..1e+09"),
            (0.1, (-0.5,), "probe time t=-0.5 is step -5 of dt=0.1, outside 1..1e+09"),
            (1e-300, (1.0,), "probe time t=1 is step 1e+300 of dt=1e-300, outside 1..1e+09"),
            (0.0, (1.0,), "dt must be finite and > 0, got 0.0"),
        ],
        ids=["off_grid", "zero", "negative", "past_step_bound", "zero_dt"],
    )
    def test_bad_probe_is_a_config_error(self, dt, probes, message):
        params = ModelParams(alpha=2.0, beta=0.5, gamma=1.0, n=2)
        with pytest.raises(ConfigError) as info:
            integrated_sum_paths(params, 3.0, 2, dt, probes, rng_streams(0, 0))
        assert str(info.value) == message

    @pytest.mark.parametrize("sum0", [-0.5, math.nan, math.inf])
    def test_bad_start_is_a_config_error(self, sum0):
        params = ModelParams(alpha=2.0, beta=0.5, gamma=1.0, n=2)
        with pytest.raises(ConfigError, match="sum0 must be finite and >= 0"):
            integrated_sum_paths(params, sum0, 2, 0.1, (1.0,), rng_streams(0, 0))

    def test_no_probe_takes_no_step(self):
        params = ModelParams(alpha=2.0, beta=0.5, gamma=1.0, n=2)
        with pytest.raises(ConfigError, match="probe_times must hold at least one probe"):
            integrated_sum_paths(params, 3.0, 2, 0.1, (), rng_streams(0, 0))

    @pytest.mark.parametrize(
        "n_paths, message",
        [
            (0, "n_paths must be >= 1, got 0"),
            (-1, "n_paths must be >= 1, got -1"),
            (2.5, "n_paths must be an integer, got 2.5"),
            (2.0, "n_paths must be an integer, got 2.0"),
            (True, "n_paths must be an integer, got True"),
        ],
        ids=["zero", "negative", "fraction", "integral_float", "bool"],
    )
    def test_bad_path_count_is_a_config_error(self, n_paths, message):
        params = ModelParams(alpha=2.0, beta=0.5, gamma=1.0, n=2)
        with pytest.raises(ConfigError) as info:
            integrated_sum_paths(params, 3.0, n_paths, 0.1, (1.0,), rng_streams(0, 0))
        assert str(info.value) == message


class TestInvariantGamma:
    def test_sum_process_law(self):
        # CIR(a, b, sigma) has the invariant law Gamma(2a/sigma^2, rate 2b/sigma^2).
        p = ModelParams(alpha=2.0, beta=0.4, gamma=1.0, n=3)
        cir = sum_process(p)
        assert (2 * cir.a / cir.sigma**2, 2 * cir.b / cir.sigma**2) == gamma_sum_law(p)


class TestProcessMaps:
    def test_sum_process(self):
        cir = sum_process(ModelParams(alpha=2.0, beta=0.4, gamma=1.0, n=3))
        assert (cir.a, cir.b, cir.sigma) == (6.0, 2.0, 2.0)

    def test_partial_sum_bound(self):
        # lambda_1 + ... + lambda_k is bounded by a CIR process with constant
        # drift k(alpha - (n-k) beta); at k = n that is the sum process.
        p = ModelParams(alpha=1.0, beta=0.4, gamma=0.5, n=3)
        assert multiple_collision_threshold(p, 2)[0] == pytest.approx(2 * (1.0 - 0.4))
        assert multiple_collision_threshold(p, p.n)[0] == sum_process(p).a


class TestIntegratedLaplace:
    def test_mu_zero_is_one(self):
        p = ModelParams(alpha=1.0, beta=0.5, gamma=1.0, n=2)
        q = integrated_laplace(p, 1.0, 0.0, 1.0)
        assert q.value == 1.0 and q.phi == 0.0 and q.psi == 0.0

    def test_psi_large_time_limit(self):
        p = ModelParams(alpha=1.0, beta=0.5, gamma=1.0, n=2)
        q = integrated_laplace(p, 1.0, 1.0, 1e3)
        assert abs(q.psi - 1.0 / (math.sqrt(3.0) + 1.0)) <= 1e-9

    def test_value_in_unit_interval_and_monotone(self):
        p = ModelParams(alpha=1.0, beta=0.5, gamma=1.0, n=2)
        mus = [0.25, 0.5, 1.0, 2.0]
        ts = [0.25, 0.5, 1.0, 4.0]
        vals_mu = [integrated_laplace(p, 1.0, mu, 1.0).value for mu in mus]
        vals_t = [integrated_laplace(p, 1.0, 0.5, t).value for t in ts]
        assert all(0.0 < v <= 1.0 for v in vals_mu + vals_t)
        assert all(a > b for a, b in zip(vals_mu, vals_mu[1:]))
        assert all(a > b for a, b in zip(vals_t, vals_t[1:]))

    def test_infinite_horizon_vanishes(self):
        p = ModelParams(alpha=1.0, beta=0.5, gamma=1.0, n=2)
        q = integrated_laplace(p, 1.0, 0.5, math.inf)
        assert q.value == 0.0 and math.isinf(q.phi)

    def _integral_samples(self, params, sum0, horizon, m=40_000, h=2.5e-3, key=11):
        paths = integrated_sum_paths(params, sum0, m, h, (horizon,), rng_streams(key, 0))
        return paths[horizon]

    def test_matches_monte_carlo_at_reference_point(self):
        # n=2, alpha=1, gamma=1, sum0=1, mu=0.5, t=1
        p = ModelParams(alpha=1.0, beta=0.5, gamma=1.0, n=2)
        integral = self._integral_samples(p, 1.0, 1.0)
        vals = np.exp(-0.5 * integral)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        closed = integrated_laplace(p, 1.0, 0.5, 1.0).value
        assert abs(vals.mean() - closed) <= 4 * se

    def test_one_step_is_the_exact_transition(self):
        # After one step of dt the trapezoid integral is (sum0 + r1) dt / 2.
        p = ModelParams(alpha=2.0, beta=0.5, gamma=1.0, n=2)
        sum0, dt = 3.0, 0.25
        integral = self._integral_samples(p, sum0, dt, m=50_000, h=dt, key=13)
        r1 = 2.0 * integral / dt - sum0
        d, pval = ks_test(r1, transition_cdf(sum_process(p), sum0, dt))
        assert pval >= 1e-3, (d, pval)

    def test_prefactor_scales_with_n_not_two(self):
        # The phi prefactor is n*alpha: at n=3 the 2*alpha variant is far off.
        p = ModelParams(alpha=1.0, beta=0.4, gamma=1.0, n=3)
        integral = self._integral_samples(p, 2.0, 1.0, key=12)
        vals = np.exp(-1.0 * integral)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        q = integrated_laplace(p, 2.0, 1.0, 1.0)
        assert abs(vals.mean() - q.value) <= 4 * se
        two_alpha_variant = math.exp(-2.0 * p.alpha * q.phi - 2.0 * q.psi)
        assert abs(vals.mean() - two_alpha_variant) > 10 * se


class TestTypedErrors:
    @pytest.mark.parametrize(
        "a, b, sigma, name",
        [(math.nan, 1.0, 2.0, "a"), (1.0, math.nan, 2.0, "b"), (-1.0, 1.0, 2.0, "a"),
         (math.inf, 1.0, 2.0, "a"), (1.0, math.inf, 2.0, "b"), (1.0, 1.0, 0.0, "sigma"),
         (1.0, 1.0, math.nan, "sigma"), (1.0, 1.0, math.inf, "sigma")],
    )
    def test_bad_cir_params_are_config_errors(self, a, b, sigma, name):
        with pytest.raises(ConfigError, match=f"^{name} must be"):
            CirParams(a, b, sigma)

    @pytest.mark.parametrize("dt", [math.nan, math.inf, 0.0, -0.5])
    def test_bad_step_is_a_config_error(self, dt):
        cir = CirParams(2.0, 1.0, 2.0)
        with pytest.raises(ConfigError, match="dt must be finite and > 0"):
            exact_step(cir, np.ones(3), dt, rng_streams(1, 0))

    @pytest.mark.parametrize("mu", [math.nan, -1.0])
    def test_bad_laplace_argument_is_a_config_error(self, mu):
        p = ModelParams(alpha=1.0, beta=0.5, gamma=1.0, n=2)
        with pytest.raises(ConfigError, match="mu must be"):
            integrated_laplace(p, 1.0, mu, 1.0)

    @pytest.mark.parametrize("sum0, t, name", [(math.nan, 1.0, "sum0"), (1.0, math.nan, "t")])
    def test_nan_start_or_horizon_is_a_config_error(self, sum0, t, name):
        p = ModelParams(alpha=1.0, beta=0.5, gamma=1.0, n=2)
        with pytest.raises(ConfigError, match=f"^{name} must be"):
            integrated_laplace(p, sum0, 0.5, t)

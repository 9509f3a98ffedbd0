"""Stationary density, MH sampler, normalizer estimates, long-run comparison."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.special import betaln, gammainc, gammaln
from scipy.stats import chi2

from cir_particles import (
    ConfigError,
    ModelParams,
    NotEvaluable,
    RegimeMismatch,
    Scheme,
    SimConfig,
    compare_long_run,
    estimate_log_normalizer,
    gamma_sum_law,
    ks_test,
    mh_sampler,
    rejection_sample_pair,
)
from cir_particles.stationary import _gauss_laguerre, _log_density_point, log_density_rows

P2 = ModelParams(alpha=2.0, beta=0.5, gamma=1.0, n=2)


def logz_closed_form_n2(alpha: float, beta: float, gamma: float) -> float:
    """Exact normalizer for n = 2 via the (sum, gap) change of variables.

    With p = (alpha-2-beta)/2:
    Z = 4^{-p}/4 * Gamma(2p+beta+2) * gamma^{-(2p+beta+2)} * B((beta+1)/2, p+1).
    """
    p = (alpha - 2.0 - beta) / 2.0
    return (
        math.log(0.25)
        - p * math.log(4.0)
        + gammaln(2 * p + beta + 2.0)
        - (2 * p + beta + 2.0) * math.log(gamma)
        + betaln((beta + 1.0) / 2.0, p + 1.0)
    )


def log_density_at(params, lam):
    return log_density_rows(params, np.array([lam], dtype=float))[0]


class TestLogDensity:
    def test_hand_value(self):
        # -0.25 ln 4 - gamma * (1 + 4) + 0.5 ln 3 for (alpha,beta,gamma)=(2,0.5,1)
        expected = -0.25 * math.log(4.0) - 5.0 + 0.5 * math.log(3.0)
        assert log_density_at(P2, [1.0, 4.0]) == pytest.approx(expected, rel=1e-14)

    def test_coincident_is_minus_infinity(self):
        assert log_density_at(P2, [2.0, 2.0]) == -math.inf

    def test_unordered_is_minus_infinity(self):
        assert log_density_at(P2, [4.0, 1.0]) == -math.inf

    def test_zero_boundary_is_minus_infinity(self):
        assert log_density_at(P2, [0.0, 1.0]) == -math.inf

    def test_not_evaluable_outside_regime(self):
        # gamma = 0, then kappa < 0.
        for params in (ModelParams(2.0, 0.5, 0.0, 2), ModelParams(0.4, 0.5, 1.0, 2)):
            with pytest.raises(NotEvaluable):
                gamma_sum_law(params)
            with pytest.raises(NotEvaluable):
                mh_sampler(params, 10, np.random.default_rng(0))

    def test_vanishes_continuously_at_coincidence(self):
        gaps = [1e-1, 1e-3, 1e-6]
        vals = [log_density_rows(P2, np.array([[1.0, 1.0 + g]]))[0] for g in gaps]
        assert vals[0] > vals[1] > vals[2]

    def test_vanishes_at_zero_when_power_positive(self):
        # alpha - 2 - (n-1) beta > 0 makes the density vanish at lambda_1 = 0
        p = ModelParams(alpha=3.0, beta=0.5, gamma=1.0, n=2)
        vals = [
            log_density_rows(p, np.array([[x, 2.0]]))[0] for x in (1e-1, 1e-3, 1e-6)
        ]
        assert vals[0] > vals[1] > vals[2]

    def test_marginal_integrable_near_zero_for_positive_kappa(self):
        # integral over lambda_1 in (0, 0.1] at fixed lambda_2 converges
        lam2 = 2.0
        estimates = []
        for m in (2_000, 20_000):
            x = (np.arange(m) + 0.5) * (0.1 / m)
            vals = np.exp(log_density_rows(P2, np.column_stack([x, np.full(m, lam2)])))
            estimates.append(vals.sum() * 0.1 / m)
        assert estimates[1] == pytest.approx(estimates[0], rel=1e-2)


class TestGammaSumLaw:
    def test_values(self):
        assert gamma_sum_law(P2) == (2.0, 1.0)

    def test_requires_evaluable(self):
        with pytest.raises(NotEvaluable):
            gamma_sum_law(ModelParams(2.0, 0.5, 0.0, 2))


class TestRejectionSampler:
    def test_exact_sum_law(self):
        rng = np.random.default_rng(100)
        lam = rejection_sample_pair(P2, 20_000, rng)
        shape, rate = gamma_sum_law(P2)
        _, p = ks_test(lam.sum(axis=1), lambda x: gammainc(shape, rate * np.asarray(x)))
        assert p >= 0.01

    def test_sorted_output(self):
        rng = np.random.default_rng(101)
        lam = rejection_sample_pair(P2, 2_000, rng)
        assert np.all(lam[:, 1] >= lam[:, 0])

    def test_n3_rejected(self):
        with pytest.raises(NotEvaluable):
            rejection_sample_pair(ModelParams(2.0, 0.4, 1.0, 3), 10, np.random.default_rng(0))

    @pytest.mark.parametrize(
        "n_samples, message",
        [(-1, "n_samples must be >= 1, got -1"), (0, "n_samples must be >= 1, got 0"),
         (2.5, "n_samples must be an integer, got 2.5"),
         (True, "n_samples must be an integer, got True")],
        ids=["negative", "zero", "float", "bool"],
    )
    def test_bad_sample_count_is_a_config_error(self, n_samples, message):
        with pytest.raises(ConfigError) as info:
            rejection_sample_pair(P2, n_samples, np.random.default_rng(0))
        assert str(info.value) == message


class TestMhSampler:
    def test_sum_statistic_matches_gamma_law(self):
        mh = mh_sampler(P2, 5_000, np.random.default_rng(7), thin=25)
        shape, rate = gamma_sum_law(P2)
        _, p = ks_test(mh.sums, lambda x: gammainc(shape, rate * np.asarray(x)))
        assert p >= 0.01

    def test_detailed_balance_against_rejection_sampler(self):
        # chi-square two-sample comparison on a coarse 2-D grid of the cone
        rng = np.random.default_rng(8)
        mh = mh_sampler(P2, 12_000, rng, thin=10).points
        ex = rejection_sample_pair(P2, 12_000, rng)
        edges = np.array([0.0, 0.5, 1.0, 1.5, 2.5, 4.0, np.inf])
        k = len(edges) - 1

        def cells(sample):
            i = np.searchsorted(edges, sample[:, 0], side="right") - 1
            j = np.searchsorted(edges, sample[:, 1], side="right") - 1
            return np.bincount(i * k + j, minlength=k * k)

        c1, c2 = cells(mh), cells(ex)
        keep = (c1 + c2) >= 10
        n1, n2 = c1.sum(), c2.sum()
        stat = float(
            (
                (math.sqrt(n2 / n1) * c1[keep] - math.sqrt(n1 / n2) * c2[keep]) ** 2
                / (c1[keep] + c2[keep])
            ).sum()
        )
        dof = int(keep.sum()) - 1
        assert chi2.sf(stat, df=dof) >= 0.01

    def test_gelman_rubin_from_distant_starts(self):
        chains = []
        for start, seed in ((np.array([0.05, 0.1]), 1), (np.array([5.0, 12.0]), 2)):
            mh = mh_sampler(
                P2, 4_000, np.random.default_rng(seed), initial=start, thin=5
            )
            chains.append(mh.sums)
        m = len(chains)
        n = len(chains[0])
        means = np.array([c.mean() for c in chains])
        variances = np.array([c.var(ddof=1) for c in chains])
        w = variances.mean()
        b = n * means.var(ddof=1)
        r_hat = math.sqrt(((n - 1) / n * w + b / n) / w)
        assert r_hat <= 1.05

    def test_not_evaluable(self):
        with pytest.raises(NotEvaluable):
            mh_sampler(ModelParams(2.0, 0.5, 0.0, 2), 100, np.random.default_rng(0))

    @pytest.mark.parametrize(
        "steps, kwargs, match",
        [
            (0, {}, "steps must be >= 1"),
            (-1, {}, "steps must be >= 1"),
            (3, {"burn_in": -5}, "burn_in must be >= 0"),
            (10, {"thin": 0}, "thin must be >= 1"),
            (10, {"thin": -2}, "thin must be >= 1"),
            (2.5, {}, "steps must be an integer, got 2.5"),
            (10, {"thin": 1.5}, "thin must be an integer, got 1.5"),
            (10, {"burn_in": 20.0}, "burn_in must be an integer, got 20.0"),
            (True, {}, "steps must be an integer, got True"),
        ],
        ids=["zero_steps", "negative_steps", "negative_burn_in", "zero_thin", "negative_thin",
             "fractional_steps", "fractional_thin", "float_burn_in", "bool_steps"],
    )
    def test_bad_run_length_is_config_error(self, steps, kwargs, match):
        with pytest.raises(ConfigError, match=match):
            mh_sampler(P2, steps, np.random.default_rng(0), **kwargs)

    def test_uniform_of_zero_accepts_every_on_cone_proposal(self):
        # A generator may return exactly 0.0 from ``random``; its log is -inf,
        # which accepts any proposal of finite density and no other.
        class ZeroUniforms:
            def __init__(self, seed):
                self._rng = np.random.default_rng(seed)

            def standard_normal(self, size=None):
                return self._rng.standard_normal(size)

            def random(self, size=None):
                return 0.0 if size is None else np.zeros(size)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = mh_sampler(P2, 50, ZeroUniforms(33), initial=[1.0, 2.0], burn_in=0).points
        noise = np.random.default_rng(33).standard_normal((50, 2))
        x = np.array([1.0, 2.0])
        moved = 0
        for k, z in enumerate(noise):
            prop = np.sort(x + 0.5 * z)
            if np.isfinite(log_density_rows(P2, prop)[0]):
                x = prop
                moved += 1
            assert np.array_equal(got[k], x)
        assert 0 < moved < 50  # both branches are taken

    @pytest.mark.parametrize("initial", [[1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]]])
    def test_initial_shape_checked(self, initial):
        with pytest.raises(ConfigError, match="shape"):
            mh_sampler(P2, 10, np.random.default_rng(0), initial=initial)

    @pytest.mark.parametrize(
        "initial", [[2.0, 1.0], [-1.0, 1.0], [1.0, 1.0], [math.nan, 1.0]],
        ids=["unsorted", "negative", "coincident", "nan"],
    )
    def test_start_off_the_cone_is_config_error(self, initial):
        with pytest.raises(ConfigError, match="initial state has zero density"):
            mh_sampler(P2, 10, np.random.default_rng(0), initial=initial)


# Iterations per block of generator draws in ``mh_sampler``.
MH_BLOCK = 1024


def reference_mh_points(params, steps, rng, *, initial=None, burn_in=None, thin=1):
    """The array-based Metropolis loop that ``mh_sampler`` replaced.

    One (1, n) row through ``log_density_rows`` per proposal; kept here so
    the scalar sampler can be held to the same chains bit for bit.  It draws
    the noise as the sampler does: per block of ``MH_BLOCK`` iterations (the
    last one shorter), one (m, n) normal block and then m uniforms.
    """
    n = params.n
    if burn_in is None:
        burn_in = max(1000, steps // 5)
    if initial is None:
        x = np.arange(1.0, n + 1.0) / params.gamma
    else:
        x = np.asarray(initial, dtype=float).copy()
    scale = 0.5 / params.gamma
    logp = log_density_rows(params, x[None, :])[0]
    points = np.empty((steps, n))
    accepted_window = 0
    window = 0
    kept = 0
    total_iters = burn_in + steps * thin
    for it in range(total_iters):
        k = it % MH_BLOCK
        if k == 0:
            normals = rng.standard_normal((min(MH_BLOCK, total_iters - it), n))
            with np.errstate(divide="ignore"):
                log_uniforms = np.log(rng.random(normals.shape[0]))
        prop = np.sort(x + scale * normals[k])
        logq = log_density_rows(params, prop[None, :])[0]
        if log_uniforms[k] < logq - logp:
            x = prop
            logp = logq
            accepted_window += 1
        window += 1
        if it < burn_in:
            if window == 100:
                rate = accepted_window / window
                scale *= math.exp(0.5 * (rate - 0.3))
                scale = min(max(scale, 1e-4 / params.gamma), 100.0 / params.gamma)
                accepted_window = 0
                window = 0
        elif (it - burn_in) % thin == thin - 1:
            points[kept] = x
            kept += 1
    return points[:kept]


class TestScalarSamplerMatchesArrayLoop:
    @pytest.mark.parametrize(
        "point, kwargs",
        [
            ((2.0, 0.5, 1.0, 2), dict(initial=[1.0, 2.0], burn_in=1000, thin=25)),
            ((3.0, 0.6, 1.0, 3), dict(initial=[1.0, 2.0, 3.0], burn_in=1000, thin=25)),
            ((4.0, 0.4, 1.5, 4), dict(thin=5)),
            ((2.0, 0.5, 1.0, 2), dict(burn_in=40, thin=3)),
            ((3.0, 0.6, 2.0, 3), dict(thin=1)),
        ],
        ids=["oracles_n2", "oracles_n3", "n4", "burn_in_40", "thin_1"],
    )
    def test_chains_bitwise_equal(self, point, kwargs):
        params = ModelParams(*point)
        got = mh_sampler(params, 300, np.random.default_rng(31), **kwargs).points
        want = reference_mh_points(params, 300, np.random.default_rng(31), **kwargs)
        assert got.shape == (300, params.n)
        assert np.array_equal(got, want)

    def test_consumes_a_normal_block_then_a_uniform_block_per_block(self):
        # 2000 + 10 * 2 = 2020 iterations: one full block and a short last one.
        rng = np.random.default_rng(32)
        mh_sampler(P2, 10, rng, burn_in=2000, thin=2)
        twin = np.random.default_rng(32)
        for m in (MH_BLOCK, 2020 - MH_BLOCK):
            twin.standard_normal((m, 2))
            twin.random(m)
        assert rng.bit_generator.state == twin.bit_generator.state
        assert rng.random() == twin.random()


class TestPointDensityMatchesRows:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("alpha, beta", [(2.0, 0.2), (4.0, 0.5), (9.0, 1.5)])
    def test_bitwise_equal_on_and_off_cone(self, n, alpha, beta):
        params = ModelParams(alpha=alpha, beta=beta, gamma=1.3, n=n)
        rng = np.random.default_rng(40 + n)
        # Where the chains live, and spread over many binades.
        on_cone = np.sort(
            np.concatenate(
                [rng.uniform(0.0, 3.0, (2000, n)), np.exp(rng.uniform(-12.0, 4.0, (1000, n)))]
            ),
            axis=1,
        )
        tied = on_cone[:200].copy()
        tied[:, n - 1] = tied[:, n - 2]
        zero = on_cone[200:400].copy()
        zero[:, 0] = 0.0
        negative = on_cone[400:600].copy()
        negative[:, 0] = -negative[:, 0]
        unordered = on_cone[600:800, ::-1]
        states = np.concatenate([on_cone, tied, zero, negative, unordered])
        want = log_density_rows(params, states)
        log_density = _log_density_point(params)
        got = np.array([log_density(row) for row in states.tolist()])
        assert np.isfinite(want[:3000]).all()
        assert np.isneginf(want[3000:]).all()
        assert np.array_equal(got, want)


class TestLogNormalizer:
    def test_quadrature_matches_closed_form_n2(self):
        q = estimate_log_normalizer(P2, "quadrature", degree=80)
        closed = logz_closed_form_n2(2.0, 0.5, 1.0)
        assert abs(q.estimate - closed) <= max(3 * q.stderr, 1e-4)

    def test_importance_matches_closed_form_n2(self):
        i = estimate_log_normalizer(
            P2, "importance", n_samples=100_000, rng=np.random.default_rng(12)
        )
        closed = logz_closed_form_n2(2.0, 0.5, 1.0)
        assert abs(i.estimate - closed) <= 3 * i.stderr

    def test_two_branches_agree_n2(self):
        q = estimate_log_normalizer(P2, "quadrature", degree=80)
        i = estimate_log_normalizer(
            P2, "importance", n_samples=100_000, rng=np.random.default_rng(13)
        )
        assert abs(q.estimate - i.estimate) <= 3 * math.hypot(q.stderr, i.stderr)

    def test_two_branches_agree_n3(self):
        p3 = ModelParams(alpha=2.0, beta=0.4, gamma=1.0, n=3)
        q = estimate_log_normalizer(p3, "quadrature", degree=60)
        i = estimate_log_normalizer(
            p3, "importance", n_samples=150_000, rng=np.random.default_rng(14)
        )
        assert abs(q.estimate - i.estimate) <= 3 * math.hypot(q.stderr, i.stderr)

    @pytest.mark.parametrize(
        "kwargs, message",
        [(dict(method="bogus"), "method must be 'quadrature' or 'importance', got 'bogus'"),
         (dict(method="quadrature", degree=0), "degree must be >= 2, got 0"),
         (dict(method="quadrature", degree=1), "degree must be >= 2, got 1"),
         (dict(method="quadrature", degree=20.0), "degree must be an integer, got 20.0"),
         (dict(method="importance", n_samples=1), "n_samples must be >= 2, got 1"),
         (dict(method="importance", n_samples=0), "n_samples must be >= 2, got 0"),
         (dict(method="importance", n_samples=1e3), "n_samples must be an integer, got 1000.0")],
        ids=["bogus_method", "degree_0", "degree_1", "degree_float", "one_sample",
             "no_sample", "float_samples"],
    )
    def test_bad_argument_is_a_config_error(self, kwargs, message):
        with pytest.raises(ConfigError) as info:
            estimate_log_normalizer(P2, rng=np.random.default_rng(0), **kwargs)
        assert str(info.value) == message

    def test_quadrature_needs_small_n(self):
        with pytest.raises(NotEvaluable):
            estimate_log_normalizer(
                ModelParams(4.0, 0.4, 1.0, 4), "quadrature", degree=20
            )


class TestStationaryLevers:
    """The faster forms of the oracles' building blocks give the same bits."""

    @pytest.mark.parametrize("degree", [40, 80])
    @pytest.mark.parametrize("alpha", [-0.9, -0.45, -0.25, 0.0, 0.25, 0.5, 1.3, 3.0])
    def test_gauss_laguerre_equals_scipy_bitwise(self, degree, alpha):
        from scipy.special import roots_genlaguerre

        x, w = _gauss_laguerre(degree, alpha)
        x_ref, w_ref = roots_genlaguerre(degree, alpha)
        assert np.array_equal(x, x_ref) and np.array_equal(w, w_ref)

    def test_quadrature_does_not_import_scipy_linalg(self):
        code = (
            "import sys\n"
            "from cir_particles import ModelParams, estimate_log_normalizer\n"
            "estimate_log_normalizer(ModelParams(3.0, 0.6, 1.0, 3), 'quadrature', degree=20)\n"
            "print('scipy.linalg' in sys.modules)\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    @staticmethod
    def _with_np_sort(monkeypatch):
        from cir_particles import stationary

        monkeypatch.setattr(stationary, "_sort_pairs", lambda draws: np.sort(draws, axis=1))

    def test_rejection_sampler_equals_np_sort_reference(self, monkeypatch):
        got = rejection_sample_pair(P2, 20_000, np.random.default_rng(102))
        self._with_np_sort(monkeypatch)
        want = rejection_sample_pair(P2, 20_000, np.random.default_rng(102))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("point", [(2.0, 0.5, 1.0, 2), (0.9, 0.2, 2.0, 2)],
                             ids=["c2", "small_kappa"])
    def test_importance_estimate_equals_np_sort_reference(self, point, monkeypatch):
        params = ModelParams(*point)
        got = estimate_log_normalizer(params, "importance", n_samples=50_000,
                                      rng=np.random.default_rng(15))
        self._with_np_sort(monkeypatch)
        want = estimate_log_normalizer(params, "importance", n_samples=50_000,
                                       rng=np.random.default_rng(15))
        assert (got.estimate, got.stderr) == (want.estimate, want.stderr)


class TestCompareLongRun:
    def test_regime_mismatch(self):
        p = ModelParams(alpha=0.7, beta=0.5, gamma=1.0, n=2)  # kappa in (0, 1-beta)
        cfg = SimConfig(dt=1e-3, horizon=1.0, paths=16)
        with pytest.raises(RegimeMismatch):
            compare_long_run(p, cfg)

    def test_ks_distance_improves_from_coarse_to_fine_dt(self):
        # Endpoint sum vs the exact Gamma law on a common noise tree: the
        # Euler bias at dt=4e-3 is resolvable against dt=1e-3 at this scale
        # (intermediate levels sit below the KS noise floor).
        from cir_particles import ks_distance, simulate_batch

        distances = {}
        for dt, refine in ((4e-3, 4), (1e-3, 1)):
            cfg = SimConfig(dt=dt, horizon=5.0, seed=61, paths=10_000)
            res = simulate_batch(P2, cfg, noise_refine=refine)
            distances[dt] = ks_distance(
                res.final_lambda.sum(axis=1),
                lambda x: gammainc(2.0, np.asarray(x)),
            )
        assert distances[4e-3] > distances[1e-3]

    def test_small_scale_run_passes(self):
        cfg = SimConfig(
            scheme=Scheme.EXACT_CIR_SPLITTING, dt=2e-3, horizon=10.0, seed=23,
            paths=2_000,
        )
        report = compare_long_run(P2, cfg, mh_steps=2_000, mh_thin=10)
        assert report["sum_vs_exact_gamma"].ks_p >= 0.01
        assert report["sum_vs_mh"].ks_p >= 0.01
        assert {"marginal_1_vs_mh", "marginal_2_vs_mh"} <= set(report)

"""Scheme contracts: hand steps, regularized drifts, stopping rules, coupling."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cir_particles import (
    CirParams,
    ConfigError,
    ModelParams,
    Scheme,
    SimConfig,
    Terminated,
    contraction_curve,
    drift_lambda,
    moment_summary,
    simulate_batch,
    simulate_coupled_cir,
    simulate_path,
)
from cir_particles.integrators import (
    _drift_a_batch,
    _drift_b_batch,
    _make_step,
    _sort_columns,
)


def one_step(params, config, state, dw=None):
    """One step of the kernel simulate_batch runs: proposal, clamp at zero, sort.

    The kernel is coordinate-major, so the state goes in as an (n, 1) column.
    """
    state = np.asarray(state, dtype=float)[:, None]
    dw = np.zeros_like(state) if dw is None else np.asarray(dw)[:, None]
    proposal = _make_step(params, config)(state, dw, np.zeros(1, dtype=bool))
    return np.sort(np.maximum(proposal, 0.0), axis=0)[:, 0]


def every_step(config):
    """record_steps of a batch that records every step."""
    return range(config.n_steps + 1)


def strided(config, stride):
    """record_steps 0, stride, 2*stride, ... and the last, as --record-stride records."""
    return [*range(0, config.n_steps, stride), config.n_steps]


def column_drift(batch_drift, params, eps, lam):
    """A batch drift of simulate_batch, unfloored, at one state as an (n, 1) column."""
    return batch_drift(params, eps, np.asarray(lam, dtype=float)[:, None], None)[:, 0]


def scalar_drift_a(params, eps, lam):
    """Independent scalar re-implementation of the A-system drift."""
    out = []
    for i, li in enumerate(lam):
        clamp = min(max((2 * math.sqrt(2) / math.sqrt(eps))
                        * (math.sqrt(li) - math.sqrt(eps) / (2 * math.sqrt(2))), 0.0), 1.0)
        inter = sum(1.0 / (li - lj) for j, lj in enumerate(lam) if j != i)
        out.append(params.kappa + 1.0 - clamp - 2 * params.gamma * li
                   + 2 * params.beta * li * inter)
    return np.array(out)


def scalar_drift_b(params, eps, lam):
    """Independent scalar re-implementation of the B-system drift."""
    lam1 = lam[0]
    m = min(lam1, eps)
    out = [params.kappa - 2 * params.gamma * lam1
           - 2 * params.beta * sum(m / max(lj - m, eps) for lj in lam[1:])]
    for i in range(1, len(lam)):
        li = lam[i]
        clamp = min(max((2 / math.sqrt(eps)) * (math.sqrt(li) - math.sqrt(eps) / 2), 0.0), 1.0)
        inter = sum(li / (li - lam[j]) for j in range(1, len(lam)) if j != i)
        out.append(params.kappa + 1.0 - clamp - 2 * params.gamma * li
                   + 2 * params.beta * inter + 2 * params.beta * li / max(li - m, eps))
    return np.array(out)


class TestSimConfig:
    def test_epsilon_defaults_to_ten_root_dt(self):
        cfg = SimConfig(dt=1e-4, horizon=1.0)
        assert cfg.epsilon == pytest.approx(10 * math.sqrt(1e-4))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(dt=0.0, horizon=1.0),
            dict(dt=0.1, horizon=0.05),
            dict(dt=0.01, horizon=1.0, collision_tol=0.0),
            dict(dt=0.01, horizon=1.0, paths=0),
            dict(dt=0.01, horizon=1.0, kick_cap=0.0),
            dict(dt=0.01, horizon=1.0, scheme="milstein"),
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ConfigError):
            SimConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(dt=math.nan),
            dict(dt=math.inf),
            dict(horizon=math.inf),
            dict(horizon=math.nan),
            dict(epsilon=math.nan),
            dict(epsilon=math.inf),
            dict(collision_tol=math.nan),
            dict(kick_cap=math.inf),
        ],
    )
    def test_non_finite_fields_are_config_errors(self, kwargs):
        with pytest.raises(ConfigError):
            SimConfig(**kwargs)

    @pytest.mark.parametrize(
        "field, value",
        [("seed", 1.5), ("seed", 1.0), ("seed", True), ("paths", 2.5), ("paths", 2.0),
         ("paths", True)],
    )
    def test_integer_field_rejects_a_non_integer(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must be an integer, got "):
            SimConfig(dt=1e-2, horizon=0.1, **{field: value})

    def test_numpy_integer_fields_run_as_ints(self):
        p = ModelParams(alpha=2.0, beta=0.5, gamma=1.0, n=2)
        want = simulate_batch(p, SimConfig(dt=1e-2, horizon=0.1, seed=7, paths=3),
                              record_steps=[0, 2, 4, 6, 8, 10])
        got = simulate_batch(p, SimConfig(dt=1e-2, horizon=0.1, seed=np.int64(7),
                                          paths=np.int32(3)),
                             record_steps=np.arange(0, 11, 2, dtype=np.uint8))
        assert np.array_equal(got.trajectories, want.trajectories)

    @pytest.mark.parametrize("horizon", [0.0015, 0.0025, 1.0004])
    def test_horizon_off_the_dt_grid_is_config_error(self, horizon):
        with pytest.raises(ConfigError, match="horizon"):
            SimConfig(dt=1e-3, horizon=horizon)

    @pytest.mark.parametrize("dt", [0.0, -1e-3, math.nan, math.inf, -math.inf])
    def test_grid_step_needs_a_finite_positive_dt(self, dt):
        from cir_particles.integrators import grid_step

        with pytest.raises(ConfigError, match="dt must be finite and > 0"):
            grid_step(1.0, dt, "horizon")

    def test_n_steps_counts_the_grid(self):
        assert SimConfig(dt=1e-3, horizon=1.0).n_steps == 1000
        assert SimConfig(dt=0.9, horizon=405.0).n_steps == 450

    @pytest.mark.parametrize("over", [1, 10**291], ids=["one_step_over", "1e291_steps"])
    def test_run_past_the_step_bound_raises_before_stepping(self, over, monkeypatch):
        from cir_particles import integrators
        from cir_particles.integrators import MAX_STEPS

        def refuse(*args, **kwargs):
            raise AssertionError("a step was taken")

        monkeypatch.setattr(integrators, "step_normals", refuse)
        config = SimConfig(dt=1.0, horizon=float(MAX_STEPS + over))
        assert config.n_steps > MAX_STEPS
        with pytest.raises(ConfigError, match="steps"):
            simulate_batch(ModelParams(2.0, 0.5, 1.0, 2), config)


class TestTruncatedEulerStep:
    def test_zero_step_identity(self):
        p = ModelParams(alpha=2.0, beta=0.5, gamma=0.0, n=2)
        lam = np.array([1.0, 3.0])
        out = one_step(p, SimConfig(dt=1e-12, horizon=1.0), lam)
        np.testing.assert_allclose(out, lam, atol=1e-11)

    def test_hand_step(self):
        p = ModelParams(alpha=2.0, beta=0.5, gamma=0.0, n=2)
        out = one_step(p, SimConfig(dt=0.01, horizon=1.0), np.array([1.0, 3.0]))
        np.testing.assert_allclose(out, [1.01, 3.03], rtol=1e-14)

    def test_sum_identity_per_step(self):
        p = ModelParams(alpha=2.0, beta=0.5, gamma=0.7, n=3)
        cfg = SimConfig(dt=1e-3, horizon=1.0)
        rng = np.random.default_rng(1)
        lam = np.array([0.5, 1.5, 3.0])
        for _ in range(50):
            dw = rng.normal(0.0, math.sqrt(1e-3), 3)
            out = one_step(p, cfg, lam, dw)
            expected = (
                lam.sum()
                + (3 * p.alpha - 2 * p.gamma * lam.sum()) * 1e-3
                + 2.0 * (np.sqrt(lam) * dw).sum()
            )
            if np.all(out > 0):  # no clamp activated
                assert out.sum() == pytest.approx(expected, rel=1e-12)
            lam = out


class TestDriftAEps:
    def test_saturated_clamp_matches_plain_drift(self):
        p = ModelParams(alpha=1.0, beta=0.5, gamma=0.3, n=3)
        eps = 0.04
        lam = np.array([0.02, 0.7, 1.9])  # lambda_1 >= eps/2
        drift = column_drift(_drift_a_batch, p, eps, lam)
        # With the clamp at 1 the scalar oracle is the plain dual form.
        np.testing.assert_allclose(drift, scalar_drift_a(p, eps, lam), rtol=1e-12)
        np.testing.assert_allclose(drift, drift_lambda(p, lam), rtol=1e-10)

    def test_clamp_lower_edge(self):
        # lambda_i = eps/8 makes the clamp exactly 0.
        p = ModelParams(alpha=1.0, beta=0.5, gamma=0.0, n=2)
        eps = 0.04
        lam = np.array([eps / 8.0, 1.0])
        drift = column_drift(_drift_a_batch, p, eps, lam)
        inter = 2 * p.beta * lam[0] / (lam[0] - lam[1])
        assert drift[0] == pytest.approx(p.kappa + 1.0 + inter, rel=1e-12)

    def test_dual_implementation_oracle(self):
        p = ModelParams(alpha=1.0, beta=0.5, gamma=0.0, n=2)
        lam = np.array([0.01, 1.0])
        np.testing.assert_allclose(
            column_drift(_drift_a_batch, p, 0.04, lam), scalar_drift_a(p, 0.04, lam),
            rtol=1e-12,
        )


class TestDriftBEps:
    def test_coincides_with_plain_drift_on_its_domain(self):
        # lambda_1 <= eps and lambda_2 - lambda_1 >= eps.
        p = ModelParams(alpha=1.0, beta=0.3, gamma=0.5, n=3)
        eps = 0.1
        lam = np.array([0.05, 0.5, 1.0])
        drift = column_drift(_drift_b_batch, p, eps, lam)
        np.testing.assert_allclose(drift, drift_lambda(p, lam), rtol=1e-10)
        np.testing.assert_allclose(drift, scalar_drift_b(p, eps, lam), rtol=1e-12)

    def test_zero_first_coordinate_kills_interaction(self):
        p = ModelParams(alpha=1.0, beta=0.3, gamma=0.5, n=3)
        drift = column_drift(_drift_b_batch, p, 0.1, [0.0, 0.5, 1.0])
        assert drift[0] == pytest.approx(p.kappa)

    def test_first_coordinate_free_of_order_constraint(self):
        # lambda_1 above lambda_2: every pair with lambda_1 uses lambda_1 ^ eps
        # and a gap floored at eps, so the B drift assumes no order there.
        p = ModelParams(alpha=1.0, beta=0.3, gamma=0.5, n=3)
        lam = [0.6, 0.5, 1.0]
        np.testing.assert_allclose(
            column_drift(_drift_b_batch, p, 0.1, lam), scalar_drift_b(p, 0.1, lam),
            rtol=1e-12,
        )


class TestSwitchingScheme:
    def test_rows_follow_the_switching_rule(self):
        # A one-path loop over the scheme's step map that switches to B at
        # lambda_1 <= eps/2, back to A at lambda_1 >= eps, and stops at the
        # joint event reproduces every recorded row of the batch.
        from cir_particles.randomness import step_normals

        p = ModelParams(alpha=0.8, beta=0.5, gamma=1.0, n=2)  # kappa = 0.3: visits 0
        cfg = SimConfig(
            scheme=Scheme.REGULARIZED_SWITCHING, dt=1e-3, horizon=5.0,
            seed=21, epsilon=0.05, paths=2,
        )
        eps = cfg.epsilon
        start = np.array([0.5, 2.0])
        res = simulate_batch(p, cfg, initial=start, record_steps=every_step(cfg))
        step_fn = _make_step(p, cfg)
        for path in range(2):
            state = start[:, None].copy()
            mode = state[0] < eps
            rows, modes = [state[:, 0]], [bool(mode[0])]
            for step in range(cfg.n_steps):
                dw = math.sqrt(cfg.dt) * step_normals(cfg.seed, step, path, 1, 2).T
                state = np.sort(np.maximum(step_fn(state, dw, mode), 0.0), axis=0)
                rows.append(state[:, 0])
                lam1 = state[0]
                if lam1 <= eps and state[1] - lam1 <= eps:
                    break
                mode = np.where(mode, ~(lam1 >= eps), lam1 <= eps / 2.0)
                modes.append(bool(mode[0]))
            rec = res.path_record(path)
            assert np.array_equal(rec.lambdas, np.array(rows))
            assert True in modes and modes[0] is False
            assert any(a and not b for a, b in zip(modes, modes[1:]))  # back to A

    def test_matches_truncated_euler_away_from_boundary(self):
        # beta >= 1 and a high-lying start keep every clamp saturated.
        p = ModelParams(alpha=4.0, beta=1.2, gamma=1.0, n=2)
        cfg = SimConfig(
            scheme=Scheme.REGULARIZED_SWITCHING, dt=1e-3, horizon=1.0,
            seed=5, epsilon=0.05,
        )
        cfg_e = SimConfig(dt=1e-3, horizon=1.0, seed=5, epsilon=0.05)
        start = np.array([3.0, 6.0])
        rec_s, _ = simulate_path(p, cfg, 0, initial=start)
        rec_e, _ = simulate_path(p, cfg_e, 0, initial=start)
        assert rec_s.terminated is Terminated.HORIZON
        np.testing.assert_allclose(rec_s.lambdas, rec_e.lambdas, rtol=1e-9)

    def test_zeta_stopping(self):
        # kappa in (0, 1-beta) with reversion: the joint event arrives fast.
        p = ModelParams(alpha=0.7, beta=0.5, gamma=0.5, n=2)
        cfg = SimConfig(
            scheme=Scheme.REGULARIZED_SWITCHING, dt=1e-3, horizon=100.0,
            seed=8, epsilon=0.02, paths=16,
        )
        res = simulate_batch(p, cfg)
        stopped = res.terminated_code == 2
        assert stopped.mean() >= 0.9
        lam = res.final_lambda[stopped]
        assert np.all(lam[:, 0] <= cfg.epsilon + 1e-12)
        assert np.all(lam[:, 1] - lam[:, 0] <= cfg.epsilon + 1e-12)


class TestCEpsilonScheme:
    def test_hand_step(self):
        p = ModelParams(alpha=0.4, beta=0.5, gamma=0.0, n=2)
        cfg = SimConfig(scheme=Scheme.C_EPSILON, dt=0.01, horizon=1.0, epsilon=0.01)
        out = one_step(p, cfg, np.array([1.0, 2.0]))
        np.testing.assert_allclose(
            out, [1.0 - 0.55 / 100 - 1.0 / 600, 2.0 + 0.0583333333333333 / 100],
            rtol=1e-12,
        )

    def test_matches_root_coordinates_away_from_floor(self):
        p = ModelParams(alpha=0.4, beta=0.5, gamma=0.2, n=2)
        cfg_c = SimConfig(scheme=Scheme.C_EPSILON, dt=1e-3, horizon=0.2, seed=3, epsilon=1e-4,
                          paths=4)
        cfg_r = SimConfig(scheme=Scheme.ROOT_COORDINATES, dt=1e-3, horizon=0.2, seed=3,
                          epsilon=1e-4, paths=4)
        start = np.array([1.0, 4.0])
        res_c = simulate_batch(p, cfg_c, initial=start, record_steps=every_step(cfg_c))
        res_r = simulate_batch(p, cfg_r, initial=start, record_steps=every_step(cfg_r))
        # identical noise and identical drift while x stays above every floor
        active = res_c.terminated_code == 0
        assert active.any()
        np.testing.assert_allclose(
            res_c.trajectories[active], res_r.trajectories[active], rtol=1e-12
        )

    def test_requires_negative_kappa(self):
        p = ModelParams(alpha=2.0, beta=0.5, gamma=0.0, n=2)
        cfg = SimConfig(scheme=Scheme.C_EPSILON, dt=1e-3, horizon=1.0, paths=2)
        with pytest.raises(ConfigError):
            simulate_batch(p, cfg)

    def test_stops_at_s_eps_in_negative_kappa_regime(self):
        p = ModelParams(alpha=0.4, beta=0.5, gamma=0.0, n=2)
        cfg = SimConfig(scheme=Scheme.C_EPSILON, dt=1e-3, horizon=50.0, seed=9,
                        epsilon=1e-2, paths=64)
        res = simulate_batch(p, cfg)
        frac = (res.terminated_code == 1).mean()
        assert frac >= 0.95
        stopped = res.terminated_code == 1
        assert np.all(res.final_lambda[stopped, 0] <= cfg.epsilon + 1e-12)


class TestRootOverflow:
    @pytest.mark.parametrize("scheme, alpha", [(Scheme.ROOT_COORDINATES, 2.0),
                                               (Scheme.C_EPSILON, 0.4)])
    def test_lambda_past_the_largest_double_is_a_numerical_failure(self, scheme, alpha):
        # Row 1's top coordinate starts at x = sqrt(1.5e308) = 1.22e154, and
        # gamma = -2 grows x by about 1.2x per step: x stays finite, but
        # lambda = x^2 does not.
        p = ModelParams(alpha=alpha, beta=0.5, gamma=-2.0, n=2)
        cfg = SimConfig(scheme=scheme, dt=0.1, horizon=1.0, seed=3, epsilon=0.05, paths=2)
        initial = np.array([[1.0, 2.0], [1.0, 1.5e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = simulate_batch(p, cfg, initial=initial, event_levels=(1e-2,),
                                 record_steps=every_step(cfg))
        assert res.terminated(0) is not Terminated.NUMERICAL_FAILURE
        assert res.terminated(1) is Terminated.NUMERICAL_FAILURE
        assert res.stop_time[1] == pytest.approx(cfg.dt)
        assert np.isfinite(res.final_lambda).all()
        assert np.isfinite(res.trajectories).all()
        np.testing.assert_allclose(res.final_lambda[1], initial[1], rtol=1e-15)


class TestSimulatePath:
    def test_bitwise_determinism(self):
        p = ModelParams(alpha=2.0, beta=0.4, gamma=1.0, n=3)
        cfg = SimConfig(dt=1e-3, horizon=0.3, seed=42)
        rec1, _ = simulate_path(p, cfg, 3)
        rec2, _ = simulate_path(p, cfg, 3)
        assert np.array_equal(rec1.lambdas, rec2.lambdas)
        assert np.array_equal(rec1.times, rec2.times)

    def test_path_equals_batch_row(self):
        p = ModelParams(alpha=2.0, beta=0.4, gamma=1.0, n=3)
        cfg = SimConfig(dt=1e-3, horizon=0.3, seed=42, paths=8)
        rec, _ = simulate_path(p, cfg, 3)
        batch = simulate_batch(p, cfg, record_steps=strided(cfg, 5))
        # The path records every step; the batch every fifth of the 300.
        assert np.array_equal(rec.lambdas[::5], batch.trajectories[3])

    def test_path_record_of_a_batch_row_is_the_path(self):
        p = ModelParams(alpha=0.8, beta=0.5, gamma=1.0, n=2)
        cfg = SimConfig(scheme=Scheme.REGULARIZED_SWITCHING, dt=1e-3, horizon=2.0,
                        seed=21, epsilon=0.05, paths=4)
        start = np.array([0.1, 1.0])
        steps = strided(cfg, 7)
        batch = simulate_batch(p, cfg, path_offset=2, initial=start, record_steps=steps)
        for i in range(4):
            got = batch.path_record(i)
            want, _ = simulate_path(p, cfg, 2 + i, start)
            # The path records every step up to its stop; the batch row, its
            # recorded steps up to the same stop.
            kept = [s for s in steps if s < want.times.size]
            assert got.path_index == want.path_index == 2 + i
            assert got.terminated is want.terminated
            assert got.stop_time == want.stop_time
            assert np.array_equal(got.times, want.times[kept])
            assert np.array_equal(got.lambdas, want.lambdas[kept])
        with pytest.raises(ConfigError, match="^path_record needs a batch run with record_steps$"):
            simulate_batch(p, dataclasses.replace(cfg, paths=1)).path_record(0)

    def test_recorded_states_sorted_nonnegative_all_schemes(self):
        for scheme, params in (
            (Scheme.TRUNCATED_EULER, ModelParams(1.0, 0.5, 0.5, 3)),
            (Scheme.REGULARIZED_SWITCHING, ModelParams(1.0, 0.5, 0.5, 3)),
            (Scheme.ROOT_COORDINATES, ModelParams(2.0, 0.5, 0.5, 3)),
            (Scheme.C_EPSILON, ModelParams(0.4, 0.5, 0.5, 2)),
            (Scheme.EXACT_CIR_SPLITTING, ModelParams(1.0, 0.5, 0.5, 3)),
        ):
            cfg = SimConfig(scheme=scheme, dt=1e-3, horizon=0.5, seed=17)
            rec, _ = simulate_path(params, cfg, 0)
            assert np.all(rec.lambdas >= 0.0)
            assert np.all(np.diff(rec.lambdas, axis=1) >= 0.0)
            assert np.all(np.diff(rec.times) > 0.0)

    def test_numerical_failure_recorded_not_raised(self):
        # Strong negative reversion with a large step blows up exponentially.
        p = ModelParams(alpha=1.0, beta=0.5, gamma=-5.0, n=2)
        cfg = SimConfig(dt=0.9, horizon=405.0, seed=1)
        rec, _ = simulate_path(p, cfg, 0, initial=np.array([1.0, 2.0]))
        assert rec.terminated is Terminated.NUMERICAL_FAILURE
        assert rec.stop_time < 405.0

    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    def test_exact_splitting_blow_up_is_a_numerical_failure(self, alpha):
        # As the run explodes, the exact step overflows to inf at alpha = 1; at
        # alpha = 0.5 its Poisson mean passes numpy's limit and the draw is NaN.
        p = ModelParams(alpha=alpha, beta=0.5, gamma=-5.0, n=2)
        cfg = SimConfig(scheme=Scheme.EXACT_CIR_SPLITTING, dt=0.9, horizon=405.0,
                        seed=1, paths=2)
        res = simulate_batch(p, cfg)
        assert [res.terminated(i) for i in range(2)] == [Terminated.NUMERICAL_FAILURE] * 2
        assert np.all(res.stop_time < 405.0)

    def test_splitting_rerun_identical(self):
        p = ModelParams(alpha=2.0, beta=0.5, gamma=1.0, n=2)
        cfg = SimConfig(scheme=Scheme.EXACT_CIR_SPLITTING, dt=1e-3, horizon=0.3, seed=6,
                        paths=16)
        a = simulate_batch(p, cfg)
        b = simulate_batch(p, cfg)
        assert np.array_equal(a.final_lambda, b.final_lambda)


class TestFrozenRowsAreNotStepped:
    def test_exact_splitting_steps_only_live_rows(self, monkeypatch):
        from cir_particles import integrators

        p = ModelParams(alpha=1.0, beta=0.4, gamma=0.5, n=3)
        cfg = SimConfig(scheme=Scheme.EXACT_CIR_SPLITTING, dt=1e-2, horizon=2.0,
                        seed=8, paths=24)
        stepped = []
        real = integrators.exact_step

        def counting(cir, r, dt, rng):
            stepped.append(r.shape[1])  # the (n, P) state: one column per live row
            return real(cir, r, dt, rng)

        monkeypatch.setattr(integrators, "exact_step", counting)
        kwargs = dict(stop_on=("psum", 2, 1e-2), event_levels=(0.1,),
                      record_steps=every_step(cfg))
        res = simulate_batch(p, cfg, **kwargs)
        steps = np.rint(res.stop_time / cfg.dt).astype(int)
        assert 0 < np.count_nonzero(res.terminated_code == 4) < cfg.paths
        assert sum(stepped) == steps.sum()
        for traj, k in zip(res.trajectories, steps):
            assert np.array_equal(traj[k:], np.broadcast_to(traj[k], traj[k:].shape))

        again = simulate_batch(p, cfg, **kwargs)
        for name in ("final_lambda", "stop_time", "terminated_code", "trajectories"):
            assert np.array_equal(getattr(again, name), getattr(res, name))
        for lev, mon in res.monitors.items():
            for kind, values in mon.items():
                assert np.array_equal(again.monitors[lev][kind], values, equal_nan=True)


class TestInitialStates:
    @pytest.mark.parametrize(
        "initial",
        [[math.nan, 1.0], [1.0, math.inf], [[1.0, 2.0], [0.5, math.nan]]],
        ids=["nan", "inf", "nan_in_one_row"],
    )
    def test_non_finite_start_is_config_error(self, initial):
        p = ModelParams(alpha=2.0, beta=0.5, gamma=1.0, n=2)
        cfg = SimConfig(dt=1e-2, horizon=0.1, seed=5, paths=2)
        with pytest.raises(ConfigError, match="finite"):
            simulate_batch(p, cfg, initial=initial)


# np.sort orders -0.0 and 0.0 as equals, so the blocks hold +0.0 only.
_SORT_ELEMENTS = (
    st.sampled_from([0.0, 1.0, 2.5, math.inf, -math.inf])
    | st.floats(-1e6, 1e6).map(lambda v: v + 0.0)
)


class TestSortColumns:
    @given(shape=st.tuples(st.integers(1, 6), st.integers(1, 40)), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_equals_np_sort_bit_for_bit(self, shape, data):
        # n = 1..6 crosses the cutoff between the network and np.sort.
        block = data.draw(arrays(np.float64, shape, elements=_SORT_ELEMENTS))
        want = np.sort(block, axis=0)
        assert _sort_columns(block.copy()).tobytes() == want.tobytes()

    @given(shape=st.tuples(st.integers(1, 6), st.integers(1, 40)), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_columns_with_nan_stay_non_finite(self, shape, data):
        block = data.draw(arrays(np.float64, shape, elements=_SORT_ELEMENTS))
        nan_at = data.draw(arrays(np.bool_, shape))
        block[nan_at] = math.nan
        got = _sort_columns(block.copy())
        assert np.array_equal(np.isnan(got).any(axis=0), nan_at.any(axis=0))
        assert np.array_equal(np.isfinite(got).all(axis=0), np.isfinite(block).all(axis=0))


# Widths on both sides of the row counts (50, 120 and 250 at n = 2, 3, 4)
# from which _sort_columns runs a compare-exchange network.
_SORT_WIDTHS = [1, 2, 49, 50, 51, 119, 120, 121, 249, 250, 251, 600]


def _sort_block(n, width, seed):
    """An (n, width) block of ties, +-inf, +0.0 and spread-out finite values."""
    rng = np.random.default_rng(seed)
    pool = np.array([0.0, 1.0, 1.0, 2.5, math.inf, -math.inf, 1e-300])
    block = rng.choice(pool, size=(n, width))
    spread = rng.random((n, width)) < 0.5
    block[spread] = rng.normal(0.0, 1e3, spread.sum())
    return block


class TestSortColumnsAcrossWidths:
    @pytest.mark.parametrize("width", _SORT_WIDTHS)
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_equals_np_sort_bit_for_bit(self, n, width):
        block = _sort_block(n, width, 100 * n + width)
        assert _sort_columns(block.copy()).tobytes() == np.sort(block, axis=0).tobytes()

    @pytest.mark.parametrize("width", _SORT_WIDTHS)
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_signed_zeros_after_the_kernel_clamp(self, n, width):
        # The kernel sorts np.maximum(proposal, 0.0), which maps -0.0 to +0.0,
        # so its sort never sees a negative zero; the sorted values then
        # match np.sort bit for bit.  On a raw block with -0.0 the values
        # still equal np.sort's, -0.0 == 0.0.
        rng = np.random.default_rng(n * width)
        block = rng.choice(np.array([-0.0, 0.0, 1.0, -1.0, math.inf]), size=(n, width))
        clamped = np.maximum(block, 0.0)
        assert not np.signbit(clamped).any()
        want = np.sort(clamped, axis=0)
        assert _sort_columns(clamped.copy()).tobytes() == want.tobytes()
        assert np.array_equal(_sort_columns(block.copy()), np.sort(block, axis=0))

    @pytest.mark.parametrize("width", _SORT_WIDTHS)
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_nan_columns_stay_non_finite(self, n, width):
        block = _sort_block(n, width, 7 * n + width)
        nan_at = np.random.default_rng(width).random((n, width)) < 0.1
        block[nan_at] = math.nan
        got = _sort_columns(block.copy())
        assert np.array_equal(np.isnan(got).any(axis=0), nan_at.any(axis=0))
        assert np.array_equal(np.isfinite(got).all(axis=0), np.isfinite(block).all(axis=0))


# The row count from which _sort_columns runs its network, per n.
_NETWORK_FROM = {2: 50, 3: 120, 4: 250}


def _mostly_sorted_block(n, width, seed, nan_columns):
    """Sorted columns, about one in eight inverted, and ``nan_columns`` NaN columns."""
    rng = np.random.default_rng(seed)
    block = np.sort(rng.exponential(1.0, (n, width)), axis=0)
    flip = np.flatnonzero(rng.random(width) < 0.125)
    block[:, flip] = block[::-1, flip]
    for col in rng.choice(width, nan_columns, replace=False):
        block[rng.integers(n), col] = math.nan
    return block


class TestSortColumnsMostlySorted:
    """The kernel's blocks are nearly sorted; a few columns are out of order or NaN."""

    @pytest.mark.parametrize("width", [39, 40, 41, 49, 50, 51, 119, 120, 121, 249, 250, 251])
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("nan_columns", [0, 3])
    def test_matches_the_rule_of_its_width(self, n, width, nan_columns):
        # Below the network's row count every column equals np.sort's; from
        # it on a NaN spreads through its whole column.
        block = _mostly_sorted_block(n, width, 1000 * n + width + nan_columns, nan_columns)
        got = _sort_columns(block.copy())
        want = np.sort(block, axis=0)
        nan_col = np.isnan(block).any(axis=0)
        if width >= _NETWORK_FROM[n]:
            want[:, nan_col] = math.nan
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("width", [40, 50, 121, 251, 600])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_sorted_block_is_returned_as_is(self, n, width):
        block = np.sort(np.random.default_rng(width).exponential(1.0, (n, width)), axis=0)
        block[:, ::3] = block[:, :1]  # ties across columns
        got = _sort_columns(block.copy())
        assert got.tobytes() == block.tobytes()


class TestNoiseIsCoordinateMajor:
    @pytest.mark.parametrize("refine", [1, 2, 4])
    @pytest.mark.parametrize("scheme", [Scheme.TRUNCATED_EULER, Scheme.ROOT_COORDINATES])
    def test_increments_are_the_transposed_draws(self, scheme, refine, monkeypatch):
        # Each step map gets sqrt(dt) times the normalized sum of the fine
        # draws over the live rows' span, transposed to (n, P), bit for bit.
        from cir_particles import integrators
        from cir_particles.randomness import step_normals

        seen = []
        real = integrators._make_step

        def make(*args, **kwargs):
            step = real(*args, **kwargs)

            def spy(state, dw, mode_is_b):
                seen.append(dw.copy())
                return step(state, dw, mode_is_b)

            return spy

        monkeypatch.setattr(integrators, "_make_step", make)
        n, p, offset = 3, 40, 17
        params = ModelParams(alpha=1.0, beta=0.4, gamma=0.5, n=n)
        cfg = SimConfig(scheme=scheme, dt=1e-2, horizon=0.6, seed=9, paths=p)
        initial = np.sort(np.random.default_rng(4).uniform(0.0, 1.2, (p, n)) ** 2, axis=1)
        res = simulate_batch(params, cfg, path_offset=offset, initial=initial,
                             stop_on=("psum", 1, 2e-2), noise_refine=refine)
        stop_step = np.rint(res.stop_time / cfg.dt).astype(int)
        gappy = 0
        for step, dw in enumerate(seen):
            rows = np.flatnonzero(stop_step > step)
            first, span = offset + int(rows[0]), int(rows[-1] - rows[0]) + 1
            z = step_normals(cfg.seed, step * refine, first, span, n)
            for u in range(1, refine):
                z += step_normals(cfg.seed, step * refine + u, first, span, n)
            if refine > 1:
                z /= math.sqrt(refine)
            want = np.ascontiguousarray((math.sqrt(cfg.dt) * z[rows - rows[0]]).T)
            assert dw.tobytes() == want.tobytes(), step
            gappy += span > rows.size
        assert len(seen) == stop_step.max() and gappy > 0


class TestStopOnStatus:
    def test_event_stop_reports_stopped_at_event(self):
        p = ModelParams(alpha=2.0, beta=0.5, gamma=1.0, n=2)
        cfg = SimConfig(dt=1e-2, horizon=0.1, seed=5, paths=2)
        initial = np.array([[2e-4, 5e-4], [1.0, 2.0]])  # psum_2 of row 0 <= 1e-3
        res = simulate_batch(p, cfg, initial=initial, stop_on=("psum", 2, 1e-3))
        assert res.terminated(0) is Terminated.STOPPED_AT_EVENT
        assert Terminated.STOPPED_AT_EVENT.value == "stopped_at_event"
        assert res.stop_time[0] == 0.0
        assert res.terminated(1) is Terminated.HORIZON


    @pytest.mark.parametrize(
        "stop_on",
        [
            ("psum", 0, 1e-3),
            ("psum", 3, 1e-3),
            ("gap", 1e-3),
            ("gap_any",),
            ("psum", 2.0, 1e-3),
            ("psum", True, 1e-3),
            ("psum", 1),
            ("psum", 1, 1e-3, 0.0),
            ("psum", 1, math.nan),
            ("psum", 1, 0.0),
            ("gap_any", -1e-3),
            ("gap_any", math.inf),
            "gap_any",
            (),
        ],
    )
    def test_invalid_rule_is_config_error(self, stop_on):
        p = ModelParams(alpha=2.0, beta=0.5, gamma=1.0, n=2)
        cfg = SimConfig(dt=1e-2, horizon=0.1, seed=5, paths=2)
        with pytest.raises(ConfigError, match="stop_on"):
            simulate_batch(p, cfg, stop_on=stop_on)

    def test_numpy_integer_k_is_accepted(self):
        p = ModelParams(alpha=2.0, beta=0.5, gamma=1.0, n=2)
        cfg = SimConfig(dt=1e-2, horizon=0.1, seed=5, paths=2)
        initial = np.array([[2e-4, 5e-4], [1.0, 2.0]])
        want = simulate_batch(p, cfg, initial=initial, stop_on=("psum", 2, 1e-3))
        got = simulate_batch(p, cfg, initial=initial, stop_on=("psum", np.int64(2), 1e-3))
        assert np.array_equal(got.terminated_code, want.terminated_code)
        assert np.array_equal(got.final_lambda, want.final_lambda)

    @pytest.mark.parametrize(
        "levels",
        [(math.nan,), (0.0,), (-1e-3,), (1e-2, math.inf), (1e-2, math.nan)],
        ids=["nan", "zero", "negative", "inf", "nan_after_good"],
    )
    def test_invalid_event_level_is_config_error(self, levels):
        p = ModelParams(alpha=2.0, beta=0.5, gamma=1.0, n=2)
        cfg = SimConfig(dt=1e-2, horizon=0.1, seed=5, paths=2)
        with pytest.raises(ConfigError, match="event_levels"):
            simulate_batch(p, cfg, event_levels=levels)

    def test_unknown_code_is_not_reported_as_horizon(self):
        p = ModelParams(alpha=2.0, beta=0.5, gamma=1.0, n=2)
        res = simulate_batch(p, SimConfig(dt=1e-2, horizon=0.1, seed=5, paths=1))
        res.terminated_code[0] = 9
        with pytest.raises(KeyError):
            res.terminated(0)


class TestStopPrecedence:
    @pytest.mark.parametrize(
        "scheme, alpha, start, stop_on, code",
        [
            # lambda_1 <= eps implies psum_1 <= 2 eps.
            (Scheme.C_EPSILON, 0.4, [0.5, 1.0], ("psum", 1, 0.02), 1),
            # lambda_1 <= eps and lambda_2 - lambda_1 <= eps imply psum_2 <= 3 eps.
            (Scheme.REGULARIZED_SWITCHING, 1.0, [0.2, 0.5], ("psum", 2, 0.04), 2),
        ],
        ids=["c_epsilon", "regularized_switching"],
    )
    def test_scheme_stop_outranks_stop_on_on_the_same_step(
        self, scheme, alpha, start, stop_on, code
    ):
        p = ModelParams(alpha=alpha, beta=0.5, gamma=0.5, n=2)
        cfg = SimConfig(scheme=scheme, dt=1e-2, horizon=2.0, seed=3, epsilon=0.01, paths=200)
        res = simulate_batch(p, cfg, initial=start, stop_on=stop_on)
        own = res.terminated_code == code
        assert own.sum() >= 10 and (res.terminated_code == 4).sum() >= 10
        # The stop_on event fired on the scheme's stopping step as well.
        hit = res.monitors[stop_on[-1]]["psum"][:, stop_on[1] - 1]
        assert np.array_equal(hit[own], res.stop_time[own])


class TestSchemeStopIsItsEventRow:
    @pytest.mark.parametrize(
        "scheme, kind, code, spread",
        [(Scheme.C_EPSILON, "psum", 1, 3.0), (Scheme.REGULARIZED_SWITCHING, "zeta", 2, 1.2)],
        ids=["c_epsilon", "regularized_switching"],
    )
    def test_stop_is_the_first_step_where_the_row_is_at_most_eps(
        self, scheme, kind, code, spread
    ):
        # c_epsilon stops at S_eps, the first partial sum lambda_1 <= eps, and
        # regularized_switching at zeta_eps; the start itself is not checked.
        from cir_particles.events import event_rows, event_values

        n = 3
        params = ModelParams(alpha=_MONITOR_ALPHA[scheme](n), beta=0.5, gamma=0.5, n=n)
        cfg = SimConfig(scheme=scheme, dt=1e-2, horizon=0.5, seed=4, epsilon=0.05, paths=60)
        start = np.sort(np.random.default_rng(4).uniform(0.0, spread, (60, n)) ** 2, axis=1)
        start[0] = [0.0, 0.01, 1.0]
        res = simulate_batch(params, cfg, initial=start, record_steps=every_step(cfg))
        row = event_rows(n)[kind]
        row = row.start if isinstance(row, slice) else row
        stopped = 0
        for i in range(cfg.paths):
            values = event_values(res.trajectories[i].T)[row]
            at_eps = np.flatnonzero(values[1:] <= cfg.epsilon)
            if at_eps.size:
                stopped += 1
                assert res.terminated_code[i] == code
                assert res.stop_time[i] == res.times[at_eps[0] + 1]
            else:
                assert res.terminated_code[i] == 0
                assert res.stop_time[i] == res.times[-1]
        assert 10 <= stopped <= cfg.paths - 10
        assert (event_values(start.T)[row] <= cfg.epsilon).any()


class TestNoMonitorFastPath:
    def test_truncated_euler_without_monitors_computes_no_event_value(self, monkeypatch):
        from cir_particles import integrators

        calls = []
        real = integrators.event_values
        monkeypatch.setattr(integrators, "event_values",
                            lambda lam: calls.append(lam.shape) or real(lam))
        params = ModelParams(alpha=2.0, beta=0.5, gamma=1.0, n=3)
        cfg = SimConfig(dt=1e-2, horizon=0.5, seed=6, paths=20)
        simulate_batch(params, cfg, record_steps=every_step(cfg))
        assert calls == []
        simulate_batch(params, cfg, event_levels=(1e-2,))
        assert len(calls) == cfg.n_steps + 1


class TestRecordSteps:
    @pytest.mark.parametrize(
        "steps, message",
        [([0, 5, 3], "record_steps must be strictly ascending steps of 0..10"),
         ([0, 3, 3], "record_steps must be strictly ascending steps of 0..10"),
         ([-1, 2], "record_steps must be >= 0, got -1"),
         ([0, 11], "record_steps must be strictly ascending steps of 0..10"),
         ([0, 2.0], "record_steps must be an integer, got 2.0"),
         ([0, 1.5], "record_steps must be an integer, got 1.5"),
         ([0, True], "record_steps must be an integer, got True"),
         (True, "record_steps must be a sequence, got True")],
        ids=["unsorted", "repeated", "negative", "past_n_steps", "integral_float", "float",
             "bool", "bare_bool"],
    )
    def test_bad_steps_are_config_errors_before_the_first_step(self, steps, message,
                                                               monkeypatch):
        from cir_particles import integrators

        def refuse(*args, **kwargs):
            raise AssertionError("a step was taken")

        monkeypatch.setattr(integrators, "step_normals", refuse)
        p = ModelParams(alpha=2.0, beta=0.5, gamma=1.0, n=2)
        with pytest.raises(ConfigError) as info:
            simulate_batch(p, SimConfig(dt=0.1, horizon=1.0, paths=2), record_steps=steps)
        assert str(info.value) == message

    def test_rows_are_the_listed_steps(self):
        # Any ascending steps, the last included or not: row k is the k-th
        # listed step of the every-step recording.
        p = ModelParams(alpha=2.0, beta=0.5, gamma=1.0, n=3)
        cfg = SimConfig(dt=1e-2, horizon=0.5, seed=4, paths=5)
        whole = simulate_batch(p, cfg, record_steps=every_step(cfg))
        for steps in ([0], [50], [3, 4, 17, 49], np.array([1, 2, 50])):
            res = simulate_batch(p, cfg, record_steps=steps)
            assert np.array_equal(res.trajectories, whole.trajectories[:, steps])
            assert np.array_equal(res.times, whole.times[steps])
            assert np.array_equal(res.final_lambda, whole.final_lambda)
        empty = simulate_batch(p, cfg)
        assert empty.trajectories is None and empty.times is None


class TestContractionProbes:
    @pytest.mark.parametrize(
        "times, message",
        [((0.5, 0.5004), "probe time t=0.5004 is not a multiple of dt=0.001"),
         ((7.0,), "probe time t=7 is step 7000 of dt=0.001, outside 0..1000"),
         ((1.001,), "probe time t=1.001 is step 1001 of dt=0.001, outside 0..1000"),
         ((-0.001,), "probe time t=-0.001 is step -1 of dt=0.001, outside 0..1000"),
         ((math.nan,), "probe time t=nan is not a multiple of dt=0.001"),
         ((math.inf,), "probe time t=inf is not a multiple of dt=0.001")],
        ids=["same_step", "past_horizon", "one_step_past", "negative", "nan", "inf"],
    )
    def test_off_grid_or_outside_run_is_config_error(self, times, message):
        p = ModelParams(alpha=2.0, beta=0.5, gamma=1.0, n=2)
        cfg = SimConfig(dt=1e-3, horizon=1.0, paths=2)
        with pytest.raises(ConfigError) as info:
            contraction_curve(p, cfg, [1.0, 2.0], [0.5, 2.5], times)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "times, contraction_text, integrated_text",
        [((), "probe_times must hold at least one probe, got none",
          "probe_times must hold at least one probe, got none"),
         ((0.25,), "probe time t=0.25 is not a multiple of dt=0.1",
          "probe time t=0.25 is not a multiple of dt=0.1"),
         ((-0.5,), "probe time t=-0.5 is step -5 of dt=0.1, outside 0..10",
          "probe time t=-0.5 is step -5 of dt=0.1, outside 1..1e+09")],
        ids=["none", "off_grid", "negative"],
    )
    def test_one_probe_check_for_both_runners(self, times, contraction_text,
                                              integrated_text):
        # contraction_curve checks steps 0..n_steps, integrated_sum_paths
        # 1..MAX_STEPS; each raises probe_steps' text for its bounds.
        from cir_particles.cirprocess import integrated_sum_paths
        from cir_particles.integrators import MAX_STEPS, probe_steps
        from cir_particles.randomness import rng_streams

        p = ModelParams(alpha=2.0, beta=0.5, gamma=1.0, n=2)
        cfg = SimConfig(dt=0.1, horizon=1.0, paths=2)
        calls = [
            (lambda: contraction_curve(p, cfg, [1.0, 2.0], [0.5, 2.5], times),
             lambda: probe_steps(times, 0.1, 0, cfg.n_steps), contraction_text),
            (lambda: integrated_sum_paths(p, 3.0, 2, 0.1, times, rng_streams(0, 0)),
             lambda: probe_steps(times, 0.1, 1, MAX_STEPS), integrated_text),
        ]
        for runner, helper, text in calls:
            for call in (runner, helper):
                with pytest.raises(ConfigError) as info:
                    call()
                assert str(info.value) == text

    def test_an_early_probe_records_the_probe_steps_only(self, monkeypatch):
        # A probe at t = dt next to later ones: each batch records the three
        # probe steps, not every step.
        from cir_particles import integrators

        shapes = []
        real = integrators.simulate_batch

        def spy(*args, **kwargs):
            res = real(*args, **kwargs)
            shapes.append((res.trajectories.shape, res.times.tolist()))
            return res

        monkeypatch.setattr(integrators, "simulate_batch", spy)
        p = ModelParams(alpha=2.0, beta=0.5, gamma=1.0, n=2)
        cfg = SimConfig(dt=1e-3, horizon=1.0, seed=3, paths=5)
        curve = contraction_curve(p, cfg, [1.0, 2.0], [0.5, 2.5], (1.0, 0.001, 0.5))
        assert list(curve) == [1.0, 0.001, 0.5]
        assert shapes == [((5, 3, 2), [0.001, 0.5, 1.0])] * 2

    def test_no_probe_is_config_error_before_any_batch(self, monkeypatch):
        from cir_particles import integrators

        def refuse(*args, **kwargs):
            raise AssertionError("a batch was run")

        monkeypatch.setattr(integrators, "simulate_batch", refuse)
        p = ModelParams(alpha=2.0, beta=0.5, gamma=1.0, n=2)
        cfg = SimConfig(dt=1e-3, horizon=1.0, paths=2)
        with pytest.raises(ConfigError) as info:
            contraction_curve(p, cfg, [1.0, 2.0], [0.5, 2.5], ())
        assert str(info.value) == "probe_times must hold at least one probe, got none"

    def test_contraction_curve_probes_on_one_step(self):
        p = ModelParams(alpha=2.0, beta=0.5, gamma=1.0, n=2)
        cfg = SimConfig(dt=1e-3, horizon=1.0, paths=4)
        with pytest.raises(ConfigError) as info:
            contraction_curve(p, cfg, [1.0, 2.0], [0.5, 2.5], (0.5, 0.5004))
        assert str(info.value) == "probe time t=0.5004 is not a multiple of dt=0.001"

    @pytest.mark.parametrize(
        "scheme, alpha, probes",
        [(Scheme.TRUNCATED_EULER, 3.2, (0.0, 0.3, 0.5, 1.0)),
         (Scheme.C_EPSILON, 0.4, (1.0, 0.2, 0.6)),
         (Scheme.TRUNCATED_EULER, 3.2, (0.0,))],
        ids=["truncated_euler", "c_epsilon", "start_only"],
    )
    def test_equals_the_gap_of_two_recorded_batches(self, scheme, alpha, probes):
        # The curve records its probe steps only; the reference records
        # every step.  c_epsilon rows stop at S_eps before the horizon.
        p = ModelParams(alpha=alpha, beta=1.2 if alpha > 1 else 0.5, gamma=1.0, n=2)
        cfg = SimConfig(scheme=scheme, dt=1e-2, horizon=1.0, seed=31, epsilon=0.05, paths=20)
        a, b = [0.2, 1.0], [0.1, 1.3]
        curve = contraction_curve(p, cfg, a, b, probes)
        res_a = simulate_batch(p, cfg, initial=a, record_steps=every_step(cfg))
        res_b = simulate_batch(p, cfg, initial=b, record_steps=every_step(cfg))
        assert list(curve) == list(probes)
        for t in probes:
            row = round(t / cfg.dt)
            gap = np.abs(res_a.trajectories[:, row] - res_b.trajectories[:, row]).sum(axis=1)
            assert curve[t] == moment_summary(gap, name=f"mean_l1_gap(t={t:g})")


# alpha per (scheme, n); beta = 0.5 and gamma = 0.5 throughout.  c_epsilon
# needs kappa < 0, regularized_switching a low kappa so the A/B modes switch.
_GAUSSIAN_ALPHA = {
    (Scheme.TRUNCATED_EULER, 2): 1.0,
    (Scheme.TRUNCATED_EULER, 3): 1.0,
    (Scheme.REGULARIZED_SWITCHING, 2): 0.7,
    (Scheme.REGULARIZED_SWITCHING, 3): 1.2,
    (Scheme.ROOT_COORDINATES, 2): 2.0,
    (Scheme.ROOT_COORDINATES, 3): 2.0,
    (Scheme.C_EPSILON, 2): 0.4,
    (Scheme.C_EPSILON, 3): 0.8,
}


def _assert_rows_match(part, whole, lo, hi):
    """Every output of batch ``part`` equals rows lo..hi-1 of batch ``whole``."""
    for name in ("final_lambda", "stop_time", "terminated_code", "trajectories"):
        assert np.array_equal(getattr(part, name), getattr(whole, name)[lo:hi])
    for lev, mon in whole.monitors.items():
        for kind, values in mon.items():
            assert np.array_equal(part.monitors[lev][kind], values[lo:hi], equal_nan=True)


class TestBatchDecomposition:
    @given(
        key=st.sampled_from(sorted(_GAUSSIAN_ALPHA, key=str)),
        paths=st.integers(1, 16),
        cuts=st.lists(st.integers(1, 15), max_size=6),
        seed=st.integers(0, 2**31 - 1),
        refine=st.sampled_from([1, 2]),
    )
    @settings(max_examples=40, deadline=None)
    def test_rows_do_not_depend_on_the_batch_split(self, key, paths, cuts, seed, refine):
        # A one-row batch returns once its row stops, so it is the reference
        # for every row of a batch whose other rows run on.
        scheme, n = key
        params = ModelParams(alpha=_GAUSSIAN_ALPHA[key], beta=0.5, gamma=0.5, n=n)
        cfg = SimConfig(scheme=scheme, dt=1e-2, horizon=2.0, seed=seed,
                        epsilon=0.05, paths=paths)
        initial = np.sort(
            np.random.default_rng(seed).uniform(0.01, 1.5, (paths, n)), axis=1
        )
        kwargs = dict(event_levels=(0.05, 1e-3), stop_on=("gap_any", 0.01),
                      record_steps=strided(cfg, 3), noise_refine=refine)
        whole = simulate_batch(params, cfg, initial=initial, **kwargs)
        bounds = sorted({0, paths, *(c for c in cuts if c < paths)})
        for lo, hi in zip(bounds, bounds[1:]):
            part = simulate_batch(params, dataclasses.replace(cfg, paths=hi - lo),
                                  path_offset=lo, initial=initial[lo:hi], **kwargs)
            _assert_rows_match(part, whole, lo, hi)
        for i in range(paths):
            alone = simulate_batch(params, dataclasses.replace(cfg, paths=1), path_offset=i,
                                   initial=initial[i:i + 1], **kwargs)
            _assert_rows_match(alone, whole, i, i + 1)


# alpha per scheme at n coordinates for the monitor tests; beta = 0.5.
# c_epsilon needs kappa = alpha - (n-1)/2 < 0, regularized_switching a low
# kappa so the A/B modes switch.
_MONITOR_ALPHA = {
    Scheme.TRUNCATED_EULER: lambda n: 1.0,
    Scheme.REGULARIZED_SWITCHING: lambda n: 0.5 * (n - 1) + 0.2,
    Scheme.ROOT_COORDINATES: lambda n: 1.0,
    Scheme.C_EPSILON: lambda n: 0.5 * (n - 1) - 0.1,
    Scheme.EXACT_CIR_SPLITTING: lambda n: 1.0,
}


class TestStackedMonitors:
    # The n = 3 Gaussian cases keep the bare scheme name as their id.  The
    # other cases take unsorted levels with a duplicate, which the monitors
    # keep in first-seen order; 1e-4 lies below the stop level, so it can
    # fire on the step a row freezes.
    @pytest.mark.parametrize(
        "scheme, n, alpha, levels",
        [pytest.param(scheme, 3, _GAUSSIAN_ALPHA[scheme, 3], (1e-2, 1e-3, 1e-4), id=scheme.value)
         for scheme in (Scheme.TRUNCATED_EULER, Scheme.REGULARIZED_SWITCHING,
                        Scheme.ROOT_COORDINATES, Scheme.C_EPSILON)]
        + [pytest.param(scheme, n, _MONITOR_ALPHA[scheme](n), (1e-3, 1e-2, 1e-4, 1e-3, 3e-2),
                        id=f"{scheme.value}-n{n}-unsorted")
           for scheme in Scheme for n in (2, 3, 4, 5)],
    )
    def test_each_level_equals_a_run_at_that_level_alone(self, scheme, n, alpha, levels):
        params = ModelParams(alpha=alpha, beta=0.5, gamma=0.5, n=n)
        cfg = SimConfig(scheme=scheme, dt=1e-2, horizon=3.0, seed=9, epsilon=0.01, paths=30)
        initial = np.sort(np.random.default_rng(9).uniform(0.001, 0.5, (30, n)), axis=1)
        stop_on = ("psum", 2, 1e-3)
        together = simulate_batch(params, cfg, initial=initial,
                                  event_levels=levels, stop_on=stop_on)
        assert list(together.monitors) == list(dict.fromkeys(levels))
        # Compaction: rows freeze at different steps, so the live set shrinks.
        assert np.unique(together.stop_time).size > 2
        for lev in together.monitors:
            mon = together.monitors[lev]
            assert sum(np.isfinite(v).sum() for v in mon.values()) > 0
            alone = simulate_batch(params, cfg, initial=initial,
                                   event_levels=(lev,), stop_on=stop_on)
            assert list(alone.monitors) == list(dict.fromkeys((lev, 1e-3)))
            assert list(alone.monitors[lev]) == list(mon)
            for kind, values in alone.monitors[lev].items():
                assert mon[kind].shape == values.shape and mon[kind].flags.c_contiguous
                assert np.array_equal(mon[kind], values, equal_nan=True)
            assert np.array_equal(alone.stop_time, together.stop_time)
            assert np.array_equal(alone.final_lambda, together.final_lambda)

    @pytest.mark.parametrize("n", [4, 5])
    def test_double_is_two_small_gaps_in_a_recorded_step(self, n):
        # Recorded every step, the first time two adjacent gaps are at or
        # below the level is the double monitor's first hit.
        params = ModelParams(alpha=1.0, beta=0.2, gamma=0.5, n=n)
        cfg = SimConfig(dt=1e-2, horizon=2.0, seed=4, paths=40)
        initial = np.sort(np.random.default_rng(n).uniform(0.0, 2.0, (40, n)), axis=1)
        levels = (0.005, 0.02)
        res = simulate_batch(params, cfg, initial=initial, event_levels=levels,
                             record_steps=every_step(cfg))
        small = np.diff(res.trajectories, axis=2)[..., None] <= np.array(levels)
        two = np.count_nonzero(small, axis=2) >= 2  # (P, recorded steps, levels)
        for j, lev in enumerate(levels):
            want = np.where(two[:, :, j].any(axis=1),
                            res.times[np.argmax(two[:, :, j], axis=1)], np.nan)
            assert np.isfinite(want).sum() >= 5
            assert np.isnan(want).sum() >= 1
            np.testing.assert_array_equal(res.monitors[lev]["double"], want)

    def test_double_never_fires_with_one_gap(self):
        params = ModelParams(alpha=1.0, beta=0.5, gamma=0.5, n=2)
        cfg = SimConfig(dt=1e-2, horizon=1.0, seed=4, paths=4)
        res = simulate_batch(params, cfg, initial=[0.0, 0.0], event_levels=(0.1,))
        assert np.isfinite(res.monitors[0.1]["gap"]).all()
        assert np.isnan(res.monitors[0.1]["double"]).all()


class TestErrorState:
    """The kernel ignores float errors while it steps and restores the caller's state."""

    def _run(self, scheme=Scheme.TRUNCATED_EULER):
        alpha = 0.5 if scheme == Scheme.C_EPSILON else 2.0  # c_epsilon needs kappa < 0
        params = ModelParams(alpha=alpha, beta=0.5, gamma=1.0, n=3)
        cfg = SimConfig(scheme=scheme, dt=1e-2, horizon=0.2, seed=3, paths=5)
        return simulate_batch(params, cfg, event_levels=(0.1,))

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_restored_on_return(self, scheme):
        with np.errstate(all="raise"):
            self._run(scheme)
            assert np.geterr() == dict.fromkeys(("divide", "over", "under", "invalid"), "raise")

    def test_restored_when_a_step_raises(self, monkeypatch):
        from cir_particles import integrators

        real = integrators._make_step
        inside = []

        def failing(*args, **kwargs):
            step = real(*args, **kwargs)

            def fail_on_fourth(state, dw, mode_is_b):
                inside.append(np.geterr())
                if len(inside) == 4:
                    raise RuntimeError("step failed")
                return step(state, dw, mode_is_b)

            return fail_on_fourth

        monkeypatch.setattr(integrators, "_make_step", failing)
        with np.errstate(all="raise"):
            with pytest.raises(RuntimeError, match="step failed"):
                self._run()
            assert np.geterr() == dict.fromkeys(("divide", "over", "under", "invalid"), "raise")
        assert len(inside) == 4
        for state in inside:
            assert (state["over"], state["invalid"], state["divide"]) == ("ignore",) * 3


class TestEveryRowFrozenAtStart:
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_batch_frozen_at_t0_returns_its_start(self, scheme, monkeypatch):
        from cir_particles import integrators

        drawn = []
        for name in ("step_normals", "exact_step"):
            real = getattr(integrators, name)
            monkeypatch.setattr(integrators, name,
                                lambda *args, real=real: drawn.append(args) or real(*args))
        n = 3
        params = ModelParams(alpha=_MONITOR_ALPHA[scheme](n), beta=0.5, gamma=0.5, n=n)
        cfg = SimConfig(scheme=scheme, dt=1e-2, horizon=0.5, seed=2, epsilon=0.01, paths=2)
        start = np.array([[0.0, 0.0, 0.5], [1e-4, 2e-4, 1.0]])
        res = simulate_batch(params, cfg, initial=start, event_levels=(1e-2,),
                             stop_on=("psum", 1, 1e-3), record_steps=every_step(cfg))
        assert drawn == []
        assert np.array_equal(res.terminated_code, [4, 4])
        assert np.array_equal(res.stop_time, [0.0, 0.0])
        lam0 = res.trajectories[:, 0]
        np.testing.assert_allclose(lam0, start, rtol=1e-15)
        assert np.array_equal(res.trajectories,
                              np.broadcast_to(lam0[:, None], res.trajectories.shape))
        assert np.array_equal(res.final_lambda, lam0)
        for lev in (1e-2, 1e-3):
            assert np.array_equal(res.monitors[lev]["psum"][:, 0], [0.0, 0.0])


def _break_step(monkeypatch, k, breaker):
    """Make ``breaker`` edit the proposal of the k-th step map call in place.

    Returns the list of the calls' column counts, one per call.
    """
    from cir_particles import integrators

    real = integrators._make_step
    calls = []

    def make(*args, **kwargs):
        step = real(*args, **kwargs)

        def broken(state, dw, mode_is_b):
            out = step(state, dw, mode_is_b)
            calls.append(out.shape[1])
            if len(calls) == k:
                breaker(out)
            return out

        return broken

    monkeypatch.setattr(integrators, "_make_step", make)
    return calls


class TestRetireRule:
    """A failed step, a scheme stop and a stop_on hit all freeze a row, by one rule."""

    @pytest.mark.parametrize("stop_on", [None, ("psum", 1, 1e-2)], ids=["scheme_stop", "stop_on"])
    @pytest.mark.parametrize("k, lam1", [(5, None), (1, 0.02)], ids=["step_5", "step_1_below_eps"])
    def test_failed_row_keeps_its_last_state_and_meets_no_rule(self, k, lam1, stop_on,
                                                               monkeypatch):
        # Step k sends row j's top coordinate to inf and its lambda_1 to 0,
        # below every monitored level and below eps: the row fails at k*dt
        # with its step k-1 state, and no monitor or stopping rule sees it.
        # A start lambda_1 of 0.02 is at most eps but stops no row at t = 0,
        # where S_eps does not apply and 0.02 is above every level.
        j = 3
        params = ModelParams(alpha=_MONITOR_ALPHA[Scheme.C_EPSILON](3), beta=0.5, gamma=0.5, n=3)
        cfg = SimConfig(scheme=Scheme.C_EPSILON, dt=1e-2, horizon=0.3, seed=9, epsilon=0.05,
                        paths=8)
        initial = np.tile([1.0, 2.0, 3.0], (cfg.paths, 1))
        if lam1 is not None:
            initial[j, 0] = lam1
        kwargs = dict(initial=initial, event_levels=(1e-2, 1e-3), stop_on=stop_on,
                      record_steps=every_step(cfg))
        base = simulate_batch(params, cfg, **kwargs)
        # No row leaves before step k, so row j is column j of the step map.
        assert (base.stop_time >= base.times[k]).all()

        def breaker(x):  # root coordinates: x = sqrt(lambda)
            x[0, j] = 0.0
            x[-1, j] = math.inf

        _break_step(monkeypatch, k, breaker)
        res = simulate_batch(params, cfg, **kwargs)
        assert res.terminated(j) is Terminated.NUMERICAL_FAILURE
        assert res.stop_time[j] == base.times[k]
        last = base.trajectories[j, k - 1]
        assert np.array_equal(res.final_lambda[j], last)
        assert np.array_equal(res.trajectories[j, :k], base.trajectories[j, :k])
        assert np.array_equal(res.trajectories[j, k:],
                              np.broadcast_to(last, res.trajectories[j, k:].shape))
        for lev, monitors in res.monitors.items():
            for kind, hits in monitors.items():
                before = base.monitors[lev][kind][j]
                want = np.where(before < base.times[k], before, np.nan)
                assert np.array_equal(hits[j], want, equal_nan=True)
                assert np.array_equal(np.delete(hits, j, axis=0),
                                      np.delete(base.monitors[lev][kind], j, axis=0),
                                      equal_nan=True)
        for name in ("final_lambda", "stop_time", "terminated_code", "trajectories"):
            assert np.array_equal(np.delete(getattr(res, name), j, axis=0),
                                  np.delete(getattr(base, name), j, axis=0))

    @pytest.mark.parametrize("how", ["fail", "rule", "mixed"])
    def test_rows_frozen_between_recorded_steps_fill_the_tail(self, how, monkeypatch):
        # Every row freezes at step 4, between the recorded steps 3 and 6:
        # by a failed step, by the stop_on rule, or half by each.
        k = 4
        params = ModelParams(alpha=3.0, beta=0.5, gamma=0.5, n=3)
        cfg = SimConfig(dt=1e-2, horizon=0.3, seed=12, paths=6)
        kwargs = dict(stop_on=("psum", 1, 1e-6), record_steps=strided(cfg, 3))
        base = simulate_batch(params, cfg, **kwargs)
        assert (base.terminated_code == 0).all()
        failed = np.zeros(cfg.paths, dtype=bool)
        failed[{"fail": slice(None), "rule": slice(0, 0), "mixed": slice(0, None, 2)}[how]] = True

        def breaker(x):
            x[0] = 0.0  # lambda_1 = 0: a stop_on hit
            x[-1, failed] = math.inf

        calls = _break_step(monkeypatch, k, breaker)
        res = simulate_batch(params, cfg, **kwargs)
        assert calls == [cfg.paths] * k
        assert np.array_equal(res.terminated_code, np.where(failed, 3, 4))
        assert (res.stop_time == k * cfg.dt).all()
        assert np.array_equal(res.trajectories[:, :2], base.trajectories[:, :2])
        assert np.array_equal(res.final_lambda[failed], base.trajectories[failed, 1])
        assert (res.final_lambda[~failed, 0] == 0.0).all()
        tail = res.trajectories[:, 2:]
        assert np.array_equal(tail, np.broadcast_to(res.final_lambda[:, None], tail.shape))


class TestNoiseTree:
    def test_coarse_increment_is_sum_of_fine(self):
        # One macro step with noise_refine=m must see the same Brownian mass
        # as m fine steps: for zero-drift parameters the endpoint agrees.
        from cir_particles.randomness import step_normals

        z_fine = [step_normals(77, s, 0, 5, 2) for s in range(4)]
        z_coarse = sum(z_fine) / 2.0
        # variance-dt scaling: coarse dW = sqrt(4 dt) * z_coarse equals the
        # sum of fine dW = sqrt(dt) * z_s
        dt = 1e-3
        lhs = math.sqrt(4 * dt) * z_coarse
        rhs = math.sqrt(dt) * sum(z_fine)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    @pytest.mark.parametrize("refine", [0, -2, 1.5])
    def test_noise_refine_must_be_int_at_least_one(self, refine):
        p = ModelParams(alpha=2.0, beta=0.5, gamma=1.0, n=2)
        cfg = SimConfig(dt=1e-2, horizon=0.1, seed=5, paths=2)
        with pytest.raises(ConfigError, match="noise_refine"):
            simulate_batch(p, cfg, noise_refine=refine)

    def test_noise_refine_rejected_under_exact_splitting(self):
        p = ModelParams(alpha=2.0, beta=0.5, gamma=1.0, n=2)
        cfg = SimConfig(scheme=Scheme.EXACT_CIR_SPLITTING, dt=1e-2, horizon=0.1,
                        seed=5, paths=2)
        with pytest.raises(ConfigError, match="noise_refine"):
            simulate_batch(p, cfg, noise_refine=2)
        simulate_batch(p, cfg, noise_refine=1)

    def test_weak_error_of_sum_shrinks_on_common_tree(self):
        # KS distance of the endpoint sum to the exact CIR law decreases
        # across dt in {1e-2, 5e-3, 2.5e-3} on a shared noise tree.
        from cir_particles import exact_step, ks_distance_two_sample, rng_streams, sum_process

        p = ModelParams(alpha=2.0, beta=0.4, gamma=1.0, n=3)
        start = np.array([1.0, 2.0, 3.0])
        oracle = exact_step(
            sum_process(p), np.full(40_000, 6.0), 1.0, rng_streams(55, 0)
        )
        distances = []
        for dt, refine in ((1e-2, 4), (5e-3, 2), (2.5e-3, 1)):
            cfg = SimConfig(dt=dt, horizon=1.0, seed=55, paths=4_000)
            res = simulate_batch(p, cfg, initial=start, noise_refine=refine)
            distances.append(
                ks_distance_two_sample(res.final_lambda.sum(axis=1), oracle)
            )
        assert distances[0] > distances[1] > distances[2]


class TestCoupling:
    def test_coupled_cir_ordering(self):
        out = simulate_coupled_cir(
            CirParams(3.0, 1.0, 1.0), CirParams(2.5, 1.0, 1.0),
            1.0, 1.0, 1e-3, 2.0, 99, 200,
        )
        assert out["ordering_violations"] == 0
        assert out["min_margin"] >= 0.0

    def test_coupled_cir_past_the_step_bound_raises_before_stepping(self, monkeypatch):
        from cir_particles import integrators

        def refuse(*args, **kwargs):
            raise AssertionError("a step was taken")

        monkeypatch.setattr(integrators, "step_normals", refuse)
        with pytest.raises(ConfigError, match="1e\\+300 steps is past the bound of 1e\\+09"):
            simulate_coupled_cir(
                CirParams(1.0, 1.0, 1.0), CirParams(0.5, 1.0, 1.0),
                1.0, 1.0, 1e-300, 1.0, 0, 1,
            )

    @pytest.mark.parametrize("horizon", [0.0015, 1.0004, 0.0])
    def test_coupled_cir_horizon_off_the_dt_grid_is_config_error(self, horizon):
        with pytest.raises(ConfigError, match="horizon"):
            simulate_coupled_cir(
                CirParams(3.0, 1.0, 1.0), CirParams(2.5, 1.0, 1.0),
                1.0, 1.0, 1e-3, horizon, 99, 4,
            )

    @pytest.mark.parametrize(
        "dt, n_paths, r0, match",
        [
            (0.0, 4, 1.0, "dt must be finite and > 0"),
            (-1e-3, 4, 1.0, "dt must be finite and > 0"),
            (1e-3, 0, 1.0, "n_paths must be >= 1"),
            (1e-3, 2.5, 1.0, "n_paths must be an integer, got 2.5"),
            (1e-3, 4, -0.5, "r0_b must be finite and >= 0"),
            (1e-3, 4, math.nan, "r0_b must be finite and >= 0"),
        ],
        ids=["zero_dt", "negative_dt", "no_paths", "fractional_paths", "negative_r0",
             "nan_r0"],
    )
    def test_coupled_cir_bad_input_is_config_error(self, dt, n_paths, r0, match):
        with pytest.raises(ConfigError, match=match):
            simulate_coupled_cir(
                CirParams(3.0, 1.0, 1.0), CirParams(2.5, 1.0, 1.0),
                1.0, r0, dt, 1.0, 99, n_paths,
            )

    def test_contraction_small_scale(self):
        p = ModelParams(alpha=3.2, beta=1.2, gamma=1.0, n=2)
        cfg = SimConfig(dt=1e-3, horizon=0.5, seed=31, paths=500)
        curve = contraction_curve(p, cfg, [1.0, 2.0], [0.5, 2.5], (0.5,))
        s = curve[0.5]
        bound = math.exp(-1.0) * 1.0
        assert s.estimate <= bound * (1.0 + 3.0 * s.stderr / s.estimate)

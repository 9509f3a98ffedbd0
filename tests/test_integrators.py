"""Scheme contracts: hand steps, regularized drifts, stopping rules, coupling."""

import math

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

    @pytest.mark.parametrize("horizon", [0.0015, 0.0025, 1.0004])
    def test_horizon_off_the_dt_grid_is_config_error(self, horizon):
        with pytest.raises(ConfigError, match="horizon"):
            SimConfig(dt=1e-3, horizon=horizon)

    def test_n_steps_counts_the_grid(self):
        assert SimConfig(dt=1e-3, horizon=1.0).n_steps == 1000
        assert SimConfig(dt=0.9, horizon=405.0).n_steps == 450


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
    def test_threshold_flip_to_b(self):
        # Each switch is logged at the post-step time: to B at lambda_1 <= eps/2,
        # back to A at lambda_1 >= eps.
        p = ModelParams(alpha=0.8, beta=0.5, gamma=1.0, n=2)
        cfg = SimConfig(
            scheme=Scheme.REGULARIZED_SWITCHING, dt=1e-3, horizon=5.0,
            seed=21, epsilon=0.05, paths=4,
        )
        res = simulate_batch(p, cfg, initial=np.array([0.5, 2.0]), record=True,
                             track_switches=True)
        seen = set()
        for path, switches in enumerate(res.switch_log):
            for t, mode in switches:
                lam1 = res.trajectories[path, int(round(t / cfg.dt)), 0]
                if mode == "B":
                    assert lam1 <= cfg.epsilon / 2.0
                else:
                    assert lam1 >= cfg.epsilon
                seen.add(mode)
        assert seen == {"A", "B"}

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

    def test_switch_log_alternates(self):
        p = ModelParams(alpha=0.8, beta=0.5, gamma=1.0, n=2)  # kappa = 0.3: visits 0
        cfg = SimConfig(
            scheme=Scheme.REGULARIZED_SWITCHING, dt=1e-3, horizon=20.0,
            seed=21, epsilon=0.05,
        )
        rec, _ = simulate_path(p, cfg, 0, initial=np.array([0.5, 2.0]))
        times = [t for t, _ in rec.switches]
        modes = [m for _, m in rec.switches]
        assert times == sorted(times)
        assert all(a != b for a, b in zip(modes, modes[1:]))

    def test_zeta_stopping(self):
        # kappa in (0, 1-beta) with reversion: the joint event arrives fast.
        p = ModelParams(alpha=0.7, beta=0.5, gamma=0.5, n=2)
        cfg = SimConfig(
            scheme=Scheme.REGULARIZED_SWITCHING, dt=1e-3, horizon=100.0,
            seed=8, epsilon=0.02, paths=16,
        )
        res = simulate_batch(p, cfg, n_paths=16)
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
        cfg_c = SimConfig(scheme=Scheme.C_EPSILON, dt=1e-3, horizon=0.2, seed=3, epsilon=1e-4)
        cfg_r = SimConfig(scheme=Scheme.ROOT_COORDINATES, dt=1e-3, horizon=0.2, seed=3, epsilon=1e-4)
        start = np.array([1.0, 4.0])
        res_c = simulate_batch(p, cfg_c, n_paths=4, initial=start, record=True)
        res_r = simulate_batch(p, cfg_r, n_paths=4, initial=start, record=True)
        # identical noise and identical drift while x stays above every floor
        active = res_c.terminated_code == 0
        assert active.any()
        np.testing.assert_allclose(
            res_c.trajectories[active], res_r.trajectories[active], rtol=1e-12
        )

    def test_requires_negative_kappa(self):
        p = ModelParams(alpha=2.0, beta=0.5, gamma=0.0, n=2)
        cfg = SimConfig(scheme=Scheme.C_EPSILON, dt=1e-3, horizon=1.0)
        with pytest.raises(ConfigError):
            simulate_batch(p, cfg, n_paths=2)

    def test_stops_at_s_eps_in_negative_kappa_regime(self):
        p = ModelParams(alpha=0.4, beta=0.5, gamma=0.0, n=2)
        cfg = SimConfig(scheme=Scheme.C_EPSILON, dt=1e-3, horizon=50.0, seed=9,
                        epsilon=1e-2, paths=64)
        res = simulate_batch(p, cfg)
        frac = (res.terminated_code == 1).mean()
        assert frac >= 0.95
        stopped = res.terminated_code == 1
        assert np.all(res.final_lambda[stopped, 0] <= cfg.epsilon + 1e-12)


class TestSimulatePath:
    def test_bitwise_determinism(self):
        p = ModelParams(alpha=2.0, beta=0.4, gamma=1.0, n=3)
        cfg = SimConfig(dt=1e-3, horizon=0.3, seed=42, record_stride=5)
        rec1, _ = simulate_path(p, cfg, 3)
        rec2, _ = simulate_path(p, cfg, 3)
        assert np.array_equal(rec1.lambdas, rec2.lambdas)
        assert np.array_equal(rec1.times, rec2.times)

    def test_path_equals_batch_row(self):
        p = ModelParams(alpha=2.0, beta=0.4, gamma=1.0, n=3)
        cfg = SimConfig(dt=1e-3, horizon=0.3, seed=42, record_stride=5)
        rec, _ = simulate_path(p, cfg, 3)
        batch = simulate_batch(p, cfg, n_paths=8, record=True)
        assert np.array_equal(rec.lambdas, batch.trajectories[3])

    def test_path_record_of_a_batch_row_is_the_path(self):
        p = ModelParams(alpha=0.8, beta=0.5, gamma=1.0, n=2)
        cfg = SimConfig(scheme=Scheme.REGULARIZED_SWITCHING, dt=1e-3, horizon=2.0,
                        seed=21, epsilon=0.05, record_stride=7)
        start = np.array([0.1, 1.0])
        batch = simulate_batch(p, cfg, n_paths=4, path_offset=2, initial=start,
                               record=True, track_switches=True)
        for i in range(4):
            got = batch.path_record(i)
            want, _ = simulate_path(p, cfg, 2 + i, start)
            assert got.path_index == want.path_index == 2 + i
            assert got.terminated is want.terminated
            assert got.stop_time == want.stop_time
            assert got.switches == want.switches
            assert np.array_equal(got.times, want.times)
            assert np.array_equal(got.lambdas, want.lambdas)
        with pytest.raises(ConfigError, match="record=True"):
            simulate_batch(p, cfg, n_paths=1).path_record(0)

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

    def test_exact_splitting_blow_up_is_a_numerical_failure(self):
        # The exact step's Poisson mean passes numpy's limit as the run explodes.
        p = ModelParams(alpha=1.0, beta=0.5, gamma=-5.0, n=2)
        cfg = SimConfig(scheme=Scheme.EXACT_CIR_SPLITTING, dt=0.9, horizon=405.0,
                        seed=1, paths=2)
        res = simulate_batch(p, cfg)
        assert [res.terminated(i) for i in range(2)] == [Terminated.NUMERICAL_FAILURE] * 2
        assert np.all(res.stop_time < 405.0)

    def test_splitting_rerun_identical(self):
        p = ModelParams(alpha=2.0, beta=0.5, gamma=1.0, n=2)
        cfg = SimConfig(scheme=Scheme.EXACT_CIR_SPLITTING, dt=1e-3, horizon=0.3, seed=6)
        a = simulate_batch(p, cfg, n_paths=16)
        b = simulate_batch(p, cfg, n_paths=16)
        assert np.array_equal(a.final_lambda, b.final_lambda)


class TestFrozenRowsAreNotStepped:
    def test_exact_splitting_steps_only_live_rows(self, monkeypatch):
        from cir_particles import integrators

        p = ModelParams(alpha=1.0, beta=0.4, gamma=0.5, n=3)
        cfg = SimConfig(scheme=Scheme.EXACT_CIR_SPLITTING, dt=1e-2, horizon=2.0,
                        seed=8, paths=24)
        stepped = []
        real = integrators.exact_step_decomposed

        def counting(cir, r, dt, rng):
            stepped.append(r.shape[1])  # the (n, P) state: one column per live row
            return real(cir, r, dt, rng)

        monkeypatch.setattr(integrators, "exact_step_decomposed", counting)
        kwargs = dict(stop_on=("psum", 2, 1e-2), event_levels=(0.1,), record=True)
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
        cfg = SimConfig(scheme=scheme, dt=1e-2, horizon=2.0, seed=3, epsilon=0.01)
        res = simulate_batch(p, cfg, n_paths=200, initial=start, stop_on=stop_on)
        own = res.terminated_code == code
        assert own.sum() >= 10 and (res.terminated_code == 4).sum() >= 10
        # The stop_on event fired on the scheme's stopping step as well.
        hit = res.monitors[stop_on[-1]]["psum"][:, stop_on[1] - 1]
        assert np.array_equal(hit[own], res.stop_time[own])


class TestSnapshotTimes:
    @pytest.mark.parametrize(
        "times",
        [(0.5, 0.5004), (7.0,), (1.001,), (-0.001,), (math.nan,), (math.inf,)],
        ids=["same_step", "past_horizon", "one_step_past", "negative", "nan", "inf"],
    )
    def test_off_grid_or_outside_run_is_config_error(self, times):
        p = ModelParams(alpha=2.0, beta=0.5, gamma=1.0, n=2)
        cfg = SimConfig(dt=1e-3, horizon=1.0, paths=2)
        with pytest.raises(ConfigError, match="snapshot"):
            simulate_batch(p, cfg, snapshot_times=times)

    def test_contraction_curve_probes_on_one_step(self):
        p = ModelParams(alpha=2.0, beta=0.5, gamma=1.0, n=2)
        cfg = SimConfig(dt=1e-3, horizon=1.0, paths=4)
        with pytest.raises(ConfigError, match="snapshot"):
            contraction_curve(p, cfg, [1.0, 2.0], [0.5, 2.5], (0.5, 0.5004))

    def test_grid_times_from_start_to_horizon(self):
        p = ModelParams(alpha=2.0, beta=0.5, gamma=1.0, n=2)
        cfg = SimConfig(dt=1e-2, horizon=1.0, seed=3, paths=3)
        res = simulate_batch(p, cfg, snapshot_times=(0.0, 0.3, 1.0), record=True)
        assert sorted(res.snapshots) == [0.0, 0.3, 1.0]
        assert np.array_equal(res.snapshots[0.0], res.trajectories[:, 0])
        assert np.array_equal(res.snapshots[0.3], res.trajectories[:, 30])
        assert np.array_equal(res.snapshots[1.0], res.final_lambda)


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
    assert part.snapshots.keys() == whole.snapshots.keys()
    for t, values in whole.snapshots.items():
        assert np.array_equal(part.snapshots[t], values[lo:hi])
    assert part.switch_log == whole.switch_log[lo:hi]


class TestBatchDecomposition:
    @given(
        key=st.sampled_from(sorted(_GAUSSIAN_ALPHA, key=str)),
        n_paths=st.integers(1, 16),
        cuts=st.lists(st.integers(1, 15), max_size=6),
        seed=st.integers(0, 2**31 - 1),
        refine=st.sampled_from([1, 2]),
    )
    @settings(max_examples=40, deadline=None)
    def test_rows_do_not_depend_on_the_batch_split(self, key, n_paths, cuts, seed, refine):
        # A one-row batch returns once its row stops, so it is the reference
        # for every row of a batch whose other rows run on.
        scheme, n = key
        params = ModelParams(alpha=_GAUSSIAN_ALPHA[key], beta=0.5, gamma=0.5, n=n)
        cfg = SimConfig(scheme=scheme, dt=1e-2, horizon=2.0, seed=seed,
                        epsilon=0.05, record_stride=3)
        initial = np.sort(
            np.random.default_rng(seed).uniform(0.01, 1.5, (n_paths, n)), axis=1
        )
        kwargs = dict(event_levels=(0.05, 1e-3), stop_on=("gap_any", 0.01),
                      record=True, track_switches=True, noise_refine=refine,
                      snapshot_times=(0.5, 2.0))
        whole = simulate_batch(params, cfg, n_paths=n_paths, initial=initial, **kwargs)
        bounds = sorted({0, n_paths, *(c for c in cuts if c < n_paths)})
        for lo, hi in zip(bounds, bounds[1:]):
            part = simulate_batch(params, cfg, n_paths=hi - lo, path_offset=lo,
                                  initial=initial[lo:hi], **kwargs)
            _assert_rows_match(part, whole, lo, hi)
        for i in range(n_paths):
            alone = simulate_batch(params, cfg, n_paths=1, path_offset=i,
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
        cfg = SimConfig(scheme=scheme, dt=1e-2, horizon=3.0, seed=9, epsilon=0.01)
        initial = np.sort(np.random.default_rng(9).uniform(0.001, 0.5, (30, n)), axis=1)
        stop_on = ("psum", 2, 1e-3)
        together = simulate_batch(params, cfg, n_paths=30, initial=initial,
                                  event_levels=levels, stop_on=stop_on)
        assert list(together.monitors) == list(dict.fromkeys(levels))
        # Compaction: rows freeze at different steps, so the live set shrinks.
        assert np.unique(together.stop_time).size > 2
        for lev in together.monitors:
            mon = together.monitors[lev]
            assert sum(np.isfinite(v).sum() for v in mon.values()) > 0
            alone = simulate_batch(params, cfg, n_paths=30, initial=initial,
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
        cfg = SimConfig(dt=1e-2, horizon=2.0, seed=4)
        initial = np.sort(np.random.default_rng(n).uniform(0.0, 2.0, (40, n)), axis=1)
        levels = (0.005, 0.02)
        res = simulate_batch(params, cfg, n_paths=40, initial=initial, event_levels=levels,
                             record=True)
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
        cfg = SimConfig(dt=1e-2, horizon=1.0, seed=4)
        res = simulate_batch(params, cfg, n_paths=4, initial=[0.0, 0.0], event_levels=(0.1,))
        assert np.isfinite(res.monitors[0.1]["gap"]).all()
        assert np.isnan(res.monitors[0.1]["double"]).all()


class TestEveryRowFrozenAtStart:
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_batch_frozen_at_t0_returns_its_start(self, scheme, monkeypatch):
        from cir_particles import integrators

        drawn = []
        for name in ("step_normals", "exact_step_decomposed"):
            real = getattr(integrators, name)
            monkeypatch.setattr(integrators, name,
                                lambda *args, real=real: drawn.append(args) or real(*args))
        n = 3
        params = ModelParams(alpha=_MONITOR_ALPHA[scheme](n), beta=0.5, gamma=0.5, n=n)
        cfg = SimConfig(scheme=scheme, dt=1e-2, horizon=0.5, seed=2, epsilon=0.01)
        start = np.array([[0.0, 0.0, 0.5], [1e-4, 2e-4, 1.0]])
        res = simulate_batch(params, cfg, n_paths=2, initial=start, event_levels=(1e-2,),
                             stop_on=("psum", 1, 1e-3), record=True,
                             snapshot_times=(0.0, 0.2, 0.5), track_switches=True)
        assert drawn == []
        assert np.array_equal(res.terminated_code, [4, 4])
        assert np.array_equal(res.stop_time, [0.0, 0.0])
        lam0 = res.trajectories[:, 0]
        np.testing.assert_allclose(lam0, start, rtol=1e-15)
        assert np.array_equal(res.trajectories,
                              np.broadcast_to(lam0[:, None], res.trajectories.shape))
        for t in (0.0, 0.2, 0.5):
            assert np.array_equal(res.snapshots[t], lam0)
        assert np.array_equal(res.final_lambda, lam0)
        assert res.switch_log == [[], []]
        for lev in (1e-2, 1e-3):
            assert np.array_equal(res.monitors[lev]["psum"][:, 0], [0.0, 0.0])


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

    @pytest.mark.parametrize("horizon", [0.0015, 1.0004, 0.0])
    def test_coupled_cir_horizon_off_the_dt_grid_is_config_error(self, horizon):
        with pytest.raises(ConfigError, match="horizon"):
            simulate_coupled_cir(
                CirParams(3.0, 1.0, 1.0), CirParams(2.5, 1.0, 1.0),
                1.0, 1.0, 1e-3, horizon, 99, 4,
            )

    def test_contraction_small_scale(self):
        p = ModelParams(alpha=3.2, beta=1.2, gamma=1.0, n=2)
        cfg = SimConfig(dt=1e-3, horizon=0.5, seed=31, paths=500)
        curve = contraction_curve(p, cfg, [1.0, 2.0], [0.5, 2.5], (0.5,))
        s = curve[0.5]
        bound = math.exp(-1.0) * 1.0
        assert s.estimate <= bound * (1.0 + 3.0 * s.stderr / s.estimate)

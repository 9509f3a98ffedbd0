"""Event detection and first-passage estimation."""

import math

import numpy as np
import pytest

from cir_particles import (
    CollisionVerdict,
    EventKind,
    ModelParams,
    Scheme,
    SimConfig,
    Terminated,
    detect_events,
    first_passage_partial_sum,
    multiple_collision_threshold,
)
from cir_particles.errors import BadK
from cir_particles.integrators import PathRecord


def synthetic_path(times, lambdas, dt=1e-2, terminated=Terminated.HORIZON):
    times = np.asarray(times, dtype=float)
    lambdas = np.asarray(lambdas, dtype=float)
    cfg = SimConfig(dt=dt, horizon=float(times[-1]) if times[-1] > dt else 1.0)
    params = ModelParams(alpha=2.0, beta=0.5, gamma=0.0, n=lambdas.shape[1])
    return PathRecord(
        params=params, config=cfg, path_index=0, times=times, lambdas=lambdas,
        terminated=terminated, stop_time=float(times[-1]),
    )


class TestDetectEvents:
    def test_constant_separated_path_is_quiet(self):
        times = np.linspace(0.0, 1.0, 11)
        lam = np.tile([1.0, 2.0, 3.0], (11, 1))
        log = detect_events(synthetic_path(times, lam), 0.5)
        assert log.events == [] and log.multiple_collisions == []

    def test_linear_decay_crosses_partial_sum(self):
        times = np.linspace(0.0, 1.0, 101)
        lam = np.column_stack([np.maximum(1.0 - times, 0.0), np.full(101, 5.0)])
        log = detect_events(synthetic_path(times, lam), 0.05)
        ev = log.first(EventKind.ZERO_HIT_PARTIAL_SUM, 1)
        assert ev is not None
        # first grid time with lambda_1 <= 0.05
        assert ev.time == pytest.approx(0.95)

    def test_shrinking_delta_never_moves_events_earlier(self):
        rng = np.random.default_rng(2)
        times = np.linspace(0.0, 1.0, 200)
        walk = np.abs(np.cumsum(rng.normal(0, 0.05, 200))) + 0.01
        lam = np.column_stack([walk, walk + np.abs(np.cumsum(rng.normal(0, 0.03, 200))) + 0.005])
        path = synthetic_path(times, np.sort(lam, axis=1))
        for kind, idx in ((EventKind.PAIR_COLLISION, 1), (EventKind.ZERO_HIT_PARTIAL_SUM, 1)):
            previous = -math.inf
            for delta in (0.5, 0.2, 0.05, 0.01):
                ev = detect_events(path, delta).first(kind, idx)
                t = ev.time if ev else math.inf
                assert t >= previous
                previous = t

    def test_joint_event_and_multiple_collision_flags(self):
        times = np.array([0.0, 0.1, 0.2])
        lam = np.array([[0.5, 1.0, 2.0], [0.005, 0.008, 2.0], [0.5, 1.0, 2.0]])
        log = detect_events(synthetic_path(times, lam), 0.01)
        assert log.first(EventKind.JOINT_EVENT_ZETA) is not None
        # simultaneous distinct pair events
        lam2 = np.array([[0.5, 1.0, 2.0], [0.5, 0.505, 0.509], [0.5, 1.0, 2.0]])
        log2 = detect_events(synthetic_path(times, lam2), 0.01)
        assert (0.1, 1, 2) in log2.multiple_collisions

    def test_stop_events_reported(self):
        times = np.array([0.0, 0.1])
        lam = np.array([[1.0, 2.0], [0.5, 2.0]])
        path = synthetic_path(times, lam, terminated=Terminated.STOPPED_AT_S_EPS)
        log = detect_events(path, 1e-3)
        assert log.first(EventKind.STOP_S) is not None


    def test_log_matches_the_online_monitors_of_a_recorded_row(self):
        # Recorded every step, detect_events reads the same first-hit times
        # as the batch monitors at its level.
        from cir_particles import simulate_batch

        p = ModelParams(alpha=1.0, beta=0.5, gamma=0.5, n=3)
        cfg = SimConfig(dt=1e-2, horizon=3.0, seed=9)
        initial = np.sort(np.random.default_rng(9).uniform(0.001, 0.5, (8, 3)), axis=1)
        res = simulate_batch(p, cfg, n_paths=8, initial=initial, record=True,
                             event_levels=(1e-2, 0.05, 1e-3))
        assert np.isfinite(res.monitors[1e-3]["psum"]).any()
        assert np.isfinite(res.monitors[0.05]["double"]).any()
        def time_of(ev):
            return ev.time if ev else math.nan

        for delta in (0.05, 1e-2, 1e-3):
            mon = res.monitors[delta]
            for i in range(8):
                log = detect_events(res.path_record(i), delta)
                got = {
                    "gap": [time_of(log.first(EventKind.PAIR_COLLISION, j)) for j in (1, 2)],
                    "psum": [time_of(log.first(EventKind.ZERO_HIT_PARTIAL_SUM, k))
                             for k in (1, 2, 3)],
                    "zeta": time_of(log.first(EventKind.JOINT_EVENT_ZETA)),
                    "double": min((t for t, _, _ in log.multiple_collisions),
                                  default=math.nan),
                }
                for kind, times in got.items():
                    np.testing.assert_allclose(times, mon[kind][i], rtol=1e-12)


class TestFirstPassage:
    def test_k_equals_n_matches_cir_boundary_oracle(self):
        # n*alpha < 2 and gamma >= 0: the sum hits zero almost surely.
        p_hit = ModelParams(alpha=0.7, beta=0.5, gamma=0.5, n=2)
        assert (
            multiple_collision_threshold(p_hit, p_hit.n)[1]
            is CollisionVerdict.ALMOST_SURE_ZERO_HIT
        )
        cfg = SimConfig(
            scheme=Scheme.EXACT_CIR_SPLITTING, dt=1e-3, horizon=40.0, seed=10, paths=200
        )
        ladder = first_passage_partial_sum(p_hit, cfg, 2, levels=(1e-2,))
        assert ladder[1e-2].estimate >= 0.95

        # n*alpha >= 2: the sum never hits zero.
        p_never = ModelParams(alpha=2.6, beta=0.5, gamma=0.5, n=2)
        assert multiple_collision_threshold(p_never, p_never.n)[1] is CollisionVerdict.NEVER
        ladder = first_passage_partial_sum(p_never, cfg, 2, levels=(1e-3,))
        assert ladder[1e-3].estimate <= 0.01

    def test_ladder_is_monotone_in_delta(self):
        p = ModelParams(alpha=1.0, beta=0.4, gamma=0.5, n=3)
        cfg = SimConfig(
            scheme=Scheme.EXACT_CIR_SPLITTING, dt=1e-3, horizon=30.0, seed=11, paths=150
        )
        ladder = first_passage_partial_sum(p, cfg, 2)
        assert ladder[1e-2].estimate >= ladder[1e-3].estimate >= ladder[1e-4].estimate

    def test_hit_fraction_monotone_in_k(self):
        # psum_k <= psum_{k+1} pointwise, so hits can only become rarer in k.
        from cir_particles import simulate_batch

        p = ModelParams(alpha=1.0, beta=0.4, gamma=0.5, n=3)
        cfg = SimConfig(
            scheme=Scheme.EXACT_CIR_SPLITTING, dt=1e-3, horizon=30.0, seed=12, paths=150
        )
        res = simulate_batch(p, cfg, event_levels=[1e-2])
        hits = ~np.isnan(res.monitors[1e-2]["psum"])
        fractions = hits.mean(axis=0)
        assert fractions[0] >= fractions[1] >= fractions[2]

    def test_bad_k(self):
        p = ModelParams(alpha=1.0, beta=0.4, gamma=0.5, n=3)
        cfg = SimConfig(dt=1e-3, horizon=1.0)
        with pytest.raises(BadK):
            first_passage_partial_sum(p, cfg, 4)


"""Event detection and first-passage estimation."""

import math

import numpy as np
import pytest

from cir_particles import (
    CollisionVerdict,
    ConfigError,
    Event,
    EventKind,
    ModelParams,
    Scheme,
    SimConfig,
    Terminated,
    detect_events,
    event_rows,
    event_values,
    first_passage_partial_sum,
    multiple_collision_threshold,
    simulate_batch,
)
from cir_particles.errors import BadK


def scanned_events(res, i, delta):
    """Events of row i found by scanning its recorded trajectory, as a list.

    The reference for :func:`detect_events` recorded at every step: the first
    recorded step at which each event value of :func:`event_values` is <=
    delta, then the scheme's stop event, stable-sorted by time.
    """
    rec = res.path_record(i)
    rows = event_rows(rec.lambdas.shape[1])
    below = event_values(rec.lambdas.T) <= delta
    events = []
    for kind, key in ((EventKind.PAIR_COLLISION, "gap"),
                      (EventKind.ZERO_HIT_PARTIAL_SUM, "psum")):
        for j, row in enumerate(below[rows[key]], 1):
            if row.any():
                events.append(Event(float(rec.times[row.argmax()]), kind, j, delta))
    if below[rows["zeta"]].any():
        t = float(rec.times[below[rows["zeta"]].argmax()])
        events.append(Event(t, EventKind.JOINT_EVENT_ZETA, None, delta))
    stop = {Terminated.STOPPED_AT_S_EPS: EventKind.STOP_S,
            Terminated.STOPPED_AT_ZETA_EPS: EventKind.JOINT_EVENT_ZETA}.get(rec.terminated)
    if stop is not None:
        events.append(Event(rec.stop_time, stop, None, res.config.epsilon))
    return sorted(events, key=lambda e: e.time)


def first_time(events, kind, index=None):
    return next((e.time for e in events
                 if e.kind == kind and (index is None or e.index == index)), math.nan)


# scheme -> (alpha at n = 3, epsilon); c_epsilon needs kappa < 0, and
# regularized_switching a low kappa so that rows stop at zeta_eps.
_SCHEME_CASES = {
    Scheme.TRUNCATED_EULER: (1.0, None),
    Scheme.REGULARIZED_SWITCHING: (0.7, 0.02),
    Scheme.ROOT_COORDINATES: (1.0, None),
    Scheme.C_EPSILON: (0.9, 0.02),
    Scheme.EXACT_CIR_SPLITTING: (1.0, None),
}


class TestDetectEvents:
    def test_separated_batch_is_quiet(self):
        p = ModelParams(alpha=2.0, beta=0.5, gamma=0.0, n=3)
        cfg = SimConfig(dt=1e-3, horizon=0.05, seed=1, paths=4)
        res = simulate_batch(p, cfg, initial=[1.0, 4.0, 9.0], event_levels=(0.05,))
        assert detect_events(res, 0.05) == [[], [], [], []]

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_rows_equal_a_scan_of_the_trajectories(self, scheme):
        # Recorded at every step, a scan of each recorded row finds the events
        # the monitors stamped, in the same order.
        alpha, eps = _SCHEME_CASES[scheme]
        p = ModelParams(alpha=alpha, beta=0.5, gamma=0.5, n=3)
        cfg = SimConfig(scheme=scheme, dt=1e-2, horizon=3.0, seed=9, epsilon=eps, paths=8)
        initial = np.sort(np.random.default_rng(9).uniform(0.001, 0.5, (8, 3)), axis=1)
        levels = (1e-2, 0.05, 1e-3)
        res = simulate_batch(p, cfg, initial=initial, record_steps=range(cfg.n_steps + 1),
                             event_levels=levels)
        found = 0
        for delta in levels:
            rows = detect_events(res, delta)
            assert len(rows) == 8
            for i, events in enumerate(rows):
                assert events == scanned_events(res, i, delta)
                found += len(events)
        assert found > 0
        if scheme in (Scheme.REGULARIZED_SWITCHING, Scheme.C_EPSILON):
            assert np.any(np.isin(res.terminated_code, (1, 2)))

    def test_event_between_recorded_rows_is_reported_at_its_step(self):
        p = ModelParams(alpha=1.0, beta=0.5, gamma=0.5, n=3)
        initial = np.array([0.05, 0.06, 1.0])
        cfg = SimConfig(dt=1e-3, horizon=0.5, seed=9, paths=3)
        kwargs = dict(initial=initial, event_levels=(1e-3,))
        every = range(cfg.n_steps + 1)
        want = detect_events(simulate_batch(p, cfg, record_steps=every, **kwargs), 1e-3)
        res = simulate_batch(p, cfg, record_steps=[*every[::7], cfg.n_steps], **kwargs)
        assert detect_events(res, 1e-3) == want
        off_grid = [e.time for events in want for e in events
                    if not np.isclose(res.times, e.time).any()]
        assert off_grid

    def test_shrinking_delta_never_moves_events_earlier(self):
        p = ModelParams(alpha=0.8, beta=0.5, gamma=0.5, n=2)
        cfg = SimConfig(dt=1e-2, horizon=2.0, seed=2, paths=6)
        levels = (0.5, 0.2, 0.05, 0.01)
        res = simulate_batch(p, cfg, initial=[0.3, 0.8], event_levels=levels)
        rows = {delta: detect_events(res, delta) for delta in levels}
        for i in range(6):
            for kind in (EventKind.PAIR_COLLISION, EventKind.ZERO_HIT_PARTIAL_SUM):
                times = [first_time(rows[delta][i], kind, 1) for delta in levels]
                finite = [t for t in times if not math.isnan(t)]
                assert finite == sorted(finite)
                # a hit at a small level is a hit at every larger one
                assert all(math.isnan(t) <= math.isnan(u) for t, u in zip(times, times[1:]))

    def test_joint_and_double_events_at_the_start(self):
        p = ModelParams(alpha=2.0, beta=0.5, gamma=0.0, n=3)
        cfg = SimConfig(dt=1e-2, horizon=0.1, seed=3, paths=2)
        start = np.array([[0.005, 0.008, 2.0], [0.5, 0.505, 0.509]])
        res = simulate_batch(p, cfg, initial=start, event_levels=(0.01,))
        joint, double = detect_events(res, 0.01)
        assert first_time(joint, EventKind.JOINT_EVENT_ZETA) == 0.0
        assert first_time(double, EventKind.PAIR_COLLISION, 1) == 0.0
        assert first_time(double, EventKind.PAIR_COLLISION, 2) == 0.0
        # the same-step double event is the monitors' own row
        assert res.monitors[0.01]["double"][1] == 0.0

    def test_stop_events_reported(self):
        p = ModelParams(alpha=0.4, beta=0.5, gamma=0.0, n=2)
        cfg = SimConfig(scheme=Scheme.C_EPSILON, dt=1e-3, horizon=5.0, seed=9,
                        epsilon=1e-2, paths=4)
        res = simulate_batch(p, cfg, event_levels=(1e-3,))
        stopped = np.flatnonzero(res.terminated_code == 1)
        assert stopped.size
        rows = detect_events(res, 1e-3)
        for i in stopped:
            stop = [e for e in rows[i] if e.kind == EventKind.STOP_S]
            assert stop == [Event(float(res.stop_time[i]), EventKind.STOP_S, None, 1e-2)]
            assert rows[i][-1] == stop[0]

    def test_unmonitored_level_is_a_config_error(self):
        p = ModelParams(alpha=2.0, beta=0.5, gamma=1.0, n=2)
        res = simulate_batch(p, SimConfig(dt=1e-2, horizon=0.1, paths=2), event_levels=(1e-2,))
        with pytest.raises(ConfigError, match="not monitored"):
            detect_events(res, 1e-3)


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
        p = ModelParams(alpha=1.0, beta=0.4, gamma=0.5, n=3)
        cfg = SimConfig(
            scheme=Scheme.EXACT_CIR_SPLITTING, dt=1e-3, horizon=30.0, seed=12, paths=150
        )
        res = simulate_batch(p, cfg, event_levels=[1e-2])
        hits = ~np.isnan(res.monitors[1e-2]["psum"])
        fractions = hits.mean(axis=0)
        assert fractions[0] >= fractions[1] >= fractions[2]

    def test_empty_levels_is_config_error(self):
        p = ModelParams(alpha=1.0, beta=0.4, gamma=0.5, n=3)
        cfg = SimConfig(dt=1e-3, horizon=1.0)
        with pytest.raises(ConfigError, match="levels"):
            first_passage_partial_sum(p, cfg, 2, levels=())

    @pytest.mark.parametrize(
        "levels", [(0.0,), (-1e-3,), (math.nan,), (1e-2, math.inf)],
        ids=["zero", "negative", "nan", "inf_after_good"],
    )
    def test_bad_level_is_named_levels(self, levels):
        p = ModelParams(alpha=1.0, beta=0.4, gamma=0.5, n=3)
        cfg = SimConfig(dt=1e-3, horizon=1.0)
        with pytest.raises(ConfigError, match=r"^levels must be finite and > 0, got "):
            first_passage_partial_sum(p, cfg, 1, levels=levels)

    def test_bad_k(self):
        p = ModelParams(alpha=1.0, beta=0.4, gamma=0.5, n=3)
        cfg = SimConfig(dt=1e-3, horizon=1.0)
        with pytest.raises(BadK):
            first_passage_partial_sum(p, cfg, 4)


"""Drift, potential and regime-classifier checks against hand oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cir_particles import (
    CoincidentCoordinates,
    ConfigError,
    CollisionVerdict,
    DomainError,
    GlobalSolution,
    ModelParams,
    PairCollisions,
    ZeroHitLambda1,
    classify_regime,
    drift_lambda,
    SimConfig,
    grad_potential,
    interaction_sum,
    multiple_collision_threshold,
    potential_value,
)
from cir_particles.errors import BadK
from cir_particles.integrators import _Guard
from cir_particles.stats import finite_diff_gradient

EPS = np.finfo(float).eps


class TestModelParams:
    def test_kappa_is_recomputed(self):
        p = ModelParams(alpha=2.0, beta=0.5, gamma=0.0, n=3)
        assert p.kappa == 2.0 - 2 * 0.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(alpha=1.0, beta=0.5, gamma=0.0, n=1),
            dict(alpha=1.0, beta=0.0, gamma=0.0, n=2),
            dict(alpha=-0.1, beta=0.5, gamma=0.0, n=2),
        ],
    )
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ModelParams(**kwargs)

    @pytest.mark.parametrize("n", [2.5, 2.0, np.float64(3.0), True, "3"],
                             ids=["fraction", "integral_float", "numpy_float", "bool", "str"])
    def test_non_integer_n_is_config_error(self, n):
        with pytest.raises(ConfigError, match="n must be an integer, got "):
            ModelParams(alpha=1.0, beta=0.5, gamma=0.0, n=n)

    def test_numpy_integer_n_is_accepted(self):
        assert ModelParams(alpha=1.0, beta=0.5, gamma=0.0, n=np.int64(3)).kappa == 0.0

    @pytest.mark.parametrize("name", ["alpha", "beta", "gamma"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_params_are_config_errors(self, name, value):
        kwargs = dict(alpha=1.0, beta=0.5, gamma=0.0, n=2)
        kwargs[name] = value
        with pytest.raises(ConfigError, match=name):
            ModelParams(**kwargs)


def row_major_interaction_sum(lam, floor=None, *, inverse=False):
    """The pair loop over a path-major (P, n) batch, kept as an oracle.

    Floored denominators keep the sign of l_i - l_j (ties count as
    l_i < l_j) with magnitude max(|l_i - l_j|, floor), for rows in any order.
    """
    out = np.zeros_like(lam)
    n = lam.shape[1]
    for i in range(n):
        for j in range(i + 1, n):
            s = lam[:, i] + lam[:, j]
            den = lam[:, i] - lam[:, j]
            if floor is not None:
                den = np.where(den != 0.0, np.sign(den), -1.0) * np.maximum(
                    np.abs(den), floor(s)
                )
            t = (1.0 if inverse else s) / den
            out[:, i] += t
            out[:, j] -= t
    return out


def drift_lambda_dual(params, lam):
    """Dual form of the drift, kappa - 2 gamma l_i + 2 beta l_i sum 1/(l_i - l_j)."""
    lam = np.asarray(lam, dtype=float)
    inv = row_major_interaction_sum(lam[None, :], inverse=True)[0]
    return params.kappa - 2.0 * params.gamma * lam + 2.0 * params.beta * lam * inv


def drift_root(params, x):
    """Primal form of the root-coordinate drift, the oracle of grad_potential.

    (alpha-1)/(2 x_i) - gamma x_i + beta/(2 x_i) sum (x_i^2 + x_j^2)/(x_i^2 - x_j^2).
    """
    x = np.asarray(x, dtype=float)
    pair = row_major_interaction_sum((x**2)[None, :])[0]
    return (
        (params.alpha - 1.0) / (2.0 * x)
        - params.gamma * x
        + params.beta / (2.0 * x) * pair
    )


# Few distinct values, so rows carry ties and zeros; and the wide range puts
# some gaps above the floor and some below it.
_LAM_ELEMENTS = st.sampled_from([0.0, 1e-4, 0.5, 1.0]) | st.floats(0.0, 1e3)


class TestInteractionSum:
    @given(
        shape=st.tuples(st.integers(1, 30), st.integers(2, 6)),
        inverse=st.booleans(),
        dt=st.sampled_from([1e-6, 1e-3, 1e-1]),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_floored_sums_of_ascending_columns_match_the_oracle(
        self, shape, inverse, dt, data
    ):
        lam = np.sort(data.draw(arrays(np.float64, shape, elements=_LAM_ELEMENTS)), axis=1)
        floor = _Guard(0.5, SimConfig(dt=dt, horizon=1.0, collision_tol=1e-3)).floor
        want = row_major_interaction_sum(lam, floor, inverse=inverse)
        got = interaction_sum(np.ascontiguousarray(lam.T), floor, inverse=inverse)
        assert np.array_equal(got.T, want)

    @given(
        shape=st.tuples(st.integers(1, 30), st.integers(2, 6)),
        inverse=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_unfloored_sums_match_the_oracle_in_any_order(self, shape, inverse, data):
        lam = data.draw(arrays(np.float64, shape, elements=st.floats(-1e3, 1e3)))
        with np.errstate(all="ignore"):
            want = row_major_interaction_sum(lam, inverse=inverse)
            got = interaction_sum(np.ascontiguousarray(lam.T), inverse=inverse)
        assert np.array_equal(got.T, want, equal_nan=True)


def pair_by_pair_interaction_sum(lam, floor=None, *, inverse=False):
    """The documented formula on an (n, P) batch, one pair at a time.

    den_ij = l_i - l_j, or -max(l_j - l_i, floor(l_i + l_j)) with a floor;
    the term is added to row i and subtracted from row j, pairs in the
    order (1, 2), (1, 3), ..., (n-1, n).
    """
    out = np.zeros_like(lam)
    n = lam.shape[0]
    for i in range(n):
        for j in range(i + 1, n):
            s = lam[i] + lam[j]
            den = lam[i] - lam[j] if floor is None else -np.maximum(lam[j] - lam[i], floor(s))
            t = (1.0 if inverse else s) / den
            out[i] = out[i] + t
            out[j] = out[j] - t
    return out


class TestInteractionSumBits:
    @pytest.mark.parametrize("zeros", [0, 2, 3])
    @pytest.mark.parametrize("inverse", [False, True])
    @pytest.mark.parametrize("floored", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_equals_the_pair_by_pair_reference_bit_for_bit(self, n, floored, inverse, zeros):
        # Columns with two or three exact zeros give 0/den terms, whose sign
        # of zero the accumulation must keep.
        rng = np.random.default_rng(1000 * n + 10 * zeros + 2 * floored + inverse)
        lam = np.sort(rng.choice([0.0, 1e-4, 0.5, 1.0, 7.0], size=(n, 64)), axis=0)
        lam[:, :32] = np.sort(rng.exponential(2.0, (n, 32)), axis=0)
        lam[: min(zeros, n), 40:] = 0.0
        floor = None
        if floored:
            floor = _Guard(0.5, SimConfig(dt=1e-3, horizon=1.0, collision_tol=1e-3)).floor
        with np.errstate(all="ignore"):
            want = pair_by_pair_interaction_sum(lam, floor, inverse=inverse)
            got = interaction_sum(lam.copy(), floor, inverse=inverse)
        assert got.tobytes() == want.tobytes()


class TestDriftLambda:
    def test_hand_example_gamma_zero(self):
        p = ModelParams(alpha=2.0, beta=0.5, gamma=0.0, n=2)
        np.testing.assert_allclose(drift_lambda(p, [1.0, 3.0]), [1.0, 3.0])

    def test_hand_example_gamma_one(self):
        p = ModelParams(alpha=2.0, beta=0.5, gamma=1.0, n=2)
        np.testing.assert_allclose(drift_lambda(p, [1.0, 3.0]), [-1.0, -3.0])

    def test_sum_identity_hand_case(self):
        p = ModelParams(alpha=2.0, beta=0.5, gamma=0.0, n=2)
        assert drift_lambda(p, [1.0, 3.0]).sum() == pytest.approx(2 * 2.0)

    def test_coincident_raises(self):
        p = ModelParams(alpha=2.0, beta=0.5, gamma=0.0, n=2)
        with pytest.raises(CoincidentCoordinates):
            drift_lambda(p, [1.0, 1.0])

    @pytest.mark.parametrize("lam, shape", [([1.0, 2.0, 3.0], "(3,)"), ([[1.0, 2.0]], "(1, 2)"),
                                            (1.0, "()")])
    def test_wrong_shape_is_a_config_error(self, lam, shape):
        p = ModelParams(alpha=2.0, beta=0.5, gamma=0.0, n=2)
        with pytest.raises(ConfigError) as info:
            drift_lambda(p, lam)
        assert str(info.value) == f"lam must have shape (2,), got {shape}"

    def test_sum_identity_random_states(self):
        rng = np.random.default_rng(7)
        for _ in range(2000):
            n = int(rng.integers(2, 6))
            p = ModelParams(
                alpha=float(rng.uniform(0, 4)),
                beta=float(rng.uniform(0.1, 2)),
                gamma=float(rng.uniform(-1, 2)),
                n=n,
            )
            lam = np.sort(rng.gamma(2.0, 1.0, n))
            if np.unique(lam).size < n:
                continue
            b = drift_lambda(p, lam)
            target = n * p.alpha - 2 * p.gamma * lam.sum()
            diff = lam[:, None] - lam[None, :]
            np.fill_diagonal(diff, 1.0)
            ratio = np.abs((lam[:, None] + lam[None, :]) / diff)
            np.fill_diagonal(ratio, 0.0)
            scale = max(
                n * abs(p.alpha) + 2 * abs(p.gamma) * lam.sum() + p.beta * ratio.sum(),
                1.0,
            )
            assert abs(b.sum() - target) <= 8 * EPS * scale


class TestDriftLambdaDual:
    def test_hand_example(self):
        p = ModelParams(alpha=2.0, beta=0.5, gamma=0.0, n=2)
        np.testing.assert_allclose(drift_lambda_dual(p, [1.0, 3.0]), [1.0, 3.0])

    def test_sum_identity_n3(self):
        p = ModelParams(alpha=1.5, beta=0.4, gamma=0.0, n=3)
        assert drift_lambda_dual(p, [1.0, 2.0, 4.0]).sum() == pytest.approx(4.5)

    def test_kappa_zero_case(self):
        # alpha = (n-1)*beta exactly: only the interaction term remains.
        p = ModelParams(alpha=0.5, beta=0.5, gamma=0.0, n=2)
        np.testing.assert_allclose(drift_lambda_dual(p, [1.0, 3.0]), [-0.5, 1.5])

    def test_agrees_with_primal_form(self):
        rng = np.random.default_rng(11)
        for _ in range(10_000):
            n = int(rng.integers(2, 6))
            p = ModelParams(
                alpha=float(rng.uniform(0, 4)),
                beta=float(rng.uniform(0.1, 2)),
                gamma=float(rng.uniform(-1, 2)),
                n=n,
            )
            lam = np.sort(rng.gamma(2.0, 1.0, n))
            if np.unique(lam).size < n:
                continue
            b1 = drift_lambda(p, lam)
            b2 = drift_lambda_dual(p, lam)
            diff = lam[:, None] - lam[None, :]
            np.fill_diagonal(diff, 1.0)
            inv = np.abs(1.0 / diff)
            np.fill_diagonal(inv, 0.0)
            scale = (
                abs(p.alpha)
                + (n - 1) * p.beta
                + 2 * abs(p.gamma) * lam
                + 2 * p.beta * lam * inv.sum(axis=1)
            )
            assert np.all(np.abs(b1 - b2) <= 8 * EPS * np.maximum(scale, 1.0))


class TestDriftRoot:
    def test_symbolic_point(self):
        p = ModelParams(alpha=2.0, beta=0.5, gamma=1.0, n=2)
        np.testing.assert_allclose(
            drift_root(p, [1.0, 2.0]), [-11.0 / 12.0, -37.0 / 24.0], rtol=1e-14
        )

    def test_zero_coordinate_raises(self):
        p = ModelParams(alpha=2.0, beta=0.5, gamma=1.0, n=2)
        with pytest.raises(DomainError):
            grad_potential(p, [0.0, 2.0])

    def test_ito_correspondence_with_lambda_drift(self):
        # d(lambda_i) drift = 2 x_i * root drift + 1 at lambda = x^2.
        rng = np.random.default_rng(3)
        p = ModelParams(alpha=2.0, beta=0.5, gamma=1.0, n=3)
        for _ in range(50):
            x = np.sort(rng.uniform(0.2, 3.0, 3))
            if np.min(np.diff(x)) < 1e-3:
                continue
            lhs = drift_lambda(p, x**2)
            rhs = 2.0 * x * drift_root(p, x) + 1.0
            np.testing.assert_allclose(lhs, rhs, rtol=1e-10)


class TestPotential:
    def test_hand_value(self):
        p = ModelParams(alpha=2.0, beta=0.5, gamma=1.0, n=2)
        expected = 2.5 - 0.25 * math.log(6.0)
        assert potential_value(p, [1.0, 2.0]) == pytest.approx(expected, rel=1e-14)

    def test_gamma_enters_linearly(self):
        p0 = ModelParams(alpha=2.0, beta=0.5, gamma=0.0, n=2)
        p1 = ModelParams(alpha=2.0, beta=0.5, gamma=1.0, n=2)
        x = [1.0, 2.0]
        assert potential_value(p0, x) - potential_value(p1, x) == pytest.approx(-2.5)

    def test_domain_error_off_cone(self):
        p = ModelParams(alpha=2.0, beta=0.5, gamma=1.0, n=2)
        with pytest.raises(DomainError):
            potential_value(p, [2.0, 1.0])
        with pytest.raises(DomainError):
            potential_value(p, [0.0, 1.0])

    def test_gradient_is_negated_root_drift(self):
        rng = np.random.default_rng(5)
        p = ModelParams(alpha=2.0, beta=0.4, gamma=0.7, n=3)
        for _ in range(50):
            x = np.sort(rng.uniform(0.3, 4.0, 3))
            if np.min(np.diff(x)) < 1e-2:
                continue
            np.testing.assert_allclose(
                grad_potential(p, x), -drift_root(p, x), rtol=1e-11, atol=1e-13
            )

    def test_finite_difference_match_at_reference_point(self):
        p = ModelParams(alpha=2.0, beta=0.4, gamma=0.7, n=3)
        x = np.array([1.0, 2.0, 3.5])
        fd = finite_diff_gradient(lambda y: potential_value(p, y), x, 1e-5)
        grad = grad_potential(p, x)
        assert np.max(np.abs(fd - grad) / np.maximum(np.abs(grad), 1.0)) <= 1e-6


class TestRegimeClassifier:
    def test_kappa_negative(self):
        r = classify_regime(ModelParams(alpha=0.4, beta=0.5, gamma=0.0, n=2))
        assert r.kappa == pytest.approx(-0.1)
        assert r.global_solution is GlobalSolution.NONE

    def test_until_joint_event(self):
        r = classify_regime(ModelParams(alpha=0.7, beta=0.5, gamma=0.0, n=2))
        assert r.global_solution is GlobalSolution.UNTIL_JOINT_EVENT

    def test_global_with_no_zero_hit(self):
        r = classify_regime(ModelParams(alpha=2.6, beta=0.5, gamma=0.0, n=2))
        assert r.global_solution is GlobalSolution.GLOBAL
        assert r.pair_collisions is PairCollisions.ALMOST_SURE
        assert r.zero_hit_lambda1 is ZeroHitLambda1.NEVER

    def test_beta_above_one_has_no_pair_collisions(self):
        r = classify_regime(ModelParams(alpha=3.0, beta=1.5, gamma=0.0, n=2))
        assert r.pair_collisions is PairCollisions.IMPOSSIBLE

    def test_kappa_negative_always_none(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            beta = float(rng.uniform(0.1, 2.0))
            alpha = float(rng.uniform(0.0, (n - 1) * beta * 0.99))
            p = ModelParams(alpha=alpha, beta=beta, gamma=float(rng.uniform(-1, 1)), n=n)
            if p.kappa < 0:
                assert classify_regime(p).global_solution is GlobalSolution.NONE

    @given(
        alpha=st.floats(0.0, 6.0),
        beta=st.floats(0.05, 2.5),
        gamma=st.floats(-2.0, 2.0),
        n=st.integers(2, 6),
    )
    @settings(max_examples=200, deadline=None)
    def test_never_verdict_monotone_in_k(self, alpha, beta, gamma, n):
        report = classify_regime(ModelParams(alpha=alpha, beta=beta, gamma=gamma, n=n))
        assert (report.zero_hit_lambda1 is ZeroHitLambda1.NEVER) == (
            report.multiple_collision_k[1] is CollisionVerdict.NEVER
        )
        seen_never = False
        for k in range(1, n + 1):
            verdict = report.multiple_collision_k[k]
            if seen_never:
                assert verdict is CollisionVerdict.NEVER
            seen_never = seen_never or verdict is CollisionVerdict.NEVER


class TestMultipleCollisionThreshold:
    def test_below_two_nonnegative_gamma(self):
        value, verdict = multiple_collision_threshold(
            ModelParams(alpha=1.0, beta=0.4, gamma=0.0, n=3), 2
        )
        assert value == pytest.approx(1.2)
        assert verdict is CollisionVerdict.ALMOST_SURE_ZERO_HIT

    def test_at_or_above_two(self):
        value, verdict = multiple_collision_threshold(
            ModelParams(alpha=2.0, beta=0.4, gamma=0.0, n=3), 2
        )
        assert value == pytest.approx(3.2)
        assert verdict is CollisionVerdict.NEVER

    def test_below_two_negative_gamma(self):
        value, verdict = multiple_collision_threshold(
            ModelParams(alpha=1.0, beta=0.4, gamma=-1.0, n=3), 2
        )
        assert value == pytest.approx(1.2)
        assert verdict is CollisionVerdict.PROB_IN_0_1

    def test_bad_k(self):
        p = ModelParams(alpha=1.0, beta=0.4, gamma=0.0, n=3)
        with pytest.raises(BadK):
            multiple_collision_threshold(p, 0)
        with pytest.raises(BadK):
            multiple_collision_threshold(p, 4)

"""Counter-based stream contracts: determinism, offsets, distributional checks."""

import math

import numpy as np
import pytest
from scipy.special import gammainc, ndtr, ndtri

from cir_particles import ConfigError, ks_test, rng_streams
from cir_particles.randomness import step_normals, step_uniforms


class TestDeterminism:
    def test_same_key_same_stream(self):
        a = rng_streams(42, 7).random(100)
        b = rng_streams(42, 7).random(100)
        assert np.array_equal(a, b)

    def test_distinct_keys_distinct_streams(self):
        a = rng_streams(42, 7).random(100)
        b = rng_streams(42, 8).random(100)
        c = rng_streams(43, 7).random(100)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_step_normals_reproducible(self):
        a = step_normals(1, 5, 0, 10, 3)
        b = step_normals(1, 5, 0, 10, 3)
        assert np.array_equal(a, b)

    def test_batch_decomposition_invariance(self):
        # Any contiguous batch containing a path yields that path's row.
        full = step_normals(9, 2, 0, 32, 3)
        for first, count in ((0, 32), (5, 10), (17, 1), (31, 1)):
            part = step_normals(9, 2, first, count, 3)
            assert np.array_equal(part, full[first : first + count])

    def test_steps_are_independent_slots(self):
        a = step_normals(1, 0, 0, 4, 2)
        b = step_normals(1, 1, 0, 4, 2)
        assert not np.array_equal(a, b)


class TestDistributions:
    def test_gaussians_pass_ks(self):
        z = step_normals(123, 0, 0, 25_000, 4).ravel()
        _, p = ks_test(z, lambda x: ndtr(np.asarray(x)))
        assert p >= 0.01

    def test_uniforms_in_unit_interval(self):
        u = step_uniforms(3, 1, 0, 1000, 4)
        assert np.all((u >= 0.0) & (u < 1.0))

    def test_gamma_moments_and_ks(self):
        g = rng_streams(7, 0).gamma(2.0, 1.0, 100_000)
        se = g.std(ddof=1) / math.sqrt(g.size)
        assert abs(g.mean() - 2.0) <= 4 * se
        _, p = ks_test(g, lambda x: gammainc(2.0, np.asarray(x)))
        assert p >= 0.01

    def test_poisson_moments(self):
        lam = 3.7
        k = rng_streams(8, 0).poisson(lam, 100_000)
        se = k.std(ddof=1) / math.sqrt(k.size)
        assert abs(k.mean() - lam) <= 4 * se
        # Poisson variance equals the mean
        var_se = math.sqrt(2.0 * lam**2 / k.size)  # approximate
        assert abs(k.var(ddof=1) - lam) <= 5 * var_se


class TestUniformFloor:
    def test_floor_alone_equals_the_two_sided_clip(self):
        # 1 - 2**-55 rounds to 1.0 and random() never returns 1.0, so an upper
        # clamp at 1 - 2**-55 never acted.
        u = step_uniforms(5, 3, 0, 4000, 3)
        want = ndtri(np.clip(u, 2.0**-55, 1.0))
        assert step_normals(5, 3, 0, 4000, 3).tobytes() == want.tobytes()

    def test_zero_uniform_maps_to_a_finite_normal(self, monkeypatch):
        from cir_particles import randomness

        monkeypatch.setattr(randomness, "step_uniforms", lambda *args: np.zeros((1, 2)))
        z = randomness.step_normals(0, 0, 0, 1, 2)
        assert np.isfinite(z).all() and (z < -8.0).all()


class TestStepNormalsArguments:
    @pytest.mark.parametrize(
        "first_path, n_paths", [(0, -1), (0, 2.5), (-1, 3), (1.0, 3), (0, True)],
        ids=["negative_count", "fractional_count", "negative_first", "float_first", "bool"],
    )
    def test_bad_span_is_a_config_error(self, first_path, n_paths):
        name = "n_paths" if first_path == 0 else "first_path"
        with pytest.raises(ConfigError, match=name):
            step_normals(1, 0, first_path, n_paths, 3)

    def test_empty_span_is_empty(self):
        assert step_normals(1, 0, 0, 0, 3).shape == (0, 3)
        assert step_normals(1, 0, np.int64(4), np.int64(2), 3).shape == (2, 3)


class TestCoordinateMajorNormals:
    @pytest.mark.parametrize("n_coords", [1, 2, 3, 4, 5, 9])
    def test_out_holds_the_transpose_bit_for_bit(self, n_coords):
        want = step_normals(3, 11, 5, 37, n_coords).T
        out = np.empty((n_coords, 37))
        got = step_normals(3, 11, 5, 37, n_coords, out=out)
        assert got is out
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()

    def test_threads_draw_the_same_streams(self):
        # Each thread keeps its own generator, so interleaved draws stay keyed.
        from concurrent.futures import ThreadPoolExecutor

        args = [(seed, step, first, 1 + first % 7, 3)
                for seed in range(4) for step in range(20) for first in (0, 3, 100)]
        want = [step_normals(*a) for a in args]
        with ThreadPoolExecutor(max_workers=2) as pool:
            got = list(pool.map(lambda a: step_normals(*a), args))
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))

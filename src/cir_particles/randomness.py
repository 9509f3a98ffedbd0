"""Random streams: counter-based Philox where a draw needs an address, SFC64 elsewhere.

Brownian increments are produced by Philox keyed with ``(seed', step_index)``
where ``seed'`` mixes the user seed with a fixed stream domain.  Each path
occupies a fixed, block-aligned window of the counter space, so the increment
for ``(seed, step, path, coordinate)`` is a pure function of those four
integers: batched and single-path runs, or any parallel schedule over paths,
produce bit-identical noise.

Gaussians are obtained by inverse-CDF transform of raw uniforms.  Unlike the
ziggurat sampler this consumes exactly one 64-bit draw per variate, which is
what makes fixed counter offsets per path possible.  Each thread keeps one
Philox generator for them and sets its key and counter before every draw:
building a fresh ``Philox`` costs about 7.5 us, most of it an unused
``SeedSequence`` that reads OS entropy, where setting the state costs 1.4 us
and gives the same stream.  With ``out`` the normals are written straight
into the coordinate-major (n_coords, n_paths) layout of the batch kernel.

The exact-splitting stream (:func:`exact_step_stream`) is Philox too, so the
draws of ``exact_cir_splitting`` runs stay as they are.  The oracle streams
of :func:`rng_streams` need no counter arithmetic and are SFC64, seeded with
the same key: numpy's normal and Gamma samplers draw from it about 1.5x
faster than from Philox.
"""

from __future__ import annotations

import threading

import numpy as np
from numpy.random import SFC64, Generator, Philox, SeedSequence
from scipy.special import ndtri

from .errors import require_int

__all__ = ["rng_streams", "step_normals"]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Stream domains keep independent uses of the same user seed from colliding.
DOMAIN_PATH_NOISE = 0x1
DOMAIN_GENERAL = 0x2
DOMAIN_EXACT_STEP = 0x3

# Philox emits 4 x 64-bit words per counter block.
_WORDS_PER_BLOCK = 4

# random() returns doubles in [0, 1), never 1.0, so only the lower end needs
# a floor: 0.0 would map to -inf under ndtri.
_U_LO = 2.0**-55


def stream_key(seed: int, word: int, domain: int = DOMAIN_GENERAL) -> np.ndarray:
    """Two-word key derived from (seed, word) within a stream domain.

    It keys Philox directly, and seeds SFC64 through a ``SeedSequence``.
    """
    return np.array(_key_words(seed, word, domain), dtype=np.uint64)


def _key_words(seed: int, word: int, domain: int) -> tuple[int, int]:
    mixed = ((int(seed) * _GOLDEN) ^ (domain * 0x94D049BB133111EB)) & _MASK64
    return mixed, int(word) & _MASK64


def rng_streams(seed: int, path_index: int) -> Generator:
    """Independent general-purpose generator for one (seed, path) pair.

    Provides Gaussian, Gamma and Poisson variates for oracle sampling: the
    exact sum paths of ``laplace-check`` and criterion 7, and criterion 1's
    reference sample.  It is SFC64 seeded with the pair's stream key, which
    is deterministic for a fixed call sequence and has no counter to offset;
    use :func:`step_normals` where random access by step/path offset is
    needed.
    """
    key = stream_key(seed, path_index, DOMAIN_GENERAL)
    return Generator(SFC64(SeedSequence(key.tolist())))


def exact_step_stream(seed: int, block: int) -> Generator:
    """Generator for the exact-transition sampler of one simulation block.

    Variable-consumption variates (Poisson, Gamma) cannot be counter-offset
    per path, so determinism here is per (seed, block, call sequence): a rerun
    of the same batch layout reproduces the draws bit for bit.  It stays on
    Philox: a change of generator would re-draw every exact-splitting run.
    """
    return Generator(Philox(key=stream_key(seed, block, DOMAIN_EXACT_STEP)))


def _blocks_per_path(n_coords: int) -> int:
    return (n_coords + _WORDS_PER_BLOCK - 1) // _WORDS_PER_BLOCK


class _NoiseGenerator(threading.local):
    """One Philox generator per thread, re-keyed for every draw of step noise.

    Setting the whole state (key, counter, an empty output buffer) makes the
    generator's stream that of ``Philox(key=key, counter=counter)``.
    """

    def __init__(self) -> None:
        self.key = np.zeros(2, dtype=np.uint64)
        self.counter = np.zeros(4, dtype=np.uint64)
        self.state = {
            "bit_generator": "Philox",
            "state": {"counter": self.counter, "key": self.key},
            "buffer": np.zeros(_WORDS_PER_BLOCK, dtype=np.uint64),
            "buffer_pos": _WORDS_PER_BLOCK,
            "has_uint32": 0,
            "uinteger": 0,
        }
        self.bit_generator = Philox(key=self.key)
        self.generator = Generator(self.bit_generator)

    def random(self, key: tuple[int, int], first_block: int, size: int) -> np.ndarray:
        self.key[:] = key
        self.counter[0] = first_block
        self.bit_generator.state = self.state
        return self.generator.random(size)


_noise = _NoiseGenerator()


def step_uniforms(
    seed: int, step: int, first_path: int, n_paths: int, n_coords: int
) -> np.ndarray:
    """Raw uniforms for paths ``first_path .. first_path+n_paths-1`` at one step.

    Returns shape ``(n_paths, n_coords)``.  Each path's row starts at counter
    block ``path * ceil(n_coords/4)``, so any contiguous batch containing a
    given path yields exactly the same row for it.  ``first_path`` and
    ``n_paths`` must be integers >= 0, else ConfigError.
    """
    first_path = require_int("first_path", first_path, 0)
    n_paths = require_int("n_paths", n_paths, 0)
    blocks = _blocks_per_path(n_coords)
    width = blocks * _WORDS_PER_BLOCK
    key = _key_words(seed, step, DOMAIN_PATH_NOISE)
    u = _noise.random(key, (first_path * blocks) & _MASK64, n_paths * width)
    return u.reshape(n_paths, width)[:, :n_coords]


def step_normals(
    seed: int, step: int, first_path: int, n_paths: int, n_coords: int, *, out=None
) -> np.ndarray:
    """Standard-normal increments, shape ``(n_paths, n_coords)``.

    Deterministic per ``(seed, step, path, coordinate)``; see module docstring.
    ``out``, a float array of shape ``(n_coords, n_paths)``, receives the
    transpose instead, bit for bit, and is returned.
    """
    u = step_uniforms(seed, step, first_path, n_paths, n_coords)
    if out is None:
        return ndtri(np.maximum(u, _U_LO))
    np.maximum(u.T, _U_LO, out=out)
    return ndtri(out, out=out)

"""Byte guard for the batch kernel: one sha256 over a fixed grid of batches.

Run it as ``python tests/bytes_guard.py`` on two trees and compare the
digests: equal digests mean every batch of the grid came out bit for bit the
same.  The grid covers every scheme; n = 2, 3, 5; 1, 37 and 300 paths; two
parameter points per scheme; epsilon at its default or 0.05; no monitors or
monitors at (1e-2, 1e-3); ``stop_on`` none, ``("psum", 1, 1e-2)`` or
``("gap_any", 5e-2)``; ``record_steps`` none, every step, or every third
step and the last (the steps ``--record-stride 3`` records); one
exploding run per scheme whose rows all end in ``numerical_failure``; and
mixed runs, three per scheme, in which some rows fail numerically while
others stop by a rule, some of them on the same step.  The digest covers
every ``BatchResult`` array: final state, stop times, stop codes, each
monitor at each level and the recording with its times.

A second grid, printed with its own digest, runs every scheme at n = 2, 3
and 4 with 51, 121 and 251 paths under ``stop_on``, so that the live width
falls through the row counts at which the per-step sort changes method (40
for every n; 50, 120 and 250 for n = 2, 3, 4) as rows freeze.  Every other
batch also starts a fifth of its rows near overflow, so that NaN columns
meet the sort on both sides of those widths.  Its count line says how many
batches the live width took through the network's row count and through 40.

A third grid, printed with its own digest, covers the stationary layer:
Metropolis chains at n = 2, 3 and 4, with the default and given starts,
burn-ins and thinnings, whose runs end on a block boundary, inside the
first block or inside a later one; rejection samples at three n = 2
points; and both log-normalizer methods, quadrature at degrees 2 to 80 and
importance sampling at n = 2, 3 and 4.  Its digest covers every sampled
point and every field of each estimate.

The file is named so that pytest does not collect it; it takes about ten
seconds on one core of a 2-core Xeon.  ``--verbose`` prints one digest per
batch, to find the first that differs.  The line before the digest counts
the paths by stop status, and the steps on which a batch retired both a
failed row and a row stopped by a rule, so a grid that stops exercising a
rule or a mixed retire step shows.
"""

from __future__ import annotations

import hashlib
import itertools
import sys
from collections import Counter
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cir_particles.integrators import Scheme, SimConfig, simulate_batch  # noqa: E402
from cir_particles.model import ModelParams  # noqa: E402
from cir_particles.stationary import (  # noqa: E402
    estimate_log_normalizer, mh_sampler, rejection_sample_pair,
)

BETA, GAMMA = 0.5, 0.5
# kappa = alpha - (n - 1) * beta; c_epsilon needs kappa < 0.
KAPPAS = {scheme: (-0.3, 0.3) for scheme in Scheme}
KAPPAS[Scheme.C_EPSILON] = (-0.3, -0.1)
STOP_RULES = (None, ("psum", 1, 1e-2), ("gap_any", 5e-2))
RECORDINGS = (None, 1, 3)  # strides; None records nothing
# Stop codes of BatchResult.terminated_code.
HORIZON, FAIL = 0, 3


def _arrays(res):
    yield res.final_lambda
    yield res.stop_time
    yield res.terminated_code
    for level in sorted(res.monitors):
        yield np.array([level])
        for kind in sorted(res.monitors[level]):
            yield res.monitors[level][kind]
    if res.trajectories is not None:
        yield res.times
        yield res.trajectories


def _digest(res) -> str:
    h = hashlib.sha256()
    for a in _arrays(res):
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _record_steps(n_steps: int, stride: int | None) -> list[int]:
    """Steps 0, stride, 2*stride, ... and n_steps; none for no stride."""
    return [] if stride is None else [*range(0, n_steps, stride), n_steps]


def _grid():
    cases = itertools.product(
        Scheme, (2, 3, 5), (1, 37, 300), (None, 0.05), ((), (1e-2, 1e-3)), STOP_RULES
    )
    for i, (scheme, n, paths, eps, levels, stop_on) in enumerate(cases):
        kappa = KAPPAS[scheme][i % 2]
        params = ModelParams(alpha=kappa + (n - 1) * BETA, beta=BETA, gamma=GAMMA, n=n)
        stride = RECORDINGS[i // 3 % 3]
        cfg = SimConfig(scheme=scheme, dt=1e-2, horizon=1.0, epsilon=eps, seed=i,
                        paths=paths)
        # Half the batches start from (1, ..., n); the others from random
        # sorted starts, some near zero, so that rules fire at t = 0 too.
        initial = None
        if i % 4 >= 2:
            rng = np.random.default_rng(i)
            initial = np.sort(rng.uniform(0.0, 1.5, (paths, n)) ** 2, axis=1)
        yield (f"{scheme.value} n={n} paths={paths} eps={eps} levels={levels} "
               f"stop_on={stop_on} stride={stride}",
               dict(params=params, config=cfg, initial=initial, event_levels=levels,
                    stop_on=stop_on, record_steps=_record_steps(cfg.n_steps, stride)))
    for scheme in Scheme:
        alpha = 0.5 if scheme == Scheme.C_EPSILON else 1.5
        params = ModelParams(alpha=alpha, beta=BETA, gamma=-1e3, n=3)
        cfg = SimConfig(scheme=scheme, dt=0.1, horizon=20.0, epsilon=0.05, seed=5, paths=37)
        yield (f"{scheme.value} exploding",
               dict(params=params, config=cfg, event_levels=(1e-2,),
                    record_steps=_record_steps(cfg.n_steps, 1)))
    # Half the rows start near overflow and fail at spread-out steps as
    # gamma < 0 drives them up; the others start at O(1) and stop by a rule.
    for i, (scheme, stop_on) in enumerate(itertools.product(Scheme, STOP_RULES)):
        alpha = 0.5 if scheme == Scheme.C_EPSILON else 1.5
        params = ModelParams(alpha=alpha, beta=BETA, gamma=-2.0, n=3)
        stride = RECORDINGS[i % 3]
        cfg = SimConfig(scheme=scheme, dt=0.1, horizon=20.0, epsilon=0.05, seed=6, paths=300)
        rng = np.random.default_rng(6)
        scale = np.where(rng.random((300, 1)) < 0.5,
                         10.0 ** rng.uniform(285.0, 308.0, (300, 1)), 1.5)
        initial = scale * np.sort(rng.uniform(0.0, 1.0, (300, 3)) ** 2, axis=1)
        yield (f"{scheme.value} mixed stop_on={stop_on} stride={stride}",
               dict(params=params, config=cfg, initial=initial, event_levels=(1e-2, 1e-3),
                    stop_on=stop_on, record_steps=_record_steps(cfg.n_steps, stride)))


# Live widths at which the per-step sort changes method: the order check from
# 40 columns on, and the compare-exchange network from a row count per n.
CHECK_FROM = 40
NETWORK_FROM = {2: 50, 3: 120, 4: 250}


def _cutoff_grid():
    cases = itertools.product(Scheme, (2, 3, 4), (51, 121, 251))
    for i, (scheme, n, paths) in enumerate(cases):
        kappa = KAPPAS[scheme][i % 2]
        params = ModelParams(alpha=kappa + (n - 1) * BETA, beta=BETA,
                             gamma=-2.0 if i % 2 else GAMMA, n=n)
        cfg = SimConfig(scheme=scheme, dt=1e-2, horizon=3.0, epsilon=0.05, seed=100 + i,
                        paths=paths)
        rng = np.random.default_rng(100 + i)
        # No row starts below the stop level, so the whole width is live at first.
        initial = np.sort(rng.uniform(0.2, 1.5, (paths, n)) ** 2, axis=1)
        if i % 2:
            huge = rng.random(paths) < 0.2
            initial[huge] *= 10.0 ** rng.uniform(285.0, 307.0, (huge.sum(), 1))
        yield (f"{scheme.value} n={n} paths={paths} cutoff",
               dict(params=params, config=cfg, initial=initial, event_levels=(1e-2,),
                    stop_on=("psum", 1, 2e-2),
                    record_steps=_record_steps(cfg.n_steps, RECORDINGS[i % 3])))


def _crossed(res, width: int) -> bool:
    """Whether the batch's live width fell from at least ``width`` to below it."""
    stop_step = np.rint(res.stop_time / res.config.dt).astype(int)
    live = np.count_nonzero(stop_step[:, None] > np.arange(res.config.n_steps), axis=0)
    return bool(live[0] >= width > live[-1])


def _mixed_steps(res) -> int:
    """Steps on which the batch retired both a failed row and a rule-stopped row."""
    code = res.terminated_code
    failed = set(res.stop_time[code == FAIL])
    return len(failed.intersection(res.stop_time[(code != HORIZON) & (code != FAIL)]))


def _stationary_grid():
    """(name, arrays) per case, each case computed as the grid is read."""
    chains = (  # (alpha, beta, gamma, n), steps, keywords
        ((2.0, 0.5, 1.0, 2), 300, dict(initial=[1.0, 2.0], burn_in=1000, thin=25)),
        ((2.0, 0.5, 1.0, 2), 1000, dict(burn_in=24, thin=1)),  # ends on a block boundary
        ((2.0, 0.5, 1.0, 2), 200, dict(burn_in=40, thin=3)),  # inside the first block
        ((3.0, 0.6, 1.0, 3), 400, dict(initial=[0.5, 1.0, 4.0], thin=5)),
        ((4.0, 0.4, 1.5, 4), 300, dict(thin=7)),
    )
    for i, (point, steps, kwargs) in enumerate(chains):
        mh = mh_sampler(ModelParams(*point), steps, np.random.default_rng(200 + i), **kwargs)
        yield f"mh {point} steps={steps} {kwargs}", [mh.points]
    pairs = ((2.0, 0.5, 1.0, 2), (0.9, 0.2, 2.0, 2), (5.0, 1.5, 0.5, 2))
    for i, point in enumerate(pairs):
        lam = rejection_sample_pair(ModelParams(*point), 20_000, np.random.default_rng(210 + i))
        yield f"rejection {point}", [lam]
    for point in pairs[:2] + ((3.0, 0.6, 1.0, 3),):
        for degree in (2, 3, 20, 80):
            est = estimate_log_normalizer(ModelParams(*point), "quadrature", degree=degree)
            yield f"quadrature {point} degree={degree}", _summary(est)
    for i, point in enumerate(pairs[:2] + ((3.0, 0.6, 1.0, 3), (4.0, 0.4, 1.5, 4))):
        est = estimate_log_normalizer(ModelParams(*point), "importance", n_samples=20_000,
                                      rng=np.random.default_rng(220 + i))
        yield f"importance {point}", _summary(est)


def _summary(summary) -> list[np.ndarray]:
    return [np.array([summary.estimate, summary.stderr, *summary.ci95, summary.n_samples])]


def _run_stationary(verbose: bool):
    """(digest over the cases, case count)."""
    total = hashlib.sha256()
    count = 0
    for name, arrays in _stationary_grid():
        h = hashlib.sha256()
        for a in arrays:
            a = np.ascontiguousarray(a)
            h.update(f"{a.dtype.str}{a.shape}".encode())
            h.update(a.tobytes())
        total.update(h.hexdigest().encode())
        count += 1
        if verbose:
            print(h.hexdigest()[:16], name)
    return total.hexdigest(), count


def _run(grid, verbose: bool):
    """(digest over the batches, batch count, stop status counts, results)."""
    total = hashlib.sha256()
    codes: Counter = Counter()
    results = []
    for name, kwargs in grid:
        params = kwargs.pop("params")
        config = kwargs.pop("config")
        res = simulate_batch(params, config, **kwargs)
        digest = _digest(res)
        total.update(digest.encode())
        codes.update(res.terminated(i).value for i in range(res.n_paths))
        results.append(res)
        if verbose:
            print(digest[:16], name)
    stops = ", ".join(f"{k}={v}" for k, v in sorted(codes.items()))
    return total.hexdigest(), len(results), stops, results


def main(argv: list[str]) -> int:
    verbose = "--verbose" in argv
    digest, batches, stops, results = _run(_grid(), verbose)
    mixed = sum(_mixed_steps(res) for res in results)
    print(f"{batches} batches, stops: {stops}, mixed retire steps: {mixed}")
    print(f"sha256 {digest}")
    digest, batches, stops, results = _run(_cutoff_grid(), verbose)
    network = sum(_crossed(res, NETWORK_FROM[res.params.n]) for res in results)
    check = sum(_crossed(res, CHECK_FROM) for res in results)
    print(f"{batches} cutoff batches, stops: {stops}, crossing the network's row count: "
          f"{network}, crossing {CHECK_FROM}: {check}")
    print(f"sha256 {digest}")
    digest, cases = _run_stationary(verbose)
    print(f"{cases} stationary cases")
    print(f"sha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

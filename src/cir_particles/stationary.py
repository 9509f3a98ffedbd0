"""Stationary law of the particle system: closed form, sampler, comparisons.

For gamma > 0 and kappa = alpha - (n-1)*beta > 0 the system has a unique
stationary probability density on the ordered cone, proportional to

    prod_i lambda_i^{(alpha - 2 - (n-1) beta)/2} e^{-gamma lambda_i}
        * prod_{i<j} (lambda_j - lambda_i)^beta .

This is exp(-2 V(sqrt(lambda))) / sqrt(prod lambda) for the root-coordinate
potential V.  The per-coordinate exponential rate is the full gamma, pinned
by two exact consistency checks: the n = 1 specialization must reduce to the
CIR invariant law Gamma(alpha/2, gamma), and the coordinate sum must follow
Gamma(n*alpha/2, gamma).

Ground truth for marginals is a random-walk Metropolis sampler on the cone;
the Gamma sum law is the exact cross-check, and for n = 2 an exact rejection
sampler provides an independent reference.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import eval_genlaguerre, gammainc, gammaln
from scipy.special import gamma as gamma_function

from .errors import ConfigError, NotEvaluable, RegimeMismatch, require_int
from .model import GlobalSolution, ModelParams, classify_regime
from .stats import StatSummary, ks_test, ks_test_two_sample, moment_summary

__all__ = [
    "SampleSet",
    "compare_long_run",
    "estimate_log_normalizer",
    "gamma_sum_law",
    "mh_sampler",
    "rejection_sample_pair",
]


@dataclass(frozen=True)
class SampleSet:
    """Sampled states on the ordered cone, one row per sample."""

    points: np.ndarray

    @property
    def sums(self) -> np.ndarray:
        return self.points.sum(axis=1)


def _require_evaluable(params: ModelParams) -> None:
    if params.gamma <= 0.0 or params.kappa <= 0.0:
        raise NotEvaluable(
            f"stationary density needs gamma > 0 and kappa > 0, got "
            f"gamma={params.gamma}, kappa={params.kappa}"
        )


def gamma_sum_law(params: ModelParams) -> tuple[float, float]:
    """(shape, rate) of the stationary law of the coordinate sum."""
    _require_evaluable(params)
    return params.n * params.alpha / 2.0, params.gamma


def _density_coefficients(params: ModelParams) -> tuple[float, float, float]:
    """(power, gamma, beta) of the unnormalized log density.

    The log density on the open cone is
    (power * sum ln(lambda_i) - gamma * sum lambda_i)
    + beta * sum_{i<j} ln(lambda_j - lambda_i).
    """
    power = (params.alpha - 2.0 - (params.n - 1) * params.beta) / 2.0
    return power, params.gamma, params.beta


def log_density_rows(params: ModelParams, lam: np.ndarray) -> np.ndarray:
    """Vectorized unnormalized log density for an (m, n) batch of states.

    Off the open ordered cone (any coordinate <= 0 or any nonincreasing
    adjacent pair) the value is -inf.
    """
    lam = np.atleast_2d(np.asarray(lam, dtype=float))
    m, n = lam.shape
    power, gamma, beta = _density_coefficients(params)
    ok = (lam > 0.0).all(axis=1) & (np.diff(lam, axis=1) > 0.0).all(axis=1)
    every = ok.all()
    good = lam if every else lam[ok]  # no copy when every row is on the cone
    val = power * np.log(good).sum(axis=1) - gamma * good.sum(axis=1)
    i, j = np.triu_indices(n, k=1)
    val += beta * np.log(good[:, j] - good[:, i]).sum(axis=1)
    if every:
        return val
    out = np.full(m, -np.inf)
    out[ok] = val
    return out


def _log_density_point(params: ModelParams):
    """Per-state form of ``log_density_rows``: a function of a list of n floats.

    It takes the same logs through one ``np.log`` call (the SIMD log and
    ``math.log`` can differ in the last bit) and sums them left to right as
    the batch form does, so the two agree bit for bit, -inf included.
    """
    power, gamma, beta = _density_coefficients(params)
    n = params.n
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    log = np.log

    def log_density(lam: list[float]) -> float:
        prev = 0.0
        for v in lam:
            if not v > prev:
                return -math.inf
            prev = v
        logs = log(lam + [lam[j] - lam[i] for i, j in pairs]).tolist()
        sum_log = 0.0
        sum_lam = 0.0
        for k in range(n):
            sum_log += logs[k]
            sum_lam += lam[k]
        sum_log_gap = 0.0
        for v in logs[n:]:
            sum_log_gap += v
        return (power * sum_log - gamma * sum_lam) + beta * sum_log_gap

    return log_density


# Metropolis iterations per block of generator draws.
_MH_BLOCK = 1024


def mh_sampler(
    params: ModelParams,
    steps: int,
    rng: np.random.Generator,
    *,
    initial=None,
    burn_in: int | None = None,
    thin: int = 1,
) -> SampleSet:
    """Random-walk Metropolis targeting the stationary density on the cone.

    Proposals are coordinatewise Gaussian perturbations followed by a sort
    (a symmetric proposal on the cone, so the standard ratio applies).  The
    proposal scale starts at 0.5/gamma, adapts toward an acceptance rate of
    0.3 during burn-in and is frozen afterward, keeping the retained chain
    Markov.  Returns ``steps`` retained samples taken every ``thin``
    iterations after ``burn_in``; ConfigError unless ``steps`` >= 1,
    ``thin`` >= 1 and ``burn_in`` >= 0 are integers and ``initial``, when
    given, is one point of shape (n,) with positive density.

    The chain state is a list of Python floats, so an iteration costs a few
    microseconds of scalar arithmetic.  The noise is drawn in blocks of
    ``_MH_BLOCK`` iterations, the last block holding what is left: each
    block draws one ``rng.standard_normal((m, n))``, row k the perturbation
    of its k-th iteration, and then one ``rng.random(m)``, whose ``np.log``
    is that iteration's acceptance threshold.  The chain is a pure function
    of the generator state and the arguments.
    """
    _require_evaluable(params)
    n = params.n
    steps = require_int("steps", steps, 1)
    thin = require_int("thin", thin, 1)
    burn_in = require_int("burn_in", max(1000, steps // 5) if burn_in is None else burn_in, 0)
    if initial is None:
        x = (np.arange(1.0, n + 1.0) / params.gamma).tolist()
    else:
        x = np.asarray(initial, dtype=float)
        if x.shape != (n,):
            raise ConfigError(f"initial state must have shape ({n},), got {x.shape}")
        x = x.tolist()
    scale = 0.5 / params.gamma
    log_density = _log_density_point(params)
    logp = log_density(x)
    if not math.isfinite(logp):
        raise ConfigError(f"initial state has zero density: {x}")

    points = np.empty((steps, n))
    accepted_window = 0
    window = 0
    kept = 0
    total_iters = burn_in + steps * thin
    for start in range(0, total_iters, _MH_BLOCK):
        m = min(_MH_BLOCK, total_iters - start)
        noise_block = rng.standard_normal((m, n)).tolist()
        with np.errstate(divide="ignore"):  # a uniform of 0.0 accepts any finite proposal
            log_u_block = np.log(rng.random(m)).tolist()
        for it, noise, log_u in zip(range(start, start + m), noise_block, log_u_block):
            prop = sorted([xi + scale * zi for xi, zi in zip(x, noise)])
            logq = log_density(prop)
            if log_u < logq - logp:
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
            else:
                if (it - burn_in) % thin == thin - 1:
                    points[kept] = x
                    kept += 1
    return SampleSet(points=points[:kept])


def _sort_pairs(draws: np.ndarray) -> np.ndarray:
    """``np.sort(draws, axis=1)`` of an (m, 2) block of non-NaN draws, by min and max."""
    out = np.empty_like(draws)
    np.minimum(draws[:, 0], draws[:, 1], out=out[:, 0])
    np.maximum(draws[:, 0], draws[:, 1], out=out[:, 1])
    return out


def rejection_sample_pair(
    params: ModelParams, n_samples: int, rng: np.random.Generator
) -> np.ndarray:
    """Exact stationary samples for n = 2 by rejection.

    Proposal: two iid Gamma(kappa/2, rate gamma/2) draws, sorted.  The
    acceptance ratio gap^beta * exp(-(gamma/2) * sum) is bounded by
    (beta * 2/(gamma e))^beta, giving a finite-mean rejection loop.
    """
    _require_evaluable(params)
    if params.n != 2:
        raise NotEvaluable("rejection sampler implemented for n = 2 only")
    n_samples = require_int("n_samples", n_samples, 1)
    shape = params.kappa / 2.0
    eta = params.gamma / 2.0
    log_bound = params.beta * (math.log(params.beta / eta) - 1.0)
    out = np.empty((n_samples, 2))
    filled = 0
    while filled < n_samples:
        chunk = max(2 * (n_samples - filled), 1000)
        lam = _sort_pairs(rng.gamma(shape, 1.0 / eta, size=(chunk, 2)))
        gap = lam[:, 1] - lam[:, 0]
        with np.errstate(divide="ignore"):
            log_acc = (
                params.beta * np.log(gap) - eta * lam.sum(axis=1) - log_bound
            )
        keep = np.log(rng.random(chunk)) < log_acc
        take = lam[keep][: n_samples - filled]
        out[filled : filled + take.shape[0]] = take
        filled += take.shape[0]
    return out


def compare_long_run(
    params: ModelParams,
    config,
    *,
    mh_steps: int = 10_000,
    mh_thin: int = 5,
    initial=None,
) -> dict[str, StatSummary]:
    """Long-horizon endpoint law versus the exact stationary references.

    Simulates ``config.paths`` paths to the horizon and compares (a) the
    endpoint sum against the exact Gamma law, (b) the endpoint sum and each
    marginal against a Metropolis sample drawn from
    ``default_rng(config.seed + 1)``.  Each result is the moment summary of
    one sample, the endpoint sums for (a), the Metropolis sums for the sum in
    (b) and the endpoint marginal for each marginal, named by its key and
    carrying its KS distance and p-value.  Requires the global regime.
    """
    from .integrators import simulate_batch

    report = classify_regime(params)
    if report.global_solution != GlobalSolution.GLOBAL:
        raise RegimeMismatch(
            f"long-run comparison needs the global regime, got "
            f"{report.global_solution.value}"
        )
    _require_evaluable(params)

    res = simulate_batch(params, config, initial=initial)
    endpoint = res.final_lambda
    sums = endpoint.sum(axis=1)

    def result(key, x, ks):
        d, p = ks
        return dataclasses.replace(moment_summary(x, name=key), ks_D=d, ks_p=p)

    shape, rate = gamma_sum_law(params)
    exact = ks_test(sums, lambda x: gammainc(shape, rate * np.asarray(x)))
    out = {"sum_vs_exact_gamma": result("sum_vs_exact_gamma", sums, exact)}
    mh = mh_sampler(params, mh_steps, np.random.default_rng(config.seed + 1), thin=mh_thin)
    out["sum_vs_mh"] = result("sum_vs_mh", mh.sums, ks_test_two_sample(sums, mh.sums))
    for i in range(params.n):
        key = f"marginal_{i + 1}_vs_mh"
        ks = ks_test_two_sample(endpoint[:, i], mh.points[:, i])
        out[key] = result(key, endpoint[:, i], ks)
    return out


def _gauss_laguerre(degree: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Generalized Gauss-Laguerre nodes and weights for x^alpha e^{-x} on (0, inf).

    The values of ``scipy.special.roots_genlaguerre(degree, alpha)``, bit for
    bit, without the ``scipy.linalg`` import it makes on its first call:
    Golub-Welsch eigenvalues of the Jacobi matrix by ``np.linalg.eigvalsh``,
    then scipy's one Newton step and its log-balanced weight normalization.
    """
    k = np.arange(degree, dtype=float)
    off = -np.sqrt(k[1:] * (k[1:] + alpha))
    jacobi = np.diag(2.0 * k + alpha + 1.0) + np.diag(off, 1) + np.diag(off, -1)
    x = np.linalg.eigvalsh(jacobi)
    y = eval_genlaguerre(degree, alpha, x)
    dy = (degree * y - (degree + alpha) * eval_genlaguerre(degree - 1, alpha, x)) / x
    x -= y / dy
    fm = eval_genlaguerre(degree - 1, alpha, x)
    for v in (fm, dy):  # the product fm * dy may over- or underflow
        log_v = np.log(np.abs(v))
        v /= np.exp((log_v.max() + log_v.min()) / 2.0)
    w = 1.0 / (fm * dy)
    w *= gamma_function(alpha + 1.0) / w.sum()
    return x, w


def _quadrature_log_normalizer(params: ModelParams, power: float, degree: int) -> float:
    """Tensor Gauss quadrature of the cone integral in (floor, gaps) variables.

    With lambda_i = t + s_1 + ... + s_{i-1}, every singular factor becomes a
    one-dimensional weight: t^power e^{-n gamma t} for the floor and
    s^beta e^{-(n-1-u) gamma s} for each gap, handled exactly by generalized
    Gauss-Laguerre nodes.  Only smooth cross terms remain on the grid.
    """
    n = params.n
    gamma = params.gamma
    beta = params.beta
    t_nodes, t_weights = _gauss_laguerre(degree, power)
    t_axis = t_nodes / (n * gamma)
    log_scale = -(power + 1.0) * math.log(n * gamma)
    s_nodes, s_weights = _gauss_laguerre(degree, beta)
    gap_axes = []
    gap_weights = []
    for u in range(n - 1):
        mult = (n - 1 - u) * gamma
        gap_axes.append(s_nodes / mult)
        gap_weights.append(s_weights)
        log_scale += -(beta + 1.0) * math.log(mult)

    if n == 2:
        t = t_axis[:, None]
        s = gap_axes[0][None, :]
        residual = (t + s) ** power
        total = float(
            (t_weights[:, None] * gap_weights[0][None, :] * residual).sum()
        )
    else:
        t = t_axis[:, None, None]
        s1 = gap_axes[0][None, :, None]
        s2 = gap_axes[1][None, None, :]
        residual = (
            (t + s1) ** power * (t + s1 + s2) ** power * (s1 + s2) ** beta
        )
        w = (
            t_weights[:, None, None]
            * gap_weights[0][None, :, None]
            * gap_weights[1][None, None, :]
        )
        total = float((w * residual).sum())
    return log_scale + math.log(total)


def _log_proposal_gamma(params: ModelParams, lam: np.ndarray) -> np.ndarray:
    """Log density of the sorted iid Gamma(kappa/2, gamma) proposal on the cone."""
    shape = params.kappa / 2.0
    rate = params.gamma
    logpdf = (
        shape * math.log(rate)
        - gammaln(shape)
        + (shape - 1.0) * np.log(lam)
        - rate * lam
    ).sum(axis=1)
    return logpdf + gammaln(params.n + 1.0)


def estimate_log_normalizer(
    params: ModelParams,
    method: str = "quadrature",
    *,
    degree: int = 80,
    n_samples: int = 200_000,
    rng: np.random.Generator | None = None,
) -> StatSummary:
    """log of integral over the cone of exp(log_density_rows).

    ``quadrature``: tensor generalized Gauss-Laguerre over the symmetrized
    orthant divided by n! (n <= 3).  ``importance``: sorted-Gamma-product
    importance sampling, any n, with a delta-method stderr on the log.  The
    two branches are independent estimators of the same number.  Another
    method, a degree below 2 or fewer than 2 samples is a ConfigError.
    """
    if method not in ("quadrature", "importance"):
        raise ConfigError(f"method must be 'quadrature' or 'importance', got {method!r}")
    _require_evaluable(params)
    n = params.n
    power = _density_coefficients(params)[0]

    if method == "quadrature":
        if n > 3:
            raise NotEvaluable("quadrature branch supports n <= 3")
        degree = require_int("degree", degree, 2)  # the error bar runs at degree // 2
        est = _quadrature_log_normalizer(params, power, degree)
        # Error bar from degree refinement; the integrand is smooth away from
        # corners in the cone parameterization, so halving the degree brackets
        # the remaining error conservatively.
        coarse = _quadrature_log_normalizer(params, power, degree // 2)
        err = abs(est - coarse)
        return StatSummary(
            f"logZ_quadrature(deg={degree})",
            est,
            err,
            (est - 1.96 * err - 1e-15, est + 1.96 * err + 1e-15),
            degree**n,
        )

    n_samples = require_int("n_samples", n_samples, 2)  # importance: the stderr needs two
    if rng is None:
        rng = np.random.default_rng(0)
    shape = params.kappa / 2.0
    draws = rng.gamma(shape, 1.0 / params.gamma, size=(n_samples, n))
    lam = _sort_pairs(draws) if n == 2 else np.sort(draws, axis=1)
    logw = log_density_rows(params, lam) - _log_proposal_gamma(params, lam)
    # Ties from sorting have density zero upward; drop -inf rows safely.
    logw = np.where(np.isfinite(logw), logw, -np.inf)
    peak = logw.max()
    w = np.exp(logw - peak)
    mean_w = w.mean()
    est = peak + math.log(mean_w)
    stderr = float(w.std(ddof=1) / (mean_w * math.sqrt(n_samples)))
    return StatSummary(
        f"logZ_importance(m={n_samples})",
        est,
        stderr,
        (est - 1.96 * stderr, est + 1.96 * stderr),
        n_samples,
    )

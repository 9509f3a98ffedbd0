"""Statistical verification utilities: KS tests, moment summaries, oracles.

Every estimator reports a standard error; acceptance checks never compare
point estimates without an error bar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import kolmogorov

from .errors import ConfigError, TooFewSamples

__all__ = [
    "StatSummary",
    "binomial_summary",
    "empirical_laplace",
    "finite_diff_gradient",
    "ks_distance",
    "ks_distance_two_sample",
    "ks_test",
    "ks_test_two_sample",
    "moment_summary",
    "z_score",
]

_MIN_KS_SAMPLES = 8


@dataclass(frozen=True)
class StatSummary:
    """Named estimate with stderr, 95% CI, and optional KS attachment."""

    name: str
    estimate: float
    stderr: float
    ci95: tuple[float, float]
    n_samples: int
    ks_D: float | None = None
    ks_p: float | None = None

    def __post_init__(self) -> None:
        lo, hi = self.ci95
        if not lo <= self.estimate <= hi:
            raise ValueError("ci95 must contain the estimate")
        if self.stderr < 0:
            raise ValueError("stderr must be >= 0")


def moment_summary(samples, name: str = "mean") -> StatSummary:
    """Sample mean with stderr and a normal-approximation 95% CI."""
    arr = np.asarray(samples, dtype=float)
    n = arr.size
    if n < 2:
        raise TooFewSamples("need at least 2 samples for a moment summary")
    est = float(arr.mean())
    se = float(arr.std(ddof=1) / math.sqrt(n))
    return StatSummary(name, est, se, (est - 1.96 * se, est + 1.96 * se), n)


def binomial_summary(successes: int, trials: int, name: str = "fraction") -> StatSummary:
    """Hit fraction with Wilson 95% interval (stable near 0 and 1)."""
    if trials < 1:
        raise TooFewSamples("need at least one trial")
    p = successes / trials
    z = 1.96
    denom = 1.0 + z**2 / trials
    center = (p + z**2 / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z**2 / (4 * trials**2)) / denom
    se = math.sqrt(max(p * (1 - p), 0.0) / trials)
    lo, hi = center - half, center + half
    # Wilson interval can exclude a degenerate point estimate at p in {0, 1}.
    lo, hi = min(lo, p), max(hi, p)
    return StatSummary(name, p, se, (lo, hi), trials)


def ks_distance(samples, cdf) -> float:
    """One-sample KS statistic D = sup |F_n - F| against a reference CDF."""
    arr = np.sort(np.asarray(samples, dtype=float))
    n = arr.size
    if n < 1:
        raise TooFewSamples("need at least 1 sample")
    f = np.asarray(cdf(arr), dtype=float)
    steps = np.arange(1, n + 1) / n
    d_plus = np.max(steps - f)
    d_minus = np.max(f - (steps - 1.0 / n))
    return float(max(d_plus, d_minus, 0.0))


def ks_test(samples, cdf) -> tuple[float, float]:
    """One-sample KS test: (D, asymptotic p).

    The p-value is the Kolmogorov survival function
    (``scipy.special.kolmogorov``) at the finite-n corrected argument
    (sqrt(n) + 0.12 + 0.11/sqrt(n)) * D; callers should bring at least ~100
    samples for the asymptotics to be trustworthy.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.size < _MIN_KS_SAMPLES:
        raise TooFewSamples(f"ks_test needs >= {_MIN_KS_SAMPLES} samples")
    d = ks_distance(arr, cdf)
    en = math.sqrt(arr.size)
    return d, float(kolmogorov((en + 0.12 + 0.11 / en) * d))


def ks_distance_two_sample(x, y) -> float:
    """Two-sample KS statistic sup |F_x - F_y|."""
    x = np.sort(np.asarray(x, dtype=float))
    y = np.sort(np.asarray(y, dtype=float))
    if x.size < 1 or y.size < 1:
        raise TooFewSamples("need samples on both sides")
    grid = np.concatenate([x, y])
    fx = np.searchsorted(x, grid, side="right") / x.size
    fy = np.searchsorted(y, grid, side="right") / y.size
    return float(np.max(np.abs(fx - fy)))


def ks_test_two_sample(x, y) -> tuple[float, float]:
    """Two-sample KS test: (D, asymptotic p) with effective n = n1 n2/(n1+n2)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < _MIN_KS_SAMPLES or y.size < _MIN_KS_SAMPLES:
        raise TooFewSamples(f"ks_test_two_sample needs >= {_MIN_KS_SAMPLES} per side")
    d = ks_distance_two_sample(x, y)
    en = math.sqrt(x.size * y.size / (x.size + y.size))
    return d, float(kolmogorov((en + 0.12 + 0.11 / en) * d))


def empirical_laplace(integral_samples, mu: float) -> StatSummary:
    """Mean and stderr of exp(-mu * sample) over nonnegative samples; ConfigError
    unless mu >= 0."""
    if not mu >= 0:
        raise ConfigError(f"mu must be >= 0, got {mu}")
    arr = np.asarray(integral_samples, dtype=float)
    vals = np.exp(-mu * arr)
    est = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else 0.0
    return StatSummary(
        f"laplace(mu={mu:g})", est, se, (est - 1.96 * se, est + 1.96 * se), arr.size
    )


def z_score(summary: StatSummary, reference: float) -> float:
    """(estimate - reference) / stderr; NaN at stderr 0, where equal samples inform nothing."""
    return math.nan if summary.stderr == 0.0 else (summary.estimate - reference) / summary.stderr


def finite_diff_gradient(f, x, h: float) -> np.ndarray:
    """Central finite differences (f(x+h e_i) - f(x-h e_i)) / (2h).

    Domain violations inside f propagate as the model's DomainError.
    """
    x = np.asarray(x, dtype=float)
    if h <= 0:
        raise ValueError(f"h must be > 0, got {h}")
    out = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        out[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return out

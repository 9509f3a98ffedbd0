"""Scalar CIR machinery used as exact ground truth.

The process is dr = (a - b r) dt + sigma sqrt(r) dW.  The sum of the particle
coordinates is a CIR process with a = n*alpha, b = 2*gamma, sigma = 2, which
is the main hook this module serves: exact transition sampling, and the closed
form for the Laplace transform of the integrated process with its exact-path
Monte Carlo.  The zero-hit verdicts live in
:func:`cir_particles.model.multiple_collision_threshold` and the stationary
Gamma law of the sum in :func:`cir_particles.stationary.gamma_sum_law`.

The exact transition c * chi'^2_nu(nc) has one sampler, :func:`exact_step`.
It draws every exact variate: the ``exact_cir_splitting`` scheme,
:func:`integrated_sum_paths` and the reference sample of acceptance criterion
1.  For nu >= 1 it draws c * ((Z + sqrt(nc))^2 + chi^2_{nu-1}), one normal
plus at most one more normal or Gamma per entry; below nu = 1, where that
split does not exist, a Poisson mixture of Gammas.  The tests hold it to the
noncentral chi-square CDF and the closed-form moments, and criterion 7 checks
the exact-path Monte Carlo against the closed-form :func:`integrated_laplace`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, require_int
from .model import ModelParams

__all__ = [
    "CirParams",
    "LaplaceQuery",
    "exact_step",
    "integrated_laplace",
    "integrated_sum_paths",
    "sum_process",
]

# numpy's largest Poisson mean: max(int64) - 10*sqrt(max(int64)), about 9.2e18.
_POISSON_MEAN_MAX = np.iinfo(np.int64).max - 10.0 * np.sqrt(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class CirParams:
    """CIR coefficients: dr = (a - b r) dt + sigma sqrt(r) dW."""

    a: float
    b: float
    sigma: float

    def __post_init__(self) -> None:
        for name in ("a", "b", "sigma"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.a < 0:
            raise ConfigError(f"a must be >= 0, got {self.a}")
        if self.sigma <= 0:
            raise ConfigError(f"sigma must be > 0, got {self.sigma}")


def sum_process(params: ModelParams) -> CirParams:
    """CIR law of the coordinate sum: a = n*alpha, b = 2*gamma, sigma = 2."""
    return CirParams(a=params.n * params.alpha, b=2.0 * params.gamma, sigma=2.0)


@functools.lru_cache(maxsize=64)
def _transition(cir: CirParams, dt: float) -> tuple[float, float, float, float]:
    """(c, nu, k, d): scale, degrees of freedom and noncentrality factors of one step.

    r' = c * chi'^2_nu(nc) with nc = (k * r) / d, which stays stable for b of
    either sign; k = 0 marks b*dt > 700, where e^{b dt} overflows and the
    transition forgets r (nc = 0).  Cached per (cir, dt), so a step pays
    neither for these constants nor for the check of dt: not finite or
    <= 0 is a ConfigError.
    """
    if not (math.isfinite(dt) and dt > 0.0):
        raise ConfigError(f"dt must be finite and > 0, got {dt}")
    s2 = cir.sigma**2
    if cir.b == 0.0:
        c, k, d = s2 * dt / 4.0, 4.0, s2 * dt
    else:
        c = s2 * (-math.expm1(-cir.b * dt)) / (4.0 * cir.b)
        k, d = (0.0, 1.0) if cir.b * dt > 700.0 else (4.0 * cir.b, s2 * math.expm1(cir.b * dt))
    return c, 4.0 * cir.a / s2, k, d


def exact_step(cir: CirParams, r, dt: float, rng: np.random.Generator):
    """Sample r_{t+dt} from the exact CIR transition c * chi'^2_nu(nc).

    For nu = 4a/sigma^2 >= 1 the noncentral chi-square splits into a shifted
    squared normal and an independent central chi-square with nu - 1 degrees
    of freedom, c * ((Z + sqrt(nc))^2 + chi^2_{nu-1}) (Glasserman, Monte
    Carlo Methods in Financial Engineering, 2003, sec. 3.4).  Z comes from
    one ``rng.standard_normal`` block.  The chi-square is drawn only when
    nu > 1: at nu = 2 as the square of a second standard normal block,
    otherwise from ``rng.gamma((nu - 1)/2, 2)``.  An infinite noncentrality
    gives inf and a NaN one NaN.  Below nu = 1 the split does not exist, and
    the law is drawn by :func:`_poisson_gamma_step`.  Accepts scalar or
    array ``r``; returns matching shape.
    """
    c, nu, k, d = _transition(cir, dt)
    r = np.asarray(r, dtype=float)
    nc = k * r / d if k else np.zeros_like(r)
    if nu < 1.0:
        return _poisson_gamma_step(c, nu, nc, rng)
    root_nc = np.sqrt(nc)
    out = rng.standard_normal(root_nc.shape)
    out += root_nc
    np.square(out, out=out)
    if nu > 1.0:
        if nu == 2.0:  # chi^2_1 = Z'^2, several times cheaper than Gamma(1/2)
            extra = rng.standard_normal(out.shape)
            out += np.square(extra, out=extra)
        else:
            out += rng.gamma((nu - 1.0) / 2.0, 2.0, out.shape)
    out *= c
    return out if out.ndim else float(out)


def _poisson_gamma_step(c: float, nu: float, nc, rng: np.random.Generator):
    """c * chi'^2_nu(nc) as a Poisson mixture of Gammas, the draw below nu = 1.

    Draws N ~ Poisson(nc/2), then c * Gamma(nu/2 + N, scale 2).  Zero shape
    (a = 0 with N = 0) degenerates to the absorbed state 0.  An entry whose
    Poisson mean numpy rejects (NaN, or above about 9.2e18 once a run has
    exploded) comes back as NaN, which the integrators record as a numerical
    failure.  numpy checks the means before it draws, so the generator is
    untouched by the rejected call.
    """
    exploded = None
    try:
        n_mix = rng.poisson(nc / 2.0)
    except ValueError:
        exploded = ~(nc / 2.0 <= _POISSON_MEAN_MAX)
        n_mix = rng.poisson(np.where(exploded, 0.0, nc / 2.0))
    shape = nu / 2.0 + n_mix
    out = np.where(shape > 0.0, c * rng.gamma(np.maximum(shape, 1e-300), 2.0), 0.0)
    if exploded is not None:
        out = np.where(exploded, np.nan, out)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class LaplaceQuery:
    """Closed-form E[exp(-mu * integral_0^t r_s ds)] for the coordinate sum.

    value = exp(-n*alpha*phi - sum0*psi).  The constant multiplying phi is
    the constant drift n*alpha of the sum process, fixed here after matching
    a Monte Carlo oracle (see docs: the prefactor is parameter-dependent and
    must scale with n).
    """

    mu: float
    t: float
    phi: float
    psi: float
    value: float
    log_value: float


def integrated_laplace(
    params: ModelParams, sum0: float, mu: float, t: float
) -> LaplaceQuery:
    """Laplace transform of the integrated coordinate sum started at sum0.

    With delta = sqrt(gamma^2 + 2 mu) and E = e^{-2 delta t}:

        psi(t) = mu (1 - E) / ((delta+gamma)(1 - E) + 2 delta E)
        phi(t) = [(delta-gamma) t + ln(((delta+gamma)(1-E) + 2 delta E)
                                        / (2 delta))] / 2

    evaluated in this exponent-free form so large delta*t cannot overflow;
    psi(t) tends to mu/(delta + gamma) as t grows.  t may be +inf, where the
    transform is 0.  A NaN or negative mu, a t that is not > 0 and a sum0
    that is not >= 0 are ConfigErrors.  Past gamma^2 + 2 mu ~ 1.8e308 (mu
    = inf included) delta overflows and the fields are NaN, which callers
    must check.
    """
    if not mu >= 0:
        raise ConfigError(f"mu must be >= 0, got {mu}")
    if not t > 0:
        raise ConfigError(f"t must be > 0, got {t}")
    if not sum0 >= 0:
        raise ConfigError(f"sum0 must be >= 0, got {sum0}")
    if mu == 0.0:
        return LaplaceQuery(mu=0.0, t=t, phi=0.0, psi=0.0, value=1.0, log_value=0.0)
    gamma = params.gamma
    delta = math.sqrt(gamma**2 + 2.0 * mu)
    decay = 0.0 if math.isinf(t) else math.exp(-2.0 * delta * t)
    den = (delta + gamma) * (1.0 - decay) + 2.0 * delta * decay
    psi = mu * (1.0 - decay) / den
    if math.isinf(t):
        phi = math.inf
    else:
        phi = 0.5 * ((delta - gamma) * t + math.log(den / (2.0 * delta)))
    log_value = -(params.n * params.alpha) * phi - sum0 * psi
    return LaplaceQuery(
        mu=mu, t=t, phi=phi, psi=psi, value=math.exp(log_value), log_value=log_value
    )


def integrated_sum_paths(
    params: ModelParams,
    sum0: float,
    n_paths: int,
    dt: float,
    probe_times,
    rng: np.random.Generator,
) -> dict[float, np.ndarray]:
    """Monte Carlo samples of integral_0^t S_s ds for the coordinate sum S.

    Advances ``n_paths`` copies of the sum process from ``sum0`` with exact
    transitions of step ``dt`` drawn by :func:`exact_step` (nu = n*alpha),
    integrates them by the trapezoid rule, and returns the integrals at each
    probe time.  Before the first step :func:`integrators.probe_steps` checks
    ``dt`` and the probes (at least one, each a grid time k*dt with 1 <= k
    <= ``integrators.MAX_STEPS``); ``n_paths`` must be an integer >= 1 and
    ``sum0`` finite and >= 0; else ConfigError.  A run that explodes
    (gamma < 0 over a long horizon) returns non-finite integrals, which
    callers must check.
    """
    from .integrators import MAX_STEPS, probe_steps

    if not (math.isfinite(sum0) and sum0 >= 0.0):
        raise ConfigError(f"sum0 must be finite and >= 0, got {sum0}")
    n_paths = require_int("n_paths", n_paths, 1)
    steps = probe_steps(probe_times, dt, 1, MAX_STEPS)
    cir = sum_process(params)
    r = np.full(n_paths, sum0)
    integral = np.zeros(n_paths)
    at = dict.fromkeys(steps.values())  # the integral at each probe step
    for s in range(1, max(at) + 1):
        r_new = exact_step(cir, r, dt, rng)
        integral += 0.5 * (r + r_new) * dt
        r = r_new
        if s in at:
            at[s] = integral.copy()
    return {t: at[s] for t, s in steps.items()}

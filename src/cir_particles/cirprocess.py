"""Scalar CIR machinery used as exact ground truth.

The process is dr = (a - b r) dt + sigma sqrt(r) dW.  The sum of the particle
coordinates is a CIR process with a = n*alpha, b = 2*gamma, sigma = 2, which
is the main hook this module serves: exact transition sampling, the boundary
classification, the conditional mean, the invariant Gamma law, and the closed
form for the Laplace transform of the integrated process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NoInvariantLaw
from .model import ModelParams, multiple_collision_threshold

__all__ = [
    "CirBoundary",
    "CirParams",
    "CirState",
    "LaplaceQuery",
    "boundary_classification",
    "conditional_mean",
    "exact_step",
    "integrated_laplace",
    "integrated_sum_paths",
    "invariant_gamma",
    "partial_sum_bound_process",
    "sum_process",
]


@dataclass(frozen=True)
class CirParams:
    """CIR coefficients: dr = (a - b r) dt + sigma sqrt(r) dW."""

    a: float
    b: float
    sigma: float

    def __post_init__(self) -> None:
        if self.a < 0:
            raise ValueError(f"a must be >= 0, got {self.a}")
        if self.sigma <= 0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")


@dataclass(frozen=True)
class CirState:
    """Scalar CIR state: nonnegative value r at time t."""

    t: float
    r: float

    def __post_init__(self) -> None:
        if self.r < 0:
            raise ValueError(f"r must be >= 0, got {self.r}")


def sum_process(params: ModelParams) -> CirParams:
    """CIR law of the coordinate sum: a = n*alpha, b = 2*gamma, sigma = 2."""
    return CirParams(a=params.n * params.alpha, b=2.0 * params.gamma, sigma=2.0)


def partial_sum_bound_process(params: ModelParams, k: int) -> CirParams:
    """CIR process bounding the partial sum lambda_1 + ... + lambda_k.

    The interaction of the lowest k particles with the rest is nonpositive,
    so the partial sum is dominated by a CIR process with constant drift
    k*(alpha - (n-k)*beta).  For k = n this is :func:`sum_process` exactly.
    """
    a = multiple_collision_threshold(params, k)[0]
    return CirParams(a=max(a, 0.0), b=2.0 * params.gamma, sigma=2.0)


class CirBoundary(Enum):
    NEVER_HITS_ZERO = "never_hits_zero"
    HITS_ZERO_AS = "hits_zero_as"
    HITS_ZERO_PROB_IN_0_1 = "hits_zero_prob_in_0_1"


def boundary_classification(cir: CirParams) -> CirBoundary:
    """Zero-boundary behaviour: never if a >= sigma^2/2, else a.s. for b >= 0
    and with probability strictly inside (0, 1) for b < 0."""
    if cir.a >= cir.sigma**2 / 2.0:
        return CirBoundary.NEVER_HITS_ZERO
    if cir.b >= 0.0:
        return CirBoundary.HITS_ZERO_AS
    return CirBoundary.HITS_ZERO_PROB_IN_0_1


def conditional_mean(cir: CirParams, r, dt):
    """E[r_{t+dt} | r_t = r] = r e^{-b dt} + (a/b)(1 - e^{-b dt}).

    The b = 0 limit r + a*dt is taken analytically; -expm1 keeps the
    transient factor accurate for small b*dt.
    """
    r = np.asarray(r, dtype=float)
    if dt < 0:
        raise ValueError(f"dt must be >= 0, got {dt}")
    if cir.b == 0.0:
        out = r + cir.a * dt
    else:
        decay = math.exp(-cir.b * dt) if np.isfinite(dt) else 0.0
        ramp = -math.expm1(-cir.b * dt) if np.isfinite(dt) else 1.0
        out = r * decay + cir.a / cir.b * ramp
    return out if out.ndim else float(out)


def _transition_constants(cir: CirParams, dt: float) -> tuple[float, float]:
    """(c, nu): scale and degrees of freedom of the exact transition.

    r' = c * chi'^2_nu(nc) with nc = r * e^{-b dt} / c; the noncentrality is
    returned by :func:`_noncentrality` to stay stable for b of either sign.
    """
    if cir.b == 0.0:
        c = cir.sigma**2 * dt / 4.0
    else:
        c = cir.sigma**2 * (-math.expm1(-cir.b * dt)) / (4.0 * cir.b)
    nu = 4.0 * cir.a / cir.sigma**2
    return c, nu


def _noncentrality(cir: CirParams, r, dt: float):
    if cir.b == 0.0:
        return 4.0 * np.asarray(r, dtype=float) / (cir.sigma**2 * dt)
    if cir.b * dt > 700.0:  # e^{b dt} overflows; the transition forgets r
        return np.zeros_like(np.asarray(r, dtype=float))
    return 4.0 * cir.b * np.asarray(r, dtype=float) / (
        cir.sigma**2 * math.expm1(cir.b * dt)
    )


def exact_step(cir: CirParams, r, dt: float, rng: np.random.Generator):
    """Sample r_{t+dt} from the exact CIR transition law.

    Uses the Poisson mixture of Gammas behind the noncentral chi-square: draw
    N ~ Poisson(nc/2), then r' = c * Gamma(nu/2 + N, scale 2).  Zero shape
    (a = 0 with N = 0) degenerates to the absorbed state 0.  Accepts scalar
    or array ``r``; returns matching shape.
    """
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    r_arr = np.asarray(r, dtype=float)
    c, nu = _transition_constants(cir, dt)
    nc = _noncentrality(cir, r_arr, dt)
    n_mix = rng.poisson(nc / 2.0)
    shape = nu / 2.0 + n_mix
    out = np.where(shape > 0.0, c * rng.gamma(np.maximum(shape, 1e-300), 2.0), 0.0)
    return out if out.ndim else float(out)


def invariant_gamma(cir: CirParams) -> tuple[float, float]:
    """(shape, rate) of the invariant Gamma law: (2a/sigma^2, 2b/sigma^2).

    For the coordinate-sum process this is Gamma(n*alpha/2, gamma).
    """
    if cir.b <= 0.0:
        raise NoInvariantLaw("invariant law requires mean reversion b > 0")
    return 2.0 * cir.a / cir.sigma**2, 2.0 * cir.b / cir.sigma**2


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
    transform is 0.
    """
    if mu < 0:
        raise ValueError(f"mu must be >= 0, got {mu}")
    if t <= 0:
        raise ValueError(f"t must be > 0, got {t}")
    if sum0 < 0:
        raise ValueError(f"sum0 must be >= 0, got {sum0}")
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
    transitions of step ``dt``, integrates them by the trapezoid rule, and
    returns the integrals at each probe time.  Probe times are taken on the
    grid k*dt at k = round(t/dt); callers check they lie on it.
    """
    cir = sum_process(params)
    probe_at = {int(round(t / dt)): t for t in probe_times}
    r = np.full(n_paths, sum0)
    integral = np.zeros(n_paths)
    probes: dict[float, np.ndarray] = {}
    for s in range(1, max(probe_at) + 1):
        r_new = exact_step(cir, r, dt, rng)
        integral += 0.5 * (r + r_new) * dt
        r = r_new
        if s in probe_at:
            probes[probe_at[s]] = integral.copy()
    return probes

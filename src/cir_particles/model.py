"""Model parameters, the pairwise interaction kernel, drifts, potential, regimes.

The particle system lives on the ordered cone 0 <= lambda_1 <= ... <= lambda_n.
Each coordinate diffuses like a CIR process (diffusion 2*sqrt(lambda_i)) with
drift

    b_i(lambda) = alpha - 2*gamma*lambda_i
                  + beta * sum_{j != i} (lambda_i + lambda_j)/(lambda_i - lambda_j),

equivalently, with kappa = alpha - (n-1)*beta,

    b_i(lambda) = kappa - 2*gamma*lambda_i
                  + 2*beta*lambda_i * sum_{j != i} 1/(lambda_i - lambda_j).

In root coordinates x_i = sqrt(lambda_i) the system is the gradient diffusion
dx_i = dB_i - dV/dx_i dt for the log-potential implemented by
:func:`potential_value`.

Everything here is a pure function of its inputs.  Operations that would be
singular (coincident coordinates, zero root coordinate) raise instead of
returning infinities.  Every drift, here and in the integrators, takes its
pairwise sums from :func:`interaction_sum`; the denominator floor is an
argument of that kernel, so the pure drifts divide exactly and the
regularization policy (the floor) belongs to the integrators.  The lambda
drift and the root drift each have one definition,
:func:`drift_lambda_batch` and :func:`drift_root_batch`, on coordinate-major
(n, P) batches: the integrators' steps call them with their floor, and
:func:`drift_lambda` and :func:`grad_potential` on one exact column.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from .errors import BadK, CoincidentCoordinates, ConfigError, DomainError, require_int

__all__ = [
    "CollisionVerdict",
    "GlobalSolution",
    "ModelParams",
    "PairCollisions",
    "RegimeReport",
    "ZeroHitLambda1",
    "classify_regime",
    "drift_lambda",
    "drift_lambda_batch",
    "drift_root_batch",
    "grad_potential",
    "interaction_sum",
    "multiple_collision_threshold",
    "potential_value",
]


@dataclass(frozen=True)
class ModelParams:
    """Parameter tuple (alpha, beta, gamma, n) of the particle system.

    kappa = alpha - (n-1)*beta is recomputed on access, never stored, so it
    can not go stale under parameter sweeps.
    """

    alpha: float
    beta: float
    gamma: float
    n: int

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        object.__setattr__(self, "n", require_int("n", self.n, 2))
        if self.beta <= 0:
            raise ConfigError(f"beta must be > 0, got {self.beta}")
        if self.alpha < 0:
            raise ConfigError(f"alpha must be >= 0, got {self.alpha}")

    @property
    def kappa(self) -> float:
        return self.alpha - (self.n - 1) * self.beta


def _as_vector(values, n: int, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.shape != (n,):
        raise ConfigError(f"{name} must have shape ({n},), got {arr.shape}")
    return arr


class GlobalSolution(Enum):
    NONE = "none"
    UNTIL_JOINT_EVENT = "until_joint_event"
    GLOBAL = "global"


class PairCollisions(Enum):
    IMPOSSIBLE = "impossible"
    ALMOST_SURE = "almost_sure"


class ZeroHitLambda1(Enum):
    NEVER = "never"
    POSSIBLE = "possible"


class CollisionVerdict(Enum):
    ALMOST_SURE_ZERO_HIT = "almost_sure_zero_hit"
    NEVER = "never"
    PROB_IN_0_1 = "prob_in_0_1"


@dataclass(frozen=True)
class RegimeReport:
    """Analytic classification of a parameter point.

    ``multiple_collision_k`` maps k in 1..n to the verdict for the partial sum
    lambda_1 + ... + lambda_k hitting zero, decided by comparing
    k*(alpha - (n-k)*beta) to 2 with a gamma-sign disambiguation below the
    threshold.
    """

    kappa: float
    global_solution: GlobalSolution
    pair_collisions: PairCollisions
    zero_hit_lambda1: ZeroHitLambda1
    multiple_collision_k: dict[int, CollisionVerdict] = field(repr=False)


def _require_distinct(lam: np.ndarray) -> None:
    # Exact float equality is the coincidence notion in the pure layer.
    if np.unique(lam).size != lam.size:
        raise CoincidentCoordinates(f"coincident coordinates in {lam}")


def interaction_sum(
    lam: np.ndarray,
    floor: Callable[[np.ndarray], np.ndarray] | None = None,
    *,
    inverse: bool = False,
) -> np.ndarray:
    """Pairwise sums over the columns of an (n, P) coordinate-major batch.

    Row i of ``lam`` holds coordinate i of every path, and the result has
    the same shape; beta is not applied.  Returns
    S_i = sum_{j != i} (l_i + l_j)/den_ij, or with ``inverse``
    I_i = sum_{j != i} 1/den_ij.  With no ``floor`` the denominator is
    exactly l_i - l_j, in any order.  A floor maps the pair sums l_i + l_j to
    a magnitude floor, and then every column must be ascending
    (l_1 <= ... <= l_n, as the integrators keep their states):
    den_ij = -max(l_j - l_i, floor) for i < j, ties included.  Row i starts
    at 0.0 and adds its n - 1 terms in the order j = 1, ..., n, j != i, the
    term of the pair (i, j) with sign +1 and that of (j, i) with sign -1, so
    the sums stay exactly antisymmetric.
    """
    n = lam.shape[0]
    if n < 2:
        return np.zeros_like(lam)
    upper, lower, layers, signs = _pairs(n)
    li, lj = lam.take(upper, axis=0), lam.take(lower, axis=0)
    s = li + lj
    if floor is None:
        t = np.divide(1.0 if inverse else s, li - lj)
    else:
        # x / -m is -(x / m), so dividing by m = max(l_j - l_i, floor) and
        # swapping the signs gives the same terms, bit for bit.
        m = np.maximum(np.subtract(lj, li, out=lj), floor(s), out=lj)
        t = np.divide(1.0 if inverse else s, m, out=s)
        signs = -signs
    # Layer l holds the l-th term of every row.  x - y is x + (-1 * y), bit
    # for bit, signed zeros included, and 0.0 + x is the row's 0.0 start.
    # One (n, P) layer at a time: a block of all n - 1 layers is large
    # enough at 5000 rows to make glibc trim and regrow the heap every step.
    out = None
    for pair, sign in zip(layers, signs):
        term = t.take(pair, axis=0)
        term *= sign
        if out is None:
            out = np.add(term, 0.0, out=term)
        else:
            out += term
    return out


@functools.lru_cache(maxsize=None)
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Read-only tables of the pairs i < j, in row-major order, and of the layers.

    ``upper`` and ``lower`` give each pair's i and j.  Entry (l, i) of
    ``layers`` is the pair of row i's l-th term, whose other member is
    j = l for l < i and j = l + 1 otherwise (0-based), and ``signs``
    (n - 1, n, 1) is -1 where row i is the pair's j, else +1.
    """
    upper, lower = np.triu_indices(n, k=1)
    pair_of = {}
    for k, (i, j) in enumerate(zip(upper.tolist(), lower.tolist())):
        pair_of[i, j] = pair_of[j, i] = k
    layers = np.array([[pair_of[i, l if l < i else l + 1] for i in range(n)]
                       for l in range(n - 1)])
    signs = np.array([[-1.0 if l < i else 1.0 for i in range(n)]
                      for l in range(n - 1)])[:, :, None]
    for table in (upper, lower, layers, signs):
        table.flags.writeable = False
    return upper, lower, layers, signs


def drift_lambda_batch(params: ModelParams, lam: np.ndarray, floor=None) -> np.ndarray:
    """Primal drift alpha - 2*gamma*lambda + beta*S of every column of an (n, P) batch.

    S is :func:`interaction_sum` with ``floor``: the integrators pass their
    denominator floor, and None divides exactly.
    """
    return params.alpha - 2.0 * params.gamma * lam + params.beta * interaction_sum(lam, floor)


def drift_lambda(params: ModelParams, lam) -> np.ndarray:
    """Primal drift b_i = alpha - 2*gamma*lambda_i + beta*sum (li+lj)/(li-lj).

    The interaction is exactly antisymmetric in (i, j), so the output summed
    over i equals n*alpha - 2*gamma*sum(lambda) up to rounding.
    """
    lam = _as_vector(lam, params.n, "lam")
    _require_distinct(lam)
    return drift_lambda_batch(params, lam[:, None])[:, 0]


def drift_root_batch(params: ModelParams, x: np.ndarray, x_floor: float, floor=None) -> np.ndarray:
    """Root drift (kappa-1)/(2x) - gamma*x + beta*x*I of every column of an (n, P) batch.

    I_i = sum_{j != i} 1/(x_i^2 - x_j^2) is :func:`interaction_sum` of the
    squares with ``inverse`` and ``floor`` (None divides exactly), and
    ``x_floor`` bounds x from below in the 1/x term.
    """
    inv = interaction_sum(x * x, floor, inverse=True)
    return (
        (params.kappa - 1.0) / (2.0 * np.maximum(x, x_floor))
        - params.gamma * x
        + params.beta * x * inv
    )


def _require_root_cone(x: np.ndarray) -> None:
    if np.any(x <= 0.0) or np.any(np.diff(x) <= 0.0):
        raise DomainError(f"x must satisfy 0 < x1 < ... < xn, got {x}")


def potential_value(params: ModelParams, x) -> float:
    """Log-potential V of the gradient form dx_i = dB_i - dV/dx_i dt.

    V(x) = -sum_i [ (kappa-1)/2 * ln x_i - gamma/2 * x_i^2 ]
           - beta/2 * sum_{i<j} [ ln(x_j - x_i) + ln(x_j + x_i) ].
    """
    x = _as_vector(x, params.n, "x")
    _require_root_cone(x)
    single = (params.kappa - 1.0) / 2.0 * np.log(x) - params.gamma / 2.0 * x**2
    i, j = np.triu_indices(params.n, k=1)
    pair = np.log(x[j] - x[i]) + np.log(x[j] + x[i])
    return float(-(single.sum() + params.beta / 2.0 * pair.sum()))


def grad_potential(params: ModelParams, x) -> np.ndarray:
    """Gradient of :func:`potential_value`, minus the root-coordinate drift.

    Computed from the dual form
    dV/dx_i = -[(kappa-1)/(2 x_i) - gamma*x_i + beta*x_i*sum 1/(x_i^2-x_j^2)].
    The tests hold it to an independent primal-form oracle,
    (alpha-1)/(2 x_i) - gamma*x_i + beta/(2 x_i)*sum (x_i^2+x_j^2)/(x_i^2-x_j^2),
    and to finite differences of the potential.
    """
    x = _as_vector(x, params.n, "x")
    _require_root_cone(x)
    return -drift_root_batch(params, x[:, None], 0.0)[:, 0]


def multiple_collision_threshold(
    params: ModelParams, k: int
) -> tuple[float, CollisionVerdict]:
    """Threshold k*(alpha - (n-k)*beta) and the zero-hit verdict for sum_{i<=k}.

    >= 2 means the partial sum never reaches zero; below 2 the hit is almost
    sure for gamma >= 0 and has probability strictly inside (0, 1) for
    gamma < 0.
    """
    if not 1 <= k <= params.n:
        raise BadK(f"k must be in 1..{params.n}, got {k}")
    value = k * (params.alpha - (params.n - k) * params.beta)
    if value >= 2.0:
        verdict = CollisionVerdict.NEVER
    elif params.gamma >= 0.0:
        verdict = CollisionVerdict.ALMOST_SURE_ZERO_HIT
    else:
        verdict = CollisionVerdict.PROB_IN_0_1
    return value, verdict


def classify_regime(params: ModelParams) -> RegimeReport:
    """Deterministic phase-diagram classification of a parameter point.

    kappa < 0: no global solution (stop when lambda_1 reaches zero);
    0 <= kappa < 1-beta: solution up to the joint event lambda_1 and the
    first gap both small, which happens in finite time; kappa >= 1-beta:
    global solution.  Pair collisions occur almost surely iff beta < 1.
    lambda_1 never touches zero iff the k = 1 verdict of
    :func:`multiple_collision_threshold` is NEVER, i.e. kappa >= 2.
    """
    kappa = params.kappa
    if kappa < 0.0:
        global_solution = GlobalSolution.NONE
    elif kappa >= 1.0 - params.beta:
        global_solution = GlobalSolution.GLOBAL
    else:
        global_solution = GlobalSolution.UNTIL_JOINT_EVENT
    pair = (
        PairCollisions.IMPOSSIBLE if params.beta >= 1.0 else PairCollisions.ALMOST_SURE
    )
    verdicts = {
        k: multiple_collision_threshold(params, k)[1] for k in range(1, params.n + 1)
    }
    zero_hit = (
        ZeroHitLambda1.NEVER
        if verdicts[1] is CollisionVerdict.NEVER
        else ZeroHitLambda1.POSSIBLE
    )
    return RegimeReport(
        kappa=kappa,
        global_solution=global_solution,
        pair_collisions=pair,
        zero_hit_lambda1=zero_hit,
        multiple_collision_k=verdicts,
    )

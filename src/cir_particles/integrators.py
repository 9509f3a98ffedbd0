"""Time-stepping schemes for the interacting CIR particle system.

Five schemes share one vectorized batch loop; each has one step function,
chosen once per run:

``truncated_euler``
    Full-truncation Euler in lambda coordinates: drift and diffusion are
    evaluated at the current nonnegative state, the updated state is clamped
    at zero and re-sorted.  Interaction denominators are floored in magnitude
    (see :class:`_Guard`), preserving sign, which bounds the one-step
    displacement without biasing away from collisions.

``regularized_switching``
    Alternates the two epsilon-regularized drifts: system A removes the
    zero-boundary singularity via a clamp that saturates once lambda_1 >=
    eps/2 (where it coincides with the plain drift), system B removes the
    first-gap singularity and coincides with the plain drift on
    {lambda_1 <= eps, lambda_2 - lambda_1 >= eps}.  The mode switches
    A -> B when lambda_1 <= eps/2 and B -> A when lambda_1 >= eps, and a
    path stops at zeta_eps, the joint event lambda_1 <= eps and
    lambda_2 - lambda_1 <= eps.

``root_coordinates``
    Euler in x = sqrt(lambda) coordinates with unit diffusion.

``c_epsilon``
    The kappa < 0 scheme in root coordinates, with the Lipschitz floor
    1/(x v eps) on the inward drift; a path stops at S_eps, lambda_1 <= eps.

``exact_cir_splitting``
    Strang splitting: half a step of the guarded interaction drift, one
    exact CIR transition per coordinate (constant drift alpha, reversion
    2*gamma, diffusion scale 2), then the second interaction half-step.
    The CIR factor never overshoots through the origin, and because
    independent noncentral chi-squares with a common scale add, the
    coordinate sum is advanced by the exact sum-CIR transition up to the
    interaction terms, which cancel in the sum.  The zero boundary is not
    exact when kappa is small: near zero the interaction half-step pushes
    lambda_1 below 0 and the clamp after it pins lambda_1 at 0, so lambda_1
    behaves like a dimension-alpha process held at zero rather than one of
    local dimension kappa.  At alpha=1, beta=0.4, gamma=0.5, n=3 (kappa=0.2),
    start (1, 2, 3), dt=1e-2, 29.5% of paths end t=1 with lambda_1 exactly 0,
    and the KS test of the coordinate sum against its exact law reads
    D=0.0180, p=1.1e-11 (40k paths).  The transition is drawn by
    :func:`cir_particles.cirprocess.exact_step`: for alpha >= 1 as a shifted
    squared normal plus a central chi-square, below that as a Poisson
    mixture of Gammas.  Its variates come from one generator per
    batch rather than from the per-path Brownian increments, so shared-noise
    coupling and noise_refine do not apply to it, and its determinism is per
    batch layout rather than per path.

For the Gaussian schemes, noise is keyed by (seed, step, path, coordinate)
through :mod:`cir_particles.randomness`, so a path is bit-identical whether it
is run alone, inside any batch, or under any parallel schedule, and two
systems run with the same seed are driven by the same Brownian increments
(the coupling used by the contraction and comparison experiments).
``exact_cir_splitting`` is deterministic per batch layout only.

Inside :func:`simulate_batch` the state is coordinate-major: an (n, P) array
with one contiguous row per coordinate, so the step maps, the pairwise sums
of :func:`cir_particles.model.interaction_sum`, the event values and the
non-finite check all read whole rows.  Every array of the
:class:`BatchResult` is path-major, (P, ...).  A batch runs ``config.paths``
paths from ``path_offset``, and its states between the start and the end are
read from the rows of the grid steps it records, ``record_steps``.  Each step
re-sorts the columns once with :func:`_sort_columns` (the splitting step
three times).  The exact CIR factor is drawn on the coordinate-major state,
coordinate row by coordinate row.

Each step computes :func:`cir_particles.events.event_values` once, one row
per event.  The online event monitors keep one pending threshold per (event,
path), the largest detection level not yet fired, and stamp only the entries
that crossed it.  They are the one event detector, read by
:func:`cir_particles.events.detect_events`, whatever steps are recorded.  A
stopping rule is a row of the same block with a level and a stop code, the
scheme's own first, then ``stop_on``; one loop marks the rows they stop.

:func:`simulate_batch` steps only the live rows.  Their state, B-mode and
pending thresholds are held packed, in ascending path order.  A non-finite
step, a scheme stop and a ``stop_on`` hit (t = 0 included) mark their rows
in one mask, and the top of the step loop retires them, before the noise
draw: it writes their stop time and final state and packs the rest.  A
frozen row keeps its state and draws no further noise; a row that fails
keeps its last finite state.  For the Gaussian schemes every number is the
same as if all rows were stepped to the end.  Under ``exact_cir_splitting``
the batch stream feeds only the live rows, in path order, so its draws
depend on when rows freeze; a rerun of the same inputs still reproduces them
bit for bit.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .cirprocess import CirParams, exact_step
from .errors import ConfigError, require_int
from .events import detection_level, event_rows, event_values
from .model import ModelParams, drift_lambda_batch, drift_root_batch, interaction_sum
from .randomness import exact_step_stream, step_normals

__all__ = [
    "BatchResult",
    "PathRecord",
    "Scheme",
    "SimConfig",
    "Terminated",
    "contraction_curve",
    "grid_step",
    "probe_steps",
    "simulate_batch",
    "simulate_coupled_cir",
    "simulate_path",
]


class Scheme(str, Enum):
    TRUNCATED_EULER = "truncated_euler"
    REGULARIZED_SWITCHING = "regularized_switching"
    ROOT_COORDINATES = "root_coordinates"
    C_EPSILON = "c_epsilon"
    EXACT_CIR_SPLITTING = "exact_cir_splitting"


class Terminated(str, Enum):
    HORIZON = "horizon"
    STOPPED_AT_S_EPS = "stopped_at_S_eps"
    STOPPED_AT_ZETA_EPS = "stopped_at_zeta_eps"
    NUMERICAL_FAILURE = "numerical_failure"
    STOPPED_AT_EVENT = "stopped_at_event"


# Internal integer codes for the batch kernel; EVENT marks paths frozen early
# by a stop_on rule (an efficiency device for first-passage estimators).
_T_HORIZON, _T_S_EPS, _T_ZETA, _T_FAIL, _T_EVENT = 0, 1, 2, 3, 4
_CODE_TO_TERMINATED = {
    _T_HORIZON: Terminated.HORIZON,
    _T_S_EPS: Terminated.STOPPED_AT_S_EPS,
    _T_ZETA: Terminated.STOPPED_AT_ZETA_EPS,
    _T_FAIL: Terminated.NUMERICAL_FAILURE,
    _T_EVENT: Terminated.STOPPED_AT_EVENT,
}


# The most steps one run may take.  A step is one pass of a Python loop: about
# 10 us for the exact sum paths of laplace-check and 25 to 45 us for
# simulate_batch at one path (n = 2, truncated_euler or exact_cir_splitting,
# with or without a monitor; one core of a 2-core Xeon), so 10**9 steps run
# for 3 to 12 hours.  The largest program run takes 2e5 steps (criterion 5a
# and the README collision-scan).
MAX_STEPS = 10**9


def _check_step_bound(n_steps: int) -> None:
    if n_steps > MAX_STEPS:
        raise ConfigError(f"a run of {n_steps:.3g} steps is past the bound of {MAX_STEPS:.0e}")


@dataclass(frozen=True)
class SimConfig:
    """Scheme choice plus step size, horizon, regularization and seeding.

    ``epsilon`` defaults to 10*sqrt(dt) when not given; ``collision_tol`` is
    the event-detection level delta, distinct from the scheme's epsilon.
    """

    scheme: Scheme = Scheme.TRUNCATED_EULER
    dt: float = 1e-3
    horizon: float = 1.0
    epsilon: float | None = None
    collision_tol: float = 1e-3
    seed: int = 0
    paths: int = 1
    kick_cap: float = 1.0

    def __post_init__(self) -> None:
        for name in ("dt", "horizon", "epsilon", "collision_tol", "kick_cap"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.horizon <= self.dt:
            raise ConfigError(f"horizon must exceed dt, got {self.horizon}")
        grid_step(self.horizon, self.dt, "horizon")
        if self.epsilon is None:
            object.__setattr__(self, "epsilon", 10.0 * math.sqrt(self.dt))
        if self.epsilon <= 0:
            raise ConfigError(f"epsilon must be > 0, got {self.epsilon}")
        if self.collision_tol <= 0:
            raise ConfigError(f"collision_tol must be > 0, got {self.collision_tol}")
        for name, least in (("seed", None), ("paths", 1)):
            object.__setattr__(self, name, require_int(name, getattr(self, name), least))
        if self.kick_cap <= 0:
            raise ConfigError(f"kick_cap must be > 0, got {self.kick_cap}")
        if not isinstance(self.scheme, Scheme):
            try:
                object.__setattr__(self, "scheme", Scheme(self.scheme))
            except ValueError:
                raise ConfigError(f"unknown scheme {self.scheme!r}") from None

    @property
    def n_steps(self) -> int:
        return grid_step(self.horizon, self.dt, "horizon")

    @property
    def guard(self) -> float:
        """Static magnitude floor for interaction denominators."""
        return max(self.collision_tol**2, self.dt)


def grid_step(t: float, dt: float, what: str) -> int:
    """Index k of the grid time k*dt equal to t; ConfigError when t is off the grid."""
    if not (math.isfinite(dt) and dt > 0.0):
        raise ConfigError(f"dt must be finite and > 0, got {dt}")
    steps = t / dt
    if not math.isfinite(steps) or abs(steps - round(steps)) > 1e-9:
        raise ConfigError(f"{what} t={t:g} is not a multiple of dt={dt:g}")
    return int(round(steps))


def probe_steps(probe_times: Sequence[float], dt: float, least: int, most: int) -> dict:
    """{t: k} of the probe times t = k*dt; ConfigError for none, one off the grid or k
    outside least..most."""
    if len(probe_times) == 0:
        raise ConfigError("probe_times must hold at least one probe, got none")
    steps = {}
    for t in probe_times:
        steps[t] = grid_step(t, dt, "probe time")
        if not least <= steps[t] <= most:
            raise ConfigError(f"probe time t={t:g} is step {steps[t]:g} of dt={dt:g}, "
                              f"outside {least}..{most:g}")
    return steps


@dataclass
class PathRecord:
    """One sampled trajectory in lambda coordinates."""

    path_index: int
    times: np.ndarray
    lambdas: np.ndarray
    terminated: Terminated
    stop_time: float


@dataclass
class BatchResult:
    """Vectorized simulation output for a contiguous block of paths.

    ``monitors`` maps each detection level to first-hit times (nan = never):
    ``gap`` (P, n-1) adjacent-gap events, ``psum`` (P, n) partial-sum events,
    ``zeta`` (P,) the joint event, ``double`` (P,) same-step double events.
    """

    params: ModelParams
    config: SimConfig
    path_offset: int
    n_paths: int
    final_lambda: np.ndarray
    stop_time: np.ndarray
    terminated_code: np.ndarray
    monitors: dict[float, dict[str, np.ndarray]]
    times: np.ndarray | None = None
    trajectories: np.ndarray | None = None

    def terminated(self, i: int) -> Terminated:
        return _CODE_TO_TERMINATED[int(self.terminated_code[i])]

    def path_record(self, i: int) -> PathRecord:
        """Row ``i`` of a recorded batch, its trajectory cut at its stop time."""
        if self.trajectories is None:
            raise ConfigError("path_record needs a batch run with record_steps")
        stop_t = float(self.stop_time[i])
        keep = self.times <= stop_t + 0.5 * self.config.dt
        return PathRecord(
            path_index=self.path_offset + i,
            times=self.times[keep],
            lambdas=self.trajectories[i][keep],
            terminated=self.terminated(i),
            stop_time=stop_t,
        )


# ---------------------------------------------------------------------------
# Denominator guard and batch drifts
# ---------------------------------------------------------------------------


class _Guard:
    """Denominator floor for the singular pairwise terms.

    Two floors combine: the static level max(collision_tol^2, dt), and a
    displacement floor beta*sqrt((l_i+l_j)*dt)/(2*kick_cap) that bounds the
    one-step drift displacement of a colliding pair by ``kick_cap`` times the
    pair's one-step diffusion scale 2*sqrt((l_i+l_j)*dt).  Without the second
    floor an Euler step across a collision hurls the pair apart by
    ~beta*(l_i+l_j) regardless of dt, a kick that does not vanish under
    refinement and visibly distorts near-boundary statistics.  Both floors
    are symmetric in (i, j), so capped terms stay exactly antisymmetric and
    the drift-sum identity survives capping.
    """

    def __init__(self, beta: float, config: SimConfig):
        self.static = config.guard
        self.disp_coeff = beta * math.sqrt(config.dt) / (2.0 * config.kick_cap)

    def floor(self, pair_sum: np.ndarray) -> np.ndarray:
        return np.maximum(self.static, self.disp_coeff * np.sqrt(pair_sum))


def _clamp_a(lam: np.ndarray, eps: float) -> np.ndarray:
    # 0 at lambda <= eps/8, 1 at lambda >= eps/2.
    root_eps = math.sqrt(eps)
    return np.clip(
        (2.0 * math.sqrt(2.0) / root_eps)
        * (np.sqrt(lam) - root_eps / (2.0 * math.sqrt(2.0))),
        0.0,
        1.0,
    )


def _clamp_b(lam: np.ndarray, eps: float) -> np.ndarray:
    # 0 at lambda <= eps/4, 1 at lambda >= eps.
    root_eps = math.sqrt(eps)
    return np.clip((2.0 / root_eps) * (np.sqrt(lam) - root_eps / 2.0), 0.0, 1.0)


def _drift_a_batch(params: ModelParams, eps: float, lam: np.ndarray, floor) -> np.ndarray:
    return (
        params.kappa
        + 1.0
        - _clamp_a(lam, eps)
        - 2.0 * params.gamma * lam
        + 2.0 * params.beta * lam * interaction_sum(lam, floor, inverse=True)
    )


def _drift_b_batch(params: ModelParams, eps: float, lam: np.ndarray, floor) -> np.ndarray:
    out = np.empty_like(lam)
    lam1 = lam[0]
    m = np.minimum(lam1, eps)
    upper = lam[1:]
    den = np.maximum(upper - m, eps)
    out[0] = (
        params.kappa
        - 2.0 * params.gamma * lam1
        - 2.0 * params.beta * np.sum(m / den, axis=0)
    )
    out[1:] = (
        params.kappa
        + 1.0
        - _clamp_b(upper, eps)
        - 2.0 * params.gamma * upper
        + 2.0 * params.beta * upper * interaction_sum(upper, floor, inverse=True)
        + 2.0 * params.beta * upper / den
    )
    return out


# ---------------------------------------------------------------------------
# Batch simulation
# ---------------------------------------------------------------------------


# Compare-exchange networks (Knuth, TAOCP vol. 3, sec. 5.3.4), minimal for
# n <= 4, each with the row count from which it runs.  An exchange costs three
# whole-row passes plus call overhead, so a network beats np.sort only above a
# row count that grows with n: measured on a 2-core Xeon (numpy 2.4) on nearly
# sorted columns, as the kernel's are, about 50 rows at n = 2, 120 at n = 3
# and 250 at n = 4 (earlier, 350 at n = 5 and 1000 at n = 6).  At 5000 rows
# it is 6-30x faster for n <= 4.  Below its row count, and beyond n = 4,
# _sort_columns calls np.sort, which takes about 0.8 us at 10 rows against
# 2.5, 5.6 and 9.4 us for the networks at n = 2, 3 and 4.
#
# From _CHECK_FROM columns on, n - 1 row compares find the columns out of
# order first; most steps have none, and the rest have a few, so only those
# are sorted, by the method of the full width (a NaN column then meets the
# same exchanges, which matters to the Poisson-Gamma draw's use of the
# generator).  At n = 3 and 230 columns the sort takes 2.9 us in order
# against 6.2 us for the network, and 12.4 us with 3 columns out of order;
# in exact_first_passage 23% of the sorts from 40 columns on find one, and
# truncated_euler at 5000 rows finds about 50 per step.
_NETWORKS = {
    2: (50, ((0, 1),)),
    3: (120, ((0, 2), (0, 1), (1, 2))),
    4: (250, ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2))),
}
_CHECK_FROM = 40


def _sort_columns(x: np.ndarray) -> np.ndarray:
    """Sort every column of the (n, P) block ``x`` in place and return it.

    For n <= 4 and enough columns a fixed compare-exchange network of
    np.minimum/np.maximum on whole coordinate rows, otherwise np.sort along
    the coordinate axis; the values equal np.sort's bit for bit, up to the
    sign of a zero tied with another zero (the kernel sorts clamped states,
    which hold no -0.0).  A NaN turns both sides of every exchange it meets
    into NaN, and np.sort keeps it, so its column stays non-finite.  From
    ``_CHECK_FROM`` columns on, only the columns out of order (a NaN column
    among them) are sorted, by the method the full width picks.
    """
    n, width = x.shape
    if n < 2 or width < _CHECK_FROM:
        x.sort(axis=0)
        return x
    in_order = x[0] <= x[1]
    for i in range(1, n - 1):
        in_order &= x[i] <= x[i + 1]
    if in_order.all():
        return x
    cols = np.logical_not(in_order, out=in_order).nonzero()[0]
    sub = x.take(cols, axis=1)
    min_rows, network = _NETWORKS.get(n, (math.inf, ()))
    if width < min_rows:
        sub.sort(axis=0)
    else:
        low = np.empty_like(sub[0])
        for i, j in network:
            np.minimum(sub[i], sub[j], out=low)
            np.maximum(sub[i], sub[j], out=sub[j])
            sub[i] = low
    x[:, cols] = sub
    return x


def _make_step(params: ModelParams, config: SimConfig, path_offset: int = 0):
    """The one-step map of ``config.scheme``, built once per run.

    The map takes the (n, P) coordinate-major state in the scheme's
    coordinates, the Brownian increments in the same layout (None under
    exact_cir_splitting) and the (P,) B-mode mask (read by
    regularized_switching only), and returns the next state before the clamp
    at zero and the re-sort.  The state's columns must be ascending.
    """
    dt, eps = config.dt, config.epsilon
    guard = _Guard(params.beta, config)
    floor = guard.floor
    scheme = config.scheme
    if scheme == Scheme.TRUNCATED_EULER:

        def step(state, dw, mode_is_b):
            b = drift_lambda_batch(params, state, floor)
            return state + b * dt + 2.0 * np.sqrt(state) * dw

    elif scheme == Scheme.REGULARIZED_SWITCHING:

        def step(state, dw, mode_is_b):
            b_a = _drift_a_batch(params, eps, state, floor)
            b_b = _drift_b_batch(params, eps, state, floor)
            b = np.where(mode_is_b, b_b, b_a)
            return state + b * dt + 2.0 * np.sqrt(state) * dw

    elif scheme in (Scheme.ROOT_COORDINATES, Scheme.C_EPSILON):
        # c_epsilon's Lipschitz floor 1/(x v eps) replaces the guard's.
        x_floor = eps if scheme == Scheme.C_EPSILON else math.sqrt(guard.static)

        def step(state, dw, mode_is_b):
            return state + drift_root_batch(params, state, x_floor, floor) * dt + dw

    else:  # EXACT_CIR_SPLITTING
        gen = exact_step_stream(config.seed, path_offset)
        cir = CirParams(a=params.alpha, b=2.0 * params.gamma, sigma=2.0)
        half = 0.5 * dt

        def half_step(x):
            # x + half * (beta * S), on the fresh array S.
            out = interaction_sum(x, floor)
            out *= params.beta
            out *= half
            out += x
            return out

        def step(state, dw, mode_is_b):
            mid = half_step(state)
            mid = _sort_columns(np.maximum(mid, 0.0, out=mid))
            return half_step(_sort_columns(exact_step(cir, mid, dt, gen)))

    return step


def _stop_rules(stop_on, n: int, scheme: Scheme, eps: float) -> list[tuple[slice, float, int]]:
    """(rows of :func:`event_values`, level, stop code) of each rule that freezes a path.

    The scheme's own rule comes first, so it wins a tie: S_eps (lambda_1 <=
    eps) under c_epsilon, zeta_eps under regularized_switching.  ``stop_on``
    is ``("gap_any", level)`` or ``("psum", k, level)`` with an integer
    1 <= k <= n; anything else is a ConfigError.
    """
    rows = event_rows(n)
    psum1, zeta = rows["psum"].start, rows["zeta"]
    rules = {
        Scheme.C_EPSILON: [(slice(psum1, psum1 + 1), eps, _T_S_EPS)],
        Scheme.REGULARIZED_SWITCHING: [(slice(zeta, zeta + 1), eps, _T_ZETA)],
    }.get(scheme, [])
    if stop_on is None:
        return rules
    rule = tuple(stop_on) if isinstance(stop_on, (tuple, list)) else ()
    if len(rule) == 2 and rule[0] == "gap_any":
        return rules + [(rows["gap"], detection_level(rule[1], "stop_on level"), _T_EVENT)]
    if len(rule) == 3 and rule[0] == "psum":
        k = rule[1]
        if isinstance(k, (int, np.integer)) and not isinstance(k, bool) and 1 <= k <= n:
            row = slice(psum1 + k - 1, psum1 + k)
            return rules + [(row, detection_level(rule[2], "stop_on level"), _T_EVENT)]
    raise ConfigError(f"invalid stop_on rule {stop_on!r}")


def simulate_batch(
    params: ModelParams,
    config: SimConfig,
    *,
    path_offset: int = 0,
    initial=None,
    event_levels: Sequence[float] = (),
    record_steps: Sequence[int] = (),
    stop_on: tuple | None = None,
    noise_refine: int = 1,
) -> BatchResult:
    """Simulate a contiguous block of paths with one vectorized kernel.

    Paths ``path_offset .. path_offset + config.paths - 1`` are advanced
    together; per-path noise is identical to what any other batch
    decomposition would produce.  ``initial`` is one finite, sorted,
    nonnegative start or one per path.  ``event_levels`` enables online
    first-hit monitoring at each detection level, finite and > 0 (every
    step, independent of ``record_steps``); ``stop_on``,
    ``("gap_any", level)`` or ``("psum", k, level)``, optionally freezes a
    path at its first monitored event, t = 0 included.  The scheme's own
    stop, S_eps or zeta_eps, applies from the first step on and wins a tie
    with ``stop_on``.  ``record_steps`` lists the grid steps to keep, each
    an integer in 0..n_steps, strictly ascending; the k-th is row k of
    ``trajectories`` and ``times``, and an empty list records nothing.
    Other steps are a ConfigError before the first step, and so are a batch
    or a recording numpy cannot allocate and a run of more than
    ``MAX_STEPS`` steps.

    Each step advances only the rows still live, held packed in path order;
    a frozen row keeps its state, and the recording stays full-size.  A
    row whose lambda is not finite after a step (in root coordinates x^2
    overflows while x is finite) fails at that step with its last finite
    state, unstamped and stopped by no rule; it and the rows a rule stops
    leave the live set together, at the top of the next step.  The loop
    ends once every row is frozen.  Gaussian noise is drawn by path
    index, so the rows do not depend on which others are live;
    ``exact_cir_splitting`` draws its exact CIR variates for the live rows
    only.  Inside the loop the state is coordinate-major, (n, P); every
    array of the result is path-major, (P, ...).  The event values are
    computed once per step, and not at all with no ``event_levels``, no
    ``stop_on`` and no scheme stop.

    ``noise_refine = m`` makes each increment the normalized sum of m
    fine-grid increments, so a run at step size m*dt_fine shares a noise tree
    with the run at dt_fine: refinement studies then compare schemes on the
    same Brownian paths.
    """
    n = params.n
    p = config.paths
    scheme = config.scheme
    if scheme == Scheme.C_EPSILON and params.kappa >= 0.0:
        raise ConfigError("c_epsilon scheme requires kappa < 0")
    require_int("noise_refine", noise_refine, 1)
    if scheme == Scheme.EXACT_CIR_SPLITTING and noise_refine > 1:
        raise ConfigError(
            "noise_refine > 1 does not apply to exact_cir_splitting, "
            "which draws no Gaussian increments"
        )
    init = np.asarray(np.arange(1.0, n + 1.0) if initial is None else initial, dtype=float)
    if init.ndim == 1:
        try:
            init = np.tile(init, (p, 1))
        except ValueError:
            raise ConfigError(f"a batch of {p:.3g} paths does not fit in memory") from None
    if init.shape != (p, n):
        raise ConfigError(f"initial must broadcast to ({p}, {n})")
    if not np.isfinite(init).all():
        raise ConfigError("initial states must be finite")
    if np.any(init < 0) or np.any(np.diff(init, axis=1) < 0):
        raise ConfigError("initial states must be sorted and nonnegative")

    in_root = scheme in (Scheme.ROOT_COORDINATES, Scheme.C_EPSILON)

    def lam_of(x: np.ndarray) -> np.ndarray:
        return x**2 if in_root else x

    # Coordinate-major: row i holds coordinate i of every path.
    state = np.ascontiguousarray(init.T)
    if in_root:
        state = np.sqrt(state)

    dt = config.dt
    eps = config.epsilon
    n_steps = config.n_steps
    sqrt_dt = math.sqrt(dt)
    step_fn = _make_step(params, config, path_offset)

    stop_time = np.full(p, n_steps * dt)
    term = np.full(p, _T_HORIZON, dtype=np.int8)
    # The full-size lambda state: a frozen row is written once, when it
    # retires, and the live rows on recorded steps and at the end.
    lam_full = np.empty((n, p))

    levels = list(dict.fromkeys(detection_level(lev, "event_levels") for lev in event_levels))
    rules = _stop_rules(stop_on, n, scheme, eps)
    # Only the stop_on rule, the last, applies at the start; its level is monitored.
    start_rules = rules[-1:] if stop_on is not None else []
    levels += [level for _, level, _ in start_rules if level not in levels]
    # Pending-threshold monitors.  A hit at one level is a hit at every larger
    # level, so the levels of an (event, row) pair fire largest first, and
    # its pending threshold is the largest level not yet fired (-inf once all
    # have).  ``first`` holds the first-hit times, levels in ascending order.
    ascending = np.array(sorted(levels))
    first = np.full((len(levels), 2 * n + 1, p), np.nan)

    def observe(lam: np.ndarray, rules, t: float, done: np.ndarray | None) -> np.ndarray | None:
        """Stamp hits at t, then add the rows a rule stops to ``done``; the mask, or None."""
        values = event_values(lam)
        below = values <= pending
        crossed_any = below.any()
        if crossed_any:
            crossed = np.flatnonzero(below)
            value = values.take(crossed)
            level_col = ascending[:, None]
            fresh_level, fresh = np.nonzero(
                (value <= level_col) & (level_col <= pending.take(crossed))
            )
            kinds, cols = np.divmod(crossed[fresh], values.shape[1])
            first[fresh_level, kinds, rows[cols]] = t
            # The levels >= value have fired; the largest one below it is pending.
            below = np.searchsorted(ascending, value)
            np.put(pending, crossed, np.where(below > 0, ascending[below - 1], -math.inf))
        for which, level, code in rules:
            # stop_on's level is monitored, so a row it stops crossed a threshold.
            if code == _T_EVENT and not crossed_any:
                continue
            hit = (values[which] <= level).any(axis=0)
            if done is not None:
                hit &= ~done
            if hit.any():
                term[rows[hit]] = code
                done = hit if done is None else done | hit
        return done

    # The live rows, ascending, and their packed state, B-mode and pending
    # thresholds.  ``done`` marks the live rows frozen at the last step (or
    # at the start), and the top of the step loop retires them.
    rows = np.arange(p)
    mode = state[0] < eps  # read by regularized_switching only
    # With no levels every threshold is -inf, so nothing is stamped.
    pending = np.full((2 * n + 1, p), ascending[-1] if levels else -math.inf)
    done = observe(lam_of(state), start_rules, 0.0, None) if levels else None

    # Row k of ``traj`` is the k-th recorded step; ``next_rec`` goes to row
    # ``rec_row`` (-1 after the last).  Allocated before its steps are read
    # and before the step bound, so that a refusal names its size.
    try:
        n_rec = len(record_steps)
        traj = np.empty((p, n_rec, n)) if n_rec else None
    except TypeError:
        raise ConfigError(f"record_steps must be a sequence, got {record_steps!r}") from None
    except ValueError:
        raise ConfigError(f"a recording of {n_rec:.3g} steps does not fit in memory") from None
    rec_steps = [require_int("record_steps", s, 0) for s in record_steps]
    if any(a >= b for a, b in zip(rec_steps, rec_steps[1:] + [n_steps + 1])):
        raise ConfigError(f"record_steps must be strictly ascending steps of 0..{n_steps}")
    times = np.array(rec_steps, dtype=float) * dt if n_rec else None
    recs = iter(enumerate(rec_steps))
    rec_row, next_rec = next(recs, (n_rec, -1))
    _check_step_bound(n_steps)

    span_pick = None
    # Non-finite states are tolerated inside the loop and recorded as
    # failures; the caller's error state comes back however the loop ends.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for step in range(n_steps + 1):
            if done is not None:
                # The one retire point: the rows in ``done`` froze at t = step*dt.
                which = rows[done]
                stop_time[which] = step * dt
                lam_full[:, which] = lam_of(state[:, done])
                keep = ~done
                rows, state, mode, pending = (
                    x.compress(keep, axis=-1) for x in (rows, state, mode, pending)
                )
                done = None
                # Gaussian noise is drawn over the span of paths rows[0] ..
                # rows[-1], whose rows equal those of any other draw covering
                # the same paths; ``span_pick`` picks the live rows out of it.
                gappy = rows.size and rows[-1] - rows[0] >= rows.size
                span_pick = rows - rows[0] if gappy else None
            if step == next_rec:
                lam_full[:, rows] = lam_of(state)
                traj[:, rec_row, :] = lam_full.T
                rec_row, next_rec = next(recs, (n_rec, -1))
            if step == n_steps or rows.size == 0:
                break
            dw = None
            if scheme != Scheme.EXACT_CIR_SPLITTING:
                first_path = path_offset + int(rows[0])
                span = int(rows[-1] - rows[0]) + 1
                # Coordinate-major from the draw on: (n, span).
                fine = step * noise_refine
                dw = step_normals(config.seed, fine, first_path, span, n, out=np.empty((n, span)))
                for u in range(1, noise_refine):
                    dw += step_normals(config.seed, fine + u, first_path, span, n).T
                if noise_refine > 1:
                    dw /= math.sqrt(noise_refine)
                if span_pick is not None:
                    dw = dw.take(span_pick, axis=1)
                dw *= sqrt_dt

            # ``cur`` keeps the pre-step state alive through the next step's
            # noise draw, so that the next step's temporaries reuse its
            # memory.  Freed any earlier, at 5000 rows the glibc heap shrinks
            # and regrows on every step (about 90 page faults per step,
            # measured with getrusage).
            cur = state
            state = step_fn(cur, dw, mode)
            state = _sort_columns(np.maximum(state, 0.0, out=state))
            # lambda, not the root state x, must be finite: x^2 overflows first.
            lam = lam_of(state)
            if not np.isfinite(lam).all():
                # A failed row keeps its last finite state.  Its event values
                # are then those it was last observed at, which cross no
                # pending threshold, and the rules skip the rows in ``done``.
                done = ~np.isfinite(lam).all(axis=0)
                state[:, done] = cur[:, done]
                lam = lam_of(state)
                term[rows[done]] = _T_FAIL
            if rules or levels:
                done = observe(lam, rules, (step + 1) * dt, done)
            if scheme == Scheme.REGULARIZED_SWITCHING:
                # A -> B at lambda_1 <= eps/2, B -> A at lambda_1 >= eps.
                mode = np.where(mode, state[0] < eps, state[0] <= eps / 2.0)

    lam_full[:, rows] = lam_of(state)
    if traj is not None:
        traj[:, rec_row:, :] = lam_full.T[:, None, :]

    monitors = {}
    for lev in levels:
        at = first[np.searchsorted(ascending, lev)]
        monitors[lev] = {kind: at[row].T.copy() for kind, row in event_rows(n).items()}
    return BatchResult(
        params=params,
        config=config,
        path_offset=path_offset,
        n_paths=p,
        final_lambda=lam_full.T.copy(),
        stop_time=stop_time,
        terminated_code=term,
        monitors=monitors,
        times=times,
        trajectories=traj,
    )


def simulate_path(
    params: ModelParams,
    config: SimConfig,
    path_index: int,
    initial=None,
):
    """Simulate one path; returns (PathRecord, list[Event]).

    Deterministic given (seed, path_index, config).  The path is a one-row
    batch at offset ``path_index`` that records every step, monitored at
    ``collision_tol`` and cut by :meth:`BatchResult.path_record` at the
    scheme's stop time when a stopping rule fires.  Its events are
    :func:`events.detect_events`'s row.
    """
    from .events import detect_events

    res = simulate_batch(
        params,
        dataclasses.replace(config, paths=1),
        path_offset=path_index,
        initial=initial,
        record_steps=range(config.n_steps + 1),
        event_levels=[config.collision_tol],
    )
    return res.path_record(0), detect_events(res, config.collision_tol)[0]


def contraction_curve(
    params: ModelParams,
    config: SimConfig,
    initial_a,
    initial_b,
    probe_times: Sequence[float],
):
    """Mean L1 gap E sum_i |lambda_i - lambda~_i| at probe times, with stderr.

    Both systems use the same parameters and shared noise; only the starting
    points differ.  The probes are checked by :func:`probe_steps`: at least
    one, each a grid time k*dt of the run with 0 <= k <= n_steps, else
    ConfigError.  Both batches record the probe steps only.  Returns
    {probe_time: StatSummary}.
    """
    from .stats import moment_summary

    steps = probe_steps(probe_times, config.dt, 0, config.n_steps)
    recorded = sorted(set(steps.values()))
    res_a = simulate_batch(params, config, initial=initial_a, record_steps=recorded)
    res_b = simulate_batch(params, config, initial=initial_b, record_steps=recorded)
    out = {}
    for t, s in steps.items():
        row = recorded.index(s)
        gap = np.abs(res_a.trajectories[:, row] - res_b.trajectories[:, row]).sum(axis=1)
        out[t] = moment_summary(gap, name=f"mean_l1_gap(t={t:g})")
    return out


def simulate_coupled_cir(
    cir_a,
    cir_b,
    r0_a: float,
    r0_b: float,
    dt: float,
    horizon: float,
    seed: int,
    n_paths: int,
) -> dict:
    """Coupled scalar CIR runs sharing one Brownian motion (n = 1 kernel).

    Full-truncation Euler for dr = (a - b r) dt + sigma sqrt(r) dW on both
    processes with the identical dW.  Tracks how often the ordering
    r_a >= r_b is violated at any step, for the pathwise-comparison check
    (larger constant drift should stay on top).  A run of more than
    ``MAX_STEPS`` steps, an ``n_paths`` or ``seed`` that is not an integer,
    no path or a start that is not finite and >= 0 is a ConfigError before
    the first step.
    """
    n_steps = grid_step(horizon, dt, "horizon")
    if n_steps < 1:
        raise ConfigError(f"horizon must be positive, got {horizon}")
    _check_step_bound(n_steps)
    n_paths = require_int("n_paths", n_paths, 1)
    require_int("seed", seed)
    for name, r0 in (("r0_a", r0_a), ("r0_b", r0_b)):
        if not (math.isfinite(r0) and r0 >= 0.0):
            raise ConfigError(f"{name} must be finite and >= 0, got {r0}")
    sqrt_dt = math.sqrt(dt)
    ra = np.full(n_paths, float(r0_a))
    rb = np.full(n_paths, float(r0_b))
    violations = 0
    min_margin = math.inf
    for step in range(n_steps):
        z = step_normals(seed, step, 0, n_paths, 1)[:, 0]
        dw = sqrt_dt * z
        ra = np.maximum(
            ra + (cir_a.a - cir_a.b * ra) * dt + cir_a.sigma * np.sqrt(ra) * dw, 0.0
        )
        rb = np.maximum(
            rb + (cir_b.a - cir_b.b * rb) * dt + cir_b.sigma * np.sqrt(rb) * dw, 0.0
        )
        margin = ra - rb
        violations += int(np.count_nonzero(margin < 0.0))
        min_margin = min(min_margin, float(margin.min()))
    return {
        "final_a": ra,
        "final_b": rb,
        "ordering_violations": violations,
        "min_margin": min_margin,
        "n_steps": n_steps,
    }

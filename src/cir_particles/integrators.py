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
    A -> B when lambda_1 <= eps/2 and B -> A when lambda_1 >= eps, and the
    simulation stops at the joint event lambda_1 <= eps and
    lambda_2 - lambda_1 <= eps.

``root_coordinates``
    Euler in x = sqrt(lambda) coordinates with unit diffusion.

``c_epsilon``
    The kappa < 0 scheme in root coordinates, with the Lipschitz floor
    1/(x v eps) on the inward drift; stops when x_1 <= sqrt(eps)
    (i.e. lambda_1 <= eps).

``exact_cir_splitting``
    Strang splitting: half a step of the guarded interaction drift, one
    exact CIR transition per coordinate (constant drift alpha, reversion
    2*gamma, diffusion scale 2), then the second interaction half-step.
    The CIR factor reproduces the zero-boundary behaviour exactly (no
    Euler overshoot through the origin), and because independent
    noncentral chi-squares with a common scale add, the coordinate sum is
    advanced by the exact sum-CIR transition up to the interaction terms,
    which cancel in the sum.  For alpha >= 1 the transition is drawn as a
    shifted squared normal plus a central chi-square
    (:func:`cir_particles.cirprocess.exact_step_decomposed`), below that as a
    Poisson mixture of Gammas.  Its variates come from one generator per
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
of :func:`cir_particles.model.interaction_sum`, the event values, the
non-finite check and the stopping rules all read whole rows.  Every array of
the :class:`BatchResult` is path-major, (P, ...).  Each step re-sorts the
columns once with :func:`_sort_columns` (the splitting step three times).
The exact CIR factor is drawn on the coordinate-major state, coordinate row
by coordinate row.  The online event monitors read
:func:`cir_particles.events.event_values`, one row per event, and keep one
pending threshold per (event, path): the largest detection level that has
not fired yet.  A step compares the values with the thresholds once, and
only the entries that crossed are stamped.

:func:`simulate_batch` steps only the live rows.  Their state, B-mode and
pending thresholds are held packed, in ascending path order, and compacted
on the steps where a row freezes.  A row frozen by a stopping rule, by
``stop_on`` or by a non-finite step keeps its state and draws no further
noise.  For the Gaussian schemes every number is the same as if all rows
were stepped to the end.  Under ``exact_cir_splitting`` the batch stream
feeds only the live rows, in path order, so its draws depend on when rows
freeze; a rerun of the same inputs still reproduces them bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .cirprocess import CirParams, exact_step_decomposed
from .errors import ConfigError
from .events import event_rows, event_values
from .model import ModelParams, interaction_sum
from .randomness import exact_step_stream, step_normals

__all__ = [
    "BatchResult",
    "PathRecord",
    "Scheme",
    "SimConfig",
    "Terminated",
    "contraction_curve",
    "grid_step",
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
    record_stride: int = 1
    kick_cap: float = 1.0

    def __post_init__(self) -> None:
        for name in ("dt", "horizon", "epsilon", "collision_tol", "kick_cap"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.dt <= 0:
            raise ConfigError(f"dt must be > 0, got {self.dt}")
        if self.horizon <= self.dt:
            raise ConfigError(f"horizon must exceed dt, got {self.horizon}")
        grid_step(self.horizon, self.dt, "horizon")
        if self.epsilon is None:
            object.__setattr__(self, "epsilon", 10.0 * math.sqrt(self.dt))
        if self.epsilon <= 0:
            raise ConfigError(f"epsilon must be > 0, got {self.epsilon}")
        if self.collision_tol <= 0:
            raise ConfigError(f"collision_tol must be > 0, got {self.collision_tol}")
        if self.paths < 1:
            raise ConfigError(f"paths must be >= 1, got {self.paths}")
        if self.record_stride < 1:
            raise ConfigError(f"record_stride must be >= 1, got {self.record_stride}")
        if self.kick_cap <= 0:
            raise ConfigError(f"kick_cap must be > 0, got {self.kick_cap}")
        if not isinstance(self.scheme, Scheme):
            object.__setattr__(self, "scheme", Scheme(self.scheme))

    @property
    def n_steps(self) -> int:
        return grid_step(self.horizon, self.dt, "horizon")

    @property
    def guard(self) -> float:
        """Static magnitude floor for interaction denominators."""
        return max(self.collision_tol**2, self.dt)


def grid_step(t: float, dt: float, what: str) -> int:
    """Index k of the grid time k*dt equal to t; ConfigError when t is off the grid."""
    steps = t / dt
    if not math.isfinite(steps) or abs(steps - round(steps)) > 1e-9:
        raise ConfigError(f"{what} t={t:g} is not a multiple of dt={dt:g}")
    return int(round(steps))


@dataclass
class PathRecord:
    """One sampled trajectory in lambda coordinates."""

    params: ModelParams
    config: SimConfig
    path_index: int
    times: np.ndarray
    lambdas: np.ndarray
    terminated: Terminated
    stop_time: float
    switches: list[tuple[float, str]] = field(default_factory=list)


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
    snapshots: dict[float, np.ndarray] = field(default_factory=dict)
    switch_log: list[list[tuple[float, str]]] | None = None

    def terminated(self, i: int) -> Terminated:
        return _CODE_TO_TERMINATED[int(self.terminated_code[i])]

    def path_record(self, i: int) -> PathRecord:
        """Row ``i`` of a recorded batch, its trajectory cut at its stop time."""
        if self.trajectories is None:
            raise ConfigError("path_record needs a batch run with record=True")
        stop_t = float(self.stop_time[i])
        keep = self.times <= stop_t + 0.5 * self.config.dt
        return PathRecord(
            params=self.params,
            config=self.config,
            path_index=self.path_offset + i,
            times=self.times[keep],
            lambdas=self.trajectories[i][keep],
            terminated=self.terminated(i),
            stop_time=stop_t,
            switches=self.switch_log[i] if self.switch_log else [],
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


def _drift_root_batch(
    params: ModelParams, x: np.ndarray, x_floor: float, floor
) -> np.ndarray:
    """Root-coordinate drift; ``x_floor`` bounds the 1/x term from below."""
    inv = interaction_sum(x * x, floor, inverse=True)
    return (
        (params.kappa - 1.0) / (2.0 * np.maximum(x, x_floor))
        - params.gamma * x
        + params.beta * x * inv
    )


# ---------------------------------------------------------------------------
# Batch simulation
# ---------------------------------------------------------------------------


# Compare-exchange networks (Knuth, TAOCP vol. 3, sec. 5.3.4), minimal for
# n <= 4.  An exchange costs three whole-row passes plus call overhead, so a
# network beats np.sort only above a row count that grows with n: measured on
# a 2-core Xeon (numpy 2.4), about 20 rows at n = 2, 200 at n = 3, 250 at
# n = 4, 350 at n = 5 and 1000 at n = 6.  At 5000 rows it is 6-30x faster for
# n <= 4.  Beyond n = 4 _sort_columns calls np.sort.
_NETWORKS = {
    2: ((0, 1),),
    3: ((0, 2), (0, 1), (1, 2)),
    4: ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2)),
}


def _sort_columns(x: np.ndarray) -> np.ndarray:
    """Sort every column of the (n, P) block ``x`` in place and return it.

    For n <= 4 a fixed compare-exchange network of np.minimum/np.maximum on
    whole coordinate rows, otherwise np.sort along the coordinate axis; the
    values equal np.sort's bit for bit.  A NaN turns both sides of every
    exchange it meets into NaN, so its column stays non-finite.
    """
    network = _NETWORKS.get(x.shape[0])
    if network is None:
        x.sort(axis=0)
        return x
    low = np.empty_like(x[0])
    for i, j in network:
        np.minimum(x[i], x[j], out=low)
        np.maximum(x[i], x[j], out=x[j])
        x[i] = low
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
            b = (
                params.alpha
                - 2.0 * params.gamma * state
                + params.beta * interaction_sum(state, floor)
            )
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
            return state + _drift_root_batch(params, state, x_floor, floor) * dt + dw

    else:  # EXACT_CIR_SPLITTING
        gen = exact_step_stream(config.seed, path_offset)
        cir = CirParams(a=params.alpha, b=2.0 * params.gamma, sigma=2.0)
        half = 0.5 * dt

        def step(state, dw, mode_is_b):
            mid = state + half * (params.beta * interaction_sum(state, floor))
            mid = _sort_columns(np.maximum(mid, 0.0))
            moved = _sort_columns(exact_step_decomposed(cir, mid, dt, gen))
            return moved + half * (params.beta * interaction_sum(moved, floor))

    return step


def _default_initial(params: ModelParams) -> np.ndarray:
    return np.arange(1.0, params.n + 1.0)


def _span_pick(rows: np.ndarray) -> np.ndarray | None:
    """Positions of the sorted ``rows`` in the span rows[0] .. rows[-1], None if it has no gaps."""
    if rows.size == 0 or rows[-1] - rows[0] + 1 == rows.size:
        return None
    return rows - rows[0]


def _level(value, what: str) -> float:
    """``value`` as a detection level; ConfigError unless it is finite and > 0."""
    try:
        level = float(value)
    except (TypeError, ValueError):
        level = math.nan
    if not (math.isfinite(level) and level > 0.0):
        raise ConfigError(f"{what} must be finite and > 0, got {value!r}")
    return level


def _stop_rule(stop_on, n: int) -> tuple[float, slice]:
    """(level, rows of :func:`event_values`) whose first hit freezes a path under stop_on.

    The rules are ``("gap_any", level)`` and ``("psum", k, level)`` with an
    integer 1 <= k <= n; anything else is a ConfigError.
    """
    rule = tuple(stop_on) if isinstance(stop_on, (tuple, list)) else ()
    if len(rule) == 2 and rule[0] == "gap_any":
        return _level(rule[1], "stop_on level"), event_rows(n)["gap"]
    if len(rule) == 3 and rule[0] == "psum":
        k = rule[1]
        if isinstance(k, (int, np.integer)) and not isinstance(k, bool) and 1 <= k <= n:
            row = event_rows(n)["psum"].start + k - 1
            return _level(rule[2], "stop_on level"), slice(row, row + 1)
    raise ConfigError(f"invalid stop_on rule {stop_on!r}")


def simulate_batch(
    params: ModelParams,
    config: SimConfig,
    *,
    n_paths: int | None = None,
    path_offset: int = 0,
    initial=None,
    event_levels: Sequence[float] = (),
    record: bool = False,
    snapshot_times: Sequence[float] = (),
    stop_on: tuple | None = None,
    track_switches: bool = False,
    noise_refine: int = 1,
) -> BatchResult:
    """Simulate a contiguous block of paths with one vectorized kernel.

    Paths ``path_offset .. path_offset + n_paths - 1`` are advanced together;
    per-path noise is identical to what any other batch decomposition would
    produce.  ``initial`` is one finite, sorted, nonnegative start or one per
    path.  ``event_levels`` enables online first-hit monitoring at each
    detection level, finite and > 0 (every step, independent of
    ``record_stride``); ``stop_on``, ``("gap_any", level)`` or
    ``("psum", k, level)``, optionally freezes a path at its first monitored
    event.
    ``snapshot_times`` must be grid times k*dt of the run, 0 <= k <= n_steps.

    Each step advances only the rows still live, held packed in path order;
    a frozen row keeps its state, and recording and snapshots stay
    full-size.  The loop ends once every row is frozen.  Gaussian noise is
    drawn by path index, so the rows do not depend on which others are
    live; ``exact_cir_splitting`` draws its exact CIR variates for the live
    rows only.  Inside the loop the state is coordinate-major, (n, P);
    every array of the result is path-major, (P, ...).  With no
    ``event_levels`` and no ``stop_on`` no event value is computed.

    ``noise_refine = m`` makes each increment the normalized sum of m
    fine-grid increments, so a run at step size m*dt_fine shares a noise tree
    with the run at dt_fine: refinement studies then compare schemes on the
    same Brownian paths.
    """
    n = params.n
    p = config.paths if n_paths is None else n_paths
    scheme = config.scheme
    if scheme == Scheme.C_EPSILON and params.kappa >= 0.0:
        raise ConfigError("c_epsilon scheme requires kappa < 0")
    if not isinstance(noise_refine, (int, np.integer)) or noise_refine < 1:
        raise ConfigError(f"noise_refine must be an int >= 1, got {noise_refine!r}")
    if scheme == Scheme.EXACT_CIR_SPLITTING and noise_refine > 1:
        raise ConfigError(
            "noise_refine > 1 does not apply to exact_cir_splitting, "
            "which draws no Gaussian increments"
        )
    init = np.asarray(
        _default_initial(params) if initial is None else initial, dtype=float
    )
    if init.ndim == 1:
        init = np.tile(init, (p, 1))
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
    switch_log: list[list[tuple[float, str]]] | None = None
    if track_switches:
        switch_log = [[] for _ in range(p)]

    levels = list(dict.fromkeys(_level(lev, "event_levels") for lev in event_levels))
    if stop_on is not None:
        stop_level, stop_rows = _stop_rule(stop_on, n)
        if stop_level not in levels:
            levels.append(stop_level)
    # Pending-threshold monitors.  A hit at one level is a hit at every larger
    # level, so the levels of an (event, row) pair fire largest first, and
    # its pending threshold is the largest level not yet fired (-inf once all
    # have).  ``first`` holds the first-hit times, levels in ascending order.
    ascending = np.array(sorted(levels))
    first = np.full((len(levels), 2 * n + 1, p), np.nan)

    def monitor(lam: np.ndarray, t: float):
        """Stamp t on the pending levels the live rows reached; their stop_on hits.

        ``lam`` holds the live rows, and their thresholds in ``pending`` are
        lowered in place.  Returns the (R,) stop_on mask, or None when no
        pending threshold was crossed (then no row meets its stop rule).
        """
        values = event_values(lam)
        crossed = np.flatnonzero(values <= pending)
        if not crossed.size:
            return None
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
        if stop_on is None:
            return None
        return (values[stop_rows] <= stop_level).any(axis=0)

    # The full-size lambda state, allocated at the first write-back, so a
    # run that freezes no row and records nothing holds no copy while it
    # steps.  A frozen row is written once, when it freezes; the live rows
    # on recorded and snapshot steps and at the end.
    lam_full = None

    def write_back(which: np.ndarray, lam: np.ndarray) -> np.ndarray:
        nonlocal lam_full
        if lam_full is None:
            lam_full = np.empty((n, p))
        lam_full[:, which] = lam
        return lam_full

    def synced() -> np.ndarray:
        """The full-size lambda state, with the live rows written in."""
        return write_back(rows, lam_of(state))

    def freeze(mask: np.ndarray, code: int, t: float, lam: np.ndarray) -> None:
        """Freeze the live ``rows[mask]`` at t with lambda state ``lam[:, mask]``."""
        which = rows[mask]
        term[which] = code
        stop_time[which] = t
        write_back(which, lam[:, mask])

    def pack(keep: np.ndarray, *arrays: np.ndarray) -> list[np.ndarray]:
        """The columns ``keep`` of each array, C-contiguous so that rows stay contiguous."""
        return [x.compress(keep, axis=-1) for x in arrays]

    # The live rows, ascending, and their packed state, B-mode and pending
    # thresholds.  They are compacted only on a step where a row freezes.
    rows = np.arange(p)
    if scheme == Scheme.REGULARIZED_SWITCHING:
        mode = state[0] < eps
    else:
        mode = np.zeros(p, dtype=bool)
    pending = np.empty((0, p))
    if levels:
        pending = np.full((2 * n + 1, p), ascending[-1])
        lam = lam_of(state)
        hit = monitor(lam, 0.0)
        if hit is not None and hit.any():
            freeze(hit, _T_EVENT, 0.0, lam)
            rows, state, mode, pending = pack(~hit, rows, state, mode, pending)

    rec_steps = None
    times = None
    traj = None
    rec_pos: dict[int, int] = {}
    if record:
        rec_steps = sorted(set(range(0, n_steps + 1, config.record_stride)) | {n_steps})
        times = np.asarray(rec_steps, dtype=float) * dt
        traj = np.empty((p, len(rec_steps), n))
        traj[:, 0, :] = synced().T
        rec_pos = {s: i for i, s in enumerate(rec_steps)}

    snap_steps: dict[int, list[float]] = {}
    for t in snapshot_times:
        s = grid_step(t, dt, "snapshot time")
        if not 0 <= s <= n_steps:
            raise ConfigError(f"snapshot time t={t:g} is outside [0, {n_steps * dt:g}]")
        snap_steps.setdefault(s, []).append(float(t))
    snapshots: dict[float, np.ndarray] = {}
    for t in snap_steps.get(0, ()):
        snapshots[t] = synced().T.copy()

    # Gaussian noise is drawn over the span of paths rows[0] .. rows[-1],
    # whose rows equal those of any other draw covering the same paths, and
    # ``span_pick`` picks the live rows out of it.
    span_pick = _span_pick(rows)
    for step in range(n_steps):
        if rows.size == 0:
            full = synced()
            for s in rec_steps or ():
                if s > step:
                    traj[:, rec_pos[s], :] = full.T
            for s, probes in snap_steps.items():
                if s > step:
                    for t in probes:
                        snapshots[t] = full.T.copy()
            break
        dw = None
        if scheme != Scheme.EXACT_CIR_SPLITTING:
            first_path = path_offset + int(rows[0])
            span = int(rows[-1] - rows[0]) + 1
            z = step_normals(config.seed, step * noise_refine, first_path, span, n)
            for u in range(1, noise_refine):
                z += step_normals(config.seed, step * noise_refine + u, first_path, span, n)
            if noise_refine > 1:
                z /= math.sqrt(noise_refine)
            z = z.T if span_pick is None else z[span_pick].T
            dw = np.multiply(sqrt_dt, z, order="C")
        t_next = (step + 1) * dt

        # ``cur`` keeps the pre-step state alive through the next step's noise
        # draw, so that the next step's temporaries reuse its memory.  Freed
        # any earlier, at 5000 rows the glibc heap shrinks and regrows on
        # every step (about 90 page faults per step, measured with getrusage).
        cur = state
        # Non-finite states are tolerated here and recorded as failures below.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            new = _sort_columns(np.maximum(step_fn(cur, dw, mode), 0.0))

        # A failed row keeps its last finite state and sees no monitor.
        ok = np.isfinite(new).all(axis=0)
        if not ok.all():
            freeze(~ok, _T_FAIL, t_next, lam_of(cur))
            rows, new, mode, pending = pack(ok, rows, new, mode, pending)
            span_pick = _span_pick(rows)
        state = new
        lam = lam_of(new)
        hit = monitor(lam, t_next) if levels else None

        done = None
        if scheme == Scheme.REGULARIZED_SWITCHING:
            lam1 = new[0]
            halt = (lam1 <= eps) & (new[1] - lam1 <= eps)
            if halt.any():
                freeze(halt, _T_ZETA, t_next, lam)
                done = halt
            moving = ~halt
            to_b = moving & ~mode & (lam1 <= eps / 2.0)
            to_a = moving & mode & (lam1 >= eps)
            if track_switches:
                for i in rows[to_b]:
                    switch_log[i].append((t_next, "B"))
                for i in rows[to_a]:
                    switch_log[i].append((t_next, "A"))
            mode[to_b] = True
            mode[to_a] = False
        elif scheme == Scheme.C_EPSILON:
            s_eps = new[0] <= math.sqrt(eps)
            if s_eps.any():
                freeze(s_eps, _T_S_EPS, t_next, lam)
                done = s_eps

        if hit is not None:
            if done is not None:
                hit &= ~done
            if hit.any():
                freeze(hit, _T_EVENT, t_next, lam)
                done = hit if done is None else done | hit
        if done is not None:
            rows, state, mode, pending = pack(~done, rows, state, mode, pending)
            span_pick = _span_pick(rows)

        rec = rec_pos.get(step + 1)
        probes = snap_steps.get(step + 1, ())
        if rec is not None or probes:
            full = synced()
            if rec is not None:
                traj[:, rec, :] = full.T
            for t in probes:
                snapshots[t] = full.T.copy()

    monitors = {}
    for lev in levels:
        at = first[np.searchsorted(ascending, lev)]
        monitors[lev] = {kind: at[row].T.copy() for kind, row in event_rows(n).items()}
    return BatchResult(
        params=params,
        config=config,
        path_offset=path_offset,
        n_paths=p,
        final_lambda=synced().T.copy(),
        stop_time=stop_time,
        terminated_code=term,
        monitors=monitors,
        times=times,
        trajectories=traj,
        snapshots=snapshots,
        switch_log=switch_log,
    )


def simulate_path(
    params: ModelParams,
    config: SimConfig,
    path_index: int,
    initial=None,
):
    """Simulate one path; returns (PathRecord, EventLog).

    Deterministic given (seed, path_index, config).  The path is a one-row
    recorded batch at offset ``path_index``, cut by
    :meth:`BatchResult.path_record`: recorded every ``record_stride`` steps
    and truncated at the scheme's stop time when a stopping rule fires.
    Event detection at ``collision_tol`` is delegated to the collision
    detector.
    """
    from .events import detect_events

    record = simulate_batch(
        params,
        config,
        n_paths=1,
        path_offset=path_index,
        initial=initial,
        record=True,
        track_switches=config.scheme == Scheme.REGULARIZED_SWITCHING,
    ).path_record(0)
    return record, detect_events(record, config.collision_tol)


def contraction_curve(
    params: ModelParams,
    config: SimConfig,
    initial_a,
    initial_b,
    probe_times: Sequence[float],
    n_paths: int | None = None,
):
    """Mean L1 gap E sum_i |lambda_i - lambda~_i| at probe times, with stderr.

    Both systems use the same parameters and shared noise; only the starting
    points differ.  Returns {probe_time: StatSummary}.
    """
    from .stats import moment_summary

    res_a = simulate_batch(
        params, config, n_paths=n_paths, initial=initial_a, snapshot_times=probe_times
    )
    res_b = simulate_batch(
        params, config, n_paths=n_paths, initial=initial_b, snapshot_times=probe_times
    )
    out = {}
    for t in probe_times:
        gap = np.abs(res_a.snapshots[t] - res_b.snapshots[t]).sum(axis=1)
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
    path_offset: int = 0,
) -> dict:
    """Coupled scalar CIR runs sharing one Brownian motion (n = 1 kernel).

    Full-truncation Euler for dr = (a - b r) dt + sigma sqrt(r) dW on both
    processes with the identical dW.  Tracks how often the ordering
    r_a >= r_b is violated at any step, for the pathwise-comparison check
    (larger constant drift should stay on top).
    """
    n_steps = grid_step(horizon, dt, "horizon")
    if n_steps < 1:
        raise ConfigError(f"horizon must be positive, got {horizon}")
    sqrt_dt = math.sqrt(dt)
    ra = np.full(n_paths, float(r0_a))
    rb = np.full(n_paths, float(r0_b))
    violations = 0
    min_margin = math.inf
    for step in range(n_steps):
        z = step_normals(seed, step, path_offset, n_paths, 1)[:, 0]
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

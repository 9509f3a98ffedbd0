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
of :func:`cir_particles.model.interaction_sum`, the event conditions, the
non-finite check and the stopping rules all read whole rows.  Every array of
the :class:`BatchResult` is path-major, (P, ...).  Each step re-sorts the
columns once with :func:`_sort_columns` (the splitting step three times).
The exact CIR factor is drawn on the coordinate-major state, coordinate row
by coordinate row.  The online event monitors stack their detection levels
on a leading axis, so one pass per event kind covers every level.

:func:`simulate_batch` steps only the live rows.  A row frozen by a stopping
rule, by ``stop_on`` or by a non-finite step keeps its state and draws no
further noise.  For the Gaussian schemes every number is the same as if all
rows were stepped to the end.  Under
``exact_cir_splitting`` the batch stream feeds only the live rows, so its
draws depend on when rows freeze; a rerun of the same inputs still
reproduces them bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .cirprocess import CirParams, exact_step_decomposed
from .errors import ConfigError
from .events import event_conditions
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


def _new_monitor(m: int, p: int, n: int) -> dict[str, np.ndarray]:
    """First-hit times at m levels, level-major then coordinate-major.

    ``gap`` is (m, n-1, P), ``psum`` (m, n, P), ``zeta`` and ``double`` (m, P).
    """
    return {
        "gap": np.full((m, n - 1, p), np.nan),
        "psum": np.full((m, n, p), np.nan),
        "zeta": np.full((m, p), np.nan),
        "double": np.full((m, p), np.nan),
    }


def _update_monitors(
    mon: dict, levels: np.ndarray, lam: np.ndarray, rows: np.ndarray | None, t: float
) -> None:
    """Stamp t on the events first seen in ``lam`` at any of ``levels``.

    The columns of ``lam`` are the batch rows ``rows`` (None: all of them).
    """
    if not levels.size:
        return
    for kind, cond in event_conditions(lam, levels).items():
        if not cond.any():
            continue
        first = mon[kind]
        seen = first if rows is None else first[..., rows]
        hit = cond & np.isnan(seen)
        if hit.any():
            seen[hit] = t
            if rows is not None:
                first[..., rows] = seen


def _level(value, what: str) -> float:
    """``value`` as a detection level; ConfigError unless it is finite and > 0."""
    try:
        level = float(value)
    except (TypeError, ValueError):
        level = math.nan
    if not (math.isfinite(level) and level > 0.0):
        raise ConfigError(f"{what} must be finite and > 0, got {value!r}")
    return level


def _stop_monitor(stop_on, n: int) -> tuple[float, str, slice]:
    """(level, monitor kind, monitor rows) whose first hit freezes a path under stop_on.

    The rules are ``("gap_any", level)`` and ``("psum", k, level)`` with an
    integer 1 <= k <= n; anything else is a ConfigError.
    """
    rule = tuple(stop_on) if isinstance(stop_on, (tuple, list)) else ()
    if len(rule) == 2 and rule[0] == "gap_any":
        return _level(rule[1], "stop_on level"), "gap", slice(None)
    if len(rule) == 3 and rule[0] == "psum":
        k = rule[1]
        if isinstance(k, (int, np.integer)) and not isinstance(k, bool) and 1 <= k <= n:
            return _level(rule[2], "stop_on level"), "psum", slice(k - 1, k)
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

    Each step advances only the rows still live; a frozen row keeps its
    state, and recording and snapshots stay full-size.  The loop ends once
    every row is frozen.  Gaussian noise is drawn by path index, so the rows
    do not depend on which others are live; ``exact_cir_splitting`` draws
    its exact CIR variates for the live rows only.  Inside the loop
    the state is coordinate-major, (n, P); every array of the result is
    path-major, (P, ...).

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
    # Coordinate-major: row i holds coordinate i of every path.
    state = np.ascontiguousarray(init.T)
    if in_root:
        state = np.sqrt(state)
    lam_view = state**2 if in_root else state

    dt = config.dt
    eps = config.epsilon
    n_steps = config.n_steps
    sqrt_dt = math.sqrt(dt)
    step_fn = _make_step(params, config, path_offset)

    active = np.ones(p, dtype=bool)
    stop_time = np.full(p, n_steps * dt)
    term = np.full(p, _T_HORIZON, dtype=np.int8)

    def freeze(which: np.ndarray, code: int, t: float) -> None:
        term[which] = code
        stop_time[which] = t
        active[which] = False

    def live_rows() -> tuple[np.ndarray, np.ndarray | None]:
        """The live rows, and their positions in the span rows[0] .. rows[-1] if it has gaps."""
        rows = np.flatnonzero(active)
        if rows.size == 0 or rows[-1] - rows[0] + 1 == rows.size:
            return rows, None
        return rows, rows - rows[0]

    if scheme == Scheme.REGULARIZED_SWITCHING:
        mode_is_b = state[0] < eps
    else:
        mode_is_b = np.zeros(p, dtype=bool)
    switch_log: list[list[tuple[float, str]]] | None = None
    if track_switches:
        switch_log = [[] for _ in range(p)]

    levels = list(dict.fromkeys(_level(lev, "event_levels") for lev in event_levels))
    if stop_on is not None:
        stop_level, stop_kind, stop_cols = _stop_monitor(stop_on, n)
        if stop_level not in levels:
            levels.append(stop_level)
    level_axis = np.array(levels)
    mon = _new_monitor(len(levels), p, n)
    _update_monitors(mon, level_axis, lam_view, None, 0.0)
    if stop_on is not None:
        # A view: first-hit times of the stopping event, updated in place.
        stop_first = mon[stop_kind][levels.index(stop_level), stop_cols]
        freeze(np.flatnonzero(np.isfinite(stop_first).any(axis=0)), _T_EVENT, 0.0)

    rec_steps = None
    times = None
    traj = None
    if record:
        rec_steps = sorted(set(range(0, n_steps + 1, config.record_stride)) | {n_steps})
        times = np.asarray(rec_steps, dtype=float) * dt
        traj = np.empty((p, len(rec_steps), n))
        traj[:, 0, :] = lam_view.T
        rec_pos = {s: i for i, s in enumerate(rec_steps)}

    snap_steps: dict[int, list[float]] = {}
    for t in snapshot_times:
        s = grid_step(t, dt, "snapshot time")
        if not 0 <= s <= n_steps:
            raise ConfigError(f"snapshot time t={t:g} is outside [0, {n_steps * dt:g}]")
        snap_steps.setdefault(s, []).append(float(t))
    snapshots: dict[float, np.ndarray] = {}
    for t in snap_steps.get(0, ()):
        snapshots[t] = lam_view.T.copy()

    # Only the live rows are stepped.  ``rows`` changes only when a row
    # freezes; while every row is live the step needs no gather or scatter.
    # Gaussian noise is drawn over the span of paths rows[0] .. rows[-1],
    # whose rows equal those of any other draw covering the same paths.
    rows, span_pick = live_rows()
    for step in range(n_steps):
        if rows.size == 0:
            if record:
                for s in rec_steps:
                    if s > step:
                        traj[:, rec_pos[s], :] = lam_view.T
            for s, probes in snap_steps.items():
                if s > step:
                    for t in probes:
                        snapshots[t] = lam_view.T.copy()
            break
        every = rows.size == p
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

        # Non-finite states are tolerated here and recorded as failures below.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            cur, mode = (state, mode_is_b) if every else (state[:, rows], mode_is_b[rows])
            new = _sort_columns(np.maximum(step_fn(cur, dw, mode), 0.0))

        live = rows
        ok = np.isfinite(new).all(axis=0)
        froze = not ok.all()
        if froze:
            freeze(rows[~ok], _T_FAIL, t_next)
            live, new, mode = rows[ok], new[:, ok], mode[ok]
            every = False
        if every:
            state = new
        else:
            state[:, live] = new
        live_lam = new**2 if in_root else new
        if not in_root:
            lam_view = state
        elif every:
            lam_view = live_lam
        else:
            lam_view[:, live] = live_lam
        _update_monitors(mon, level_axis, live_lam, None if every else live, t_next)

        if scheme == Scheme.REGULARIZED_SWITCHING:
            lam1 = new[0]
            moving = ~((lam1 <= eps) & (new[1] - lam1 <= eps))
            if not moving.all():
                freeze(live[~moving], _T_ZETA, t_next)
                froze = True
            to_b = live[moving & ~mode & (lam1 <= eps / 2.0)]
            to_a = live[moving & mode & (lam1 >= eps)]
            if track_switches:
                for i in to_b:
                    switch_log[i].append((t_next, "B"))
                for i in to_a:
                    switch_log[i].append((t_next, "A"))
            mode_is_b[to_b] = True
            mode_is_b[to_a] = False
        elif scheme == Scheme.C_EPSILON:
            s_eps = new[0] <= math.sqrt(eps)
            if s_eps.any():
                freeze(live[s_eps], _T_S_EPS, t_next)
                froze = True

        if stop_on is not None:
            hit = np.isfinite(stop_first if every else stop_first[:, live]).any(axis=0)
            if froze:
                hit &= active[live]
            if hit.any():
                freeze(live[hit], _T_EVENT, t_next)
                froze = True

        if froze:
            rows, span_pick = live_rows()

        if record and (step + 1) in rec_pos:
            traj[:, rec_pos[step + 1], :] = lam_view.T
        for t in snap_steps.get(step + 1, ()):
            snapshots[t] = lam_view.T.copy()

    return BatchResult(
        params=params,
        config=config,
        path_offset=path_offset,
        n_paths=p,
        final_lambda=lam_view.T.copy(),
        stop_time=stop_time,
        terminated_code=term,
        monitors={
            lev: {kind: first[i].T.copy() for kind, first in mon.items()}
            for i, lev in enumerate(levels)
        },
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

"""Collision and first-passage machinery.

Event times are grid times: an event is reported at the first recorded step
where its defining inequality holds at level delta.  "Simultaneous" means
same recorded step, the only decidable notion on a grid; the delta-ladder and
dt-refinement quantify the induced bias.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .errors import BadK
from .model import ModelParams
from .stats import StatSummary, binomial_summary

if TYPE_CHECKING:  # pragma: no cover
    from .integrators import PathRecord, SimConfig

__all__ = [
    "Event",
    "EventKind",
    "EventLog",
    "detect_events",
    "event_conditions",
    "first_passage_partial_sum",
]


class EventKind(str, Enum):
    PAIR_COLLISION = "pair_collision"
    ZERO_HIT_PARTIAL_SUM = "zero_hit_partial_sum"
    JOINT_EVENT_ZETA = "joint_event_zeta"
    STOP_S = "stop_S"


@dataclass(frozen=True)
class Event:
    """One detected event: time, kind, 1-based index (pair i or sum k), level."""

    time: float
    kind: EventKind
    index: int | None
    level: float


@dataclass
class EventLog:
    """Detected events plus flagged same-step double observations.

    ``multiple_collisions`` lists (time, i, j) for recorded steps where two
    distinct adjacent gaps were both at or below the detection level; the
    boundary case (a pair event at i >= 2 while lambda_1 and the first gap
    are both small) is included with i = 0.
    """

    events: list[Event] = field(default_factory=list)
    multiple_collisions: list[tuple[float, int, int]] = field(default_factory=list)

    def first(self, kind: EventKind, index: int | None = None) -> Event | None:
        for ev in self.events:
            if ev.kind == kind and (index is None or ev.index == index):
                return ev
        return None


def event_conditions(lam: np.ndarray, levels) -> dict[str, np.ndarray]:
    """Event indicators of every column of ``lam`` (n, R) at m detection levels.

    Row i of ``lam`` holds coordinate i of every one of the R states; the
    leading axis of every indicator is the level.  ``gap`` (m, n-1, R) marks
    lambda_{i+1} - lambda_i <= level, ``psum`` (m, n, R) marks
    lambda_1 + ... + lambda_k <= level, ``zeta`` (m, R) the joint event
    lambda_1 <= level and lambda_2 - lambda_1 <= level, and ``double``
    (m, R) two distinct small gaps in the same column.  The boundary case,
    the joint event together with a small gap above the first, is a double
    event because the joint event's first gap is small.
    """
    n = lam.shape[0]
    # Gaps then partial sums, compared with every level at once.  Row adds
    # give np.cumsum's bits without its cost along the short axis.
    gaps_psums = np.empty((2 * n - 1,) + lam.shape[1:])
    np.subtract(lam[1:], lam[:-1], out=gaps_psums[: n - 1])
    psums = gaps_psums[n - 1 :]
    psums[0] = lam[0]
    for k in range(1, n):
        np.add(psums[k - 1], lam[k], out=psums[k])
    below = gaps_psums <= np.asarray(levels, dtype=float)[:, None, None]
    # Two small gaps: one small gap above another already seen.
    double = np.zeros_like(below[:, 0])
    seen = below[:, 0]
    for i in range(1, n - 1):
        double |= seen & below[:, i]
        seen = seen | below[:, i]
    return {
        "gap": below[:, : n - 1],
        "psum": below[:, n - 1 :],
        "zeta": below[:, n - 1] & below[:, 0],
        "double": double,
    }


def detect_events(path: "PathRecord", delta: float) -> EventLog:
    """Scan a recorded trajectory for first crossings at level delta.

    Logs, per adjacent pair i, the first time lambda_{i+1} - lambda_i <=
    delta; per k, the first time lambda_1 + ... + lambda_k <= delta; the
    first joint time (lambda_1 <= delta and lambda_2 - lambda_1 <= delta);
    and the scheme stop event if the path terminated at S_eps or zeta_eps.
    """
    if delta <= 0:
        raise ValueError(f"delta must be > 0, got {delta}")
    times = np.asarray(path.times, dtype=float)
    lam = np.asarray(path.lambdas, dtype=float).T
    cond = {kind: c[0] for kind, c in event_conditions(lam, (delta,)).items()}
    log = EventLog()

    for kind, key in (
        (EventKind.PAIR_COLLISION, "gap"),
        (EventKind.ZERO_HIT_PARTIAL_SUM, "psum"),
    ):
        for i, row in enumerate(cond[key]):
            hits = np.flatnonzero(row)
            if hits.size:
                log.events.append(Event(float(times[hits[0]]), kind, i + 1, delta))
    hits = np.flatnonzero(cond["zeta"])
    if hits.size:
        log.events.append(
            Event(float(times[hits[0]]), EventKind.JOINT_EVENT_ZETA, None, delta)
        )

    small = cond["gap"]
    doubles = np.flatnonzero(cond["double"])
    for step in doubles:
        idx = np.flatnonzero(small[:, step]) + 1
        for a in range(idx.size):
            for b in range(a + 1, idx.size):
                log.multiple_collisions.append(
                    (float(times[step]), int(idx[a]), int(idx[b]))
                )
    for step in doubles[cond["zeta"][doubles]]:
        for j in np.flatnonzero(small[1:, step]) + 2:
            log.multiple_collisions.append((float(times[step]), 0, int(j)))

    from .integrators import Terminated

    if path.terminated == Terminated.STOPPED_AT_S_EPS:
        log.events.append(
            Event(path.stop_time, EventKind.STOP_S, None, path.config.epsilon)
        )
    elif path.terminated == Terminated.STOPPED_AT_ZETA_EPS:
        log.events.append(
            Event(
                path.stop_time, EventKind.JOINT_EVENT_ZETA, None, path.config.epsilon
            )
        )

    log.events.sort(key=lambda e: e.time)
    return log


def first_passage_partial_sum(
    params: ModelParams,
    config: "SimConfig",
    k: int,
    levels: tuple[float, ...] = (1e-2, 1e-3, 1e-4),
    n_paths: int | None = None,
    initial=None,
) -> dict[float, StatSummary]:
    """Monte Carlo probability that lambda_1 + ... + lambda_k drops to delta.

    Runs the configured scheme over ``paths`` trajectories from ``initial``
    (the default start when None), monitoring the partial sum online at every
    level of the delta ladder, and returns the hit fraction by the horizon
    with a binomial 95% interval per level.
    """
    from .integrators import simulate_batch

    if not 1 <= k <= params.n:
        raise BadK(f"k must be in 1..{params.n}, got {k}")
    res = simulate_batch(
        params,
        config,
        n_paths=n_paths,
        initial=initial,
        event_levels=levels,
        stop_on=("psum", k, min(levels)),
    )
    out = {}
    for lev in levels:
        hits = int(np.count_nonzero(~np.isnan(res.monitors[float(lev)]["psum"][:, k - 1])))
        out[float(lev)] = binomial_summary(
            hits, res.n_paths, name=f"psum{k}_hit(delta={lev:g})"
        )
    return out


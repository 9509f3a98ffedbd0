"""Collision and first-passage machinery.

Event times are grid times: an event is reported at the first step of the
run where its defining inequality holds at level delta, as the batch kernel's
online monitors stamp it from :func:`event_values` at every step, whatever
steps the batch records.  "Simultaneous" means same step, the only decidable
notion on a grid; the delta-ladder and dt-refinement quantify the induced
bias.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import TYPE_CHECKING

import numpy as np

from .errors import BadK, ConfigError
from .model import ModelParams
from .stats import StatSummary, binomial_summary

if TYPE_CHECKING:  # pragma: no cover
    from .integrators import BatchResult, SimConfig

__all__ = [
    "Event",
    "EventKind",
    "detect_events",
    "event_rows",
    "event_values",
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


def detection_level(value, what: str) -> float:
    """``value`` as a detection level; ConfigError unless it is finite and > 0."""
    try:
        level = float(value)
    except (TypeError, ValueError):
        level = math.nan
    if not (math.isfinite(level) and level > 0.0):
        raise ConfigError(f"{what} must be finite and > 0, got {value!r}")
    return level


@functools.lru_cache(maxsize=None)
def event_rows(n: int) -> MappingProxyType:
    """Rows of :func:`event_values` per event kind at n coordinates.

    ``gap`` and ``psum`` are slices, ``zeta`` and ``double`` row indices;
    there are K = 2n + 1 rows.  The mapping is cached and read-only.
    """
    return MappingProxyType({
        "gap": slice(0, n - 1),
        "psum": slice(n - 1, 2 * n - 1),
        "zeta": 2 * n - 1,
        "double": 2 * n,
    })


def event_values(lam: np.ndarray) -> np.ndarray:
    """Event values of every column of ``lam`` (n, R): (K, R), one row per event.

    Row i of ``lam`` holds coordinate i of every one of the R states.  An
    event holds at detection level delta exactly when its value is <= delta.
    The rows, laid out by :func:`event_rows`, are the n-1 adjacent gaps
    lambda_{i+1} - lambda_i, the n partial sums lambda_1 + ... + lambda_k,
    zeta = max(lambda_1, lambda_2 - lambda_1) (the joint event lambda_1 <=
    delta and lambda_2 - lambda_1 <= delta), and the second-smallest gap (two
    distinct small gaps in the same column, the double event), NaN at n = 2,
    which has one gap.  The boundary case, the joint event together with a
    small gap above the first, is a double event because the joint event's
    first gap is small.
    """
    n = lam.shape[0]
    rows = event_rows(n)
    values = np.empty((2 * n + 1,) + lam.shape[1:])
    gaps = values[rows["gap"]]
    np.subtract(lam[1:], lam[:-1], out=gaps)
    # Row adds give np.cumsum's bits without its cost along the short axis.
    psums = values[rows["psum"]]
    psums[0] = lam[0]
    for k in range(1, n):
        np.add(psums[k - 1], lam[k], out=psums[k])
    np.maximum(lam[0], gaps[0], out=values[rows["zeta"]])
    # NaN is never <= a level, and NaN gaps sort last and np.maximum keeps
    # them, so a NaN is never small.
    if n == 2:
        values[rows["double"]] = np.nan
    elif n == 3:
        np.maximum(gaps[0], gaps[1], out=values[rows["double"]])
    else:
        values[rows["double"]] = np.sort(gaps, axis=0)[1]
    return values


def detect_events(result: "BatchResult", delta: float) -> list[list[Event]]:
    """Event rows of every path of a batch monitored at level delta.

    Per path: the first hit of each gap i = 1..n-1, each partial sum k =
    1..n and zeta, as the online monitors stamped them, then the stop at
    S_eps or zeta_eps at level epsilon, stable-sorted by time.  ConfigError
    when delta was not monitored.
    """
    from .integrators import Terminated

    delta = float(delta)
    mon = result.monitors.get(delta)
    if mon is None:
        raise ConfigError(f"delta={delta!r} was not monitored, only {sorted(result.monitors)}")
    n, eps = result.params.n, float(result.config.epsilon)
    kinds = [(EventKind.PAIR_COLLISION, i) for i in range(1, n)]
    kinds += [(EventKind.ZERO_HIT_PARTIAL_SUM, k) for k in range(1, n + 1)]
    kinds.append((EventKind.JOINT_EVENT_ZETA, None))
    stops = {
        Terminated.STOPPED_AT_S_EPS: EventKind.STOP_S,
        Terminated.STOPPED_AT_ZETA_EPS: EventKind.JOINT_EVENT_ZETA,
    }
    out = []
    hits = np.column_stack([mon["gap"], mon["psum"], mon["zeta"]]).tolist()
    for i, row in enumerate(hits):
        events = [Event(t, *kind, delta) for t, kind in zip(row, kinds) if not math.isnan(t)]
        stop = stops.get(result.terminated(i))
        if stop is not None:
            events.append(Event(float(result.stop_time[i]), stop, None, eps))
        out.append(sorted(events, key=lambda e: e.time))
    return out


def first_passage_partial_sum(
    params: ModelParams,
    config: "SimConfig",
    k: int,
    levels: tuple[float, ...] = (1e-2, 1e-3, 1e-4),
    initial=None,
) -> dict[float, StatSummary]:
    """Monte Carlo probability that lambda_1 + ... + lambda_k drops to delta.

    Runs the configured scheme over ``config.paths`` trajectories from ``initial``
    (the default start when None), monitoring the partial sum online at every
    level of the delta ladder, and returns the hit fraction by the horizon
    with a binomial 95% interval per level.  ConfigError when ``levels`` is
    empty or holds a level that is not finite and > 0.
    """
    from .integrators import simulate_batch

    if not 1 <= k <= params.n:
        raise BadK(f"k must be in 1..{params.n}, got {k}")
    if not levels:
        raise ConfigError("levels must hold at least one detection level, got none")
    levels = [detection_level(lev, "levels") for lev in levels]
    res = simulate_batch(
        params,
        config,
        initial=initial,
        event_levels=levels,
        stop_on=("psum", k, min(levels)),
    )
    out = {}
    for lev in levels:
        hits = int(np.count_nonzero(~np.isnan(res.monitors[lev]["psum"][:, k - 1])))
        out[lev] = binomial_summary(
            hits, res.n_paths, name=f"psum{k}_hit(delta={lev:g})"
        )
    return out


"""Exception types shared across the package, and the integer-argument check."""

import numpy as np

__all__ = [
    "BadK",
    "CoincidentCoordinates",
    "ConfigError",
    "DomainError",
    "NotEvaluable",
    "RegimeMismatch",
    "TooFewSamples",
]


class CoincidentCoordinates(ValueError):
    """Two coordinates are exactly equal, so a pairwise term is singular."""


class DomainError(ValueError):
    """Input lies outside the open ordered cone 0 < x1 < ... < xn."""


class BadK(ValueError):
    """Partial-sum index k is outside 1..n."""


class NotEvaluable(ValueError):
    """Stationary density requested outside gamma > 0, kappa > 0."""


class RegimeMismatch(ValueError):
    """Requested experiment needs a regime the parameters do not satisfy."""


class TooFewSamples(ValueError):
    """Statistical routine called with fewer samples than its contract allows."""


class ConfigError(ValueError):
    """Invalid simulation or experiment configuration; message names the field."""


def require_int(name: str, value, least: int | None = None) -> int:
    """``value`` as an int; ConfigError unless it is an int or numpy integer
    (a bool is not) and, when ``least`` is given, at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ConfigError(f"{name} must be >= {least}, got {value}")
    return int(value)

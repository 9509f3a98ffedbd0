"""Exception types shared across the package."""

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

"""Exception types and the setting type checks shared across the package.

Argument-level misuse (bad agent id, malformed state, empty input) raises
plain ValueError at the offending call site; the classes below mark domain
failures that callers may want to catch and map to exit codes.
"""
import math
from numbers import Integral, Real


class DactdError(Exception):
    """Base class for domain errors raised by this package."""


class ConfigurationError(DactdError):
    """A configuration is invalid or inconsistent with the requested run."""


class TransportError(DactdError):
    """A send was attempted on an edge not present in the schedule."""


class ProtocolCorruptionError(DactdError):
    """Protocol traffic or state is corrupt (a payload of the wrong size)."""


class IncompleteAggregationError(DactdError):
    """A read-out was requested before the delivery guarantee filled the slot."""

    def __init__(self, tick: int, agent: int, missing: list[int]):
        self.tick = tick
        self.agent = agent
        self.missing = missing
        super().__init__(
            f"agent {agent}: aggregation for tick {tick} incomplete, "
            f"missing origins {missing}"
        )


class ModelError(DactdError):
    """An exact-solution routine met a model outside its assumptions."""


class RankError(ModelError):
    """A feature matrix or linear system lacks the rank the solve requires."""


class CapacityError(DactdError):
    """Exhaustive enumeration would exceed the configured state-space cap."""


class NumericError(DactdError):
    """A non-finite value appeared where the algorithm requires finite reals."""


def _as_int(value, where: str) -> int:
    """An integer setting; a bool, a string or a fraction is rejected rather
    than converted or truncated."""
    if not isinstance(value, bool) and (isinstance(value, Integral) or (
            isinstance(value, Real) and float(value).is_integer())):
        return int(value)
    raise ConfigurationError(f"{where} must be an integer, got {value!r}")


def _as_real(value, where: str) -> float:
    """A real setting; a bool or a string is rejected rather than converted."""
    if isinstance(value, Real) and not isinstance(value, bool):
        return float(value)
    raise ConfigurationError(f"{where} must be a real number, got {value!r}")


def _as_positive(value, where: str) -> float:
    """A positive, finite real setting."""
    value = _as_real(value, where)
    if not (value > 0.0 and math.isfinite(value)):
        raise ConfigurationError(
            f"{where} must be positive and finite, got {value!r}")
    return value

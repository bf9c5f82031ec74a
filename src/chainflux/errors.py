"""Exception hierarchy. Everything raised on bad data or bad config derives
from ChainfluxError so callers (and the CLI) can catch one type."""

from __future__ import annotations


class ChainfluxError(Exception):
    """Base class for all data, config, and numerical-contract errors."""


class ConfigError(ChainfluxError):
    """Invalid analysis configuration (flags, descriptors, parameter ranges)."""


class EmptyDataError(ChainfluxError):
    """No observations: the file holds none, or none remain after burn-in."""


class AllSessionsTooShortError(ChainfluxError):
    """No session contributes a single transition pair after burn-in."""


class OneSidedZeroFluxError(ChainfluxError):
    """A state pair has exactly one zero directed flux under the strict policy."""

    def __init__(self, i: int, j: int, forward: float, backward: float):
        self.pair = (i, j)
        self.forward = forward
        self.backward = backward
        super().__init__(
            f"one-sided zero flux on state pair ({i}, {j}): "
            f"forward={forward!r}, backward={backward!r}"
        )

    def __reduce__(self):
        # args holds only the message; rebuild from the four arguments so
        # the error survives the trip back from a worker process
        return type(self), (*self.pair, self.forward, self.backward)


class InvalidDistributionError(ChainfluxError):
    """A probability vector or transition row fails normalization."""


class LengthMismatchError(ChainfluxError):
    """Paired inputs have different lengths."""


class InsufficientDataError(ChainfluxError):
    """Fewer observations than the procedure's minimum."""


class DegenerateXError(ChainfluxError):
    """Regressor has zero variance; the OLS slope is undefined."""


class ParseError(ChainfluxError):
    """Malformed CSV content."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{where}")


class StateOutOfRangeError(ParseError):
    """A state index falls outside [0, r)."""


class MixedEncodingsError(ParseError):
    """A file mixes state-index and action-pair encodings."""


class NonMonotoneRoundsError(ParseError):
    """Round numbers within a session are not strictly increasing."""


class ReportIoError(ChainfluxError):
    """A report or record file could not be written."""

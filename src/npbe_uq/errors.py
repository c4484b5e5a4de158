"""Exception types shared across the package."""


class NpbeUqError(Exception):
    """Base class for all package errors; violated names the rejected input, if any."""

    def __init__(self, message, violated=None):
        super().__init__(message)
        self.violated = violated


class DomainError(NpbeUqError):
    """A point or parameter lies outside its admissible domain."""


class MapOrientationError(NpbeUqError):
    """The domain map is orientation-violating (det J <= 0 somewhere)."""


class ConvergenceError(NpbeUqError):
    """An iterative solver failed to converge."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class IncompleteStoreError(NpbeUqError):
    """Knot values lack a knot that a sparse-grid plan reads."""


class HypothesisViolationError(NpbeUqError):
    """Inputs violate the hypotheses of a closed-form bound."""


class ConfigError(NpbeUqError):
    """Run configuration is invalid."""


class ParseError(NpbeUqError):
    """Charge-file parsing failed."""


class RateFitError(NpbeUqError):
    """Study records hold too few positive errors to fit a convergence rate."""

"""Exception hierarchy shared across the package: one class per CLI outcome."""


class StiefelDecError(Exception):
    """Base class for all package errors."""


class ParameterError(StiefelDecError, ValueError):
    """A value, a shape or a combination that a library caller passed is invalid, such as
    mismatched shapes, a disconnected graph or a stepsize above its admissible bound."""


class NumericalError(StiefelDecError, ArithmeticError):
    """A computation broke down: a rank-deficient Euclidean mean, a non-finite
    step or metric, or a failed retraction."""


class IngestionError(StiefelDecError, ValueError):
    """A data file could not be parsed; the message names the offending line."""


class ConfigError(StiefelDecError, ValueError):
    """An experiment configuration is invalid."""

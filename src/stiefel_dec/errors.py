"""Exception hierarchy shared across the package."""


class StiefelDecError(Exception):
    """Base class for all package errors."""


class DimensionError(StiefelDecError, ValueError):
    """Matrix shapes or dimensions violate an operation's contract."""


class ParameterError(StiefelDecError, ValueError):
    """A parameter value is outside its valid range."""


class ContractError(StiefelDecError, ValueError):
    """An input breaks a cross-object contract (e.g. gradients for the wrong number of agents)."""


class NumericalError(StiefelDecError, ArithmeticError):
    """A computation broke down: a non-finite step or metric, or a failed retraction."""


class DegenerateMeanError(NumericalError):
    """The Euclidean mean of the swarm is rank deficient, so the induced mean is undefined."""


class TopologyError(StiefelDecError, RuntimeError):
    """A graph is disconnected or could not be sampled connected."""


class StepsizeError(StiefelDecError, ValueError):
    """A stepsize exceeds the admissible bound."""


class IngestionError(StiefelDecError, ValueError):
    """A data file could not be parsed; the message names the offending line."""


class ConfigError(StiefelDecError, ValueError):
    """An experiment configuration is invalid."""

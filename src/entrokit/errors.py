"""Exception hierarchy shared across the package."""


class EntrokitError(Exception):
    """Base class for all package-specific errors."""


class DomainError(EntrokitError):
    """An argument is outside the domain an operation is defined on."""


class PreconditionError(EntrokitError):
    """A stated operation precondition is violated (e.g. non-separable end state)."""


class CapabilityError(EntrokitError):
    """The model does not support the requested capability (e.g. scaling)."""


class StructuralError(EntrokitError):
    """A compound object is malformed (broken chain, mismatched endpoints)."""


class NumericError(EntrokitError):
    """An iterative numerical procedure failed to converge."""


class EngineError(EntrokitError):
    """The process engine refuses a request (bounds breached, window left).

    Carries an optional witness describing where the refusal happened.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class DegenerateProbeError(DomainError):
    """A probe pair produces a vanishing reservoir energy change (0/0 ratio)."""


class DegenerateFitError(DomainError):
    """An affine fit is requested against constant or insufficient data."""


class ParseError(EntrokitError):
    """A fixture or config file does not match the expected schema."""


class ConfigError(EntrokitError):
    """A suite configuration is invalid."""

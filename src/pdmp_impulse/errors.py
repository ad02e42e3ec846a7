"""Exception taxonomy shared by all modules."""

from __future__ import annotations


class PdmpError(Exception):
    """Base class for all errors raised by this package."""


class ModelParseError(PdmpError):
    """Model document violates the schema; message names the offending field."""


class UnsupportedFeatureError(ModelParseError):
    """Model requests a feature outside the supported families."""


class ModelValidationError(PdmpError):
    """A hard model invariant failed at load; the message names the field."""


class DomainError(PdmpError):
    """Argument outside the mathematical domain of an operation."""


class KernelCoverageError(PdmpError):
    """No transition-kernel entry matches the given pre-jump point."""


class PolicyCoverageError(PdmpError):
    """Policy table has no usable data at the queried state."""


class ExtrapolationError(PdmpError):
    """Query point lies outside the stored grid coverage."""


class NumericalError(PdmpError):
    """A numerical procedure failed or gave a non-finite result."""


class ArtifactMismatchError(PdmpError):
    """Stored artifact does not match the model it is used with."""

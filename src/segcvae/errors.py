"""Exception types shared across the package."""


class SegcvaeError(Exception):
    """Base class for all domain errors raised by this package."""


class ShapeError(SegcvaeError):
    """Tensor shapes are incompatible with the requested operation."""


class DomainError(SegcvaeError):
    """An argument is outside the mathematical domain of an operation."""


class DegenerateVector(DomainError):
    """A vector is too close to zero for a direction-based quantity."""


class EmptyCorpus(SegcvaeError):
    """A corpus operation received or produced no usable dialogue pairs."""


class NonFiniteLoss(SegcvaeError):
    """Training produced a NaN/Inf loss; carries the offending batch id."""

    def __init__(self, batch_id, message="non-finite loss"):
        super().__init__(f"{message} (batch {batch_id})")
        self.batch_id = batch_id


class NonFiniteGradient(DomainError):
    """A gradient holds a NaN/Inf, so no update can be made from it."""


class ConfigError(SegcvaeError):
    """A run configuration file is malformed."""


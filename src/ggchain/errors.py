"""Exception types shared across the package."""

__all__ = [
    "GgchainError",
    "DomainError",
    "NotPositiveDefiniteError",
    "InsufficientDataError",
    "SelfCheckError",
]


class GgchainError(Exception):
    """Base class for every error raised by this package."""


class DomainError(GgchainError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class NotPositiveDefiniteError(GgchainError, ArithmeticError):
    """A matrix required to be symmetric positive definite is not."""


class InsufficientDataError(GgchainError):
    """Too few usable data points to carry out the requested computation."""


class SelfCheckError(GgchainError):
    """Two independent computation paths disagree beyond tolerance."""

"""Exception types and the sample budget shared across the package."""

__all__ = ["MAX_SAMPLES", "ValidationError", "NumericalError"]

MAX_SAMPLES = 2**26  # largest sample count a parameter or time grid may ask for


class ValidationError(ValueError):
    """Input data violates a documented precondition or schema."""


class NumericalError(RuntimeError):
    """A numerical invariant failed at run time (the message names it)."""

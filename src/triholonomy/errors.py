"""Exception types, the sample budget, the count bound and the one bound check shared across the package."""

import math
import numbers
from dataclasses import MISSING, field, fields

__all__ = ["MAX_SAMPLES", "ValidationError", "NumericalError"]

MAX_SAMPLES = 2**26  # largest sample count a parameter or time grid may ask for
POSITIVE = (lambda v: 0.0 < v < math.inf, "positive and finite")  # a (test, phrase) bound


class ValidationError(ValueError):
    """Input data violates a documented precondition or schema."""


class NumericalError(RuntimeError):
    """A numerical invariant failed at run time (the message names it)."""


def check(name: str, value, bound: tuple):
    """``value``, or a ValidationError naming ``name`` if it fails ``bound`` = (test, phrase); a NaN always fails."""
    if (isinstance(value, numbers.Real) and value != value) or not bound[0](value):  # only NaN != NaN
        raise ValidationError(f"{name} must be {bound[1]}, got {value!r}")
    return value


def bounded(bound: tuple, default=MISSING):
    """A dataclass field that declares ``bound``; :func:`check_fields` enforces it and the CLI tables read it."""
    return field(default=default, metadata={"bound": bound})


def count(low: int, high: float = MAX_SAMPLES) -> tuple:
    """A (test, phrase) bound: an int or numpy integer in [low, high]; a bool, a float and NaN fail."""
    phrase = f"an int in [{low}, {high}]" if high < math.inf else f"an int of at least {low}"
    return (lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool) and low <= v <= high), phrase


def check_fields(obj) -> None:
    """:func:`check` on each field of the dataclass ``obj`` that declares a bound, in field order."""
    for f in fields(obj):
        if "bound" in f.metadata:
            check(f.name, getattr(obj, f.name), f.metadata["bound"])

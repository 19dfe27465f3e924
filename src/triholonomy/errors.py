"""Exception types, the sample budget, the bound helpers and the one bound check shared across the package."""

import cmath
import functools
import math
import numbers
from dataclasses import MISSING, field, fields

import numpy as np

__all__ = ["MAX_SAMPLES", "ValidationError", "NumericalError"]

MAX_SAMPLES = 2**26  # largest sample count a parameter or time grid may ask for
POSITIVE = (lambda v: 0.0 < v < math.inf, "positive and finite")  # a (test, phrase) bound
FINITE = (cmath.isfinite, "finite")  # a real or complex value


class ValidationError(ValueError):
    """Input data violates a documented precondition or schema."""


class NumericalError(RuntimeError):
    """A numerical invariant failed at run time (the message names it)."""


def check(name: str, value, bound: tuple, error: type = ValidationError):
    """``value``, or ``error`` "<name> must be <phrase>, got <value>" if it fails ``bound`` = (test, phrase); a NaN
    and a Real that no float holds (``10**400``) always fail.  numpy values, also in a list, print as Python numbers."""
    try:
        nan = isinstance(value, numbers.Real) and math.isnan(value)
    except OverflowError:  # math.isnan found no float for the Real
        raise error(f"{name} must be {bound[1]}, got a number beyond the float range") from None
    if nan or not bound[0](value):
        raise error(f"{name} must be {bound[1]}, got {_plain(value)!r}")
    return value


def _plain(value):
    """``value`` with each numpy scalar or array in it, also inside a list or tuple, as a Python number or list."""
    if isinstance(value, (list, tuple)):
        return (list if isinstance(value, list) else tuple)(map(_plain, value))
    return value.tolist() if isinstance(value, (np.generic, np.ndarray)) else value


guard = functools.partial(check, error=NumericalError)  # the check of a run-time invariant


def at_most(limit: float) -> tuple:
    """A (test, phrase) bound: at most ``limit``, which the phrase prints exactly."""
    return (lambda v: v <= limit), f"at most {limit!r}"


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

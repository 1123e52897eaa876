"""Exception types shared across the package, and the numeric input checks.

Everything derives from HandoffLabError so callers can catch broadly.
The CLI maps these onto exit codes; library users get ordinary
ValueError/LookupError semantics.
"""

import math
import numbers


class HandoffLabError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(HandoffLabError, ValueError):
    """A parameter or parameter combination violates a stated invariant."""


class OutOfDomainError(HandoffLabError, ValueError):
    """An evaluation point lies outside the domain of the requested quantity."""


class NotBracketedError(HandoffLabError, ValueError):
    """A root-finding target is not bracketed by the search interval."""


class UnknownBaseStationError(HandoffLabError, LookupError):
    """A base-station identifier does not appear in the topology."""


class UnsupportedHandoffTypeError(HandoffLabError, ValueError):
    """The delay profile has no delay configured for the requested handoff type."""


class ScenarioParseError(HandoffLabError, ValueError):
    """Scenario or sweep text that cannot be parsed at all."""


class ScenarioValidationError(HandoffLabError, ValueError):
    """Well-formed scenario text with invalid content; carries the key path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def coerce_numbers(
    obj, *names: str, integer: bool = False, each: bool = False, finite: bool = False
) -> None:
    """Store the named fields of a frozen dataclass as plain float (or int).

    Any real (integral with integer=True) number is accepted, numpy scalars
    included; bools, integers beyond float range and everything else raise
    InvalidParameterError, and so do infinities and NaN with finite=True.
    With each=True every field is a sequence, stored as a tuple of such
    numbers.
    """
    kind, what = (numbers.Integral, "an integer") if integer else (numbers.Real, "a real number")

    def coerce(value, name):
        if isinstance(value, bool) or not isinstance(value, kind):
            raise InvalidParameterError(f"{name} must be {what}, got {value!r}")
        try:
            value = int(value) if integer else float(value)
        except OverflowError:
            # no repr: a long enough integer refuses conversion to a string
            raise InvalidParameterError(f"{name} must be {what} within float range") from None
        if finite and not math.isfinite(value):
            raise InvalidParameterError(f"{name} must be finite, got {value!r}")
        return value

    for name in names:
        value = getattr(obj, name)
        if each:
            if isinstance(value, (str, bytes)) or not hasattr(value, "__iter__"):
                raise InvalidParameterError(f"{name} must be a sequence of numbers, got {value!r}")
            value = tuple(coerce(x, f"{name}[{i}]") for i, x in enumerate(value))
        else:
            value = coerce(value, name)
        object.__setattr__(obj, name, value)


def _real_or_nan(value) -> float:
    """value as a float (numpy scalars too); NaN for a bool, a non-number or a huge int."""
    if type(value) is float:  # the common case, without the ABC check below
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return math.nan
    try:
        return float(value)
    except OverflowError:
        return math.nan

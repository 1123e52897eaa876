"""Exception types shared across the package, and its numeric and document-shape checks.

Everything derives from HandoffLabError so callers can catch broadly.
The CLI maps these onto exit codes; library users get ordinary
ValueError/LookupError semantics.
"""

import math
import numbers
from typing import Optional


class HandoffLabError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(HandoffLabError, ValueError):
    """A parameter or parameter combination violates a stated invariant.
    key, if set, names the field at fault, and the message is f"{key} {reason}"."""

    def __init__(self, reason: str, key: Optional[str] = None):
        self.key, self.reason = key, reason
        super().__init__(f"{key} {reason}" if key else reason)


class OutOfDomainError(HandoffLabError, ValueError):
    """An evaluation point lies outside the domain of the requested quantity."""


class NotBracketedError(HandoffLabError, ValueError):
    """A root-finding target is not bracketed by the search interval."""


class UnknownBaseStationError(HandoffLabError, LookupError):
    """A base-station identifier does not appear in the topology."""


class UnsupportedHandoffTypeError(InvalidParameterError):
    """The delay profile has no delay configured for the requested handoff type."""


class ScenarioParseError(HandoffLabError, ValueError):
    """Scenario or sweep text that cannot be parsed at all."""


class ScenarioValidationError(InvalidParameterError):
    """A well-formed document with invalid content; carries the key path, "" for the whole."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


def coerce_numbers(
    obj, *names: str, integer: bool = False, each: bool = False, finite: bool = False
) -> None:
    """Store the named fields of a frozen dataclass as plain float (or int).

    Any real (integral with integer=True) number is accepted, numpy scalars
    included; bools, integers beyond float range and everything else raise
    InvalidParameterError, and so do infinities and NaN with finite=True.
    With each=True every field is a sequence, stored as a tuple of such
    numbers.

    A value whose type is exactly float (exactly int with integer=True) is
    already stored as it would be, so it skips the ABC check and the
    conversion; a single field of that type that needs no finite check (an
    int, or finite=False) is left as it is, with no second store.  The test
    is on the exact type: np.float64 and other float subclasses take the
    full path, so every stored field has type exactly float (int).
    """
    plain = int if integer else float
    check_finite = finite and not integer  # an int is always finite
    for name in names:
        value = getattr(obj, name)
        if each:
            if isinstance(value, (str, bytes)) or not hasattr(value, "__iter__"):
                raise InvalidParameterError(f"must be a sequence of numbers, got {value!r}", name)
            value = tuple(_coerce(x, f"{name}[{i}]", plain, check_finite) for i, x in enumerate(value))
        elif type(value) is plain and not check_finite:
            continue  # stored as it would be
        object.__setattr__(obj, name, value if each else _coerce(value, name, plain, check_finite))


def _coerce(value, name: str, plain: type, check_finite: bool):
    """One value for coerce_numbers: value as a plain float or int, or an
    InvalidParameterError keyed by name."""
    if type(value) is not plain:
        kind, what = (numbers.Integral, "an integer") if plain is int else (numbers.Real, "a real number")
        if isinstance(value, bool) or not isinstance(value, kind):
            raise InvalidParameterError(f"must be {what}, got {value!r}", name)
        try:
            value = plain(value)
        except OverflowError:
            # no repr: a long enough integer refuses conversion to a string
            raise InvalidParameterError(f"must be {what} within float range", name) from None
    if check_finite and not math.isfinite(value):
        raise InvalidParameterError(f"must be finite, got {value!r}", name)
    return value


def _shape(doc, keys, required=(), path: str = "") -> dict:
    """Check doc's shape, the only check parsing makes: a mapping with only
    the given keys and every required one.  path is doc's own, "" at the top.

    Returns doc without its null values: a key set to null counts as absent.
    """
    if not isinstance(doc, dict):
        raise ScenarioValidationError(path, f"must be a mapping, got {doc!r}")
    prefix = f"{path}." if path else ""
    shaped = {}  # one loop, no comprehension: a topology document calls this per agent
    for key, value in doc.items():
        if key not in keys:
            raise ScenarioValidationError(f"{prefix}{key}", "is not a recognized key")
        if value is not None:
            shaped[key] = value
    for key in required:
        if key not in shaped:
            raise ScenarioValidationError(f"{prefix}{key}", "is required")
    return shaped


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

"""Exception types shared across the package, and the numeric field check.

Everything derives from HandoffLabError so callers can catch broadly.
The CLI maps these onto exit codes; library users get ordinary
ValueError/LookupError semantics.
"""

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


def coerce_numbers(obj, *names: str, integer: bool = False) -> None:
    """Store the named fields of a frozen dataclass as plain float (or int).

    Any real (integral with integer=True) number is accepted, numpy scalars
    included; bools and everything else raise InvalidParameterError.
    """
    kind, what = (numbers.Integral, "an integer") if integer else (numbers.Real, "a real number")
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, kind):
            raise InvalidParameterError(f"{name} must be {what}, got {value!r}")
        object.__setattr__(obj, name, int(value) if integer else float(value))

"""Handoff analysis for overlapping hexagonal cells.

Closed-form false-handoff and handoff-failure probabilities, Monte Carlo
cross-checks, an agent-hierarchy classifier for handoff delays, parameter
sweeps, and a small CLI.

The Monte Carlo and sweep names load their modules, and with them numpy, on
first access, so the closed forms and the CLI's closed-form commands start
without numpy.
"""

import importlib

__version__ = "0.1.0"

from .analytic import (
    CrossingTimeSupport,
    OverlapSolution,
    SpeedModel,
    adapt_overlap,
    crossing_time_cdf,
    crossing_time_pdf,
    crossing_time_support,
    expected_failure_over_speed,
    false_handoff_probability,
    handoff_failure_probability,
)
from .errors import (
    HandoffLabError,
    InvalidParameterError,
    NotBracketedError,
    OutOfDomainError,
    ScenarioParseError,
    ScenarioValidationError,
    UnknownBaseStationError,
    UnsupportedHandoffTypeError,
)
from .geometry import (
    CellGeometry,
    DerivedGeometry,
    LocalFrame,
    derive_geometry,
    local_frame,
)
from .topology import (
    AccessSystem,
    DelayProfile,
    ForeignAgent,
    HandoffType,
    NetworkTopology,
    classify_handoff,
    delay_for,
)

_LAZY = {
    **dict.fromkeys(("Axis", "SweepSpec", "SweepTable", "run_sweep"), "experiments"),
    **dict.fromkeys(
        ("EcdfReport", "Estimate", "SimControls", "crossing_time_ecdf", "derive_seed",
         "estimate_failure", "estimate_false_handoff"),
        "montecarlo",
    ),
}


def __getattr__(name):
    # PEP 562: resolve a lazy name once, then bind it like an eager import
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "__version__",
    "AccessSystem",
    "Axis",
    "CellGeometry",
    "CrossingTimeSupport",
    "DelayProfile",
    "DerivedGeometry",
    "EcdfReport",
    "Estimate",
    "ForeignAgent",
    "HandoffLabError",
    "HandoffType",
    "InvalidParameterError",
    "LocalFrame",
    "NetworkTopology",
    "NotBracketedError",
    "OutOfDomainError",
    "OverlapSolution",
    "ScenarioParseError",
    "ScenarioValidationError",
    "SimControls",
    "SpeedModel",
    "SweepSpec",
    "SweepTable",
    "UnknownBaseStationError",
    "UnsupportedHandoffTypeError",
    "adapt_overlap",
    "classify_handoff",
    "crossing_time_cdf",
    "crossing_time_ecdf",
    "crossing_time_pdf",
    "crossing_time_support",
    "delay_for",
    "derive_geometry",
    "derive_seed",
    "estimate_failure",
    "estimate_false_handoff",
    "expected_failure_over_speed",
    "false_handoff_probability",
    "handoff_failure_probability",
    "local_frame",
    "run_sweep",
]

import math

import numpy as np
import pytest

from handoff_lab.analytic import SpeedModel
from handoff_lab.errors import InvalidParameterError, coerce_numbers
from handoff_lab.geometry import CellGeometry


class _Float(float):
    """A float subclass: isinstance says float, its exact type does not."""


VALUES = {
    "float": 1.5, "int": 3, "bool": True, "np.float64": np.float64(2.5), "np.int64": np.int64(4),
    "np.bool_": np.bool_(True), "inf": math.inf, "-inf": -math.inf, "nan": math.nan, "-0.0": -0.0,
    "10**400": 10**400, "float subclass": _Float(1.25), "np.float32": np.float32(0.75),
}

# (value, integer, finite) -> the stored value, or the message's reason; the
# table was recorded from the checks before plain floats and ints got their
# fast path, which must store and refuse the same
COERCED = [
    ("float", False, False, 1.5), ("float", False, True, 1.5),
    ("float", True, False, "must be an integer, got 1.5"), ("float", True, True, "must be an integer, got 1.5"),
    ("int", False, False, 3.0), ("int", False, True, 3.0), ("int", True, False, 3), ("int", True, True, 3),
    ("bool", False, False, "must be a real number, got True"), ("bool", False, True, "must be a real number, got True"),
    ("bool", True, False, "must be an integer, got True"), ("bool", True, True, "must be an integer, got True"),
    ("np.float64", False, False, 2.5), ("np.float64", False, True, 2.5),
    ("np.float64", True, False, "must be an integer, got np.float64(2.5)"),
    ("np.float64", True, True, "must be an integer, got np.float64(2.5)"),
    ("np.int64", False, False, 4.0), ("np.int64", False, True, 4.0),
    ("np.int64", True, False, 4), ("np.int64", True, True, 4),
    ("np.bool_", False, False, "must be a real number, got np.True_"),
    ("np.bool_", False, True, "must be a real number, got np.True_"),
    ("np.bool_", True, False, "must be an integer, got np.True_"),
    ("np.bool_", True, True, "must be an integer, got np.True_"),
    ("inf", False, False, math.inf), ("inf", False, True, "must be finite, got inf"),
    ("inf", True, False, "must be an integer, got inf"), ("inf", True, True, "must be an integer, got inf"),
    ("-inf", False, False, -math.inf), ("-inf", False, True, "must be finite, got -inf"),
    ("-inf", True, False, "must be an integer, got -inf"), ("-inf", True, True, "must be an integer, got -inf"),
    ("nan", False, False, math.nan), ("nan", False, True, "must be finite, got nan"),
    ("nan", True, False, "must be an integer, got nan"), ("nan", True, True, "must be an integer, got nan"),
    ("-0.0", False, False, -0.0), ("-0.0", False, True, -0.0),
    ("-0.0", True, False, "must be an integer, got -0.0"), ("-0.0", True, True, "must be an integer, got -0.0"),
    ("10**400", False, False, "must be a real number within float range"),
    ("10**400", False, True, "must be a real number within float range"),
    ("10**400", True, False, 10**400), ("10**400", True, True, 10**400),
    # the plain-float path tests the exact type, so neither of these takes it
    ("float subclass", False, False, 1.25), ("float subclass", False, True, 1.25),
    ("float subclass", True, False, "must be an integer, got 1.25"),
    ("float subclass", True, True, "must be an integer, got 1.25"),
    ("np.float32", False, False, 0.75), ("np.float32", False, True, 0.75),
    ("np.float32", True, False, "must be an integer, got np.float32(0.75)"),
    ("np.float32", True, True, "must be an integer, got np.float32(0.75)"),
]


class _Fields:
    """Stands in for a frozen dataclass: coerce_numbers only reads and sets attributes."""


@pytest.mark.parametrize("each", [False, True])
@pytest.mark.parametrize("name,integer,finite,expected", COERCED)
def test_coerce_numbers_stores_and_refuses_as_recorded(name, integer, finite, expected, each):
    # the ROADMAP contract: bools refused, numpy scalars accepted, each
    # value stored as a plain float (int), infinities and NaN refused only
    # with finite; with each, the same per element, keyed by its index
    obj = _Fields()
    obj.x = [VALUES[name]] if each else VALUES[name]
    key = "x[0]" if each else "x"
    if isinstance(expected, str):
        with pytest.raises(InvalidParameterError) as err:
            coerce_numbers(obj, "x", integer=integer, finite=finite, each=each)
        assert (err.value.key, err.value.reason, str(err.value)) == (key, expected, f"{key} {expected}")
    else:
        coerce_numbers(obj, "x", integer=integer, finite=finite, each=each)
        stored = obj.x
        if each:
            assert type(stored) is tuple and len(stored) == 1
            stored = stored[0]
        assert type(stored) is type(expected)
        # repr tells -0.0 from 0.0 and compares NaN
        assert repr(stored) == repr(expected)


def test_coerce_numbers_fast_path_still_refuses_non_finite_floats():
    # a plain float skips the ABC check and the conversion, but not the
    # finite check, in either form
    for value in (math.inf, -math.inf, math.nan):
        for each in (False, True):
            obj = _Fields()
            obj.x = [1.0, value] if each else value
            with pytest.raises(InvalidParameterError, match="must be finite") as err:
                coerce_numbers(obj, "x", finite=True, each=each)
            assert err.value.key == ("x[1]" if each else "x")


@pytest.mark.parametrize("value", [np.float64(2.5), _Float(2.5), np.float32(2.5), -0.0, 2.5, 5],
                         ids=["np.float64", "float subclass", "np.float32", "-0.0", "float", "int"])
def test_frozen_dataclasses_store_exact_floats(value):
    # whether a field takes the plain-float path (no second store) or the
    # full one, each stored field of a frozen dataclass is exactly a float
    # with the value's sign, -0.0 included, and NaN is refused with finite
    geom, model = CellGeometry(type(value)(1000), value), SpeedModel("fixed", 1.0, value, value)
    for stored, given in ((geom.cell_radius_m, 1000), (geom.overlap_m, value), (model.vmin_mps, value),
                          (model.vmax_mps, value)):
        assert type(stored) is float and repr(stored) == repr(float(given))
    obj = _Fields()
    obj.x = type(value)(math.nan) if isinstance(value, float) else math.nan
    with pytest.raises(InvalidParameterError, match="must be finite, got nan") as err:
        coerce_numbers(obj, "x", finite=True)
    assert err.value.key == "x"

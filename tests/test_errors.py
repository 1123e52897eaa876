import dataclasses
import math
from operator import attrgetter

import numpy as np
import pytest

from handoff_lab.analytic import SpeedModel
from handoff_lab.errors import InvalidParameterError, coerce_numbers
from handoff_lab.geometry import CellGeometry
from handoff_lab.montecarlo import SimControls, estimate_failure


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


SPEEDS = dict(VALUES, **{"int": 30, "np.int64": np.int64(30), "float": 30.0, "np.float64": np.float64(30.0),
                         "float subclass": _Float(30.0), "0.0": 0.0, "str": "30", "1e151": np.float64(1e151)})
COUNTS = {"int": 200, "np.int64": np.int64(200), "bool": True, "np.bool_": np.bool_(True), "float": 200.0,
          "2**64": 2**64, "-1": -1, "0": 0, "str": "200"}
# how each field is built from one value (the others valid), and what is read back
MAKERS = {
    "fixed": (lambda x: SpeedModel.fixed(x), attrgetter("v_mps")),
    "vmin": (lambda x: SpeedModel("fixed", 30.0, x, 5.0), attrgetter("vmin_mps")),
    "uniform": (lambda x: SpeedModel.uniform(1.0, x), attrgetter("vmax_mps")),
    # a float speed is wrapped in SpeedModel.fixed; tau 0.01 s is decided, so nothing is drawn
    "estimate": (lambda x: estimate_failure(CellGeometry(1000.0, 150.0), x, 0.01, SimControls(100, 1)),
                 attrgetter("p_hat", "n")),
    "samples": (lambda x: SimControls(x, 7, 2), attrgetter("samples")),
    "seed": (lambda x: SimControls(200, x, 2), attrgetter("seed")),
    "batches": (lambda x: SimControls(200, 7, x), attrgetter("batches")),
}
# (maker, value) -> (stored type, repr) or (key, reason), recorded from the
# SpeedModel and SimControls whose generated __init__ ran coerce_numbers on
# every field; the handwritten ones must store and refuse the same
MODEL_ROWS = [
    ('fixed', 'float', ('float', '30.0')),
    ('fixed', 'int', ('float', '30.0')),
    ('fixed', 'bool', ('v_mps', 'must be a real number, got True')),
    ('fixed', 'np.float64', ('float', '30.0')),
    ('fixed', 'np.int64', ('float', '30.0')),
    ('fixed', 'np.bool_', ('v_mps', 'must be a real number, got np.True_')),
    ('fixed', 'nan', ('v_mps', 'must lie in [1e-150, 1e150], got nan')),
    ('fixed', 'inf', ('v_mps', 'must lie in [1e-150, 1e150], got inf')),
    ('fixed', '0.0', ('v_mps', 'must lie in [1e-150, 1e150], got 0.0')),
    ('fixed', '10**400', ('v_mps', 'must be a real number within float range')),
    ('fixed', 'float subclass', ('float', '30.0')),
    ('fixed', 'np.float32', ('float', '0.75')),
    ('fixed', 'str', ('v_mps', "must be a real number, got '30'")),
    ('fixed', '1e151', ('v_mps', 'must lie in [1e-150, 1e150], got 1e+151')),
    ('vmin', 'float', ('float', '30.0')),
    ('vmin', 'int', ('float', '30.0')),
    ('vmin', 'bool', ('vmin_mps', 'must be a real number, got True')),
    ('vmin', 'np.float64', ('float', '30.0')),
    ('vmin', 'np.int64', ('float', '30.0')),
    ('vmin', 'np.bool_', ('vmin_mps', 'must be a real number, got np.True_')),
    ('vmin', 'nan', ('float', 'nan')),
    ('vmin', 'inf', ('float', 'inf')),
    ('vmin', '0.0', ('float', '0.0')),
    ('vmin', '10**400', ('vmin_mps', 'must be a real number within float range')),
    ('vmin', 'float subclass', ('float', '30.0')),
    ('vmin', 'np.float32', ('float', '0.75')),
    ('vmin', 'str', ('vmin_mps', "must be a real number, got '30'")),
    ('vmin', '1e151', ('float', '1e+151')),
    ('uniform', 'float', ('float', '30.0')),
    ('uniform', 'int', ('float', '30.0')),
    ('uniform', 'bool', ('vmax_mps', 'must be a real number, got True')),
    ('uniform', 'np.float64', ('float', '30.0')),
    ('uniform', 'np.int64', ('float', '30.0')),
    ('uniform', 'np.bool_', ('vmax_mps', 'must be a real number, got np.True_')),
    ('uniform', 'nan', (None, 'uniform speed needs vmin < vmax in [1e-150, 1e150], got [1.0, nan]')),
    ('uniform', 'inf', (None, 'uniform speed needs vmin < vmax in [1e-150, 1e150], got [1.0, inf]')),
    ('uniform', '0.0', (None, 'uniform speed needs vmin < vmax in [1e-150, 1e150], got [1.0, 0.0]')),
    ('uniform', '10**400', ('vmax_mps', 'must be a real number within float range')),
    ('uniform', 'float subclass', ('float', '30.0')),
    ('uniform', 'np.float32', (None, 'uniform speed needs vmin < vmax in [1e-150, 1e150], got [1.0, 0.75]')),
    ('uniform', 'str', ('vmax_mps', "must be a real number, got '30'")),
    ('uniform', '1e151', (None, 'uniform speed needs vmin < vmax in [1e-150, 1e150], got [1.0, 1e+151]')),
    ('estimate', 'float', ('tuple', '(0.0, 100)')),
    ('estimate', 'int', ('tuple', '(0.0, 100)')),
    ('estimate', 'bool', ('v_mps', 'must be a real number, got True')),
    ('estimate', 'np.float64', ('tuple', '(0.0, 100)')),
    ('estimate', 'np.int64', ('tuple', '(0.0, 100)')),
    ('estimate', 'np.bool_', ('v_mps', 'must be a real number, got np.True_')),
    ('estimate', 'nan', ('v_mps', 'must lie in [1e-150, 1e150], got nan')),
    ('estimate', 'inf', ('v_mps', 'must lie in [1e-150, 1e150], got inf')),
    ('estimate', '0.0', ('v_mps', 'must lie in [1e-150, 1e150], got 0.0')),
    ('estimate', '10**400', ('v_mps', 'must be a real number within float range')),
    ('estimate', 'float subclass', ('tuple', '(0.0, 100)')),
    ('estimate', 'np.float32', ('tuple', '(0.0, 100)')),
    ('estimate', 'str', ('v_mps', "must be a real number, got '30'")),
    ('estimate', '1e151', ('v_mps', 'must lie in [1e-150, 1e150], got 1e+151')),
    ('samples', 'int', ('int', '200')),
    ('samples', 'np.int64', ('int', '200')),
    ('samples', 'bool', ('samples', 'must be an integer, got True')),
    ('samples', 'np.bool_', ('samples', 'must be an integer, got np.True_')),
    ('samples', 'float', ('samples', 'must be an integer, got 200.0')),
    ('samples', '2**64', ('int', '18446744073709551616')),
    ('samples', '-1', ('samples', 'must be an integer >= 1, got -1')),
    ('samples', '0', ('samples', 'must be an integer >= 1, got 0')),
    ('samples', 'str', ('samples', "must be an integer, got '200'")),
    ('seed', 'int', ('int', '200')),
    ('seed', 'np.int64', ('int', '200')),
    ('seed', 'bool', ('seed', 'must be an integer, got True')),
    ('seed', 'np.bool_', ('seed', 'must be an integer, got np.True_')),
    ('seed', 'float', ('seed', 'must be an integer, got 200.0')),
    ('seed', '2**64', ('seed', 'must be an unsigned 64-bit integer, got 18446744073709551616')),
    ('seed', '-1', ('seed', 'must be an unsigned 64-bit integer, got -1')),
    ('seed', '0', ('int', '0')),
    ('seed', 'str', ('seed', "must be an integer, got '200'")),
    ('batches', 'int', ('int', '200')),
    ('batches', 'np.int64', ('int', '200')),
    ('batches', 'bool', ('batches', 'must be an integer, got True')),
    ('batches', 'np.bool_', ('batches', 'must be an integer, got np.True_')),
    ('batches', 'float', ('batches', 'must be an integer, got 200.0')),
    ('batches', '2**64', ('batches', 'must be an integer in [1, samples], got 18446744073709551616')),
    ('batches', '-1', ('batches', 'must be an integer in [1, samples], got -1')),
    ('batches', '0', ('batches', 'must be an integer in [1, samples], got 0')),
    ('batches', 'str', ('batches', "must be an integer, got '200'")),
]


@pytest.mark.parametrize("maker,name,expected", MODEL_ROWS)
def test_speed_models_and_controls_store_and_refuse_as_recorded(maker, name, expected):
    # np.float64, float subclasses, bools and NaN on the fixed-model path (and
    # in a speed field it does not use, a uniform model and the controls) are
    # refused or coerced with the same key and message, and every stored
    # field is exactly float or int
    make, read = MAKERS[maker]
    value = (COUNTS if maker in ("samples", "seed", "batches") else SPEEDS)[name]
    try:
        made = make(value)
    except InvalidParameterError as exc:
        assert (exc.key, exc.reason) == expected
        return
    stored = read(made)
    assert (type(stored).__name__, repr(stored)) == expected
    if isinstance(made, (SpeedModel, SimControls)):
        plain = float if isinstance(made, SpeedModel) else int
        assert all(type(getattr(made, f.name)) is plain for f in dataclasses.fields(made) if f.name != "kind")

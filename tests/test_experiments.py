import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from handoff_lab.analytic import false_handoff_probability, handoff_failure_probability
from handoff_lab.errors import InvalidParameterError
from handoff_lab.experiments import _MAX_POINTS, Axis, SweepSpec, SweepTable, run_sweep
from handoff_lab.geometry import CellGeometry
from handoff_lab.montecarlo import SimControls

SQRT3 = math.sqrt(3.0)


def rows_by_series(table: SweepTable):
    series = {}
    for row in table.rows:
        series.setdefault(row[0], []).append(row)
    return series


# ----------------------------------------------------------------------
# false handoff vs overlap
# ----------------------------------------------------------------------

def test_false_vs_overlap_trends():
    spec = SweepSpec(
        kind="false_vs_overlap",
        axis=Axis(0.0, 0.8 * SQRT3 * 500.0 / 2.0, 40),
        cell_radius_m=(500.0, 1000.0, 2000.0),
    )
    table = run_sweep(spec)
    assert table.columns == ("cell_radius_m", "overlap_m", "false_handoff_probability")
    assert len(table.rows) == 3 * 40
    series = rows_by_series(table)
    assert len(series) == 3
    for radius, rows in series.items():
        values = [r[2] for r in rows]
        assert values[0] == pytest.approx(7.0 / 12.0, rel=1e-12)
        assert all(b > a for a, b in zip(values, values[1:]))
    # at any shared overlap, the smaller cell sits above
    for i in range(40):
        s500 = series[500.0][i][2]
        s1000 = series[1000.0][i][2]
        s2000 = series[2000.0][i][2]
        if i > 0:
            assert s500 > s1000 > s2000


def test_false_vs_overlap_matches_direct_calls():
    spec = SweepSpec(
        kind="false_vs_overlap",
        axis=Axis(0.0, 400.0, 9),
        cell_radius_m=(800.0,),
    )
    for row in run_sweep(spec).rows:
        assert row[2] == false_handoff_probability(CellGeometry(row[0], row[1]))


# ----------------------------------------------------------------------
# failure vs speed
# ----------------------------------------------------------------------

def test_failure_vs_speed_trends():
    spec = SweepSpec(
        kind="failure_vs_speed",
        axis=Axis(10.0, 90.0, 33),
        cell_radius_m=(1000.0,),
        overlap_m=(0.0, 10.0, 50.0),
        delay_s=3.0,
    )
    table = run_sweep(spec)
    assert table.columns == ("overlap_m", "speed_mps", "failure_probability")
    series = rows_by_series(table)
    for _, rows in series.items():
        values = [r[2] for r in rows]
        assert all(b >= a for a, b in zip(values, values[1:]))
    # more overlap never hurts, at any speed
    for i in range(33):
        assert series[0.0][i][2] >= series[10.0][i][2] >= series[50.0][i][2]


def test_failure_vs_speed_matches_direct_calls():
    spec = SweepSpec(
        kind="failure_vs_speed",
        axis=Axis(5.0, 80.0, 16),
        cell_radius_m=(1000.0,),
        overlap_m=(25.0,),
        delay_s=4.0,
    )
    geom = CellGeometry(1000.0, 25.0)
    for row in run_sweep(spec).rows:
        assert row[2] == handoff_failure_probability(geom, row[1], 4.0)


# ----------------------------------------------------------------------
# failure vs delay
# ----------------------------------------------------------------------

def test_failure_vs_delay_trends():
    spec = SweepSpec(
        kind="failure_vs_delay",
        axis=Axis(0.0, 12.0, 49),
        cell_radius_m=(1000.0,),
        overlap_m=(0.0,),
        speed_mps=50.0,
    )
    table = run_sweep(spec)
    assert table.columns == ("overlap_m", "delay_s", "failure_probability")
    values = [r[2] for r in table.rows]
    delays = [r[1] for r in table.rows]
    assert all(b >= a for a, b in zip(values, values[1:]))
    for tau, pf in zip(delays, values):
        if tau < 2.679:
            assert pf == 0.0
        if tau >= 10.3528:
            assert pf == 1.0


def test_failure_vs_delay_matches_direct_calls():
    spec = SweepSpec(
        kind="failure_vs_delay",
        axis=Axis(1.0, 11.0, 21),
        cell_radius_m=(1000.0,),
        overlap_m=(0.0, 100.0),
        speed_mps=40.0,
    )
    for row in run_sweep(spec).rows:
        geom = CellGeometry(1000.0, row[0])
        assert row[2] == handoff_failure_probability(geom, 40.0, row[1])


# ----------------------------------------------------------------------
# sampling overlay
# ----------------------------------------------------------------------

def test_mc_overlay_columns_and_agreement():
    spec = SweepSpec(
        kind="failure_vs_speed",
        axis=Axis(20.0, 80.0, 7),
        cell_radius_m=(1000.0,),
        overlap_m=(0.0, 30.0),
        delay_s=3.0,
        mc=SimControls(samples=200_000, seed=2024),
    )
    table = run_sweep(spec)
    assert table.columns == (
        "overlap_m",
        "speed_mps",
        "failure_probability",
        "estimate",
        "std_err",
    )
    misses = 0
    for row in table.rows:
        _, _, exact, est, se = row
        if se == 0.0:
            assert est == exact
        elif abs(est - exact) > 3.0 * se:
            misses += 1
    assert misses <= 1


def test_mc_overlay_uses_distinct_substreams():
    spec = SweepSpec(
        kind="false_vs_overlap",
        axis=Axis(0.0, 0.0001, 3),
        cell_radius_m=(1000.0,),
        mc=SimControls(samples=5_000, seed=9),
    )
    estimates = [row[3] for row in run_sweep(spec).rows]
    # near-identical geometry at every point, so equal estimates would mean
    # the points shared a stream
    assert len(set(estimates)) > 1


def test_sweep_is_deterministic():
    spec = SweepSpec(
        kind="failure_vs_delay",
        axis=Axis(0.0, 12.0, 5),
        cell_radius_m=(1000.0,),
        overlap_m=(0.0,),
        speed_mps=50.0,
        mc=SimControls(samples=20_000, seed=7, batches=4),
    )
    assert run_sweep(spec).rows == run_sweep(spec).rows


# ----------------------------------------------------------------------
# validation and provenance
# ----------------------------------------------------------------------

def test_spec_validation():
    good_axis = Axis(1.0, 2.0, 3)
    with pytest.raises(InvalidParameterError):
        SweepSpec(kind="nope", axis=good_axis, cell_radius_m=(1.0,))
    with pytest.raises(InvalidParameterError):
        Axis(1.0, 2.0, 1)
    with pytest.raises(InvalidParameterError):
        Axis(2.0, 1.0, 5)
    with pytest.raises(InvalidParameterError):
        SweepSpec(kind="false_vs_overlap", axis=good_axis, cell_radius_m=())
    with pytest.raises(InvalidParameterError):
        SweepSpec(
            kind="failure_vs_speed",
            axis=good_axis,
            cell_radius_m=(1000.0, 2000.0),
            delay_s=3.0,
        )
    with pytest.raises(InvalidParameterError):
        SweepSpec(kind="failure_vs_speed", axis=good_axis, cell_radius_m=(1000.0,))
    with pytest.raises(InvalidParameterError):
        SweepSpec(kind="failure_vs_delay", axis=Axis(0.0, 5.0, 3), cell_radius_m=(1000.0,))


@pytest.mark.parametrize(
    "make,ok",
    [
        (lambda: SweepSpec("failure_vs_delay", Axis(0.0, 5.0, 3), cell_radius_m=(1000.0,),
                           speed_mps=True), False),
        (lambda: Axis(0.0, 1.0, np.int64(5)), True),
        (lambda: SweepSpec("false_vs_overlap", Axis(0.0, 100.0, 3),
                           cell_radius_m=(np.float32(1000),)), True),
        (lambda: Axis(0.0, math.inf, 3), False),
        (lambda: SweepSpec("failure_vs_speed", Axis(10.0, 50.0, 3), cell_radius_m=(1000.0,),
                           delay_s=math.inf), False),
        (lambda: SweepSpec("failure_vs_delay", Axis(0.0, 5.0, 3), cell_radius_m=(1000.0,),
                           speed_mps=math.inf), False),
        (lambda: SweepSpec("failure_vs_speed", Axis(10.0, 50.0, 3), cell_radius_m=(1000.0,),
                           overlap_m=(np.int64(0), False), delay_s=3.0), False),
        (lambda: SweepSpec("failure_vs_speed", Axis(np.int64(10), 50.0, 3), cell_radius_m=(1000,),
                           overlap_m=(np.float32(25.0),), delay_s=np.float32(3.0)), True),
    ],
    ids=["bool-speed", "numpy-steps", "numpy-radius", "inf-axis", "inf-delay", "inf-speed",
         "bool-overlap", "numpy-fixed-values"],
)
def test_sweep_numeric_inputs(make, ok):
    # bools and non-finite values are rejected at construction; numpy
    # scalars are stored, and reach the rows, as plain float/int
    if not ok:
        with pytest.raises(InvalidParameterError):
            make()
        return
    made = make()
    if isinstance(made, Axis):
        assert (type(made.start), type(made.stop), type(made.steps)) == (float, float, int)
        assert made.points().tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
        return
    assert {type(x) for row in run_sweep(made).rows for x in row} == {float}


def _axis_ends():
    """Axis ends drawn three ways: any finite doubles (hypothesis leans on
    the huge, tiny and subnormal ones), multiples of the least subnormal,
    where the step can round to 0, and ordinary spans."""
    finite, tiny = st.floats(allow_nan=False, allow_infinity=False), st.integers(-2**20, 2**20).map(lambda k: k * 5e-324)
    return st.one_of(st.tuples(finite, finite), st.tuples(tiny, tiny), st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(ends=_axis_ends(), steps=st.integers(2, 3000))
@example(ends=(0.0, 3 * 5e-324), steps=1000)  # a step that rounds to 0: numpy's divide-first branch
@example(ends=(-1e308, 1e308), steps=5)  # stop - start overflows to inf
@example(ends=(2.0, 60.0), steps=200)
def test_axis_values_equal_numpy_linspace_bit_for_bit(ends, steps):
    # run_sweep takes its axis from Axis.values in plain Python, so a sweep
    # need not load numpy; each value must be np.linspace's, and points()
    # its array
    start, stop = sorted(ends)
    assume(start < stop)
    axis = Axis(start, stop, steps)
    values = axis.values()
    assert len(values) == steps and {type(x) for x in values} == {float}
    with np.errstate(all="ignore"):  # an infinite span gives inf and 0*inf = nan, as here
        expected = np.linspace(start, stop, steps)
    assert np.array_equal(np.array(values).view(np.uint64), expected.view(np.uint64))
    assert np.array_equal(axis.points().view(np.uint64), expected.view(np.uint64))


def test_invalid_grid_point_is_named():
    # the spec checks its grid when it is built, at the key that sets the
    # largest overlap, and names the radius it exceeds
    with pytest.raises(InvalidParameterError) as err:
        SweepSpec(kind="false_vs_overlap", axis=Axis(0.0, SQRT3 * 500.0, 5), cell_radius_m=(500.0,))
    assert err.value.key == "axis.stop"
    assert "cell_radius_m=500" in str(err.value)
    with pytest.raises(InvalidParameterError) as err:
        SweepSpec(kind="failure_vs_speed", axis=Axis(1.0, 9.0, 5), cell_radius_m=(500.0,),
                  overlap_m=(0.0, SQRT3 * 250.0), delay_s=3.0)
    assert err.value.key == "overlap_m[1]"
    assert "cell_radius_m=500" in str(err.value)


def test_grid_past_the_point_cap_is_refused_at_axis_steps():
    # the spec refuses series x steps above the cap when it is built, so
    # 10**13 steps allocate nothing
    with pytest.raises(InvalidParameterError) as err:
        SweepSpec("failure_vs_delay", Axis(0.0, 5.0, 10**13), cell_radius_m=(1000.0,), speed_mps=50.0)
    assert err.value.key == "axis.steps"
    half = _MAX_POINTS // 2
    SweepSpec("false_vs_overlap", Axis(0.0, 5.0, half), cell_radius_m=(1000.0, 2000.0))
    with pytest.raises(InvalidParameterError) as err:
        SweepSpec("false_vs_overlap", Axis(0.0, 5.0, half + 1), cell_radius_m=(1000.0, 2000.0))
    assert (err.value.key, err.value.reason) == ("axis.steps", f"gives 2 x {half + 1} grid points, more than {_MAX_POINTS}")


@pytest.mark.parametrize("kind,axis,fixed,key", [
    ("failure_vs_speed", Axis(0.0, 10.0, 3), {"delay_s": 3.0}, "axis.start"),
    ("failure_vs_speed", Axis(1e-200, 10.0, 3), {"delay_s": 3.0}, "axis.start"),
    ("failure_vs_speed", Axis(1.0, 1e200, 3), {"delay_s": 3.0}, "axis.stop"),
    ("failure_vs_delay", Axis(0.0, 5.0, 3), {"speed_mps": 0.0}, "speed_mps"),
    ("failure_vs_delay", Axis(0.0, 5.0, 3), {"speed_mps": 1e300}, "speed_mps"),
], ids=["zero-start", "slow-start", "fast-stop", "zero-speed", "fast-speed"])
def test_sweep_speeds_past_their_bound_are_named(kind, axis, fixed, key):
    # every swept or fixed speed lies in [1e-150, 1e150] m/s, checked when
    # the spec is built and named at its key
    with pytest.raises(InvalidParameterError) as err:
        SweepSpec(kind=kind, axis=axis, cell_radius_m=(1000.0,), **fixed)
    assert err.value.key == key
    assert err.value.reason.startswith("must lie in [1e-150, 1e150], got ")


R = (1000.0,)


@pytest.mark.parametrize("kind,axis,fields,key,reason", [
    ("nope", Axis(1.0, 2.0, 3), {"cell_radius_m": R}, "kind",
     "must be one of false_vs_overlap, failure_vs_speed, failure_vs_delay, got 'nope'"),
    ("false_vs_overlap", Axis(0.0, 5.0, 3), {}, "cell_radius_m", "needs at least one value for false_vs_overlap"),
    ("false_vs_overlap", Axis(-1.0, 5.0, 3), {"cell_radius_m": R}, "axis.start",
     "must be 0 or above for false_vs_overlap"),
    ("failure_vs_speed", Axis(10.0, 50.0, 3), {"cell_radius_m": (1000.0, 2000.0), "delay_s": 3.0}, "cell_radius_m",
     "needs exactly one value for failure_vs_speed"),
    ("failure_vs_delay", Axis(0.0, 5.0, 3), {"speed_mps": 50.0}, "cell_radius_m",
     "needs exactly one value for failure_vs_delay"),
    ("failure_vs_speed", Axis(10.0, 50.0, 3), {"cell_radius_m": R, "overlap_m": (), "delay_s": 3.0}, "overlap_m",
     "needs at least one value for failure_vs_speed"),
    ("failure_vs_delay", Axis(0.0, 5.0, 3), {"cell_radius_m": R, "overlap_m": (), "speed_mps": 50.0}, "overlap_m",
     "needs at least one value for failure_vs_delay"),
    ("failure_vs_speed", Axis(10.0, 50.0, 3), {"cell_radius_m": R}, "delay_s",
     "must be given and nonnegative for failure_vs_speed"),
    ("failure_vs_speed", Axis(10.0, 50.0, 3), {"cell_radius_m": R, "delay_s": -1.0}, "delay_s",
     "must be given and nonnegative for failure_vs_speed"),
    ("failure_vs_delay", Axis(0.0, 5.0, 3), {"cell_radius_m": R}, "speed_mps", "must be given for failure_vs_delay"),
    ("failure_vs_delay", Axis(-1.0, 5.0, 3), {"cell_radius_m": R, "speed_mps": 50.0}, "axis.start",
     "must be 0 or above for failure_vs_delay"),
], ids=["kind", "no-radius", "overlap-below-0", "two-radii", "no-radius-for-failure", "no-overlap-speed",
        "no-overlap-delay", "no-delay", "negative-delay", "no-speed", "delay-below-0"])
def test_each_single_fault_spec_is_refused_at_its_key(kind, axis, fields, key, reason):
    with pytest.raises(InvalidParameterError) as err:
        SweepSpec(kind=kind, axis=axis, **fields)
    assert (err.value.key, err.value.reason) == (key, reason)


def test_a_fixed_value_the_kind_does_not_use_is_not_checked():
    # false_vs_overlap holds no speed or delay fixed, so it takes any it is given
    table = run_sweep(SweepSpec("false_vs_overlap", Axis(0.0, 5.0, 2), cell_radius_m=R, speed_mps=0.0, delay_s=-1.0))
    assert table.columns == ("cell_radius_m", "overlap_m", "false_handoff_probability")
    assert table.provenance["speed_mps"] == "0" and table.provenance["delay_s"] == "-1"


def test_provenance_records_the_spec():
    spec = SweepSpec(
        kind="failure_vs_speed",
        axis=Axis(10.0, 90.0, 5),
        cell_radius_m=(1000.0,),
        overlap_m=(0.0, 50.0),
        delay_s=3.0,
        mc=SimControls(samples=1_000, seed=3, batches=2),
    )
    prov = run_sweep(spec).provenance
    assert prov["kind"] == "failure_vs_speed"
    assert prov["axis"] == "10:90:5"
    assert prov["cell_radius_m"] == "1000"
    assert prov["overlap_m"] == "0,50"
    assert prov["delay_s"] == "3"
    assert prov["mc_samples"] == "1000"
    assert prov["mc_seed"] == "3"
    assert prov["mc_batches"] == "2"
    assert "version" in prov

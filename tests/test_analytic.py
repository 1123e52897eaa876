import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from handoff_lab.analytic import (
    SpeedModel,
    _cdf_many,
    adapt_overlap,
    crossing_time_cdf,
    crossing_time_pdf,
    crossing_time_support,
    expected_failure_over_speed,
    false_handoff_probability,
    handoff_failure_probability,
)
from handoff_lab.errors import InvalidParameterError, NotBracketedError, OutOfDomainError
from handoff_lab.geometry import CellGeometry, derive_geometry
from handoff_lab.montecarlo import SimControls, crossing_time_ecdf, estimate_failure, estimate_false_handoff

SQRT3 = math.sqrt(3.0)
KM_CELL = CellGeometry(1000.0, 0.0)
MC_N = 10**6


# ----------------------------------------------------------------------
# speed model
# ----------------------------------------------------------------------

def test_speed_model_validation():
    with pytest.raises(InvalidParameterError):
        SpeedModel.uniform(60.0, 40.0)
    with pytest.raises(InvalidParameterError):
        SpeedModel.uniform(0.0, 40.0)
    with pytest.raises(InvalidParameterError):
        SpeedModel.fixed(-3.0)
    with pytest.raises(InvalidParameterError):
        SpeedModel(kind="gauss", v_mps=1.0)


@pytest.mark.parametrize(
    "make,ok",
    [
        (lambda: SpeedModel.fixed(np.float32(50.0)), True),
        (lambda: SpeedModel.uniform(np.int64(40), np.float64(60.0)), True),
        (lambda: SpeedModel.fixed(True), False),
        (lambda: SpeedModel.uniform(False, 60.0), False),
        (lambda: SpeedModel.fixed("50"), False),
        (lambda: SpeedModel.fixed(10**400), False),
        (lambda: SpeedModel.uniform(40, 10**400), False),
    ],
)
def test_speed_model_numeric_inputs(make, ok):
    # bools are rejected, numpy scalars are stored as plain float
    if not ok:
        with pytest.raises(InvalidParameterError):
            make()
        return
    model = make()
    assert {type(model.v_mps), type(model.vmin_mps), type(model.vmax_mps)} == {float}


# ----------------------------------------------------------------------
# false handoff probability
# ----------------------------------------------------------------------

def test_false_handoff_tangent_cells_is_seven_twelfths():
    for a in (100.0, 500.0, 1000.0, 5000.0):
        value = false_handoff_probability(CellGeometry(a, 0.0))
        assert value == pytest.approx(7.0 / 12.0, rel=1e-12)


def test_false_handoff_frozen_values_confirmed_by_sampling():
    # frozen closed-form values, each cross-checked against the ray oracle
    cases = [(1000.0, 200.0, 0.658254085), (500.0, 200.0, 0.700829423)]
    for a, overlap, expected in cases:
        geom = CellGeometry(a, overlap)
        value = false_handoff_probability(geom)
        assert value == pytest.approx(expected, abs=1e-9)
        est = estimate_false_handoff(geom, SimControls(samples=MC_N, seed=42))
        assert abs(value - est.p_hat) <= 3.0 * est.std_err


def test_false_handoff_increases_with_overlap():
    values = [
        false_handoff_probability(CellGeometry(1000.0, L))
        for L in np.linspace(0.0, 800.0, 81)
    ]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_false_handoff_worse_for_smaller_cells():
    for overlap in (50.0, 120.0, 200.0):
        small = false_handoff_probability(CellGeometry(500.0, overlap))
        large = false_handoff_probability(CellGeometry(1000.0, overlap))
        assert small > large


def test_false_handoff_scale_free():
    rng = np.random.default_rng(23)
    for _ in range(30):
        a = rng.uniform(100, 3000)
        overlap = rng.uniform(0, 0.9 * SQRT3 * a / 2)
        k = rng.uniform(0.2, 10)
        assert false_handoff_probability(CellGeometry(a, overlap)) == pytest.approx(
            false_handoff_probability(CellGeometry(k * a, k * overlap)), rel=1e-12
        )


# ----------------------------------------------------------------------
# crossing time and its support
# ----------------------------------------------------------------------

def test_support_endpoints():
    support = crossing_time_support(KM_CELL, 50.0)
    assert support.t_min_s == pytest.approx(2.679491924, abs=1e-9)
    assert support.t_max_s == pytest.approx(10.352761804, abs=1e-9)
    support = crossing_time_support(KM_CELL, 100.0)
    assert support.t_min_s == pytest.approx(1.339745962, abs=1e-9)
    assert support.t_max_s == pytest.approx(5.176380902, abs=1e-9)


def test_support_secant_relation():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = rng.uniform(100, 4000)
        overlap = rng.uniform(0, 0.9 * SQRT3 * a / 2)
        v = rng.uniform(1, 100)
        geom = CellGeometry(a, overlap)
        dg = derive_geometry(geom)
        support = crossing_time_support(geom, v)
        assert 0.0 < support.t_min_s < support.t_max_s
        assert support.t_max_s == pytest.approx(
            support.t_min_s / math.cos(dg.chord_half_angle_rad), rel=1e-12
        )


def test_support_validation():
    with pytest.raises(OutOfDomainError):
        crossing_time_support(KM_CELL, 0.0)


# ----------------------------------------------------------------------
# crossing-time density
# ----------------------------------------------------------------------

def test_pdf_frozen_value():
    assert crossing_time_pdf(KM_CELL, 50.0, 3.0) == pytest.approx(0.505729556, abs=1e-9)


def test_pdf_zero_outside_support():
    support = crossing_time_support(KM_CELL, 50.0)
    assert crossing_time_pdf(KM_CELL, 50.0, 2.0) == 0.0
    assert crossing_time_pdf(KM_CELL, 50.0, 11.0) == 0.0
    assert crossing_time_pdf(KM_CELL, 50.0, support.t_min_s) == 0.0
    assert crossing_time_pdf(KM_CELL, 50.0, support.t_max_s) == 0.0
    assert crossing_time_pdf(KM_CELL, 50.0, -1.0) == 0.0


def test_pdf_integrates_to_one():
    for a, overlap, v in [(1000.0, 0.0, 50.0), (1000.0, 200.0, 30.0), (400.0, 100.0, 12.0)]:
        geom = CellGeometry(a, overlap)
        support = crossing_time_support(geom, v)
        total, _ = quad(
            lambda t: crossing_time_pdf(geom, v, t),
            support.t_min_s,
            support.t_max_s,
            limit=200,
        )
        assert total == pytest.approx(1.0, abs=1e-6)


def test_pdf_matches_sampled_histogram():
    # bin mass oracle: empirical frequency in [2.95, 3.05) vs integrated density
    geom = KM_CELL
    dg = derive_geometry(geom)
    rng = np.random.Generator(np.random.Philox(key=[7, 0]))
    beta = rng.uniform(-dg.chord_half_angle_rad, dg.chord_half_angle_rad, MC_N)
    times = dg.trigger_to_chord_m / np.cos(beta) / 50.0
    lo, hi = 2.95, 3.05
    frac = float(((times >= lo) & (times < hi)).mean())
    expected, _ = quad(lambda t: crossing_time_pdf(geom, 50.0, t), lo, hi)
    sigma = math.sqrt(expected * (1 - expected) / MC_N)
    assert abs(frac - expected) <= 3.0 * sigma
    # and the bin-averaged density sits near the frozen midpoint value
    assert expected / (hi - lo) == pytest.approx(0.505729556, abs=0.01)


def test_pdf_rejects_bad_speed():
    with pytest.raises(OutOfDomainError):
        crossing_time_pdf(KM_CELL, -1.0, 3.0)


# ----------------------------------------------------------------------
# crossing-time distribution and failure probability
# ----------------------------------------------------------------------

def test_cdf_frozen_value_three_ways():
    value = crossing_time_cdf(KM_CELL, 50.0, 3.0)
    assert value == pytest.approx(0.356352488, abs=1e-9)
    support = crossing_time_support(KM_CELL, 50.0)
    via_quad, _ = quad(
        lambda t: crossing_time_pdf(KM_CELL, 50.0, t), support.t_min_s, 3.0, limit=200
    )
    assert via_quad == pytest.approx(value, abs=1e-8)
    est = estimate_failure(KM_CELL, 50.0, 3.0, SimControls(samples=MC_N, seed=42))
    assert abs(value - est.p_hat) <= 3.0 * est.std_err


def test_cdf_branches():
    support = crossing_time_support(KM_CELL, 50.0)
    assert crossing_time_cdf(KM_CELL, 50.0, 0.0) == 0.0
    assert crossing_time_cdf(KM_CELL, 50.0, support.t_min_s) == 0.0
    assert crossing_time_cdf(KM_CELL, 50.0, 20.0) == 1.0
    assert crossing_time_cdf(KM_CELL, 50.0, support.t_max_s) == 1.0


def test_cdf_is_continuous_at_branch_points():
    support = crossing_time_support(KM_CELL, 50.0)
    t_min, t_max = support.t_min_s, support.t_max_s
    half_angle = derive_geometry(KM_CELL).chord_half_angle_rad
    # upper seam: slope is finite, so the gap shrinks linearly
    eps = 1e-6 * t_min
    assert 1.0 - crossing_time_cdf(KM_CELL, 50.0, t_max - eps) <= 1e-6
    # lower seam: square-root onset, gap shrinks like sqrt(eps)
    for scale in (1e-6, 1e-8, 1e-10):
        eps = scale * t_min
        gap = crossing_time_cdf(KM_CELL, 50.0, t_min + eps)
        bound = math.sqrt(2.0 * scale) / half_angle
        assert 0.0 < gap <= bound * 1.001


def test_cdf_monotone_in_tau():
    taus = np.linspace(0.0, 15.0, 400)
    values = [crossing_time_cdf(KM_CELL, 50.0, float(t)) for t in taus]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert all(0.0 <= v <= 1.0 for v in values)


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.uint64)


def test_cdf_array_form_matches_scalar_at_branch_points():
    cases = ((KM_CELL, 50.0), (CellGeometry(700.0, 300.0), 12.5), (CellGeometry(3000.0, 5.0), 90.0))
    for geom, v in cases:
        support = crossing_time_support(geom, v)
        t_min, t_max = support.t_min_s, support.t_max_s
        taus = [
            0.0,
            t_min,
            math.nextafter(t_min, math.inf),
            0.5 * (t_min + t_max),
            math.nextafter(t_max, 0.0),
            t_max,
            math.nextafter(t_max, math.inf),
            2.0 * t_max,
        ]
        got = _cdf_many(derive_geometry(geom), v, np.array(taus))
        want = [crossing_time_cdf(geom, v, t) for t in taus]
        assert np.array_equal(_bits(got), _bits(want))
        assert got[[0, 1]].tolist() == [0.0, 0.0]
        assert got[[5, 6, 7]].tolist() == [1.0, 1.0, 1.0]
        assert 0.0 < got[2] < got[3] < got[4] <= 1.0


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    a=st.floats(100.0, 5000.0),
    overlap_frac=st.floats(0.0, 0.99),
    speeds=st.lists(st.floats(0.5, 120.0), min_size=1, max_size=6),
    delay_fracs=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=12),
)
def test_cdf_array_form_property(a, overlap_frac, speeds, delay_fracs):
    geom = CellGeometry(a, overlap_frac * SQRT3 / 2.0 * a)
    # delays spread over the first speed's support and past it, plus every
    # speed's exact support endpoints, where the branches switch
    t_max0 = crossing_time_support(geom, speeds[0]).t_max_s
    taus = [f * t_max0 for f in delay_fracs]
    for v in speeds:
        support = crossing_time_support(geom, v)
        taus += [support.t_min_s, support.t_max_s]
    taus = np.array(sorted(taus))
    got = _cdf_many(derive_geometry(geom), np.array(speeds)[:, None], taus)
    want = [[crossing_time_cdf(geom, v, float(t)) for t in taus] for v in speeds]
    assert np.array_equal(_bits(got), _bits(want))
    assert np.all(np.diff(got, axis=1) >= 0.0)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    a=st.floats(100.0, 5000.0),
    overlap_fracs=st.lists(st.floats(0.0, 0.99), min_size=2, max_size=2),
    speeds=st.lists(st.floats(0.5, 120.0), min_size=2, max_size=2),
    delay_frac=st.floats(0.0, 1.5),
)
def test_cdf_monotone_in_speed_and_overlap(a, overlap_fracs, speeds, delay_frac):
    # a faster mobile or a shallower overlap reaches the chord sooner, so
    # fails at least as often; the delay spans the support at both speeds
    (ov_lo, ov_hi), (v_lo, v_hi) = sorted(overlap_fracs), sorted(speeds)
    shallow, deep = (CellGeometry(a, f * SQRT3 / 2.0 * a) for f in (ov_lo, ov_hi))
    tau = delay_frac * crossing_time_support(deep, v_lo).t_max_s
    assert crossing_time_cdf(shallow, v_lo, tau) <= crossing_time_cdf(shallow, v_hi, tau) + 1e-15
    assert crossing_time_cdf(deep, v_lo, tau) <= crossing_time_cdf(deep, v_hi, tau) + 1e-15
    assert crossing_time_cdf(deep, v_lo, tau) <= crossing_time_cdf(shallow, v_lo, tau) + 1e-15
    assert crossing_time_cdf(deep, v_hi, tau) <= crossing_time_cdf(shallow, v_hi, tau) + 1e-15


def test_cdf_validation():
    with pytest.raises(OutOfDomainError):
        crossing_time_cdf(KM_CELL, 0.0, 3.0)
    with pytest.raises(OutOfDomainError):
        crossing_time_cdf(KM_CELL, 50.0, -0.5)


# Each scalar numeric argument of the closed forms and estimators: a call
# taking that argument alone, a valid value exact in float32, and the error
# the call raises for a non-finite value.
_NUM_CTL = SimControls(samples=2_000, seed=3)
NUMERIC_ARGUMENTS = {
    "support-v": (lambda x: crossing_time_support(KM_CELL, x), 50.0, OutOfDomainError),
    "pdf-v": (lambda x: crossing_time_pdf(KM_CELL, x, 3.0), 50.0, OutOfDomainError),
    "cdf-v": (lambda x: crossing_time_cdf(KM_CELL, x, 3.0), 50.0, OutOfDomainError),
    "cdf-tau": (lambda x: crossing_time_cdf(KM_CELL, 50.0, x), 3.0, OutOfDomainError),
    "failure-v": (lambda x: handoff_failure_probability(KM_CELL, x, 3.0), 50.0, OutOfDomainError),
    "failure-tau": (lambda x: handoff_failure_probability(KM_CELL, 50.0, x), 3.0, OutOfDomainError),
    "speed-average-tau": (
        lambda x: expected_failure_over_speed(KM_CELL, SpeedModel.uniform(40.0, 60.0), x),
        3.0, OutOfDomainError),
    "adapt-v": (lambda x: adapt_overlap(1000.0, x, 3.0, 0.25), 50.0, OutOfDomainError),
    "adapt-tau": (lambda x: adapt_overlap(1000.0, 50.0, x, 0.25), 3.0, OutOfDomainError),
    "adapt-target": (lambda x: adapt_overlap(1000.0, 50.0, 3.0, x), 0.25, NotBracketedError),
    "estimate-v": (lambda x: estimate_failure(KM_CELL, x, 3.0, _NUM_CTL), 50.0, InvalidParameterError),
    "estimate-tau": (lambda x: estimate_failure(KM_CELL, 50.0, x, _NUM_CTL), 3.0, InvalidParameterError),
    "ecdf-v": (lambda x: crossing_time_ecdf(KM_CELL, x, _NUM_CTL).ks_stat, 50.0, InvalidParameterError),
}


@pytest.mark.parametrize("value", [math.inf, True, "3", None, 10**400, np.float32],
                         ids=["inf", "bool", "str", "none", "huge-int", "float32"])
@pytest.mark.parametrize("name", NUMERIC_ARGUMENTS)
def test_numeric_arguments(name, value):
    # bools, non-numbers and integers beyond float range raise what a
    # non-finite value raises; a numpy scalar gives what the float of the
    # same value gives
    call, good, error = NUMERIC_ARGUMENTS[name]
    if value is np.float32:
        # repr, because a float32 compares equal to a float after rounding
        # the float to float32
        assert repr(call(np.float32(good))) == repr(call(good))
        return
    with pytest.raises(error):
        call(value)


def test_failure_probability_is_the_cdf():
    rng = np.random.default_rng(31)
    for _ in range(100):
        a = rng.uniform(200, 4000)
        overlap = rng.uniform(0, 0.9 * SQRT3 * a / 2)
        v = rng.uniform(2, 100)
        tau = rng.uniform(0, 20)
        geom = CellGeometry(a, overlap)
        assert handoff_failure_probability(geom, v, tau) == crossing_time_cdf(geom, v, tau)


def test_failure_probability_with_overlap_frozen():
    geom = CellGeometry(1000.0, 10.0)
    value = handoff_failure_probability(geom, 50.0, 3.0)
    assert value == pytest.approx(0.219872450, abs=1e-9)
    est = estimate_failure(geom, 50.0, 3.0, SimControls(samples=MC_N, seed=42))
    assert abs(value - est.p_hat) <= 3.0 * est.std_err


def test_failure_probability_decreases_with_overlap():
    for tau in (1.0, 3.0, 8.0):
        values = [
            handoff_failure_probability(CellGeometry(1000.0, L), 50.0, tau)
            for L in np.linspace(0.0, 860.0, 173)
        ]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))


def test_failure_probability_nondecreasing_in_speed():
    for tau in (1.5, 3.0):
        values = [
            handoff_failure_probability(KM_CELL, float(v), tau)
            for v in np.linspace(1.0, 150.0, 300)
        ]
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))


# ----------------------------------------------------------------------
# speed-averaged failure probability
# ----------------------------------------------------------------------

def test_expected_failure_frozen_value():
    value = expected_failure_over_speed(KM_CELL, SpeedModel.uniform(40.0, 60.0), 3.0)
    assert value == pytest.approx(0.299711442, abs=1e-6)


def test_expected_failure_agrees_with_sampling():
    model = SpeedModel.uniform(40.0, 60.0)
    value = expected_failure_over_speed(KM_CELL, model, 3.0)
    est = estimate_failure(KM_CELL, model, 3.0, SimControls(samples=MC_N, seed=1))
    assert abs(value - est.p_hat) <= 3.0 * est.std_err


def test_expected_failure_slow_range_is_zero():
    assert expected_failure_over_speed(KM_CELL, SpeedModel.uniform(10.0, 20.0), 3.0) == 0.0


def test_expected_failure_fast_range_is_one():
    # fast enough that even the grazing heading crosses within the delay
    assert expected_failure_over_speed(KM_CELL, SpeedModel.uniform(200.0, 250.0), 3.0) == 1.0


def test_expected_failure_zero_delay():
    assert expected_failure_over_speed(KM_CELL, SpeedModel.uniform(40.0, 60.0), 0.0) == 0.0


def test_expected_failure_matches_dense_average():
    # independent check: plain trapezoid average over a fine speed grid
    model = SpeedModel.uniform(30.0, 180.0)
    value = expected_failure_over_speed(KM_CELL, model, 3.0)
    grid = np.linspace(model.vmin_mps, model.vmax_mps, 200001)
    dense = np.trapezoid(
        [handoff_failure_probability(KM_CELL, float(v), 3.0) for v in grid], grid
    ) / (model.vmax_mps - model.vmin_mps)
    assert value == pytest.approx(float(dense), abs=5e-6)


def _speed_average_cases():
    """Seeded (geometry, vmin, vmax, tau) cases for the quadrature oracle.

    With c = reach/tau, the failure probability is 0 below v = c and 1 above
    the grazing speed.  Narrow ranges (relative width 1e-12 to 1e-6) sit at
    least 1% of the way into the middle piece: right at c, arccos(c/v) is
    so ill-conditioned that quad over the rounded integrand is no 1e-12
    oracle either.  The other ranges straddle one edge or start exactly at
    c, where the integrand has a square-root onset.
    """
    rng = np.random.default_rng(61)
    cases = []
    for kind in ("narrow", "straddle_slow", "straddle_fast", "at_slow"):
        for _ in range(40):
            a = rng.uniform(200, 4000)
            geom = CellGeometry(a, rng.uniform(0, 0.9 * SQRT3 * a / 2))
            tau = rng.uniform(0.5, 8.0)
            dg = derive_geometry(geom)
            slow = dg.trigger_to_chord_m / tau
            fast = math.hypot(dg.trigger_to_chord_m, dg.half_chord_m) / tau
            if kind == "narrow":
                vmin = slow + rng.uniform(0.01, 0.99) * (fast - slow)
                vmax = vmin * (1.0 + 10.0 ** rng.uniform(-12, -6))
            elif kind == "straddle_slow":
                vmin, vmax = slow * rng.uniform(0.5, 0.999), rng.uniform(slow, fast) * 1.001
            elif kind == "straddle_fast":
                vmin, vmax = rng.uniform(slow, fast) * 0.999, fast * rng.uniform(1.001, 2.0)
            else:
                vmin, vmax = slow, slow + 10.0 ** rng.uniform(-6, 0) * (fast - slow)
            cases.append((geom, vmin, vmax, tau, [v for v in (slow, fast) if vmin < v < vmax]))
    return cases


def test_expected_failure_matches_quadrature_oracle():
    for geom, vmin, vmax, tau, kinks in _speed_average_cases():
        value = expected_failure_over_speed(geom, SpeedModel.uniform(vmin, vmax), tau)
        integral, _ = quad(
            lambda v: handoff_failure_probability(geom, v, tau),
            vmin,
            vmax,
            points=kinks or None,
            epsabs=0.0,
            epsrel=1e-11,
            limit=200,
        )
        assert value == pytest.approx(integral / (vmax - vmin), abs=1e-12), (geom, vmin, vmax, tau)


def test_cli_import_does_not_load_scipy():
    # the closed-form speed average keeps scipy out of the runtime
    import handoff_lab

    src = os.path.dirname(os.path.dirname(os.path.abspath(handoff_lab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", "import handoff_lab.cli, sys; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"


def test_expected_failure_requires_uniform_model():
    with pytest.raises(InvalidParameterError):
        expected_failure_over_speed(KM_CELL, SpeedModel.fixed(50.0), 3.0)


# ----------------------------------------------------------------------
# overlap solver
# ----------------------------------------------------------------------

def test_adapt_overlap_recovers_known_points():
    near_zero = adapt_overlap(1000.0, 50.0, 3.0, 0.3560)
    assert abs(near_zero.overlap_m) < 0.05
    assert near_zero.failure_probability == pytest.approx(0.3560, abs=1e-9)

    near_ten = adapt_overlap(1000.0, 50.0, 3.0, 0.2199)
    assert near_ten.overlap_m == pytest.approx(10.0, abs=0.01)
    assert near_ten.failure_probability == pytest.approx(0.2199, abs=1e-9)


@pytest.mark.parametrize(
    "args,overlap_m",
    [
        ((1000.0, 50.0, 3.0, 0.25), 8.218448165439641),
        ((1000.0, 50.0, 3.0, 0.2199), 9.998478637378236),
        ((800.0, 30.0, 4.0, 0.1), 11.829090237406948),
        ((2000.0, 40.0, 10.0, 0.5), 54.324164758273035),
    ],
)
def test_adapt_overlap_pinned(args, overlap_m):
    # frozen from the solver that built a validated CellGeometry at every
    # bisection step; the unchecked steps must land on the same bits
    assert adapt_overlap(*args).overlap_m == overlap_m


@pytest.mark.parametrize(
    "args,bits",
    [
        ((1000.0, 50.0, 3.0, 0.3), ("0x1.2f046481a8416p+2", "0x1.3333332db3d56p-2", "0x1.2bdfef7c8c940p-1")),
        ((1000.0, 50.0, 3.0, 0.05), ("0x1.f6e97104e0451p+3", "0x1.9999991ae27eep-5", "0x1.2e9bb6499764dp-1")),
        ((500.0, 30.0, 4.0, 0.5), ("0x1.f66b108aefc01p+4", "0x1.00000003dad52p-1", "0x1.3950ffd1b899ep-1")),
        ((2500.0, 33.3, 15.0, 0.2), ("0x1.2b653685ad112p+7", "0x1.999999a5d922bp-3", "0x1.38b24df983304p-1")),
        ((1200.0, 20.0, 10.0, 0.3), ("0x1.8b8748e8f8e36p+4", "0x1.3333333338ed7p-2", "0x1.2fcb455967834p-1")),
        # the zero-overlap failure probability itself: a tie at the bracket edge
        ((800.0, 40.0, 3.5, 0.5338979978355056), ("0x0.0p+0", "0x1.115b141034edap-1", "0x1.2aaaaaaaaaaabp-1")),
    ],
)
def test_adapt_overlap_solution_bits_pinned(args, bits):
    # frozen from the solver whose DerivedGeometry was a frozen dataclass;
    # the record's type must not move any field of the solution
    solution = adapt_overlap(*args)
    got = (solution.overlap_m, solution.failure_probability, solution.false_handoff_probability)
    assert tuple(x.hex() for x in got) == bits


def test_adapt_overlap_round_trip():
    rng = np.random.default_rng(47)
    done = 0
    while done < 20:
        a = rng.uniform(300, 3000)
        v = rng.uniform(10, 80)
        tau = rng.uniform(1, 8)
        target_overlap = rng.uniform(0, 0.7 * SQRT3 * a / 2)
        pf = handoff_failure_probability(CellGeometry(a, target_overlap), v, tau)
        if not 0.02 <= pf <= 0.98:
            continue
        solution = adapt_overlap(a, v, tau, pf)
        assert abs(solution.overlap_m - target_overlap) <= 1e-6 * a
        assert abs(solution.failure_probability - pf) <= 1e-9
        done += 1


def test_adapt_overlap_reports_matching_probabilities():
    solution = adapt_overlap(1000.0, 50.0, 3.0, 0.25)
    geom = CellGeometry(1000.0, solution.overlap_m)
    assert solution.false_handoff_probability == false_handoff_probability(geom)
    assert solution.failure_probability == handoff_failure_probability(geom, 50.0, 3.0)


def test_adapt_overlap_tie_at_zero_returns_edge():
    pf0 = handoff_failure_probability(KM_CELL, 50.0, 3.0)
    solution = adapt_overlap(1000.0, 50.0, 3.0, pf0)
    assert solution.overlap_m == 0.0


def test_adapt_overlap_unreachable_targets():
    with pytest.raises(NotBracketedError) as err:
        adapt_overlap(1000.0, 50.0, 3.0, 0.9)
    assert "0.356" in str(err.value)
    with pytest.raises(NotBracketedError):
        adapt_overlap(1000.0, 50.0, 3.0, 0.0)
    with pytest.raises(NotBracketedError):
        adapt_overlap(1000.0, 50.0, 3.0, -0.2)
    # tau below the zero-overlap minimum crossing time: nothing can fail
    with pytest.raises(NotBracketedError):
        adapt_overlap(1000.0, 50.0, 1.0, 0.1)

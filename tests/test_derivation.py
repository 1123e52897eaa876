"""Each CellGeometry holds its derivation, the overlap solver steps on the
frame's two lengths, and the false_vs_overlap sweep takes the unchecked core;
every value must equal the one computed from _derive, bit for bit.  The
overlap solver skips the steps whose sign it has certified, so its result
must also equal the plain bisection's, whose steps all evaluate the CDF."""

import copy
import dataclasses
import math
import pickle
import random
import statistics
import struct
import types

import mpmath

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from handoff_lab import analytic
from handoff_lab.analytic import (
    OverlapSolution,
    adapt_overlap,
    crossing_time_cdf,
    crossing_time_pdf,
    crossing_time_support,
    false_handoff_probability,
    handoff_failure_probability,
)
from handoff_lab.errors import NotBracketedError
from handoff_lab.experiments import Axis, SweepSpec, run_sweep
from handoff_lab.geometry import CellGeometry, DerivedGeometry, _derive, _lengths, derive_geometry
from handoff_lab.montecarlo import SimControls, derive_seed, estimate_false_handoff

SQRT3 = math.sqrt(3.0)


def magnitudes():
    """Numbers spread by decade over [1e-150, 1e150], the radius and speed bounds."""
    return st.builds(lambda e, m: min(1e150, max(1e-150, m * 10.0**e)), st.integers(-150, 149), st.floats(1.0, 10.0))


def _written_out(a, ov):
    """The four measurements, each in the operations and order of the
    geometry module's docstring."""
    standoff = (2.0 - SQRT3) / 2.0 * a
    reach = standoff + ov
    half_chord = a / 2.0 + ov / SQRT3
    return standoff, reach, half_chord, math.atan2(half_chord, reach)


def _reference_cdf(dg, v, tau):
    t_min = dg.trigger_to_chord_m / v
    t_max = math.hypot(dg.trigger_to_chord_m, dg.half_chord_m) / v
    if tau <= t_min:
        return 0.0
    if tau >= t_max:
        return 1.0
    return min(1.0, max(0.0, math.acos(dg.trigger_to_chord_m / (v * tau)) / dg.chord_half_angle_rad))


def _reference_pdf(dg, v, t):
    span = 2.0 * dg.trigger_to_chord_m
    t_min = dg.trigger_to_chord_m / v
    t_max = math.hypot(dg.trigger_to_chord_m, dg.half_chord_m) / v
    if t <= t_min or t >= t_max:
        return 0.0
    radicand = (2.0 * v * t) ** 2 - span**2
    if not radicand > 0.0:
        return 0.0
    den = dg.chord_half_angle_rad * t * math.sqrt(radicand)
    if 2.2250738585072014e-308 <= den < math.inf:  # normal and finite
        return span / den
    return span / math.sqrt(radicand) / (dg.chord_half_angle_rad * t)


def _bits(x):
    return x.hex() if isinstance(x, float) else tuple(_bits(y) for y in x)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(a=magnitudes(), frac=st.floats(0.0, 0.999), v=magnitudes(), share=st.floats(0.0, 1.0))
@example(a=1e-150, frac=0.0, v=1e150, share=0.5)
@example(a=1e-150, frac=0.999, v=1e-150, share=0.0)
@example(a=1e150, frac=0.0, v=1e-150, share=1.0)
@example(a=1e150, frac=0.999, v=1e150, share=0.5)
def test_closed_forms_equal_their_values_from_derive(a, frac, v, share):
    # the geometry holds the derivation _derive makes, whose fields follow
    # the written-out formulas; every public closed form equals its value
    # computed from those fields, on and between the ends of the support
    ov = frac * SQRT3 / 2.0 * a
    geom = CellGeometry(a, ov)
    dg = _derive(a, ov)
    assert _bits(derive_geometry(geom)) == _bits(dg) == _bits(_written_out(a, ov))
    assert derive_geometry(geom) is derive_geometry(geom)
    assert type(derive_geometry(geom)) is DerivedGeometry

    support = crossing_time_support(geom, v)
    t_min = dg.trigger_to_chord_m / v
    t_max = math.hypot(dg.trigger_to_chord_m, dg.half_chord_m) / v
    assert _bits((support.t_min_s, support.t_max_s)) == _bits((t_min, t_max))
    assert _bits(false_handoff_probability(geom)) == _bits(1.0 - dg.chord_half_angle_rad / math.pi)
    inside = t_min + share * (t_max - t_min)
    for tau in (0.0, t_min, math.nextafter(t_min, math.inf), inside, math.nextafter(t_max, 0.0), t_max, 2.0 * t_max):
        expected = _bits(_reference_cdf(dg, v, tau))
        assert _bits(crossing_time_cdf(geom, v, tau)) == expected
        assert _bits(handoff_failure_probability(geom, v, tau)) == expected
        assert _bits(crossing_time_pdf(geom, v, tau)) == _bits(_reference_pdf(dg, v, tau))


def _reference_adapt(cell_radius_m, v, tau, target_pf, cdf=_reference_cdf):
    """adapt_overlap as it was when each bisection step derived a
    DerivedGeometry and evaluated cdf(dg, v, tau), with the same checks,
    messages and bracket: the plain bisection, which skips no step."""
    a = CellGeometry(cell_radius_m).cell_radius_m

    def pf(overlap):
        return cdf(_derive(a, float(overlap)), v, tau)

    def solution(overlap):
        dg = _derive(a, overlap)
        return OverlapSolution(overlap, cdf(dg, v, tau), 1.0 - dg.chord_half_angle_rad / math.pi)

    if not (math.isfinite(target_pf) and target_pf > 0):
        raise NotBracketedError(f"target_pf must be a positive number, got {target_pf!r}")
    lo, hi = 0.0, SQRT3 / 2.0 * a - 1e-9 * a
    pf_lo, pf_hi = pf(lo), pf(hi)
    if target_pf > pf_lo:
        raise NotBracketedError(
            f"target_pf={target_pf:.9g} exceeds the zero-overlap failure probability "
            f"{pf_lo:.9g}; no overlap can raise it further"
        )
    if abs(pf_lo - target_pf) <= 1e-9:
        return solution(lo)
    if target_pf < pf_hi - 1e-9:
        raise NotBracketedError(
            f"target_pf={target_pf:.9g} is below {pf_hi:.9g}, the failure probability "
            f"at the maximum overlap; the target is unreachable"
        )
    if abs(pf_hi - target_pf) <= 1e-9:
        return solution(hi)
    mid = lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        resid = pf(mid) - target_pf
        if abs(resid) <= 1e-9 and hi - lo <= 1e-7 * a:
            break
        if resid > 0.0:
            lo = mid
        else:
            hi = mid
    return solution(mid)


# tau*v/a at t_min of zero overlap: the standoff over the radius
K_MIN = (2.0 - SQRT3) / 2.0


def _outcome(solve, *args):
    try:
        sol = solve(*args)
    except NotBracketedError as exc:
        return str(exc)
    return type(sol).__name__, _bits((sol.overlap_m, sol.failure_probability, sol.false_handoff_probability))


@settings(derandomize=True, max_examples=20, deadline=None)
@given(a=magnitudes(), v=magnitudes(), k=st.floats(0.1, 1.6), share=st.floats(0.0, 1.0))
@example(a=1e-150, v=1e150, k=0.1, share=0.0)
@example(a=1e150, v=1e-150, k=1.6, share=1.0)
@example(a=1000.0, v=50.0, k=0.15, share=0.5)
# where the overlap solver's Newton guess leaves the bracket (tau just below
# t_max at the deepest overlap, targets near 1), with a share within 1e-12
# of either edge; and tau within 1e-12 of t_min at zero overlap
@example(a=1e-150, v=1e150, k=1.4141999992, share=1e-12)
@example(a=1e150, v=1e-150, k=1.4141999992, share=1.0 - 1e-12)
@example(a=1e-150, v=1e-150, k=K_MIN * (1.0 + 1e-12), share=1e-12)
@example(a=1e150, v=1e150, k=K_MIN * (1.0 + 1e-12), share=1.0 - 1e-12)
def test_adapt_overlap_equals_the_solver_that_derived_each_step(a, v, k, share):
    # tau = k*a/v sweeps from below the zero-overlap support to beyond the
    # deepest one; targets sit on, just inside and just outside both
    # bracket edges, and a share of the way between them
    tau = k * a / v
    bound = SQRT3 / 2.0 * a - 1e-9 * a
    pf_lo, pf_hi = (_reference_cdf(_derive(a, ov), v, tau) for ov in (0.0, bound))
    targets = [pf_lo, math.nextafter(pf_lo, math.inf), pf_lo - 1e-9, pf_lo - 2e-9,
               pf_hi, pf_hi + 1e-9, pf_hi + 2e-9, pf_hi - 1e-9, pf_hi - 2e-9,
               pf_hi + share * (pf_lo - pf_hi), 0.0]
    for target in targets:
        assert _outcome(adapt_overlap, a, v, tau, target) == _outcome(_reference_adapt, a, v, tau, target)


def _near_an_end(a, frac, v, near_max, offset):
    """The geometry at overlap frac of its bound, and a tau 10**offset of
    the support's end inside t_max or outside t_min."""
    dg = _derive(a, frac * SQRT3 / 2.0 * a)
    t_min = dg.trigger_to_chord_m / v
    t_max = math.hypot(dg.trigger_to_chord_m, dg.half_chord_m) / v
    return dg, t_max * (1.0 - 10.0**offset) if near_max else t_min * (1.0 + 10.0**offset)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(a=magnitudes(), v=magnitudes(), frac=st.floats(0.0, 0.999), near_max=st.booleans(),
       offset=st.floats(-12.0, -3.0), exponent=st.floats(-15.0, 0.0))
@example(a=1e-150, v=1e150, frac=0.0, near_max=False, offset=-12.0, exponent=-15.0)
@example(a=1e150, v=1e-150, frac=0.999, near_max=True, offset=-12.0, exponent=0.0)
@example(a=1e-150, v=1e-150, frac=0.8, near_max=False, offset=-3.0, exponent=-6.0)
@example(a=1e150, v=1e150, frac=0.5, near_max=True, offset=-3.0, exponent=-1.0)
@example(a=1000.0, v=50.0, frac=0.8, near_max=False, offset=-10.0, exponent=-8.0)
# the Newton guess leaves the bracket: tau 1e-12 inside t_max near the
# deepest overlap, where both edges lie near 1 and 10**exponent lies within
# 1e-12 of the zero-overlap edge, 1; and tau within 1e-12 of t_min
@example(a=1e-150, v=1e150, frac=0.999, near_max=True, offset=-12.0, exponent=-4e-13)
@example(a=1e150, v=1e-150, frac=0.999, near_max=True, offset=-12.0, exponent=-4e-13)
@example(a=1e150, v=1e150, frac=0.999, near_max=False, offset=-12.0, exponent=-4e-13)
def test_adapt_overlap_equals_the_plain_bisection_near_the_support_ends(a, v, frac, near_max, offset, exponent):
    # tau sits 1e-12 to 1e-3 inside t_max or outside t_min of a drawn
    # geometry, where the CDF's rounding error is largest; targets run from
    # 1e-15 to 1, take that geometry's own value, and sit on, one double
    # beside and one tolerance beside both bracket edges
    dg, tau = _near_an_end(a, frac, v, near_max, offset)
    bound = SQRT3 / 2.0 * a - 1e-9 * a
    pf_lo, pf_hi = (_reference_cdf(_derive(a, ov), v, tau) for ov in (0.0, bound))
    targets = [10.0**exponent, _reference_cdf(dg, v, tau), 1.0]
    for edge in (pf_lo, pf_lo - 1e-9, pf_hi, pf_hi - 1e-9, pf_hi + 1e-9):
        targets += [edge, math.nextafter(edge, 0.0), math.nextafter(edge, math.inf)]
    for target in targets:
        assert _outcome(adapt_overlap, a, v, tau, target) == _outcome(_reference_adapt, a, v, tau, target)


def _counting(calls, cdf):
    return lambda *args: calls.append(args) or cdf(*args)


# (tau, target) at a = 1000 m and v = 50 m/s, tau just above t_min at the
# overlap 0.8*sqrt(3)/2*a: the plain bisection's lo and hi end as adjacent
# doubles, its mid equal to hi in the first and to lo in the second, and it
# repeats that mid until its 200 steps run out
FIXED_POINTS = [(16.535898384875495, 4.292276354690093e-08), (16.53589838501293, 6.482762567773145e-08)]


@pytest.mark.parametrize("tau,target", FIXED_POINTS, ids=["at-hi", "at-lo"])
def test_adapt_overlap_stops_at_a_fixed_point(monkeypatch, tau, target):
    # once a step leaves lo and hi as they were, every further step repeats
    # its mid, so the solver stops there with the same result: far fewer
    # CDF evaluations than the 203 the plain bisection makes
    reference, calls = [], []
    expected = _outcome(_reference_adapt, 1000.0, 50.0, tau, target, _counting(reference, _reference_cdf))
    assert len(reference) == 203
    monkeypatch.setattr(analytic, "_cdf", _counting(calls, analytic._cdf))
    assert _outcome(adapt_overlap, 1000.0, 50.0, tau, target) == expected
    assert len(calls) <= 70


U = 2.0**-53


def _exact_cdf(a, overlap, v, tau):
    """The CDF on the solver step's lengths in 60-digit arithmetic: reach =
    fl(standoff) + overlap and half-chord = a/2 + overlap/SQRT3, exactly."""
    with mpmath.workdps(60):
        reach = mpmath.mpf(_lengths(a, 0.0)[0]) + overlap
        half_chord = mpmath.mpf(a) / 2 + mpmath.mpf(overlap) / SQRT3
        vt = mpmath.mpf(v) * tau
        if vt <= reach:
            return mpmath.mpf(0)
        if vt >= mpmath.sqrt(reach**2 + half_chord**2):
            return mpmath.mpf(1)
        return mpmath.acos(reach / vt) / mpmath.atan2(half_chord, reach)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(a=st.floats(-100.0, 100.0).map(lambda e: 10.0**e), v=st.floats(-50.0, 50.0).map(lambda e: 10.0**e),
       frac=st.one_of(st.just(0.0), st.floats(0.0, 0.999)), near_max=st.booleans(), offset=st.floats(-15.0, -1.0))
@example(a=1000.0, v=50.0, frac=0.8, near_max=False, offset=-13.3)
@example(a=1e-100, v=1e50, frac=0.0, near_max=True, offset=-15.0)
def test_cdf_error_bound_holds_against_60_digits(a, v, frac, near_max, offset):
    # the solver's step CDF lies within _cdf_error_bound of the CDF in exact
    # arithmetic, near both ends of the support, where acos is worst
    # conditioned; and where the bound is finite, the exact CDF is above
    # 24*sqrt(u), clear of the 16*sqrt(u) the step can reach by rounding
    # alone just above t_min, so a certified right-hand point needs no floor
    # of its own (adapt_overlap's docstring)
    dg, tau = _near_an_end(a, frac, v, near_max, offset)
    overlap = frac * SQRT3 / 2.0 * a
    exact = _exact_cdf(a, overlap, v, tau)
    bound = analytic._cdf_error_bound(dg.trigger_to_chord_m, v, tau)
    assert abs(analytic._cdf(dg.trigger_to_chord_m, dg.half_chord_m, v, tau) - exact) <= bound
    if bound < math.inf:
        assert exact > 24.0 * math.sqrt(U)


def _reachable_draws(seed, n):
    """(radius, speed, tau, target) as the benchmark's sweep draws them: a
    delay a share 0.2..0.8 into the support, the geometry's own value."""
    rng = random.Random(seed)
    for _ in range(n):
        a, frac, v, share = rng.uniform(500.0, 3000.0), rng.uniform(0.05, 0.8), rng.uniform(5.0, 40.0), rng.uniform(0.2, 0.8)
        dg = _derive(a, frac * SQRT3 / 2.0 * a)
        t_min = dg.trigger_to_chord_m / v
        tau = t_min + share * (math.hypot(dg.trigger_to_chord_m, dg.half_chord_m) / v - t_min)
        yield a, v, tau, _reference_cdf(dg, v, tau)


def test_adapt_overlap_evaluates_the_cdf_a_few_times(monkeypatch):
    # on reachable targets the certified points leave a few steps to
    # evaluate: a median of at most 10 CDF evaluations a solve, where the
    # plain bisection makes about 32, with the same results
    counts, calls = [], []
    monkeypatch.setattr(analytic, "_cdf", _counting(calls, analytic._cdf))
    for args in _reachable_draws(3, 200):
        calls.clear()
        assert _outcome(adapt_overlap, *args) == _outcome(_reference_adapt, *args)
        counts.append(len(calls))
    assert statistics.median(counts) <= 10


@pytest.mark.parametrize("sin", [lambda x: math.nan, lambda x: math.inf, lambda x: -math.inf], ids=["nan", "inf", "-inf"])
def test_a_spoiled_newton_guess_costs_evaluations_never_bits(monkeypatch, sin):
    # a sine of NaN makes the guess's slope NaN, so the guess ends at a
    # bracket end; one of +-inf makes every Newton step 0, so it stays at
    # the bracket's middle; neither raises, and the certification and the
    # bisection still return the plain bisection's bits
    fake = types.SimpleNamespace(**{name: getattr(math, name) for name in dir(math) if not name.startswith("_")})
    fake.sin = sin
    monkeypatch.setattr(analytic, "math", fake)
    for args in _reachable_draws(7, 50):
        assert _outcome(adapt_overlap, *args) == _outcome(_reference_adapt, *args)


# how far the wiggled step CDF moves from the true one, either way: more than
# the solver's tolerance, so a margin without the bound would show
WIGGLE = 2e-9


def test_certified_steps_hold_for_a_cdf_that_wiggles_within_its_bound(monkeypatch):
    # the step CDF is moved up or down by WIGGLE, by the last bit of the
    # reach's significand, and the error bound grows by WIGGLE to match, so
    # every assumption of the certification still holds: the solver must
    # still return what the plain bisection returns on the same wiggled CDF
    cdf, bound = analytic._cdf, analytic._cdf_error_bound

    def wiggled(reach, half_chord, v, tau):
        odd = struct.unpack("<q", struct.pack("<d", reach))[0] & 1
        return cdf(reach, half_chord, v, tau) + WIGGLE * (1 - 2 * odd)

    def step(dg, v, tau):
        return wiggled(dg.trigger_to_chord_m, dg.half_chord_m, v, tau)

    monkeypatch.setattr(analytic, "_cdf", wiggled)
    monkeypatch.setattr(analytic, "_cdf_error_bound", lambda *args: bound(*args) + WIGGLE)
    for a, v, tau, target in _reachable_draws(5, 300):
        assert _outcome(adapt_overlap, a, v, tau, target) == _outcome(_reference_adapt, a, v, tau, target, step)


@pytest.mark.parametrize("a", [1e-150, 1000.0, 1e150])
@pytest.mark.parametrize("mc", [None, SimControls(samples=200, seed=11, batches=2)])
def test_false_vs_overlap_sweep_equals_the_direct_calls(a, mc):
    # the sweep takes the unchecked core and builds a CellGeometry only for
    # the sampler; each value equals the public call's and the written-out
    # formula's, and each estimate the public call's
    spec = SweepSpec(kind="false_vs_overlap", axis=Axis(0.0, 0.999 * SQRT3 / 2.0 * a, 101), cell_radius_m=(a,), mc=mc)
    table = run_sweep(spec)
    assert len(table.rows) == 101
    for i, row in enumerate(table.rows):
        geom = CellGeometry(row[0], row[1])
        expected = [a, spec.axis.points()[i], false_handoff_probability(geom)]
        assert _bits(row[2]) == _bits(1.0 - _written_out(a, row[1])[3] / math.pi)
        if mc is not None:
            est = estimate_false_handoff(geom, SimControls(samples=200, seed=derive_seed(11, i), batches=2))
            expected += [est.p_hat, est.std_err]
        assert _bits(row) == _bits(expected)


def test_cell_geometry_behaves_as_a_two_field_dataclass():
    # the derivation lives outside the fields: equality, hashing, repr,
    # fields, replace, copy and pickle see the two numbers, and each copy
    # or rebuilt geometry holds the derivation of its own numbers
    geom = CellGeometry(1000.0, 150.0)
    assert geom == CellGeometry(1000, 150) and geom != CellGeometry(1000.0, 151.0)
    assert hash(geom) == hash(CellGeometry(1000, 150)) == hash((1000.0, 150.0))
    assert repr(geom) == "CellGeometry(cell_radius_m=1000.0, overlap_m=150.0)"
    assert [f.name for f in dataclasses.fields(geom)] == ["cell_radius_m", "overlap_m"]
    assert dataclasses.asdict(geom) == {"cell_radius_m": 1000.0, "overlap_m": 150.0}
    assert dataclasses.astuple(geom) == (1000.0, 150.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        geom.overlap_m = 10.0

    moved = dataclasses.replace(geom, overlap_m=10.0)
    assert moved == CellGeometry(1000.0, 10.0)
    assert derive_geometry(moved) == _derive(1000.0, 10.0) != derive_geometry(geom)
    for twin in (copy.copy(geom), copy.deepcopy(geom), pickle.loads(pickle.dumps(geom))):
        assert twin == geom and hash(twin) == hash(geom) and repr(twin) == repr(geom)
        assert derive_geometry(twin) == _derive(1000.0, 150.0)
    assert {geom: 1}[CellGeometry(1000.0, 150.0)] == 1

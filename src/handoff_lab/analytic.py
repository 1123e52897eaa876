"""Closed-form handoff model built on the overlap geometry.

A mobile sitting at the trigger point picks a heading uniformly at random.
Write reach for the trigger-to-chord distance and half_angle for the
chord's half-angle as seen from the trigger point.  Headings more than
half_angle off the chord's midpoint never reach the new cell, so the
handoff was triggered falsely; headings inside cross the chord after
reach*sec(heading) meters.  Dividing by the speed v gives the crossing
time, and everything below follows from its law:

    false handoff:   1 - half_angle/pi
    crossing time:   t in (t_min, t_max), with t_min = reach/v
                     and t_max = t_min*sec(half_angle)
    density:         f(t) = t_min / (half_angle * t * sqrt(t^2 - t_min^2))
    distribution:    F(tau) = arccos(t_min/tau) / half_angle on the support

A handoff fails when the mobile crosses the chord before the signaling
delay tau has elapsed, so the failure probability is exactly F(tau).
"""

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Tuple

from .errors import InvalidParameterError, NotBracketedError, OutOfDomainError, _coerce, _real_or_nan
from .geometry import SQRT3, CellGeometry, DerivedGeometry, _check_radius, _chord_half_angle, _lengths, derive_geometry

# numpy is imported by _cdf_fast alone, so the scalar closed forms run
# without loading it.
if TYPE_CHECKING:
    import numpy as np

# Residual tolerance for the overlap solver and width floor for its bracket.
_ADAPT_TOL = 1e-9
_ADAPT_MAX_ITER = 200
_NORMAL_MIN = sys.float_info.min
_U = 2.0**-53  # unit roundoff, the unit of _cdf_error_bound


# The speed range in m/s: with CellGeometry's radii, every crossing time at a
# speed in [_V_MIN, _V_MAX] is a normal, finite double.
_V_MIN, _V_MAX = 1e-150, 1e150

# The closed forms' records (CrossingTimeSupport, OverlapSolution) set their
# fields as a frozen dataclass's generated __init__ does, with
# object.__setattr__, but bound here once rather than looked up per field.
# Writing self.__dict__ instead gives each instance a dict of its own, 64
# bytes more and three times slower to read, and a sweep keeps these by the
# thousand.  SpeedModel, SimControls, Estimate and EcdfReport, built one per
# call, update their __dict__ in one step, cheaper for three or four fields.
_setattr = object.__setattr__


@dataclass(frozen=True, init=False)
class SpeedModel:
    """Mobile speed: either a fixed value or uniform on [vmin, vmax] m/s.

    Each speed field is stored as coerce_numbers would store it: a plain
    float as it is, after one type test, and any other value through
    _coerce, which refuses it or converts it under the field's key.
    """

    kind: str
    v_mps: float = 0.0
    vmin_mps: float = 0.0
    vmax_mps: float = 0.0

    def __init__(self, kind: str, v_mps: float = 0.0, vmin_mps: float = 0.0, vmax_mps: float = 0.0):
        v = v_mps if type(v_mps) is float else _coerce(v_mps, "v_mps", float, False)
        vmin = vmin_mps if type(vmin_mps) is float else _coerce(vmin_mps, "vmin_mps", float, False)
        vmax = vmax_mps if type(vmax_mps) is float else _coerce(vmax_mps, "vmax_mps", float, False)
        self.__dict__.update(kind=kind, v_mps=v, vmin_mps=vmin, vmax_mps=vmax)  # frozen: see _setattr
        if kind == "fixed" and not _V_MIN <= v <= _V_MAX:
            raise InvalidParameterError(f"must lie in [1e-150, 1e150], got {v!r}", "v_mps")
        if kind == "uniform" and not _V_MIN <= vmin < vmax <= _V_MAX:
            raise InvalidParameterError(f"uniform speed needs vmin < vmax in [1e-150, 1e150], got [{vmin}, {vmax}]")
        if kind not in ("fixed", "uniform"):
            raise InvalidParameterError(f"unknown speed model kind {kind!r}")

    @classmethod
    def fixed(cls, v_mps: float) -> "SpeedModel":
        return cls("fixed", v_mps)

    @classmethod
    def uniform(cls, vmin_mps: float, vmax_mps: float) -> "SpeedModel":
        return cls("uniform", 0.0, vmin_mps, vmax_mps)


@dataclass(frozen=True, init=False)
class CrossingTimeSupport:
    """Support of the chord-crossing time at one speed; 0 < t_min_s < t_max_s."""

    t_min_s: float
    t_max_s: float

    def __init__(self, t_min_s: float, t_max_s: float):
        _setattr(self, "t_min_s", t_min_s)
        _setattr(self, "t_max_s", t_max_s)


# Each check reads a plain float as it is, the common case, and leaves any
# other value (np.float64 and other float subclasses too) to _real_or_nan.
def _check_speed(v_mps: float) -> float:
    v = v_mps if type(v_mps) is float else _real_or_nan(v_mps)
    if not _V_MIN <= v <= _V_MAX:
        raise OutOfDomainError(f"speed must lie in [1e-150, 1e150] m/s, got {v_mps!r}")
    return v


def _check_tau(tau_s: float) -> float:
    tau = tau_s if type(tau_s) is float else _real_or_nan(tau_s)
    if not 0.0 <= tau < math.inf:
        raise OutOfDomainError(f"tau_s must be finite and nonnegative, got {tau_s!r}")
    return tau


def _span(reach: float, half_chord: float, v: float) -> Tuple[float, float]:
    """(reach/v, grazing distance/v): the crossing-time support at speed v,
    from the frame's two lengths.

    With a delay tau in place of v, the same pair is the slowest speed at
    which some heading crosses within tau and the slowest at which all do.
    An ndarray v gives a pair of arrays.
    """
    return reach / v, math.hypot(reach, half_chord) / v


def crossing_time_support(geom: CellGeometry, v_mps: float) -> CrossingTimeSupport:
    """Earliest and latest possible chord-crossing times at a fixed speed.

    The earliest crossing heads straight for the chord's midpoint; the
    latest grazes a chord endpoint, longer by the secant of the chord
    half-angle.
    """
    _, reach, half_chord, _ = geom._derived  # derive_geometry(geom), read in place
    t_min, t_max = _span(reach, half_chord, _check_speed(v_mps))
    return CrossingTimeSupport(t_min, t_max)


def false_handoff_probability(geom: CellGeometry) -> float:
    """Probability that a uniformly headed mobile never enters the new cell.

    Only the arc of headings within the chord half-angle of the midpoint
    direction crosses the chord, so the miss probability is
    1 - half_angle/pi.  Scale-free: it depends on overlap only through
    that angle.
    """
    return _false_handoff(geom._derived.chord_half_angle_rad)  # derive_geometry(geom), read in place


def _false_handoff(half_angle: float) -> float:
    """false_handoff_probability from the chord half-angle alone, so a sweep
    point or the overlap solver's solution needs no DerivedGeometry."""
    return 1.0 - half_angle / math.pi


def crossing_time_pdf(geom: CellGeometry, v_mps: float, t_s: float) -> float:
    """Density of the chord-crossing time at a fixed speed.

    Supported on the open interval (t_min, t_max) with an integrable
    1/sqrt singularity at t_min; returns 0 outside, including at t_min
    itself, and for a t_s that is not a finite real number.  Just above
    t_min, where 2*v*t_s rounds onto 2*reach, it returns t_min's 0 too.
    A density beyond the largest double, next to t_min at the smallest
    radii and fastest speeds, reads inf.
    """
    v_mps = _check_speed(v_mps)
    _, reach, half_chord, half_angle = derive_geometry(geom)
    span = 2.0 * reach
    t_min, t_max = _span(reach, half_chord, v_mps)
    t_s = _real_or_nan(t_s)
    if not math.isfinite(t_s) or t_s <= t_min or t_s >= t_max:
        return 0.0
    radicand = (2.0 * v_mps * t_s) ** 2 - span ** 2
    if not radicand > 0.0:
        return 0.0
    den = half_angle * t_s * math.sqrt(radicand)
    if not _NORMAL_MIN <= den < math.inf:
        # t_s*sqrt(radicand) scales as radius^2/speed, which leaves the
        # normal range at extreme radii and speeds; divide in two steps
        return span / math.sqrt(radicand) / (half_angle * t_s)
    return span / den


def _cdf(reach: float, half_chord: float, v: float, tau: float) -> float:
    """crossing_time_cdf from the frame's two lengths, without input checks,
    so the overlap solver's steps need no DerivedGeometry.

    Only the interior branch needs the chord half-angle, and only above
    t_min is t_max, _span's grazing end, needed.
    """
    if tau <= reach / v:  # t_min, _span's first end
        return 0.0
    if tau >= _span(reach, half_chord, v)[1]:
        return 1.0
    # clamp only after the branch logic; roundoff can nudge past the ends
    return _unit(math.acos(reach / (v * tau)) / _chord_half_angle(reach, half_chord))


def _unit(value: float) -> float:
    """value clamped to [0, 1], NaN to 0: min(1.0, max(0.0, value)) for
    every double, by comparisons, which cost a fifth of those two calls."""
    return value if 0.0 < value < 1.0 else 0.0 if not value > 0.0 else 1.0


def _cdf_fast(dg: DerivedGeometry, v: float, times: "np.ndarray") -> "np.ndarray":
    """_cdf at one speed v over an array of positive times, with numpy's
    arccos, for a screen that recomputes its candidates with _cdf: the KS
    step of montecarlo.crossing_time_ecdf.

    numpy's arccos, about a hundred times faster than libm's acos over 1e5
    elements, is within a few ulp of it and at most pi/2; the chord
    half-angle it is divided by exceeds pi/4 for every valid geometry.  The
    t_min branch is _cdf's own: beside it the argument is 1 - 1 ulp, whose
    arccos is 1.5e-8 where _cdf reads 0.  So each element is within about
    1e-15 of _cdf's value.
    """
    import numpy as np

    x = np.multiply(times, v)
    np.divide(dg.trigger_to_chord_m, x, out=x)
    np.arccos(np.minimum(x, 1.0, out=x), out=x)
    x /= dg.chord_half_angle_rad
    np.minimum(x, 1.0, out=x)
    x[times <= dg.trigger_to_chord_m / v] = 0.0
    return x


def crossing_time_cdf(geom: CellGeometry, v_mps: float, tau_s: float) -> float:
    """Probability that the chord is crossed within tau_s seconds.

    Piecewise: 0 up to t_min, arccos(t_min/tau) over the chord half-angle
    across the support, 1 from t_max on.  The branches meet continuously
    at both ends.
    """
    _, reach, half_chord, _ = geom._derived  # derive_geometry(geom), read in place
    return _cdf(reach, half_chord, _check_speed(v_mps), _check_tau(tau_s))


def handoff_failure_probability(geom: CellGeometry, v_mps: float, tau_s: float) -> float:
    """Probability that signaling delay tau_s outlasts the crossing time.

    The handoff fails exactly when the mobile crosses into the new cell
    before signaling completes, so this is the crossing-time distribution
    evaluated at tau_s; crossing_time_cdf's body, without its call.
    """
    _, reach, half_chord, _ = geom._derived
    return _cdf(reach, half_chord, _check_speed(v_mps), _check_tau(tau_s))


def _arccos_integral(c: float, lo: float, hi: float) -> float:
    """Integral of arccos(c/v) over v in [lo, hi], for c <= lo < hi.

    The antiderivative is G(v) = v*arccos(c/v) - c*ln(v + r), r = sqrt(v^2 - c^2).
    G(hi) - G(lo) cancels badly on narrow ranges, so each difference is
    taken in a form that never subtracts nearly equal numbers:
    r_hi - r_lo = (hi - lo)(hi + lo)/(r_lo + r_hi), the arccos difference is
    asin(c*(r_hi - r_lo)/(lo*hi)), and the log ratio is a log1p.
    """
    r_lo = math.sqrt((lo - c) * (lo + c))
    r_hi = math.sqrt((hi - c) * (hi + c))
    width = hi - lo
    dr = width * (hi + lo) / (r_lo + r_hi)
    return (
        width * math.acos(c / hi)
        + lo * math.asin(c * dr / (lo * hi))
        - c * math.log1p((width + dr) / (lo + r_lo))
    )


def expected_failure_over_speed(geom: CellGeometry, model: SpeedModel, tau_s: float) -> float:
    """Failure probability averaged over a uniform speed model.

    The failure probability is 0 for speeds too slow to reach the chord
    within tau_s (below reach/tau_s), 1 for speeds that cross even along the
    grazing heading, and arccos(c/v)/half_angle in between, c = reach/tau_s.
    The middle piece is integrated in closed form (see _arccos_integral), so
    there is no quadrature error; against 40-digit arithmetic the result is
    good to a few 1e-15.  Ranges that hug v = c lose digits because
    arccos(c/v) is ill-conditioned there: a single rounding of c already
    moves it by about 1e-16 * c/sqrt(v^2 - c^2).
    """
    if model.kind != "uniform":
        raise InvalidParameterError("expected_failure_over_speed needs a uniform speed model")
    tau_s = _check_tau(tau_s)
    if tau_s == 0.0:
        return 0.0
    _, reach, half_chord, half_angle = derive_geometry(geom)
    v_all_slow, v_all_fast = _span(reach, half_chord, tau_s)  # below: never fails; above: always fails
    vmin, vmax = model.vmin_mps, model.vmax_mps

    total = 0.0
    mid_lo = min(max(vmin, v_all_slow), vmax)
    mid_hi = max(min(vmax, v_all_fast), vmin)
    if mid_hi > mid_lo:
        total += _arccos_integral(v_all_slow, mid_lo, mid_hi) / half_angle
    if vmax > v_all_fast:
        total += vmax - max(vmin, v_all_fast)
    return _unit(total / (vmax - vmin))


@dataclass(frozen=True, init=False)
class OverlapSolution:
    """Overlap returned by adapt_overlap plus the probabilities it yields."""

    overlap_m: float
    failure_probability: float
    false_handoff_probability: float

    def __init__(self, overlap_m: float, failure_probability: float, false_handoff_probability: float):
        _setattr(self, "overlap_m", overlap_m)
        _setattr(self, "failure_probability", failure_probability)
        _setattr(self, "false_handoff_probability", false_handoff_probability)


def _cdf_error_bound(reach: float, v: float, tau: float) -> float:
    """E, a bound on |pf(x) - g(x)|, pf(x) being _cdf at the overlap
    solver's step at overlap x, from that step's reach and y = reach/(v*tau);
    inf where 1 - y < 512u, u = 2**-53.

    g(x) is the CDF in exact arithmetic on the step's own lengths: reach =
    c + x with c = fl(_STANDOFF*a), half-chord h = a/2 + x/SQRT3, and
    F = acos(y)/H with H = atan2(h, reach) in [pi/4, 5*pi/12].  The
    computed lengths carry relative errors of at most u (reach) and 2u (h),
    and computed y at most 3.01u.  So atan2 moves by at most 1.51u plus its
    own ulp, under 4u relative to H >= pi/4; acos moves by at most
    3.01u*y/sqrt(1 - xi**2) for some xi between y and its computed value,
    which is at most 3.2u*y/sqrt(1 - y**2) where 1 - y >= 32u, plus its own
    ulp; the quotient adds an ulp.  With F <= 1 that is

        |pf - g| <= 8u + 3.2u*y / (sqrt(1 - y**2) * pi/4).

    The branches agree: where pf is 1 but g < 1, or the reverse, y lies
    within 4u of cos(H) <= cos(pi/4) and |pf - g| <= 5.3u; pf is 0 only
    where y > 1 - 4u.  E = 16u + 8u*y/(sqrt((1 - y)*(1 + y)) * pi/4), taken
    at the computed y with 1 - y >= 512u, exceeds that bound at the exact y
    by 8u, which covers the roundings of the margins E enters.  Where E is
    finite, s = sqrt(1 - y**2) > 31 sqrt(u), so g >= s/(5*pi/12) > 24 sqrt(u).
    """
    y = reach / (v * tau)
    if 1.0 - y < 512.0 * _U:
        return math.inf
    return 16.0 * _U + 8.0 * _U * y / (math.sqrt((1.0 - y) * (1.0 + y)) * (math.pi / 4.0))


def adapt_overlap(
    cell_radius_m: float, v_mps: float, tau_s: float, target_pf: float
) -> OverlapSolution:
    """Find the overlap depth whose failure probability matches target_pf.

    The failure probability is nonincreasing in the overlap (a deeper chord
    means a longer ride to it), so bisection on [0, sqrt(3)/2*a) converges.
    Raises NotBracketedError when no overlap in that range can reach the
    target.  Ties at a bracket edge return the edge.

    The result is the plain bisection's mid: each step evaluates the CDF pf
    at mid, stops once |pf - target| <= 1e-9 with the bracket at most
    1e-7*a wide, and else keeps the side of mid's sign, for at most 200
    steps.  A step that leaves lo and hi unchanged stops it too, since every
    later step would repeat its mid.  Steps whose sign is certified skip the
    evaluation: a mid at or below a point L takes lo = mid, one at or above
    a point R takes hi = mid.  L and R lie a little either side of a root
    guessed by Newton steps on a smooth residual; a side with no certified
    point keeps its bracket end, whose sign the checks already know, so a
    bad guess costs evaluations, never bits.

    The guess: at most 6 Newton steps from the bracket's middle on
    reach - v*tau*cos(target*H), zero where F = target, with no acos and no
    clamp; its slope is 1 + v*tau*sin(target*H)*target*H', H' as below.  A
    step under 1e-10*a ends it.  A step out of (lo, hi) ends it at the
    bracket end it passed, and a slope of 0 or NaN at hi; none raises.
    Steps leave the bracket where the target lies near 1, tau just short of
    the grazing time, with the root near hi.  Any guess serves, by the
    argument below; a good one certifies points close enough to the root
    that the bisection evaluates few mids.

    Why the skipped steps decide as the evaluated ones would: let g(x) be
    the CDF in exact arithmetic on the step's lengths, and E(x) the bound on
    |pf - g| that _cdf_error_bound derives (u = 2**-53, tol = 1e-9), with
    y = reach/(v*tau), s = sqrt(1 - y**2), theta = acos(y) and
    H = atan2(h, reach).  On the interior branch theta' = -1/(v*tau*s) and
    H' = -b/(reach**2 + h**2), b = a/2 - c/SQRT3 = a*(1/2 - _STANDOFF/sqrt 3).
    With theta <= H and v*tau*s <= h there,
    theta*|H'| / (H*|theta'|) <= b*h/(reach**2 + h**2) <= b/h <= 2b/a < 0.846,
    so g = theta/H falls: g is nonincreasing in x, and
    |g'| >= 0.154/(H*v*tau*s) >= 0.118/(v*tau*s).

    - L is kept when pf(L) - target > tol + 2E(L).  Each mid <= L has a
      smaller y, so E(L) bounds its error too, and g(mid) >= g(L) gives
      pf(mid) - target >= pf(L) - 2E(L) - target > tol: no stop, lo = mid.
    - R is kept when target - pf(R) > tol + 2E(R).  E's term in y grows by
      8u/(pi/4 * v*tau * s**3) per unit of x, at most |g'| where s >= 10
      sqrt(u), so there g + E falls, and a mid >= R with s >= 10 sqrt(u)
      has pf(mid) <= g(R) + E(R) <= pf(R) + 2E(R) < target - tol.  Where
      s < 10 sqrt(u), acos moves by at most acos(1 - 3.01u) < 2.46 sqrt(u),
      so pf(mid) <= (10 + 2.46)*sqrt(u)/(pi/4) < 16 sqrt(u) < g(R), since a
      finite E(R) puts g(R) above 24 sqrt(u); and g(R) <= pf(R) + E(R) <
      target - tol.
    """
    v_mps, tau_s = _check_speed(v_mps), _check_tau(tau_s)
    target_pf, given = _real_or_nan(target_pf), target_pf
    if not (math.isfinite(target_pf) and target_pf > 0):
        raise NotBracketedError(f"target_pf must be a positive number, got {given!r}")

    # Every bisection point lies in [0, hi] with hi below the overlap bound,
    # so the radius is checked once, as CellGeometry checks it, and no
    # CellGeometry is built: each step works from the frame's two lengths.
    a = _check_radius(cell_radius_m)

    def pf(overlap: float) -> float:
        reach, half_chord = _lengths(a, overlap)
        return _cdf(reach, half_chord, v_mps, tau_s)

    def solution(overlap: float, value: float) -> OverlapSolution:
        return OverlapSolution(overlap, value, _false_handoff(_chord_half_angle(*_lengths(a, overlap))))

    lo, hi = 0.0, SQRT3 / 2.0 * a - 1e-9 * a
    pf_lo, pf_hi = pf(lo), pf(hi)
    if target_pf > pf_lo:
        raise NotBracketedError(
            f"target_pf={target_pf:.9g} exceeds the zero-overlap failure probability "
            f"{pf_lo:.9g}; no overlap can raise it further"
        )
    if abs(pf_lo - target_pf) <= _ADAPT_TOL:
        return solution(lo, pf_lo)
    if target_pf < pf_hi - _ADAPT_TOL:
        raise NotBracketedError(
            f"target_pf={target_pf:.9g} is below {pf_hi:.9g}, the failure probability "
            f"at the maximum overlap; the target is unreachable"
        )
    if abs(pf_hi - target_pf) <= _ADAPT_TOL:
        return solution(hi, pf_hi)

    # The guess (docstring): Newton steps on reach - v*tau*cos(target*H),
    # with H' = (reach/SQRT3 - h)/(reach**2 + h**2) in the slope.
    vt, x1 = v_mps * tau_s, 0.5 * (lo + hi)
    for _ in range(6):
        reach, h = _lengths(a, x1)
        angle = target_pf * _chord_half_angle(reach, h)
        slope = 1.0 + vt * math.sin(angle) * target_pf * (reach / SQRT3 - h) / (reach * reach + h * h)
        x0, x1 = x1, x1 - (reach - vt * math.cos(angle)) / slope if slope else math.nan
        if not lo < x1 < hi:
            x1 = lo if x1 <= lo else hi
            break
        if abs(x1 - x0) < 1e-10 * a:
            break
    # Points beside the guess whose sign the margin certifies; a side that
    # certifies none keeps its bracket end, whose sign the checks above know.
    left, right = lo, hi
    for side in (-1.0, 1.0):
        d = 1e-9 * a
        for _ in range(3):
            x = x1 + side * d
            if not lo < x < hi:
                break
            reach, half_chord = _lengths(a, x)
            margin = side * (target_pf - _cdf(reach, half_chord, v_mps, tau_s))
            if margin > _ADAPT_TOL + 2.0 * _cdf_error_bound(reach, v_mps, tau_s):
                left, right = (x, right) if side < 0.0 else (left, x)
                break
            d *= 32.0

    for _ in range(_ADAPT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # a fixed point: every further step would repeat this mid
        # a mid at or past a certified point takes that point's side
        # unevaluated, and its residual of -+inf never meets the stop test
        if mid <= left:
            lo = mid
        elif mid >= right:
            hi = mid
        else:
            value = pf(mid)
            resid = value - target_pf
            if abs(resid) <= _ADAPT_TOL and hi - lo <= 1e-7 * a:
                return solution(mid, value)
            if resid > 0.0:
                lo = mid
            else:
                hi = mid
    return solution(mid, pf(mid))

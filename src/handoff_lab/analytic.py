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
from dataclasses import dataclass
from typing import TYPE_CHECKING, Tuple

from .errors import InvalidParameterError, NotBracketedError, OutOfDomainError, _real_or_nan, coerce_numbers
from .geometry import CellGeometry, DerivedGeometry, _derive, derive_geometry

# numpy is imported by _cdf_many alone, so the scalar closed forms run
# without loading it.
if TYPE_CHECKING:
    import numpy as np

SQRT3_HALF = math.sqrt(3.0) / 2.0

# Residual tolerance for the overlap solver and width floor for its bracket.
_ADAPT_TOL = 1e-9
_ADAPT_MAX_ITER = 200


@dataclass(frozen=True)
class SpeedModel:
    """Mobile speed: either a fixed value or uniform on [vmin, vmax] m/s."""

    kind: str
    v_mps: float = 0.0
    vmin_mps: float = 0.0
    vmax_mps: float = 0.0

    def __post_init__(self):
        coerce_numbers(self, "v_mps", "vmin_mps", "vmax_mps")
        if self.kind == "fixed":
            if not (math.isfinite(self.v_mps) and self.v_mps > 0):
                raise InvalidParameterError(f"fixed speed must be positive, got {self.v_mps!r}")
        elif self.kind == "uniform":
            ok = (
                math.isfinite(self.vmin_mps)
                and math.isfinite(self.vmax_mps)
                and 0 < self.vmin_mps < self.vmax_mps
            )
            if not ok:
                raise InvalidParameterError(
                    f"uniform speed needs 0 < vmin < vmax, got [{self.vmin_mps!r}, {self.vmax_mps!r}]"
                )
        else:
            raise InvalidParameterError(f"unknown speed model kind {self.kind!r}")

    @classmethod
    def fixed(cls, v_mps: float) -> "SpeedModel":
        return cls(kind="fixed", v_mps=v_mps)

    @classmethod
    def uniform(cls, vmin_mps: float, vmax_mps: float) -> "SpeedModel":
        return cls(kind="uniform", vmin_mps=vmin_mps, vmax_mps=vmax_mps)


@dataclass(frozen=True)
class CrossingTimeSupport:
    """Support of the chord-crossing time at one speed; 0 < t_min_s < t_max_s."""

    t_min_s: float
    t_max_s: float


def _check_speed(v_mps: float) -> float:
    v = _real_or_nan(v_mps)
    if not (math.isfinite(v) and v > 0):
        raise OutOfDomainError(f"speed must be a positive number, got {v_mps!r}")
    return v


def _check_tau(tau_s: float) -> float:
    tau = _real_or_nan(tau_s)
    if not (math.isfinite(tau) and tau >= 0):
        raise OutOfDomainError(f"tau_s must be finite and nonnegative, got {tau_s!r}")
    return tau


def _support(dg: DerivedGeometry, v: float) -> Tuple[float, float]:
    """(reach/v, grazing distance/v): the crossing-time support at speed v.

    With a delay tau in place of v, the same pair is the slowest speed at
    which some heading crosses within tau and the slowest at which all do.
    An ndarray v gives a pair of arrays.
    """
    return dg.trigger_to_chord_m / v, math.hypot(dg.trigger_to_chord_m, dg.half_chord_m) / v


def crossing_time_support(geom: CellGeometry, v_mps: float) -> CrossingTimeSupport:
    """Earliest and latest possible chord-crossing times at a fixed speed.

    The earliest crossing heads straight for the chord's midpoint; the
    latest grazes a chord endpoint, longer by the secant of the chord
    half-angle.
    """
    v_mps = _check_speed(v_mps)
    t_min, t_max = _support(derive_geometry(geom), v_mps)
    return CrossingTimeSupport(t_min_s=t_min, t_max_s=t_max)


def false_handoff_probability(geom: CellGeometry) -> float:
    """Probability that a uniformly headed mobile never enters the new cell.

    Only the arc of headings within the chord half-angle of the midpoint
    direction crosses the chord, so the miss probability is
    1 - half_angle/pi.  Scale-free: it depends on overlap only through
    that angle.
    """
    dg = derive_geometry(geom)
    return 1.0 - dg.chord_half_angle_rad / math.pi


def crossing_time_pdf(geom: CellGeometry, v_mps: float, t_s: float) -> float:
    """Density of the chord-crossing time at a fixed speed.

    Supported on the open interval (t_min, t_max) with an integrable
    1/sqrt singularity at t_min; returns 0 outside, including at t_min
    itself.
    """
    v_mps = _check_speed(v_mps)
    dg = derive_geometry(geom)
    span = dg.mirror_span_m
    t_min, t_max = _support(dg, v_mps)
    if not math.isfinite(t_s) or t_s <= t_min or t_s >= t_max:
        return 0.0
    return span / (dg.chord_half_angle_rad * t_s * math.sqrt((2.0 * v_mps * t_s) ** 2 - span ** 2))


def _cdf(dg: DerivedGeometry, v: float, tau: float) -> float:
    """crossing_time_cdf on derived geometry, without input checks."""
    t_min, t_max = _support(dg, v)
    if tau <= t_min:
        return 0.0
    if tau >= t_max:
        return 1.0
    value = math.acos(dg.mirror_span_m / (2.0 * v * tau)) / dg.chord_half_angle_rad
    # clamp only after the branch logic; roundoff can nudge past the ends
    return min(1.0, max(0.0, value))


def _cdf_many(dg: DerivedGeometry, v, tau, *, exact: bool = True) -> "np.ndarray":
    """_cdf over arrays: v and tau broadcast, and every element equals the
    scalar _cdf bit for bit.

    The branches, the acos argument and the clamp are single IEEE operations
    in either form.  The acos itself is not: numpy's SIMD arccos differs
    from libm's acos in the last ulp on about 9% of inputs on AVX-512
    hardware, so the interior elements go through math.acos one by one.

    exact=False takes numpy's arccos instead, whose pass over 1e5 elements
    is about a hundred times faster.  Its value is within a few ulp of
    libm's acos, which is at most pi/2, and is then divided by the chord
    half-angle, which exceeds pi/4 for every valid geometry (it falls from
    5*pi/12 at zero overlap towards pi/4 at the overlap bound).  Branches
    and clamp are the same, so each element is within about 1e-15 of the
    exact one.  It is for screens that recompute their candidates with
    exact=True, such as the KS step of montecarlo.crossing_time_ecdf.
    """
    import numpy as np

    v = np.asarray(v, dtype=float)
    tau = np.asarray(tau, dtype=float)
    t_min, t_max = _support(dg, v)
    out = (tau >= t_max).astype(float)
    inside = (tau > t_min) & (tau < t_max)
    v_in = np.broadcast_to(v, out.shape)[inside]
    tau_in = np.broadcast_to(tau, out.shape)[inside]
    cos = dg.mirror_span_m / (2.0 * v_in * tau_in)
    angle = np.fromiter(map(math.acos, cos), float, len(cos)) if exact else np.arccos(cos)
    out[inside] = np.clip(angle / dg.chord_half_angle_rad, 0.0, 1.0)
    return out


def crossing_time_cdf(geom: CellGeometry, v_mps: float, tau_s: float) -> float:
    """Probability that the chord is crossed within tau_s seconds.

    Piecewise: 0 up to t_min, arccos(t_min/tau) over the chord half-angle
    across the support, 1 from t_max on.  The branches meet continuously
    at both ends.
    """
    return _cdf(derive_geometry(geom), _check_speed(v_mps), _check_tau(tau_s))


def handoff_failure_probability(geom: CellGeometry, v_mps: float, tau_s: float) -> float:
    """Probability that signaling delay tau_s outlasts the crossing time.

    The handoff fails exactly when the mobile crosses into the new cell
    before signaling completes, so this is the crossing-time distribution
    evaluated at tau_s.
    """
    return crossing_time_cdf(geom, v_mps, tau_s)


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
    dg = derive_geometry(geom)
    v_all_slow, v_all_fast = _support(dg, tau_s)  # below: never fails; above: always fails
    vmin, vmax = model.vmin_mps, model.vmax_mps

    total = 0.0
    mid_lo = min(max(vmin, v_all_slow), vmax)
    mid_hi = max(min(vmax, v_all_fast), vmin)
    if mid_hi > mid_lo:
        total += _arccos_integral(v_all_slow, mid_lo, mid_hi) / dg.chord_half_angle_rad
    if vmax > v_all_fast:
        total += vmax - max(vmin, v_all_fast)
    value = total / (vmax - vmin)
    return min(1.0, max(0.0, value))


@dataclass(frozen=True)
class OverlapSolution:
    """Overlap returned by adapt_overlap plus the probabilities it yields."""

    overlap_m: float
    failure_probability: float
    false_handoff_probability: float


def adapt_overlap(
    cell_radius_m: float, v_mps: float, tau_s: float, target_pf: float
) -> OverlapSolution:
    """Find the overlap depth whose failure probability matches target_pf.

    The failure probability is nonincreasing in the overlap (a deeper chord
    means a longer ride to it), so bisection on [0, sqrt(3)/2*a) converges.
    Raises NotBracketedError when no overlap in that range can reach the
    target.  Ties at a bracket edge return the edge.
    """
    v_mps, tau_s = _check_speed(v_mps), _check_tau(tau_s)
    target_pf, given = _real_or_nan(target_pf), target_pf
    if not (math.isfinite(target_pf) and target_pf > 0):
        raise NotBracketedError(f"target_pf must be a positive number, got {given!r}")

    # Every bisection point lies in [0, hi] with hi below the overlap bound,
    # so the radius is checked once and each step skips CellGeometry.
    a = CellGeometry(cell_radius_m).cell_radius_m

    def pf(overlap: float) -> float:
        return _cdf(_derive(a, float(overlap)), v_mps, tau_s)

    def solution(overlap: float) -> OverlapSolution:
        geom = CellGeometry(cell_radius_m, overlap)
        return OverlapSolution(
            overlap_m=overlap,
            failure_probability=handoff_failure_probability(geom, v_mps, tau_s),
            false_handoff_probability=false_handoff_probability(geom),
        )

    lo, hi = 0.0, SQRT3_HALF * a - 1e-9 * a
    pf_lo, pf_hi = pf(lo), pf(hi)
    if target_pf > pf_lo:
        raise NotBracketedError(
            f"target_pf={target_pf:.9g} exceeds the zero-overlap failure probability "
            f"{pf_lo:.9g}; no overlap can raise it further"
        )
    if abs(pf_lo - target_pf) <= _ADAPT_TOL:
        return solution(lo)
    if target_pf < pf_hi - _ADAPT_TOL:
        raise NotBracketedError(
            f"target_pf={target_pf:.9g} is below {pf_hi:.9g}, the failure probability "
            f"at the maximum overlap; the target is unreachable"
        )
    if abs(pf_hi - target_pf) <= _ADAPT_TOL:
        return solution(hi)

    mid = lo
    for _ in range(_ADAPT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        resid = pf(mid) - target_pf
        if abs(resid) <= _ADAPT_TOL and hi - lo <= 1e-7 * a:
            break
        if resid > 0.0:
            lo = mid
        else:
            hi = mid
    return solution(mid)

"""Planar geometry of a handoff region between two overlapping hexagonal cells.

Adjacent cells are modeled as congruent regular hexagons whose circumradius
equals the cell radius.  When two neighboring cells overlap, their
boundaries cross at two points; the segment joining those points is the
common chord.  The overlap depth is the distance from a hexagon side to
that chord, so tangent (non-overlapping) cells have zero overlap and the
chord coincides with the shared side.

A mobile triggers handoff at the point where it first enters the target
cell's coverage disc, which sits (2 - sqrt(3))/2 * radius in front of the
hexagon side.  Everything downstream works in a local frame holding that
trigger point, the chord endpoints, and the chord midpoint:

    trigger_to_chord = side_to_trigger + overlap
    half_chord       = radius/2 + overlap/sqrt(3)   (adjacent hexagon sides
                       meet at 120 degrees, so the chord widens by
                       overlap*tan(30deg) on each end)
    chord_half_angle = atan(half_chord / trigger_to_chord)

Angles are radians everywhere; headings are measured from the axis running
from the trigger point to the chord midpoint.
"""

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Tuple

from .errors import InvalidParameterError, coerce_numbers

# numpy is imported inside the array functions, which only the sampler
# uses, so the closed forms run without loading it.
if TYPE_CHECKING:
    import numpy as np

Point = Tuple[float, float]

SQRT3 = math.sqrt(3.0)

# How far outside [0, 1] the chord parameter of a hit may fall by roundoff.
_ENDPOINT_SLACK = 4 * sys.float_info.epsilon


@dataclass(frozen=True)
class CellGeometry:
    """Cell radius and chord overlap, both in meters.

    The overlap must satisfy 0 <= overlap_m < sqrt(3)/2 * cell_radius_m so
    the chord stays strictly between the hexagon side and the cell center.
    """

    cell_radius_m: float
    overlap_m: float = 0.0

    def __post_init__(self):
        coerce_numbers(self, "cell_radius_m", "overlap_m")
        a = self.cell_radius_m
        if not (math.isfinite(a) and a > 0):
            raise InvalidParameterError(f"cell_radius_m must be finite and positive, got {a!r}")
        bound = SQRT3 / 2.0 * a
        ov = self.overlap_m
        if not (math.isfinite(ov) and 0.0 <= ov < bound):
            raise InvalidParameterError(
                f"overlap_m must lie in [0, {bound:.6g}) for cell_radius_m={a:.6g}, got {ov!r}"
            )


class DerivedGeometry(NamedTuple):
    """Lengths and the half-angle derived from a CellGeometry.

    A NamedTuple rather than a frozen dataclass: it is just as immutable and
    hashable, and every closed-form call builds one (the overlap solver one
    per bisection step), which a tuple does in a third of the time.
    """

    side_to_trigger_m: float     # hexagon side to the trigger point
    trigger_to_chord_m: float    # trigger point to the chord, perpendicular
    half_chord_m: float          # half the chord length
    mirror_span_m: float         # trigger point to its mirror image across the chord
    chord_half_angle_rad: float  # half-angle the chord subtends at the trigger point


@dataclass(frozen=True)
class LocalFrame:
    """Concrete coordinates for the trigger point and the chord (unchecked)."""

    trigger_point: Point
    chord_start: Point
    chord_end: Point
    chord_midpoint: Point


def derive_geometry(geom: CellGeometry) -> DerivedGeometry:
    """Compute the local handoff-region measurements for one cell pair.

    Invalid geometry raises at CellGeometry construction; nothing is clamped
    here.
    """
    return _derive(geom.cell_radius_m, geom.overlap_m)


def _derive(a: float, overlap: float) -> DerivedGeometry:
    """derive_geometry without the CellGeometry checks, for callers that
    already know 0 <= overlap < sqrt(3)/2 * a (the overlap solver's bracket)."""
    standoff = (2.0 - SQRT3) / 2.0 * a
    reach = standoff + overlap
    half_chord = a / 2.0 + overlap / SQRT3
    # positional: side_to_trigger, trigger_to_chord, half_chord, mirror_span,
    # chord_half_angle
    return DerivedGeometry(standoff, reach, half_chord, 2.0 * reach, math.atan2(half_chord, reach))


def local_frame(geom: CellGeometry) -> LocalFrame:
    """Canonical frame: trigger point at the origin, chord vertical.

    The chord sits at x = trigger_to_chord_m; chord_start is the +y endpoint,
    chord_end the -y endpoint.  Headings are measured from the +x axis, which
    points from the trigger point to the chord midpoint.
    """
    dg = derive_geometry(geom)
    pr, w = dg.trigger_to_chord_m, dg.half_chord_m
    return LocalFrame(
        trigger_point=(0.0, 0.0),
        chord_start=(pr, w),
        chord_end=(pr, -w),
        chord_midpoint=(pr, 0.0),
    )


def ray_chord_crossing_many(frame: LocalFrame, headings_rad: "np.ndarray") -> "np.ndarray":
    """Distance from the trigger point to where each ray crosses the chord,
    NaN for a miss; headings are measured from the trigger-to-midpoint axis.

    Solves trigger + t*dir = start + s*(end - start) per heading and accepts
    t >= 0, 0 <= s <= 1.  A ray exactly through a chord endpoint crosses
    (measure-zero convention, fixed for determinism): s may sit
    _ENDPOINT_SLACK outside [0, 1], because a ray aimed exactly at an
    endpoint (or an ulp inside it) lands there only up to roundoff.
    """
    import numpy as np

    h = np.array(headings_rad, dtype=float)  # a copy: _ray_chord_into overwrites it
    a, b, c = (np.empty_like(h) for _ in range(3))
    hit, tmp = (np.empty(h.shape, dtype=bool) for _ in range(2))
    return _ray_chord_into(frame, h, a, b, c, hit, tmp)


def _ray_chord_into(frame: LocalFrame, h, a, b, c, hit, tmp) -> "np.ndarray":
    """ray_chord_crossing_many computed in caller-owned buffers, allocating none.

    h holds the headings and is overwritten; a, b, c are float buffers and
    hit, tmp bool buffers, all of h's shape.  Returns b, which then holds
    the distances.  The float operations and their order are those of the
    plain expression form, so every distance is the same bit for bit.
    """
    import numpy as np

    px, py = frame.trigger_point
    ax = frame.chord_start[0] - px
    ay = frame.chord_start[1] - py
    ex = frame.chord_end[0] - frame.chord_start[0]
    ey = frame.chord_end[1] - frame.chord_start[1]
    # heading 0 points at the chord midpoint; +pi/2 is 90 deg CCW from that
    ux = frame.chord_midpoint[0] - px
    uy = frame.chord_midpoint[1] - py
    norm = math.hypot(ux, uy)
    ux, uy = ux / norm, uy / norm

    np.cos(h, out=a)
    np.sin(h, out=h)
    # direction: dx = cos*ux - sin*uy into b, dy = cos*uy + sin*ux into a
    np.multiply(a, ux, out=b)
    np.multiply(h, uy, out=c)
    np.subtract(b, c, out=b)
    np.multiply(a, uy, out=a)
    np.multiply(h, ux, out=h)
    np.add(a, h, out=a)
    # den = dx*ey - dy*ex into c
    np.multiply(b, ey, out=c)
    np.multiply(a, ex, out=h)
    np.subtract(c, h, out=c)
    # s = (ax*dy - ay*dx)/den into a, t = (ax*ey - ay*ex)/den into b
    np.multiply(a, ax, out=a)
    np.multiply(b, ay, out=b)
    np.subtract(a, b, out=a)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(a, c, out=a)
        np.divide(ax * ey - ay * ex, c, out=b)

    # a hit has den != 0, t >= 0 and s within the slack of [0, 1]; the
    # first needs no test, since den == 0 makes s infinite or NaN
    np.greater_equal(b, 0.0, out=hit)
    np.greater_equal(a, -_ENDPOINT_SLACK, out=tmp)
    np.logical_and(hit, tmp, out=hit)
    np.less_equal(a, 1.0 + _ENDPOINT_SLACK, out=tmp)
    np.logical_and(hit, tmp, out=hit)
    np.logical_not(hit, out=hit)
    np.copyto(b, np.nan, where=hit)
    return b

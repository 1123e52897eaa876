"""Planar geometry of a handoff region between two overlapping hexagonal cells.

Adjacent cells are modeled as congruent regular hexagons whose circumradius
equals the cell radius.  When two neighboring cells overlap, their
boundaries cross at two points; the segment joining those points is the
common chord.  The overlap depth is the distance from a hexagon side to
that chord, so tangent (non-overlapping) cells have zero overlap and the
chord coincides with the shared side.

A mobile triggers handoff at the point where it first enters the target
cell's coverage disc, which sits (2 - sqrt(3))/2 * radius in front of the
hexagon side.  Everything downstream works from two lengths, which are
the whole of local_frame's frame: the trigger point at the origin and the
chord from (trigger_to_chord, half_chord) to (trigger_to_chord, -half_chord):

    trigger_to_chord = side_to_trigger + overlap
    half_chord       = radius/2 + overlap/sqrt(3)   (adjacent hexagon sides
                       meet at 120 degrees, so the chord widens by
                       overlap*tan(30deg) on each end)
    chord_half_angle = atan(half_chord / trigger_to_chord)

Angles are radians everywhere; headings are measured from the axis running
from the trigger point to the chord midpoint, the +x axis.
"""

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Tuple

from .errors import InvalidParameterError, _coerce, coerce_numbers

# numpy is imported inside the array functions, which only the sampler
# uses, so the closed forms run without loading it.
if TYPE_CHECKING:
    import numpy as np

SQRT3 = math.sqrt(3.0)
# side_to_trigger over the radius: the disc's edge sits this far in front of the side
_STANDOFF = (2.0 - SQRT3) / 2.0

# How far outside [0, 1] the chord parameter of a hit may fall by roundoff.
_ENDPOINT_SLACK = 4 * sys.float_info.epsilon


@dataclass(frozen=True)
class CellGeometry:
    """Cell radius in [1e-150, 1e150] and chord overlap, both in meters.

    The overlap must satisfy 0 <= overlap_m < sqrt(3)/2 * cell_radius_m so
    the chord stays strictly between the hexagon side and the cell center.
    Each instance holds its DerivedGeometry, computed once after the checks
    and kept outside the fields, so equality, hashing and repr see only the
    two numbers; derive_geometry returns it.
    """

    cell_radius_m: float
    overlap_m: float = 0.0

    def __post_init__(self):
        coerce_numbers(self, "cell_radius_m", "overlap_m")
        a = _check_radius(self.cell_radius_m)
        bound = SQRT3 / 2.0 * a
        ov = self.overlap_m
        if not (math.isfinite(ov) and 0.0 <= ov < bound):
            raise InvalidParameterError(
                f"must lie in [0, {bound:.6g}) for cell_radius_m={a:.6g}, got {ov!r}", "overlap_m"
            )
        object.__setattr__(self, "_derived", _derive(a, ov))


def _check_radius(a: float) -> float:
    """a as coerce_numbers stores a radius, if it lies in [1e-150, 1e150]:
    within these radii every length and product of the ray/chord step stays
    normal and finite; 5e-324 gives reach 0, 1e200 an infinite t."""
    a = a if type(a) is float else _coerce(a, "cell_radius_m", float, False)
    if not 1e-150 <= a <= 1e150:
        raise InvalidParameterError(f"must lie in [1e-150, 1e150], got {a!r}", "cell_radius_m")
    return a


class DerivedGeometry(NamedTuple):
    """Lengths and the half-angle derived from a CellGeometry.

    A NamedTuple rather than a frozen dataclass: it is just as immutable and
    hashable, and each CellGeometry builds one, which a tuple does in a third
    of the time.  The overlap solver and the sweeps build none; they work
    from _lengths alone.
    """

    side_to_trigger_m: float     # hexagon side to the trigger point
    trigger_to_chord_m: float    # trigger point to the chord, perpendicular
    half_chord_m: float          # half the chord length
    chord_half_angle_rad: float  # half-angle the chord subtends at the trigger point


def derive_geometry(geom: CellGeometry) -> DerivedGeometry:
    """The local handoff-region measurements of one cell pair, which the
    CellGeometry computed once when it was built.

    Invalid geometry raises at CellGeometry construction; nothing is clamped
    here.
    """
    return geom._derived


def _lengths(a: float, overlap: float) -> Tuple[float, float]:
    """(trigger_to_chord, half_chord) for radius a and overlap, unchecked:
    the two lengths of the module docstring's frame."""
    return _STANDOFF * a + overlap, a / 2.0 + overlap / SQRT3


def _derive(a: float, overlap: float) -> DerivedGeometry:
    """derive_geometry without the CellGeometry checks, for callers that
    already know 0 <= overlap < sqrt(3)/2 * a: CellGeometry itself, once
    its checks pass."""
    reach, half_chord = _lengths(a, overlap)
    # positional: side_to_trigger, trigger_to_chord, half_chord, chord_half_angle
    return DerivedGeometry(_STANDOFF * a, reach, half_chord, _chord_half_angle(reach, half_chord))


def _chord_half_angle(reach: float, half_chord: float) -> float:
    """The half-angle the chord subtends at the trigger point, from the
    frame's two lengths."""
    return math.atan2(half_chord, reach)


def local_frame(geom: CellGeometry) -> Tuple[float, float]:
    """The frame of the module docstring as its two lengths,
    (trigger_to_chord_m, half_chord_m)."""
    dg = derive_geometry(geom)
    return dg.trigger_to_chord_m, dg.half_chord_m


def ray_chord_crossing_many(frame: Tuple[float, float], headings_rad: "np.ndarray") -> "np.ndarray":
    """Distance from the trigger point to where each ray crosses the chord,
    NaN for a miss.  frame is local_frame's pair (trigger_to_chord_m,
    half_chord_m), both finite, the first positive, the second nonnegative.

    Solves trigger + t*dir = start + s*(end - start) per heading and accepts
    t >= 0, 0 <= s <= 1.  A ray exactly through a chord endpoint crosses
    (measure-zero convention, fixed for determinism): s may sit
    _ENDPOINT_SLACK outside [0, 1], because a ray aimed exactly at an
    endpoint (or an ulp inside it) lands there only up to roundoff.
    """
    import numpy as np

    reach, w = frame
    if not (0 < reach < math.inf and 0 <= w < math.inf):
        raise InvalidParameterError(f"frame must be local_frame's (reach, half_chord) pair, got {frame!r}")
    h = np.array(headings_rad, dtype=float)  # a copy: both steps overwrite their headings
    # a zero-length chord (w = 0) makes den zero in both steps
    with np.errstate(divide="ignore", invalid="ignore"):
        miss = _ray_chord_misses_into(reach, w, h.copy())
        dist = _ray_chord_hits_into(reach, w, h)
    np.copyto(dist, np.nan, where=miss)
    return dist


def _ray_chord_misses_into(reach: float, w: float, h) -> "np.ndarray":
    """The mask of the headings in h whose ray misses the chord.

    h is overwritten with each ray's chord parameter s.  den = cos*(-2w)
    and s = (reach*sin - w*cos)/den are the general ray/segment solution's
    operations in order, less its exact no-ops in this frame (times 1,
    times 0, a zero beside a nonzero term).  The distance is never formed:
    t = reach*(-2w)/den has a negative numerator, so t >= 0 exactly when
    den < 0 or den = -0, and den = -0 (a zero-length chord) makes s
    infinite or NaN, a miss.  For w > 0, den != 0, as cos h != 0 for a
    double h, so no step divides by zero.
    """
    import numpy as np

    a = np.cos(h)
    np.sin(h, out=h)
    c = a * (-2.0 * w)
    h *= reach
    a *= w
    np.subtract(h, a, out=h)
    np.divide(h, c, out=h)

    # a hit has den < 0 and s within the slack of [0, 1]
    hit = c < 0.0
    hit &= h >= -_ENDPOINT_SLACK
    hit &= h <= 1.0 + _ENDPOINT_SLACK
    return ~hit


def _ray_chord_hits_into(reach: float, w: float, h) -> "np.ndarray":
    """The distance reach*(-2w) / (cos(h)*(-2w)) to the chord, in place in
    h, with no miss test: a miss gets a distance too."""
    import numpy as np

    ey = -2.0 * w
    np.cos(h, out=h)
    h *= ey
    return np.divide(reach * ey, h, out=h)

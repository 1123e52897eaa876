import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from handoff_lab.errors import InvalidParameterError
from handoff_lab.geometry import (
    CellGeometry,
    _ray_chord_hits_into,
    _ray_chord_misses_into,
    derive_geometry,
    local_frame,
    ray_chord_crossing_many,
)

SQRT3 = math.sqrt(3.0)


# ----------------------------------------------------------------------
# independent oracle: build the two hexagons explicitly and measure
# ----------------------------------------------------------------------

def hexagon_vertices(cx, cy, a):
    """Vertices of a regular hexagon with a vertical side facing +x."""
    return [
        (cx + a * math.cos(math.radians(30 + 60 * k)),
         cy + a * math.sin(math.radians(30 + 60 * k)))
        for k in range(6)
    ]


def line_intersection(p1, p2, p3, p4):
    x1, y1 = p1
    x2, y2 = p2
    x3, y3 = p3
    x4, y4 = p4
    den = (x1 - x2) * (y3 - y4) - (y1 - y2) * (x3 - x4)
    px = ((x1 * y2 - y1 * x2) * (x3 - x4) - (x1 - x2) * (x3 * y4 - y3 * x4)) / den
    py = ((x1 * y2 - y1 * x2) * (y3 - y4) - (y1 - y2) * (x3 * y4 - y3 * x4)) / den
    return px, py


def measure_overlap_construction(a, overlap):
    """Chord endpoints from intersecting the adjacent sides of two hexagons
    placed so their shared chord sits `overlap` inside the first one."""
    s = SQRT3 * a - 2.0 * overlap
    v1 = hexagon_vertices(0.0, 0.0, a)
    v2 = hexagon_vertices(s, 0.0, a)
    top = line_intersection(v1[0], v1[1], v2[2], v2[1])
    bottom = line_intersection(v1[5], v1[4], v2[3], v2[4])
    trigger = (s - a, 0.0)  # on the second cell's coverage circle, toward the first
    midpoint = ((top[0] + bottom[0]) / 2.0, (top[1] + bottom[1]) / 2.0)
    reach = math.dist(trigger, midpoint)
    half_chord = math.dist(top, bottom) / 2.0
    return {
        "reach": reach,
        "half_chord": half_chord,
        "half_angle": math.atan2(half_chord, reach),
        "chord_offset_from_side": SQRT3 * a / 2.0 - top[0],
    }


# ----------------------------------------------------------------------
# derive_geometry
# ----------------------------------------------------------------------

def test_derive_tangent_cells():
    dg = derive_geometry(CellGeometry(1000.0, 0.0))
    assert dg.side_to_trigger_m == pytest.approx(133.9746, abs=1e-4)
    assert dg.trigger_to_chord_m == dg.side_to_trigger_m
    assert dg.half_chord_m == 500.0
    assert dg.chord_half_angle_rad == pytest.approx(5 * math.pi / 12, rel=1e-12)


def test_derived_geometry_is_immutable_and_hashable():
    dg = derive_geometry(CellGeometry(1000.0, 200.0))
    with pytest.raises(AttributeError):
        dg.half_chord_m = 1.0
    assert dg.half_chord_m == pytest.approx(615.470054, abs=1e-6)
    again = derive_geometry(CellGeometry(1000.0, 200.0))
    assert hash(dg) == hash(again)
    assert {dg: 1}[again] == 1


def test_derive_matches_hexagon_construction():
    for a, overlap in [(1000.0, 200.0), (1000.0, 0.0), (750.0, 123.0), (250.0, 40.0)]:
        dg = derive_geometry(CellGeometry(a, overlap))
        oracle = measure_overlap_construction(a, overlap)
        assert dg.trigger_to_chord_m == pytest.approx(oracle["reach"], rel=1e-9)
        assert dg.half_chord_m == pytest.approx(oracle["half_chord"], rel=1e-9)
        assert dg.chord_half_angle_rad == pytest.approx(oracle["half_angle"], rel=1e-9)
        assert oracle["chord_offset_from_side"] == pytest.approx(overlap, abs=1e-9 * a)


def test_derive_frozen_values_with_overlap():
    dg = derive_geometry(CellGeometry(1000.0, 200.0))
    assert dg.trigger_to_chord_m == pytest.approx(333.974596, abs=1e-6)
    assert dg.half_chord_m == pytest.approx(615.470054, abs=1e-6)
    assert dg.chord_half_angle_rad == pytest.approx(1.073626457, abs=1e-9)


def test_derive_scaling_invariance():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a = rng.uniform(50, 5000)
        overlap = rng.uniform(0, 0.95 * SQRT3 * a / 2)
        k = rng.uniform(0.1, 20)
        base = derive_geometry(CellGeometry(a, overlap))
        scaled = derive_geometry(CellGeometry(k * a, k * overlap))
        assert scaled.side_to_trigger_m == pytest.approx(k * base.side_to_trigger_m, rel=1e-12)
        assert scaled.trigger_to_chord_m == pytest.approx(k * base.trigger_to_chord_m, rel=1e-12)
        assert scaled.half_chord_m == pytest.approx(k * base.half_chord_m, rel=1e-12)
        assert scaled.chord_half_angle_rad == pytest.approx(base.chord_half_angle_rad, rel=1e-12)


def test_chord_half_angle_strictly_decreasing_in_overlap():
    values = [derive_geometry(CellGeometry(1000.0, ov)).chord_half_angle_rad for ov in np.linspace(0, 800, 81)]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert all(0 < t < math.pi / 2 for t in values)


@pytest.mark.parametrize(
    "radius,overlap",
    [(1000.0, 900.0), (1000.0, -1.0), (0.0, 0.0), (-5.0, 0.0),
     (1000.0, SQRT3 * 500.0), (math.inf, 0.0), (1000.0, math.nan),
     # radii whose lengths or ray/chord products under- or overflow
     (5e-324, 0.0), (1e-151, 0.0), (1e151, 0.0), (1e200, 0.0)],
)
def test_invalid_geometry_rejected(radius, overlap):
    with pytest.raises(InvalidParameterError):
        CellGeometry(radius, overlap)


@pytest.mark.parametrize(
    "radius,overlap,ok",
    [
        (np.float32(1000.0), 0.0, True),
        (np.int64(1000), np.float64(10.0), True),
        (1000, 0, True),
        (True, 0.0, False),
        (1000.0, False, False),
        ("1000", 0.0, False),
        pytest.param(10**400, 0.0, False, id="radius-beyond-float-range"),
        pytest.param(1000.0, 10**400, False, id="overlap-beyond-float-range"),
    ],
)
def test_geometry_numeric_inputs(radius, overlap, ok):
    # bools are rejected, numpy scalars are stored as plain float
    if not ok:
        with pytest.raises(InvalidParameterError):
            CellGeometry(radius, overlap)
        return
    geom = CellGeometry(radius, overlap)
    assert (type(geom.cell_radius_m), type(geom.overlap_m)) == (float, float)
    assert geom == CellGeometry(float(radius), float(overlap))


# ----------------------------------------------------------------------
# ray_chord_crossing_many
# ----------------------------------------------------------------------

def test_ray_straight_ahead():
    frame = local_frame(CellGeometry(1000.0, 0.0))
    assert ray_chord_crossing_many(frame, [0.0])[0] == pytest.approx(133.9746, abs=1e-4)


def test_ray_beyond_half_angle_misses():
    frame = local_frame(CellGeometry(1000.0, 0.0))
    headings = [math.radians(80.0), math.radians(-80.0), math.pi]
    assert np.isnan(ray_chord_crossing_many(frame, headings)).all()


def test_ray_near_half_angle_frozen_value():
    frame = local_frame(CellGeometry(1000.0, 0.0))
    dist = ray_chord_crossing_many(frame, [math.radians(74.9)])[0]
    assert dist == pytest.approx(514.288973, abs=1e-6)
    # cross-check the right-triangle form hypot(reach, reach*tan(heading))
    dg = derive_geometry(CellGeometry(1000.0, 0.0))
    leg = dg.trigger_to_chord_m * math.tan(math.radians(74.9))
    assert dist == pytest.approx(math.hypot(dg.trigger_to_chord_m, leg), rel=1e-12)


def test_ray_matches_secant_inside_half_angle():
    rng = np.random.default_rng(7)
    for _ in range(40):
        a = rng.uniform(100, 4000)
        overlap = rng.uniform(0, 0.9 * SQRT3 * a / 2)
        geom = CellGeometry(a, overlap)
        dg = derive_geometry(geom)
        frame = local_frame(geom)
        betas = rng.uniform(-0.999, 0.999, 10) * dg.chord_half_angle_rad
        dists = ray_chord_crossing_many(frame, betas)
        assert not np.isnan(dists).any()
        assert dists == pytest.approx(dg.trigger_to_chord_m / np.cos(betas), rel=1e-9)
        outside = rng.uniform(1.001, math.pi / dg.chord_half_angle_rad, 5)
        betas = np.minimum(outside * dg.chord_half_angle_rad, math.pi)
        assert np.isnan(ray_chord_crossing_many(frame, betas)).all()


def test_ray_edge_headings_hit_and_just_outside_miss():
    # a heading at the half-angle, or an ulp inside it, grazes a chord
    # endpoint and must hit whatever the roundoff; 1e-12 outside must miss
    rng = np.random.default_rng(3)
    for _ in range(200):
        a = rng.uniform(100, 4000)
        geom = CellGeometry(a, rng.uniform(0, 0.99 * SQRT3 * a / 2))
        frame = local_frame(geom)
        h = derive_geometry(geom).chord_half_angle_rad
        inside = np.nextafter(h, 0.0)
        edge = ray_chord_crossing_many(frame, np.array([h, -h, inside, -inside]))
        assert not np.isnan(edge).any()
        outside = ray_chord_crossing_many(frame, np.array([h, -h]) * (1 + 1e-12))
        assert np.isnan(outside).all()


def canonical_points(reach, w):
    """Trigger point, chord start (+y end), chord end and chord midpoint of
    the frame local_frame's two lengths stand for."""
    return (0.0, 0.0), (reach, w), (reach, -w), (reach, 0.0)


def expression_form(points, headings):
    """ray/chord intersection for any frame, rotated or shifted, as plain
    array expressions: the general reference the two-length steps must match
    bit for bit in the canonical frame."""
    (px, py), start, end, mid = points
    ax, ay = start[0] - px, start[1] - py
    ex = end[0] - start[0]
    ey = end[1] - start[1]
    ux, uy = mid[0] - px, mid[1] - py
    norm = math.hypot(ux, uy)
    ux, uy = ux / norm, uy / norm
    c, sn = np.cos(headings), np.sin(headings)
    dx = c * ux - sn * uy
    dy = c * uy + sn * ux
    den = dx * ey - dy * ex
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (ax * ey - ay * ex) / den
        s = (ax * dy - ay * dx) / den
    eps = 4 * np.finfo(float).eps
    hit = (den != 0.0) & (t >= 0.0) & (s >= -eps) & (s <= 1.0 + eps)
    return np.where(hit, t, np.nan)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(a=st.floats(1e-150, 1e150), overlap_frac=st.floats(0.0, 0.999))
# derandomized draws need not reach the ends of a range; these pin them
@example(a=1e-150, overlap_frac=0.0)
@example(a=1e-150, overlap_frac=0.999)
@example(a=1e150, overlap_frac=0.0)  # smallest reach/w (0.27), half-angle 75 degrees
@example(a=1e150, overlap_frac=0.999)  # reach/w near 1, half-angle near 45 degrees
def test_hits_only_step_equals_exact_step_within_the_half_angle(a, overlap_frac):
    # the failure paths' hits-only step gives the general formula's
    # distances byte for byte on every heading in [-H, H], ends included
    geom = CellGeometry(a, overlap_frac * SQRT3 / 2.0 * a)
    dg = derive_geometry(geom)
    h = dg.chord_half_angle_rad
    edge = np.array([h, math.nextafter(h, 0.0), 0.0])
    headings = np.concatenate([edge, -edge, np.random.default_rng(5).uniform(-h, h, 100_000)])
    exact = expression_form(canonical_points(*local_frame(geom)), headings)
    assert not np.isnan(exact).any()
    hits = _ray_chord_hits_into(dg.trigger_to_chord_m, dg.half_chord_m, headings.copy())
    assert hits.tobytes() == exact.tobytes()


@settings(derandomize=True, max_examples=40, deadline=None)
@given(a=st.floats(1e-150, 1e150), overlap_frac=st.floats(0.0, 0.999))
# derandomized draws need not reach the ends of a range; these pin them
@example(a=1e-150, overlap_frac=0.0)
@example(a=1e-150, overlap_frac=0.999)
@example(a=1e150, overlap_frac=0.0)
@example(a=1e150, overlap_frac=0.999)
def test_ray_batch_matches_expression_form(a, overlap_frac):
    # the two-length steps give the general formula's bits, hit or miss, at
    # and an ulp inside the chord's edges, at +-pi/2 and its neighbours, at
    # +-0 and +-pi, and over the whole circle
    geom = CellGeometry(a, overlap_frac * SQRT3 / 2.0 * a)
    frame = local_frame(geom)
    h, q = derive_geometry(geom).chord_half_angle_rad, math.pi / 2
    edges = np.array([h, math.nextafter(h, 0.0), q, math.nextafter(q, 0.0), math.nextafter(q, 4.0), 0.0, math.pi])
    headings = np.concatenate([edges, -edges, np.random.default_rng(23).uniform(-math.pi, math.pi, 20_000)])
    expected = expression_form(canonical_points(*frame), headings)
    assert ray_chord_crossing_many(frame, headings).tobytes() == expected.tobytes()


@pytest.mark.parametrize("a", [1e-150, 1e150])
@pytest.mark.parametrize("overlap_frac", [0.0, 0.999])
def test_miss_step_needs_no_errstate(a, overlap_frac):
    # the kernel runs the miss step with no errstate: for a cell geometry
    # den = cos(h)*(-2w) is never zero, as cos h != 0 for a double h, so
    # where a ray runs nearest to parallel with the chord nothing divides by
    # zero, and a stray warning fails the test; the mask is the general
    # formula's NaNs
    geom = CellGeometry(a, overlap_frac * SQRT3 / 2.0 * a)
    reach, w = local_frame(geom)
    h, q = derive_geometry(geom).chord_half_angle_rad, math.pi / 2
    edges = np.array([q, math.nextafter(q, 0.0), math.nextafter(q, 4.0), 0.0, math.pi, h])
    headings = np.concatenate([edges, -edges])
    miss = _ray_chord_misses_into(reach, w, headings.copy())
    assert (miss == np.isnan(expression_form(canonical_points(reach, w), headings))).all()
    assert miss.tolist() == [True, True, True, False, True, False] * 2


def test_ray_batch_refuses_a_pair_that_is_not_two_lengths():
    # the step needs the trigger point strictly before the chord and a
    # chord of finite, nonnegative half-length
    for frame in ((0.0, 1.0), (-1.0, 1.0), (math.inf, 1.0), (math.nan, 1.0),
                  (1.0, -1e-300), (1.0, math.inf), (1.0, math.nan)):
        with pytest.raises(InvalidParameterError):
            ray_chord_crossing_many(frame, [0.0])
    # a zero-length chord is accepted; both steps divide 0 by 0, and every
    # ray misses without a warning
    headings = np.array([0.0, -0.0, 0.5, -0.5, math.pi])
    got = ray_chord_crossing_many((1.0, 0.0), headings)
    expected = expression_form(((0.0, 0.0), (1.0, 0.0), (1.0, -0.0), (1.0, 0.0)), headings)
    assert np.isnan(got).all() and got.tobytes() == expected.tobytes()


@settings(derandomize=True, max_examples=100, deadline=None)
@given(a=st.floats(1.0, 1e5), overlap_frac=st.floats(0.0, 0.999))
def test_local_frame_is_the_two_lengths(a, overlap_frac):
    # the frame is the pair (trigger_to_chord_m, half_chord_m), both
    # positive plain floats
    geom = CellGeometry(a, overlap_frac * SQRT3 / 2.0 * a)
    dg = derive_geometry(geom)
    frame = local_frame(geom)
    assert type(frame) is tuple and [type(x) for x in frame] == [float, float]
    assert frame == (dg.trigger_to_chord_m, dg.half_chord_m)
    assert frame[0] > 0.0 and frame[1] > 0.0

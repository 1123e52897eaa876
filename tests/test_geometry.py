import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from handoff_lab.errors import InvalidParameterError
from handoff_lab.geometry import (
    CellGeometry,
    LocalFrame,
    _ray_chord_hits_into,
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
    assert dg.mirror_span_m == pytest.approx(2 * dg.trigger_to_chord_m, rel=1e-15)
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


@settings(derandomize=True, max_examples=25, deadline=None)
@given(a=st.floats(100.0, 5000.0), overlap_frac=st.floats(0.0, 0.999))
@example(a=1000.0, overlap_frac=0.0)  # smallest reach/w (0.27), half-angle 75 degrees
@example(a=1000.0, overlap_frac=0.999)  # reach/w near 1, half-angle near 45 degrees
def test_hits_only_step_equals_exact_step_within_the_half_angle(a, overlap_frac):
    # the failure paths' hits-only step gives the exact step's distances
    # byte for byte on every heading in [-H, H], ends included
    geom = CellGeometry(a, overlap_frac * SQRT3 / 2.0 * a)
    dg = derive_geometry(geom)
    h = dg.chord_half_angle_rad
    edge = np.array([h, math.nextafter(h, 0.0), 0.0])
    headings = np.concatenate([edge, -edge, np.random.default_rng(5).uniform(-h, h, 100_000)])
    exact = ray_chord_crossing_many(local_frame(geom), headings)
    assert not np.isnan(exact).any()
    hits = _ray_chord_hits_into(dg.trigger_to_chord_m, dg.half_chord_m, headings.copy())
    assert hits.tobytes() == exact.tobytes()


def expression_form(frame, headings):
    """ray/chord intersection for any frame, rotated or shifted, as plain
    array expressions: the general reference the two-length step must match
    bit for bit in the canonical frame."""
    px, py = frame.trigger_point
    ax, ay = frame.chord_start[0] - px, frame.chord_start[1] - py
    ex = frame.chord_end[0] - frame.chord_start[0]
    ey = frame.chord_end[1] - frame.chord_start[1]
    ux, uy = frame.chord_midpoint[0] - px, frame.chord_midpoint[1] - py
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


@settings(derandomize=True, max_examples=40, deadline=None)
@given(a=st.floats(1e-150, 1e150), overlap_frac=st.floats(0.0, 0.999))
# derandomized draws need not reach the ends of a range; these pin them
@example(a=1e-150, overlap_frac=0.0)
@example(a=1e-150, overlap_frac=0.999)
@example(a=1e150, overlap_frac=0.0)
@example(a=1e150, overlap_frac=0.999)
def test_ray_batch_matches_expression_form(a, overlap_frac):
    # the two-length step gives the general formula's bits, hit or miss, at
    # and an ulp inside the chord's edges, at +-pi/2 and its neighbours, at
    # +-0 and +-pi, and over the whole circle
    geom = CellGeometry(a, overlap_frac * SQRT3 / 2.0 * a)
    frame = local_frame(geom)
    h, q = derive_geometry(geom).chord_half_angle_rad, math.pi / 2
    edges = np.array([h, math.nextafter(h, 0.0), q, math.nextafter(q, 0.0), math.nextafter(q, 4.0), 0.0, math.pi])
    headings = np.concatenate([edges, -edges, np.random.default_rng(23).uniform(-math.pi, math.pi, 20_000)])
    assert ray_chord_crossing_many(frame, headings).tobytes() == expression_form(frame, headings).tobytes()


def test_ray_batch_refuses_a_frame_not_in_the_canonical_layout():
    # a rotated, shifted frame, one whose chord runs parallel to heading 0
    # and the canonical one mirrored to negative x would each get wrong
    # distances from the two-length step
    def rot(x, y):
        return (3.0 + x * math.cos(0.7) - y * math.sin(0.7), -2.0 + x * math.sin(0.7) + y * math.cos(0.7))

    for frame in (
        LocalFrame(rot(0.0, 0.0), rot(300.0, 420.0), rot(300.0, -420.0), rot(300.0, 0.0)),
        LocalFrame((0.0, 0.0), (0.0, 1.0), (2.0, 1.0), (1.0, 0.0)),
        LocalFrame((0.0, 0.0), (-1.0, 2.0), (-1.0, -2.0), (-1.0, 0.0)),
    ):
        with pytest.raises(InvalidParameterError):
            ray_chord_crossing_many(frame, [0.0])
    # a hand-built canonical frame with a zero-length chord is accepted; its
    # step divides 0 by 0, and every ray misses without a warning
    frame = LocalFrame((0.0, 0.0), (1.0, 0.0), (1.0, -0.0), (1.0, 0.0))
    headings = np.array([0.0, -0.0, 0.5, -0.5, math.pi])
    got = ray_chord_crossing_many(frame, headings)
    assert np.isnan(got).all() and got.tobytes() == expression_form(frame, headings).tobytes()


@settings(derandomize=True, max_examples=100, deadline=None)
@given(a=st.floats(1.0, 1e5), overlap_frac=st.floats(0.0, 0.999))
def test_local_frame_is_self_consistent(a, overlap_frac):
    # what the sampler's ray/segment intersection assumes of a frame: both
    # spans nonzero, chord_midpoint the true midpoint of the chord, and the
    # trigger-to-midpoint axis perpendicular to the chord
    geom = CellGeometry(a, overlap_frac * SQRT3 / 2.0 * a)
    dg = derive_geometry(geom)
    frame = local_frame(geom)
    span = math.dist(frame.chord_start, frame.chord_end)
    depth = math.dist(frame.trigger_point, frame.chord_midpoint)
    assert span == pytest.approx(2 * dg.half_chord_m, rel=1e-12) and span > 0.0
    assert depth == pytest.approx(dg.trigger_to_chord_m, rel=1e-12) and depth > 0.0
    mid = [0.5 * (p + q) for p, q in zip(frame.chord_start, frame.chord_end)]
    assert math.dist(mid, frame.chord_midpoint) <= 1e-12 * span
    chord = np.subtract(frame.chord_end, frame.chord_start)
    axis = np.subtract(frame.chord_midpoint, frame.trigger_point)
    assert abs(chord @ axis) <= 1e-12 * span * depth

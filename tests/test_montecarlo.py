import ast
import hashlib
import inspect
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from handoff_lab import montecarlo
from handoff_lab.analytic import (
    SpeedModel,
    _cdf_fast,
    _span,
    crossing_time_cdf,
    crossing_time_support,
    expected_failure_over_speed,
    false_handoff_probability,
    handoff_failure_probability,
)
from handoff_lab.errors import InvalidParameterError, OutOfDomainError
from handoff_lab.geometry import (
    _ENDPOINT_SLACK,
    CellGeometry,
    DerivedGeometry,
    _ray_chord_hits_into,
    _ray_chord_misses_into,
    derive_geometry,
    ray_chord_crossing_many,
)
from handoff_lab.montecarlo import (
    SimControls,
    crossing_time_ecdf,
    derive_seed,
    estimate_failure,
    estimate_false_handoff,
)

KM_CELL = CellGeometry(1000.0, 0.0)

geometries = st.builds(
    lambda a, frac: CellGeometry(a, frac * math.sqrt(3.0) / 2.0 * a),
    st.floats(100.0, 5000.0),
    st.floats(0.0, 0.999),
)


def _bare_lengths(reach, half):
    """The two lengths the kernel reads, for a chord no cell geometry has."""
    return DerivedGeometry(0.0, reach, half, math.atan2(half, reach))


def _frame(dg):
    """local_frame's pair for dg's two lengths."""
    return dg.trigger_to_chord_m, dg.half_chord_m


def _support(dg, v):
    """The crossing-time support (t_min, t_max) at speed v, on derived geometry."""
    return _span(*_frame(dg), v)


@st.composite
def forward_frames(draw):
    """(geometry or None, lengths): a cell geometry's derived lengths, or
    bare ones (trigger at the origin, chord on the line x = reach > 0) whose
    chord subtends nearly a half-turn, half-angles from pi/2 - 0.5 to
    pi/2 - 1e-7, so that only the half-plane keeps a heading just past pi/2
    off it."""
    if draw(st.booleans()):
        geom = draw(geometries)
        return geom, derive_geometry(geom)
    reach = draw(st.floats(1e-3, 1e3))
    half = reach * math.tan(math.pi / 2 - draw(st.floats(1e-7, 0.5)))
    return None, _bare_lengths(reach, half)


# a chord subtending all but 2e-3 rad of a half-turn
WIDE_CHORD = (None, _bare_lengths(1.0, math.tan(math.pi / 2 - 1e-3)))


# ----------------------------------------------------------------------
# control and result containers
# ----------------------------------------------------------------------

def test_controls_validation():
    ctl = SimControls(samples=100, seed=7, batches=4)
    assert (ctl.samples, ctl.seed, ctl.batches) == (100, 7, 4)
    with pytest.raises(InvalidParameterError):
        SimControls(samples=0, seed=0)
    with pytest.raises(InvalidParameterError):
        SimControls(samples=-5, seed=0)
    with pytest.raises(InvalidParameterError):
        SimControls(samples=10.5, seed=0)
    with pytest.raises(InvalidParameterError):
        SimControls(samples=10, seed=-1)
    with pytest.raises(InvalidParameterError):
        SimControls(samples=10, seed=2**64)
    with pytest.raises(InvalidParameterError):
        SimControls(samples=10, seed=0, batches=0)
    with pytest.raises(InvalidParameterError):
        SimControls(samples=10, seed=0, batches=11)


@pytest.mark.parametrize(
    "samples,seed,batches,ok",
    [
        (np.int64(10), 1, 1, True),
        (10, np.uint64(7), np.int32(2), True),
        (True, 1, 1, False),
        (10, False, 1, False),
        (10, 1, True, False),
        (10.0, 1, 1, False),
    ],
)
def test_controls_numeric_inputs(samples, seed, batches, ok):
    # bools are rejected, numpy integers are stored as plain int
    if not ok:
        with pytest.raises(InvalidParameterError):
            SimControls(samples, seed, batches)
        return
    ctl = SimControls(samples, seed, batches)
    assert (type(ctl.samples), type(ctl.seed), type(ctl.batches)) == (int, int, int)
    assert ctl == SimControls(int(samples), int(seed), int(batches))


def test_single_sample_estimate_is_degenerate():
    est = estimate_false_handoff(KM_CELL, SimControls(samples=1, seed=9))
    assert est.p_hat in (0.0, 1.0)
    assert est.std_err == 0.0
    assert est.n == 1


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------

def test_repeat_runs_are_identical():
    ctl = SimControls(samples=50_000, seed=123, batches=5)
    first = estimate_false_handoff(KM_CELL, ctl)
    second = estimate_false_handoff(KM_CELL, ctl)
    assert first == second
    a = estimate_failure(KM_CELL, 50.0, 3.0, ctl)
    b = estimate_failure(KM_CELL, 50.0, 3.0, ctl)
    assert a == b


def test_calls_reuse_the_thread_generator(monkeypatch):
    # building a Philox draws OS entropy, so a thread builds one on its first
    # call only; the state set before every draw keeps reuse exact
    ctl = SimControls(samples=1_001, seed=9, batches=3)
    uniform = SpeedModel.uniform(20.0, 60.0)
    first = estimate_failure(KM_CELL, uniform, 3.0, ctl)
    built = []
    philox = np.random.Philox
    monkeypatch.setattr(np.random, "Philox", lambda *args, **kwargs: built.append(1) or philox(*args, **kwargs))
    estimate_false_handoff(KM_CELL, SimControls(samples=7, seed=2**64 - 1))
    assert estimate_failure(KM_CELL, uniform, 3.0, ctl) == first
    assert built == []


def test_worker_count_does_not_change_results():
    ctl = SimControls(samples=80_000, seed=55, batches=8)
    assert estimate_false_handoff(KM_CELL, ctl, workers=1) == estimate_false_handoff(
        KM_CELL, ctl, workers=4
    )
    assert estimate_failure(KM_CELL, 50.0, 3.0, ctl, workers=1) == estimate_failure(
        KM_CELL, 50.0, 3.0, ctl, workers=4
    )


def test_worker_count_does_not_change_single_batch_results():
    # one batch of several chunks: workers split the chunks of one substream
    ctl = SimControls(samples=3 * 65536 + 7, seed=56)
    model = SpeedModel.uniform(40.0, 60.0)
    assert estimate_failure(KM_CELL, model, 3.0, ctl, workers=1) == estimate_failure(
        KM_CELL, model, 3.0, ctl, workers=3
    )
    one = crossing_time_ecdf(KM_CELL, 50.0, ctl, workers=1)
    three = crossing_time_ecdf(KM_CELL, 50.0, ctl, workers=3)
    assert one.times_s.tobytes() == three.times_s.tobytes()
    assert one.ks_stat == three.ks_stat


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("batches", [2, 7])
@pytest.mark.parametrize("drawn", [False, True])
def test_kernel_sums_one_step_call_per_chunk(monkeypatch, drawn, batches, workers):
    # the kernel's contract: one step call per chunk, whose at ranges tile
    # the samples exactly once, with the chunk's whole-batch draws (speeds
    # only when drawn), and the sum of the calls' returns; an int share
    # returns before any thread's generator is fetched
    ctl = SimControls(samples=3 * 2**16 + 5, seed=31, batches=batches)
    calls = []

    def step(u_h, u_v, mask, at):
        calls.append((at, len(u_h), u_v is None, u_h.copy(), None if u_v is None else u_v.copy()))
        return len(u_h)

    assert montecarlo._sample(ctl, workers, step, drawn) == ctl.samples
    calls.sort(key=lambda call: call[0])
    assert [at for at, *_ in calls] == list(np.cumsum([0] + [m for _, m, *_ in calls[:-1]]))
    assert calls[-1][0] + calls[-1][1] == ctl.samples
    assert all(none is not drawn for _, _, none, *_ in calls)
    u_h, u_v = _whole_pairs(ctl)
    assert np.concatenate([h for *_, h, _ in calls]).tobytes() == u_h.tobytes()
    if drawn:
        assert np.concatenate([v for *_, v in calls]).tobytes() == u_v.tobytes()

    def no_draw():
        raise AssertionError("a share drew")

    monkeypatch.setattr(montecarlo, "_thread_generator", no_draw)
    assert [montecarlo._sample(ctl, workers, share, drawn) for share in (0, 1)] == [0, ctl.samples]


@pytest.mark.parametrize("workers", [True, False, 0, -3, 2.5, "2", None, np.int64(2)])
def test_workers_must_be_a_positive_integer(workers):
    # bools are refused; a numpy integer runs as the plain int does
    ctl = SimControls(samples=70_000, seed=3)
    calls = [
        lambda w: estimate_false_handoff(KM_CELL, ctl, workers=w),
        lambda w: estimate_failure(KM_CELL, 50.0, 3.0, ctl, workers=w),
        lambda w: estimate_failure(KM_CELL, 50.0, 2.0, ctl, workers=w),  # decided by the screen: no draw
        lambda w: crossing_time_ecdf(KM_CELL, 50.0, ctl, workers=w).times_s.tobytes(),
    ]
    for call in calls:
        if isinstance(workers, np.integer):
            assert call(workers) == call(int(workers))
            continue
        with pytest.raises(InvalidParameterError, match="workers") as err:
            call(workers)
        assert err.value.key == "workers"


# Captured before the estimators drew in chunks of 2**16 samples: sizes on
# either side of one and several chunks, odd batch sizes, and speed draws
# that start 0..3 words into a Philox block.
PINNED_GEOMETRY = CellGeometry(1000.0, 150.0)
PINNED = [
    # samples, batches, false-handoff, fixed-speed failure, uniform-speed failure
    (65535, 1, 0.6431372549019608, 0.6957351033798733, 0.6783703364614329),
    (65535, 2, 0.6442816815442131, 0.6962691691462577, 0.6772869459067674),
    (65536, 1, 0.6431427001953125, 0.69573974609375, 0.6772918701171875),
    (65536, 2, 0.644287109375, 0.6962738037109375, 0.676239013671875),
    (65537, 1, 0.6431328867662541, 0.6957443886659445, 0.6774951554083952),
    (65537, 2, 0.6442772784839098, 0.6962784381341838, 0.6759692997848543),
    (196611, 1, 0.6437025395323761, 0.6965225750339503, 0.6762999018366216),
    (196611, 2, 0.6429752150184883, 0.6976262772683115, 0.6769712783109796),
]


@pytest.mark.parametrize("samples,batches,p_false,p_fixed,p_uniform", PINNED,
                         ids=[f"{row[0]}-in-{row[1]}" for row in PINNED])
def test_estimates_pinned_across_chunk_boundaries(samples, batches, p_false, p_fixed, p_uniform):
    ctl = SimControls(samples, 11, batches)
    uniform = SpeedModel.uniform(40.0, 60.0)
    estimates = [
        (estimate_false_handoff(PINNED_GEOMETRY, ctl), p_false),
        (estimate_failure(PINNED_GEOMETRY, 50.0, 8.0, ctl), p_fixed),
        (estimate_failure(PINNED_GEOMETRY, uniform, 8.0, ctl), p_uniform),
    ]
    for est, p in estimates:
        assert est.p_hat == p
        # the binomial standard error of that proportion over all samples
        assert 0.0 <= est.p_hat <= 1.0
        assert est.std_err == math.sqrt(p * (1.0 - p) / samples)
        assert (est.n, est.seed) == (samples, 11)


def test_ecdf_pinned_across_chunk_boundaries():
    report = crossing_time_ecdf(PINNED_GEOMETRY, 50.0, SimControls(2**17 + 5, 11, 3))
    digest = hashlib.sha256(report.times_s.tobytes()).hexdigest()
    assert digest == "9fd8dd06b55d835c01afc0fcd2c37778f276e129f021172a7707b41b01598c8c"
    assert report.ks_stat == 0.002035108993638457


@st.composite
def chunk_straddling_controls(draw):
    """SimControls whose batches hold a few samples, or 1 or 2 chunks of
    2**16 give or take 2, plus a remainder spread over the batches."""
    batches = draw(st.integers(1, 3))
    chunks = draw(st.integers(0, 2))
    nb = draw(st.integers(1, 300)) if chunks == 0 else chunks * 2**16 + draw(st.integers(-2, 2))
    samples = batches * nb + draw(st.integers(0, batches - 1))
    return SimControls(samples, draw(st.integers(0, 2**64 - 1)), batches)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(source=forward_frames(), ctl=chunk_straddling_controls(), workers=st.integers(1, 2), widen=st.booleans())
@example(source=WIDE_CHORD, ctl=SimControls(2**17 + 1, 7, 2), workers=2, widen=False)
@example(source=WIDE_CHORD, ctl=SimControls(2**17 + 1, 7, 2), workers=2, widen=True)
def test_false_handoff_misses_equal_nan_count_of_whole_draw(source, ctl, workers, widen):
    # the kernel screens headings and counts the hits of the miss step on
    # the rest; the misses it leaves must be exactly the NaNs of the plain
    # intersection over every heading of every batch, drawn whole.  With
    # widen, the solved edges are widened by WIDEN, so the bands between
    # them hold draws and the miss step's count there decides the result
    geom, dg = source
    with pytest.MonkeyPatch.context() as patch:
        if widen:
            solve = montecarlo._solve_edges
            patch.setattr(montecarlo, "_solve_edges", lambda *args: [h + dh for h, dh in zip(solve(*args), WIDEN)])
        if geom is None:
            misses = ctl.samples - montecarlo._sample(ctl, workers, montecarlo._screen(dg, None, None)[1])
        else:
            misses = round(estimate_false_handoff(geom, ctl, workers=workers).p_hat * ctl.samples)
    base, rem = divmod(ctl.samples, ctl.batches)
    expected = 0
    for batch in range(ctl.batches):
        nb = base + (batch < rem)
        bitgen = np.random.Philox(key=np.array([ctl.seed, batch], dtype=np.uint64))
        headings = np.random.Generator(bitgen).uniform(-math.pi, math.pi, nb)
        expected += int(np.count_nonzero(np.isnan(ray_chord_crossing_many(_frame(dg), headings))))
    assert misses == expected


GRID_STEP = 2.0 ** -53  # Generator.random draws k * 2**-53, 0 <= k < 2**53


def _to_heading(u, half):
    """Grid values mapped onto [-half, half) as Generator.uniform maps them."""
    return np.asarray(u, dtype=float) * (half - -half) + -half


def _grid_near(u, steps=(0, 1, -1, 64, -64)):
    """The grid values at and around each finite u (rounded up onto the
    grid), held in [0, 1)."""
    u = np.asarray(u, dtype=float)
    k = np.ceil(u[np.isfinite(u)] * 2.0 ** 53)
    return np.clip(np.concatenate([k + s for s in steps]) * GRID_STEP, 0.0, 1.0 - GRID_STEP)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(source=forward_frames())
@example(source=WIDE_CHORD)
def test_headings_past_the_screen_miss_the_chord(source):
    # every grid value the false-handoff screen counts as a miss unevaluated,
    # below its lower outer threshold or from its upper one on, maps to a
    # heading the exact intersection rejects, on any frame of this layout
    x0, _, _, x3 = montecarlo._screen(source[1], None, None)[0]
    rng = np.random.Generator(np.random.Philox(5))
    u = np.concatenate([_grid_near([x0, x3], range(-64, 65)), [0.0, 1.0 - GRID_STEP], rng.random(200_000)])
    u = u[(u < x0) | (u >= x3)]
    assert np.isnan(ray_chord_crossing_many(_frame(source[1]), _to_heading(u, math.pi))).all()


def _whole_draw(ctl):
    """Every batch's heading grid values, drawn whole with Generator.random."""
    base, rem = divmod(ctl.samples, ctl.batches)
    return np.concatenate([
        np.random.Generator(np.random.Philox(key=np.array([ctl.seed, batch], dtype=np.uint64)))
        .random(base + (batch < rem))
        for batch in range(ctl.batches)
    ])


# how far test_failure_paths_skip_the_exact_intersection_at_a_pinned_seed
# and test_false_handoff_misses_equal_nan_count_of_whole_draw widen the
# solved edges, inner and outer: each band grows to about 3e-4 of the grid,
# where the true ones are about 5e-10 wide and seldom hold a draw
WIDEN = (-1e-3, 1e-3)


def test_failure_paths_skip_the_exact_intersection_at_a_pinned_seed(monkeypatch):
    # the time paths take every distance from the hits-only step and never
    # run the miss step; the false-handoff path runs it once before any
    # chunk, on exactly the headings of the four grid thresholds, and after
    # that only on the drawn headings in the bands between them.  The solved
    # edges are widened (the inner one inward, the outer one outward), so
    # they still pass their checks and the bands hold some of the draws
    calls, found = [], []
    ctl = SimControls(2**17 + 5, 11, 3)
    plain = estimate_false_handoff(PINNED_GEOMETRY, ctl)
    exact, screen, solve = montecarlo._ray_chord_misses_into, montecarlo._screen, montecarlo._solve_edges
    monkeypatch.setattr(montecarlo, "_ray_chord_misses_into",
                        lambda *args: calls.append((len(found), args[2].copy())) or exact(*args))
    monkeypatch.setattr(montecarlo, "_screen", lambda *args: found.append(screen(*args)) or found[-1])
    monkeypatch.setattr(montecarlo, "_solve_edges", lambda *args: [h + dh for h, dh in zip(solve(*args), WIDEN)])
    estimate_failure(PINNED_GEOMETRY, 50.0, 8.0, ctl)
    estimate_failure(PINNED_GEOMETRY, SpeedModel.uniform(40.0, 60.0), 8.0, ctl)
    crossing_time_ecdf(PINNED_GEOMETRY, 50.0, ctl)
    assert calls == []
    found.clear()
    assert estimate_false_handoff(PINNED_GEOMETRY, ctl) == plain
    ((x0, x1, x2, x3), _), = found
    inner, outer = (h / (2 * math.pi) for h in montecarlo._solve_edges(derive_geometry(PINNED_GEOMETRY), None, None))
    x = [0.5 - outer, 0.5 - inner, 0.5 + inner, 0.5 + outer]
    search = [h for phase, h in calls if phase == 0]
    assert [h.tolist() for h in search] == [_to_heading(x, math.pi).tolist()]
    assert [x0, x1, x2, x3] == x  # each widened edge is kept
    band = np.sort(np.concatenate([h for phase, h in calls if phase == 1] or [[]]))
    drawn = _whole_draw(ctl)
    expected = drawn[((drawn >= x0) & (drawn < x1)) | ((drawn >= x2) & (drawn < x3))]
    assert 0 < expected.size < 0.01 * ctl.samples
    assert band.tobytes() == np.sort(_to_heading(expected, math.pi)).tobytes()


def _half(dg, speed):
    """Half the width of the heading range the kernel draws from: pi with
    no speed, else the chord half-angle."""
    return math.pi if speed is None else dg.chord_half_angle_rad


def _exact_count(dg, speed, tau, headings) -> int:
    """How many headings the exact step counts: those the plain intersection
    hits (no speed), or those whose hits-step time is below tau."""
    if speed is None:
        return int(np.count_nonzero(~np.isnan(ray_chord_crossing_many(_frame(dg), headings))))
    times = np.divide(_ray_chord_hits_into(*_frame(dg), headings.copy()), speed.v_mps)
    return int(np.count_nonzero(times < tau))


def _probes(x):
    """Grid values around the screen's thresholds: 64 steps on either side
    of each, a sweep across each band and as far again on either side of
    it, and a sweep over the whole grid."""
    parts = [_grid_near(x, range(-64, 65)), [0.0, 0.5 - GRID_STEP, 0.5, 1.0 - GRID_STEP],
             np.linspace(0.0, 1.0 - GRID_STEP, 2001)]
    for a, b in ((x[0], x[1]), (x[2], x[3])):
        parts.append(_grid_near(np.linspace(a - (b - a), b + (b - a), 2001), [0]))
    return np.concatenate(parts)


# where each threshold falls back to when the exact step does not keep it
FALLBACKS = [0.0, 0.5, 0.5, 1.0]


def _margin_checks(dg, speed, tau, x):
    """Whether each threshold carries the screen's margin in the exact
    step's output at its heading: a hit and s <= 1 - eta at x1, a hit and
    s >= eta at x2, s > 1 + slack + eta at x0 and s < -slack - eta at x3;
    or times at most tau*(1 - eta) at x1 and x2 and above tau*(1 + eta) at
    x0 and x3."""
    eta, (reach, w), h = montecarlo._ETA, _frame(dg), _to_heading(x, _half(dg, speed))
    if speed is None:
        s = h.copy()
        hit = ~_ray_chord_misses_into(reach, w, s)
        slack = _ENDPOINT_SLACK + eta
        return [s[0] > 1 + slack, hit[1] and s[1] <= 1 - eta, hit[2] and s[2] >= eta, s[3] < -slack]
    t = np.divide(_ray_chord_hits_into(reach, w, h), speed.v_mps)
    return [t[0] > tau * (1 + eta), t[1] <= tau * (1 - eta), t[2] <= tau * (1 - eta), t[3] > tau * (1 + eta)]


def _margins_hold(dg, speed, tau, x) -> bool:
    """Whether each threshold carries its margin (_margin_checks) or is at its fallback."""
    checks = _margin_checks(dg, speed, tau, x)
    return all(ok or xk == fall for ok, xk, fall in zip(checks, x, FALLBACKS))


# the screen's property draws: forward frames, speeds, and a share of each
# speed's crossing-time support; the examples pin the ends of every range
SCREEN_EXAMPLES = [
    ((CellGeometry(100.0, 0.0), derive_geometry(CellGeometry(100.0, 0.0))), 1.0, 0.0),
    ((CellGeometry(5000.0, 0.999 * 2500.0 * math.sqrt(3.0)),
      derive_geometry(CellGeometry(5000.0, 0.999 * 2500.0 * math.sqrt(3.0)))), 60.0, 1.0),
    ((None, _bare_lengths(1e-3, 1e-3 * math.tan(math.pi / 2 - 1e-7))), 60.0, 1.0),
    ((None, _bare_lengths(1e3, 1e3 * math.tan(math.pi / 2 - 0.5))), 1.0, 0.0),
]


def _pinned(test):
    for source, v, share in SCREEN_EXAMPLES:
        test = example(source=source, v=v, share=share)(test)
    return test


@settings(derandomize=True, max_examples=30, deadline=None)
@given(source=forward_frames(), v=st.floats(1.0, 60.0), share=st.floats(0.0, 1.0))
@_pinned
def test_screened_count_equals_the_exact_step(source, v, share):
    # the count-only paths count grid values by comparing them with four
    # grid thresholds and run the exact step only in the bands between; for
    # false handoff and a fixed speed at taus on, next to and beyond the
    # ends of the support, the screen's count of grid values next to each
    # threshold, across each band and over the whole grid is the exact
    # step's on their headings, and each threshold carries its margin or is
    # at its fallback; far beyond the ends the screen decides every value
    dg = source[1]
    t_min, t_max = _support(dg, v)
    taus = [t_min, math.nextafter(t_min, math.inf), t_min * (1 + 1e-12), t_max,
            math.nextafter(t_max, 0.0), t_min + share * (t_max - t_min),
            0.0, math.nextafter(t_min, 0.0), t_min * (1 - 1e-12), math.nextafter(t_max, math.inf), 2 * t_max]
    for speed, tau in [(None, None)] + [(SpeedModel.fixed(v), tau) for tau in taus]:
        _assert_screen_is_exact(dg, speed, tau)


def _assert_screen_is_exact(dg, speed, tau):
    """The screen's thresholds are ordered and carry their margins, and its
    count of _probes is the exact step's on their headings; a screen that
    decides every grid value gives the share each one counts, 0 or 1."""
    x, count = montecarlo._screen(dg, speed, tau)
    # [x1, x2) is empty (both at 1/2) unless an inner threshold is kept
    assert 0.0 <= x[0] <= x[1] <= 0.5 <= x[2] <= x[3] <= 1.0
    assert _margins_hold(dg, speed, tau, x)
    u = _probes(x)
    headings = _to_heading(u, _half(dg, speed))
    if isinstance(count, int):
        assert count in (0, 1) and x[0] == x[1] and x[2] == x[3]
        counted = count * len(u)
    else:
        counted = count(u.copy(), None, np.empty(u.shape, dtype=bool), 0)
    assert counted == _exact_count(dg, speed, tau, headings)
    return x


def test_screen_property_draws_reach_their_ranges(monkeypatch):
    # derandomized draws cover less of a float range than the range
    # suggests; a spy on the screen shows the property's examples reach the
    # ends of every range it draws from
    seen = []
    screen = montecarlo._screen
    monkeypatch.setattr(montecarlo, "_screen", lambda dg, *args: seen.append((dg, args)) or screen(dg, *args))
    test_screened_count_equals_the_exact_step()
    bare = [dg for dg, _ in seen if dg.side_to_trigger_m == 0.0]
    cells = [dg for dg, _ in seen if dg.side_to_trigger_m > 0.0]
    speeds = [speed.v_mps for _, (speed, *_) in seen if speed is not None]
    offsets = [math.pi / 2 - dg.chord_half_angle_rad for dg in bare]
    assert min(offsets) == pytest.approx(1e-7) and max(offsets) == pytest.approx(0.5)
    assert min(dg.trigger_to_chord_m for dg in bare) == 1e-3 and max(dg.trigger_to_chord_m for dg in bare) == 1e3
    radii = [2 * dg.side_to_trigger_m / (2 - math.sqrt(3.0)) for dg in cells]
    assert min(radii) == pytest.approx(100.0) and max(radii) == pytest.approx(5000.0)
    overlaps = [(dg.trigger_to_chord_m - dg.side_to_trigger_m) / (math.sqrt(3.0) / 2 * r)
                for dg, r in zip(cells, radii)]
    assert min(overlaps) == 0.0 and max(overlaps) == pytest.approx(0.999)
    assert min(speeds) == 1.0 and max(speeds) == 60.0


def _at_half_the_margin(dg, speed, tau):
    """[inner, outer] where the exact step's output lies half the screen's
    margin inside and outside its bound, so the check must refuse both."""
    (reach, w), eta = _frame(dg), montecarlo._ETA / 2
    if speed is None:
        return [math.atan(k * w / reach) for k in (1 - 2 * eta, 1 + 2 * (_ENDPOINT_SLACK + eta))]
    return [math.acos(min(1.0, reach / (speed.v_mps * tau * k))) for k in (1 - eta, 1 + eta)]


# solves that miss the edges: each makes [inner, outer] from the true ones
# and _solve_edges' arguments; past pi/2 every ray misses, though s at
# headings past 1.6 rad, at pi and at +-inf (held at pi) lies inside [0, 1]
WRONG_SOLVES = {
    "swapped": lambda inner, outer, args: [outer, inner],
    "midway": lambda inner, outer, args: [(inner + outer) / 2] * 2,
    "half the margin": lambda inner, outer, args: _at_half_the_margin(*args),
    "zero": lambda inner, outer, args: [0.0, 0.0],
    "negative": lambda inner, outer, args: [-inner, -outer],
    "past the range": lambda inner, outer, args: [math.pi, 4.0],
    "nan": lambda inner, outer, args: [math.nan, math.nan],
    "past pi/2": lambda inner, outer, args: [1.6, 2.0],
    "just past pi/2": lambda inner, outer, args: [math.nextafter(math.pi / 2, math.inf)] * 2,
    "infinite": lambda inner, outer, args: [math.inf, -math.inf],
}


@pytest.mark.parametrize("wrong", WRONG_SOLVES.values(), ids=WRONG_SOLVES.keys())
def test_screen_keeps_only_edges_the_exact_step_checks(monkeypatch, wrong):
    # the screen trusts no solved edge: whatever _solve_edges returns, every
    # count is the exact step's, a threshold 1/2 -+ edge/(2*half) (the edge
    # held in [0, half]) is kept only where its margin holds, and every
    # other threshold is at its fallback
    solve = montecarlo._solve_edges
    monkeypatch.setattr(montecarlo, "_solve_edges", lambda *args: wrong(*solve(*args), args))
    for source, v, share in SCREEN_EXAMPLES:
        dg = source[1]
        t_min, t_max = _support(dg, v)
        taus = (t_min, t_min + share * (t_max - t_min), t_max)
        for speed, tau in [(None, None)] + [(SpeedModel.fixed(v), tau) for tau in taus]:
            x = _assert_screen_is_exact(dg, speed, tau)
            args = dg, speed, tau
            half = _half(dg, speed)
            inner, outer = (float(np.clip(h / (2 * half), 0.0, 0.5)) for h in wrong(*solve(*args), args))
            candidates = [0.5 - outer, 0.5 - inner, 0.5 + inner, 0.5 + outer]
            kept = _margin_checks(dg, speed, tau, candidates)
            assert x == [c if ok else fall for c, ok, fall in zip(candidates, kept, FALLBACKS)]


def test_solved_edges_are_kept_where_edges_exist():
    # the solve lands where the check keeps it: for false handoff and for a
    # tau inside the support, no threshold falls back, so the bands stay thin
    for (_, dg), v, _ in SCREEN_EXAMPLES:
        t_min, t_max = _support(dg, v)
        for speed, tau in ((None, None), (SpeedModel.fixed(v), (t_min + t_max) / 2)):
            x = montecarlo._screen(dg, speed, tau)[0]
            assert all(xk != fall for xk, fall in zip(x, FALLBACKS))


def test_speeds_past_their_bound_are_refused():
    # past [1e-150, 1e150] m/s a crossing time can be subnormal or
    # infinite, where the screen's margin in t no longer holds: a 1e-150 m
    # cell at 1e300 m/s counted every crossing before tau = 0 (p = 1.0, the
    # exact step and the closed form 0), and at reach/1e-320 m/s the screen
    # counted 3416 crossings before tau = 1e-320 where the exact step
    # counts none; such speeds are now refused wherever a speed is taken
    geom = CellGeometry(1e-150)
    fast = [1e300, derive_geometry(geom).trigger_to_chord_m / 1e-320, math.nextafter(1e150, math.inf), math.inf]
    slow = [1e-200, math.nextafter(1e-150, 0.0), 0.0]
    for v in fast + slow:
        with pytest.raises(InvalidParameterError, match=r"1e-150, 1e150"):
            estimate_failure(geom, v, 0.0, SimControls(70000, 3, 2))
        with pytest.raises(InvalidParameterError):
            SpeedModel.uniform(1.0, v) if v in fast else SpeedModel.uniform(v, 1.0)
        with pytest.raises(OutOfDomainError):
            crossing_time_support(CellGeometry(1e150), v)
    with pytest.raises(InvalidParameterError):
        crossing_time_ecdf(geom, 1e300, SimControls(10, 1))


@pytest.mark.parametrize("a", [1e-150, 1e150])
@pytest.mark.parametrize("v", [1e-150, 1e150])
@pytest.mark.parametrize("overlap_frac", [0.0, 0.999])
def test_screen_is_exact_at_the_speed_and_radius_bounds(a, v, overlap_frac):
    # at every corner of the radius and speed bounds, each crossing time is
    # a normal, finite double, and for taus of 0, the least double, 1.7e308
    # and the support's ends the screen's count is the exact step's; the
    # extreme taus give the closed form's 0 or 1
    geom = CellGeometry(a, overlap_frac * math.sqrt(3.0) / 2.0 * a)
    dg = derive_geometry(geom)
    support = crossing_time_support(geom, v)
    assert sys.float_info.min < support.t_min_s < support.t_max_s < sys.float_info.max
    ctl = SimControls(70000, 3, 2)
    for tau in (0.0, 5e-324, 1.7e308, support.t_min_s, support.t_max_s):
        _assert_screen_is_exact(dg, SpeedModel.fixed(v), tau)
        p_hat = estimate_failure(geom, v, tau, ctl).p_hat
        if tau in (0.0, 5e-324, 1.7e308):
            assert p_hat == handoff_failure_probability(geom, v, tau) == (tau == 1.7e308)
    assert math.isfinite(crossing_time_ecdf(geom, v, ctl).ks_stat)


# (cell, fixed speed): every corner of the radius and speed bounds, and a km
# cell at 1 and 50 m/s, each at overlap fractions 0 and 0.999
TIE_CELLS = [(CellGeometry(a, frac * math.sqrt(3.0) / 2.0 * a), v)
             for a, speeds in ((1e-150, (1e-150, 1e150)), (1e150, (1e-150, 1e150)), (1000.0, (1.0, 50.0)))
             for v in speeds for frac in (0.0, 0.999)]


@pytest.mark.parametrize("geom,v", TIE_CELLS)
def test_fixed_speed_count_equals_the_ecdf_times_below_tau(geom, v):
    # the count path and the time path draw the same headings under the same
    # controls, so the screened count below tau is the number of ECDF times
    # below it, sample by sample; a tau equal to a drawn time puts that
    # sample in a band, and one ulp beside it lands on either side of it
    ctl = SimControls(2**16 + 3001, 7)  # two chunks
    times = crossing_time_ecdf(geom, v, ctl).times_s
    t_lo, t_mid, t_hi = float(times[0]), float(times[len(times) // 2]), float(times[-1])
    t_max = _support(derive_geometry(geom), v)[1]
    taus = [0.0, t_lo, t_mid, t_hi] + [math.nextafter(t, to) for t in (t_lo, t_hi) for to in (0.0, math.inf)]
    taus += [t_max * (1 + 1e-8), 2 * t_max]  # beyond the support, where the screen counts every sample
    for tau in taus:
        for workers in (1, 2):
            counted = round(estimate_failure(geom, v, tau, ctl, workers=workers).p_hat * ctl.samples)
            assert counted == np.count_nonzero(times < tau), (tau, workers)


def test_memory_is_bounded_by_the_chunk():
    # 2e6 samples in one batch would need ~146 MB drawn whole
    ctl = SimControls(samples=2_000_000, seed=4)
    tracemalloc.start()
    try:
        estimate_failure(KM_CELL, SpeedModel.uniform(40.0, 60.0), 3.0, ctl, workers=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


class _FirstChunk(Exception):
    """Raised by a spy count after the kernel's first chunk."""


@pytest.mark.parametrize("samples,batches", [(10**6, 1), (10**15, 1), (10**12, 10**12)],
                         ids=["1e6", "1e15", "1e12-batches"])
def test_set_up_memory_does_not_grow_with_the_sample_count(monkeypatch, samples, batches):
    # the chunk schedule is index arithmetic, so the kernel holds no list of
    # chunks: set-up to the first chunk's count stays near a chunk's 0.6 MB
    # of buffers (a list of chunks took 25 MB at 1e10 samples)
    def screen(dg, speed, tau):
        def count(u_h, u_v, mask, at):
            raise _FirstChunk
        return None, count

    monkeypatch.setattr(montecarlo, "_screen", screen)
    tracemalloc.start()
    try:
        with pytest.raises(_FirstChunk):
            estimate_false_handoff(KM_CELL, SimControls(samples=samples, seed=1, batches=batches))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


@pytest.mark.parametrize("chunk", [1000, 4099, 2**16])
@pytest.mark.parametrize("block", [1000, 4099, 2**16])
def test_chunk_and_block_sizes_change_no_result(monkeypatch, chunk, block):
    # chunk boundaries cut batches of 10001 and 10000 samples unevenly, and
    # the staircase's gather blocks cut each chunk; no value may move
    ctl = SimControls(samples=30_001, seed=77, batches=3)
    uniform = SpeedModel.uniform(30.0, 70.0)

    def results(workers):
        ecdf = crossing_time_ecdf(KM_CELL, 50.0, ctl, workers=workers)
        return (estimate_false_handoff(KM_CELL, ctl, workers=workers),
                estimate_failure(KM_CELL, 50.0, 3.0, ctl, workers=workers),
                estimate_failure(KM_CELL, uniform, 3.0, ctl, workers=workers),
                ecdf.times_s.tobytes(), ecdf.ks_stat)

    want = results(1)
    monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
    monkeypatch.setattr(montecarlo, "_BLOCK", block)
    assert results(1) == want
    assert results(2) == want


def test_ecdf_repeat_runs_are_byte_identical():
    ctl = SimControls(samples=10, seed=7)
    first = crossing_time_ecdf(KM_CELL, 50.0, ctl)
    second = crossing_time_ecdf(KM_CELL, 50.0, ctl)
    assert first.times_s.tobytes() == second.times_s.tobytes()
    assert first.ks_stat == second.ks_stat


def test_different_seeds_give_different_draws():
    a = crossing_time_ecdf(KM_CELL, 50.0, SimControls(samples=100, seed=1))
    b = crossing_time_ecdf(KM_CELL, 50.0, SimControls(samples=100, seed=2))
    assert a.times_s.tobytes() != b.times_s.tobytes()


# ----------------------------------------------------------------------
# agreement with the closed forms
# ----------------------------------------------------------------------

def _analytic_reads(source):
    """The names a module's source imports from analytic (or analytic
    itself, imported whole), and the top-level statements that name
    _cdf, _cdf_fast or _check_tau."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("analytic"):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [alias.name for alias in node.names if alias.name.endswith("analytic")]
    readers = set()
    for node in tree.body:
        named = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
        if not isinstance(node, (ast.Import, ast.ImportFrom)) and named & {"_cdf", "_cdf_fast", "_check_tau"}:
            readers.add(getattr(node, "name", "module level"))
    return sorted(imported), readers


def test_sampler_reads_no_closed_form():
    # the estimates check the closed forms only while no sampling path calls
    # one: montecarlo imports from analytic only the speed model and the three
    # helpers of the KS step, and only crossing_time_ecdf names those
    imported, readers = _analytic_reads(inspect.getsource(montecarlo))
    assert imported == ["SpeedModel", "_cdf", "_cdf_fast", "_check_tau"]
    assert readers == {"crossing_time_ecdf"}
    # the rule sees a screen that reads a closed form, and a module import
    screen = "def _screen(dg, speed, tau):\n    return _cdf_fast(dg, speed.v_mps, tau)\n"
    assert _analytic_reads(screen)[1] == {"_screen"}
    assert _analytic_reads("def _hits(dg, v, t):\n    return _cdf(1.0, 1.0, v, t)\n")[1] == {"_hits"}
    assert _analytic_reads("from . import analytic\nimport handoff_lab.analytic\n")[0] == [
        "analytic", "handoff_lab.analytic"]


def test_false_handoff_converges():
    expected = 7.0 / 12.0
    for n, seed in ((10_000, 3), (1_000_000, 42)):
        est = estimate_false_handoff(KM_CELL, SimControls(samples=n, seed=seed))
        assert abs(est.p_hat - expected) <= 3.0 * est.std_err


def test_false_handoff_with_overlap_converges():
    geom = CellGeometry(1000.0, 200.0)
    expected = false_handoff_probability(geom)
    est = estimate_false_handoff(geom, SimControls(samples=1_000_000, seed=42))
    assert abs(est.p_hat - expected) <= 3.0 * est.std_err


def test_failure_estimate_converges():
    expected = crossing_time_cdf(KM_CELL, 50.0, 3.0)
    est = estimate_failure(KM_CELL, 50.0, 3.0, SimControls(samples=1_000_000, seed=42))
    assert abs(est.p_hat - expected) <= 3.0 * est.std_err


def test_failure_estimate_exact_branches(monkeypatch):
    # below the minimum crossing time nothing fails; above the maximum all
    # do; the edge screen decides both at a fixed speed, and the staircase
    # both at a uniform one (tau 0, and a tau beyond the slowest crossing
    # at vmin), so none sets a Philox state, allocates a chunk buffer or
    # runs a worker: each worker, the main thread's included, gets its
    # thread's generator before any of these; the uniform ones are decided
    # by the staircase's scalar check, before its table is solved
    def no_draw():
        raise AssertionError("a decided estimate drew")

    def no_solve(*args):
        raise AssertionError("a decided uniform-speed estimate built its table")

    monkeypatch.setattr(montecarlo, "_thread_generator", no_draw)
    monkeypatch.setattr(montecarlo, "_solve_speeds", no_solve)
    ctl = SimControls(samples=2**17, seed=8)  # two chunks, so two workers would run
    uniform = SpeedModel.uniform(40.0, 60.0)
    beyond = 2.0 * crossing_time_support(KM_CELL, uniform.vmin_mps).t_max_s
    for workers in (1, 2):
        for speed, tau, p_hat in ((50.0, 2.0, 0.0), (50.0, 20.0, 1.0), (uniform, 0.0, 0.0), (uniform, beyond, 1.0)):
            decided = estimate_failure(KM_CELL, speed, tau, ctl, workers=workers)
            assert decided.p_hat == p_hat and decided.std_err == 0.0, (speed, tau)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(source=st.builds(lambda a, frac: CellGeometry(a, frac * math.sqrt(3.0) / 2.0 * a),
                        st.builds(lambda e, m: min(1e150, max(1e-150, m * 10.0**e)),
                                  st.integers(-150, 149), st.floats(1.0, 10.0)),
                        st.floats(0.0, 0.999)),
       v=st.builds(lambda e, m: min(1e150, max(1e-150, m * 10.0**e)), st.integers(-150, 149), st.floats(1.0, 10.0)))
@example(source=CellGeometry(1e-150), v=1e-150)
@example(source=CellGeometry(1e-150), v=1e150)
@example(source=CellGeometry(1e150, 0.999 * math.sqrt(3.0) / 2.0 * 1e150), v=1e-150)
@example(source=CellGeometry(1e150, 0.999 * math.sqrt(3.0) / 2.0 * 1e150), v=1e150)
def test_fastest_time_is_the_exact_step_at_heading_0(source, v):
    # the edge screen's scalar time at the grid value 1/2 is the one _times
    # computes there, bit for bit, over the whole range of radii and speeds
    dg = derive_geometry(source)
    exact = float(montecarlo._times(dg, SpeedModel.fixed(v), np.array([0.5]))[0])
    assert montecarlo._fastest_time(dg, v).hex() == exact.hex()


def test_heading_0_check_decides_one_ulp_below_its_margin(monkeypatch):
    # with both solved edges 0 every threshold sits at 1/2, and the check at
    # heading 0 alone decides: a tau whose tau*(1 + eta) rounds to the
    # fastest time t0 keeps no threshold and the call draws; one ulp below
    # it keeps x0 and x3, and the call draws nothing.  NaN edges keep no
    # threshold, so that call draws.  With the edges the solve returns
    # there, the outer one is about sqrt(2*eta), so both taus leave a band
    # and draw, and only a tau below t0/(1 + 2*eta) by the margin is
    # decided.  Every call counts what the exact step counts, 0; each
    # decision is the one the screen made before its scalar check
    draws = []
    made, solve = montecarlo._thread_generator, montecarlo._solve_edges
    monkeypatch.setattr(montecarlo, "_thread_generator", lambda: draws.append(1) or made())
    ctl = SimControls(3000, 5)
    checked = 0
    for geom, v in [(KM_CELL, 50.0), (CellGeometry(500.0, 120.0), 15.0), (CellGeometry(2500.0, 900.0), 33.3),
                    (CellGeometry(1e-150), 1e150), (CellGeometry(1e150), 1e-150)]:
        dg = derive_geometry(geom)
        t0 = float(montecarlo._times(dg, SpeedModel.fixed(v), np.array([0.5]))[0])
        at = [tau for tau in _ulps_around(t0 / (1.0 + montecarlo._ETA), 8) if tau * (1.0 + montecarlo._ETA) == t0]
        if not at:
            continue
        checked += 1
        below = math.nextafter(at[0], 0.0)
        for edges, tau, decided in ((0.0, at[0], False), (0.0, below, True), (math.nan, below, False),
                                    (None, at[0], False), (None, below, False),
                                    (None, t0 / (1.0 + 3.0 * montecarlo._ETA), True)):
            # edges 0 or NaN for both, or None for the solve's own
            monkeypatch.setattr(montecarlo, "_solve_edges", solve if edges is None else lambda *args: [edges] * 2)
            draws.clear()
            assert estimate_failure(geom, v, tau, ctl).p_hat == 0.0
            assert bool(draws) is not decided, (geom, v, edges, tau)
    assert checked >= 3


def _ulps_around(x: float, k: int) -> list:
    """The doubles from k ulps below x to k ulps above it, in order."""
    lo = x
    for _ in range(k):
        lo = math.nextafter(lo, 0.0)
    out = [lo]
    for _ in range(2 * k):
        out.append(math.nextafter(out[-1], math.inf))
    return out


def test_failure_estimate_uniform_speed():
    model = SpeedModel.uniform(40.0, 60.0)
    expected = expected_failure_over_speed(KM_CELL, model, 3.0)
    est = estimate_failure(KM_CELL, model, 3.0, SimControls(samples=1_000_000, seed=2))
    assert abs(est.p_hat - expected) <= 3.0 * est.std_err


@settings(derandomize=True, max_examples=30, deadline=None)
@given(
    geom=geometries,
    vmin=st.floats(1.0, 60.0),
    spread=st.floats(1.5, 4.0),
    share=st.floats(0.1, 0.9),
    seed=st.integers(0, 2**64 - 1),
)
def test_estimates_agree_with_closed_forms(geom, vmin, spread, share, seed):
    # each 2e4-sample estimate lies within 4 standard errors, taken from the
    # closed-form p, of its closed form; every delay sits at a share of its
    # crossing-time support, so no p is 0 or 1
    ctl = SimControls(20_000, seed)
    model = SpeedModel.uniform(vmin, vmin * spread)
    support = crossing_time_support(geom, vmin)
    tau = support.t_min_s + share * (support.t_max_s - support.t_min_s)
    # the support over all speeds of the model runs from the fastest
    # speed's earliest crossing to the slowest speed's latest
    t_first = crossing_time_support(geom, model.vmax_mps).t_min_s
    tau_u = t_first + share * (support.t_max_s - t_first)
    pairs = [
        (estimate_false_handoff(geom, ctl), false_handoff_probability(geom)),
        (estimate_failure(geom, vmin, tau, ctl), handoff_failure_probability(geom, vmin, tau)),
        (estimate_failure(geom, model, tau_u, ctl), expected_failure_over_speed(geom, model, tau_u)),
    ]
    for est, p in pairs:
        assert 0.0 < p < 1.0
        assert abs(est.p_hat - p) <= 4.0 * math.sqrt(p * (1.0 - p) / ctl.samples)


def test_fixed_speed_accepts_plain_number():
    ctl = SimControls(samples=40_000, seed=6)
    as_float = estimate_failure(KM_CELL, 50.0, 3.0, ctl)
    as_model = estimate_failure(KM_CELL, SpeedModel.fixed(50.0), 3.0, ctl)
    assert as_float == as_model


def test_failure_estimate_validation():
    for tau in (-1.0, math.inf, math.nan, True, "3"):
        with pytest.raises(InvalidParameterError) as err:
            estimate_failure(KM_CELL, 50.0, tau, SimControls(samples=10, seed=0))
        assert (err.value.key, str(err.value)) == ("tau_s", f"tau_s must be finite and nonnegative, got {tau!r}")
    with pytest.raises(InvalidParameterError):
        estimate_failure(KM_CELL, 0.0, 3.0, SimControls(samples=10, seed=0))


# ----------------------------------------------------------------------
# empirical distribution report
# ----------------------------------------------------------------------

def test_ecdf_matches_distribution():
    report = crossing_time_ecdf(KM_CELL, 50.0, SimControls(samples=100_000, seed=2024))
    assert report.n == 100_000
    critical = 1.36 / math.sqrt(report.n)
    assert report.ks_stat <= critical
    assert report.ks_stat == pytest.approx(0.0038758650766587133, abs=1e-15)


@pytest.mark.parametrize(
    "geom,v",
    [(KM_CELL, 50.0), (CellGeometry(500.0, 120.0), 15.0), (CellGeometry(2500.0, 900.0), 33.3)],
)
def test_ecdf_ks_equals_scalar_cdf_loop(geom, v):
    # the vectorised KS step gives exactly what a per-sample loop over the
    # scalar closed form gives
    report = crossing_time_ecdf(geom, v, SimControls(samples=20_000, seed=5, batches=3))
    n = report.n
    model = np.array([crossing_time_cdf(geom, v, float(t)) for t in report.times_s])
    ranks = np.arange(1, n + 1)
    ks = max(float((ranks / n - model).max()), float((model - (ranks - 1) / n).max()))
    assert report.ks_stat == ks


def _ks_over(model) -> float:
    n = len(model)
    ranks = np.arange(1, n + 1)
    return max(float((ranks / n - model).max()), float((model - (ranks - 1) / n).max()))


def _loop_ks(geom, v, times) -> float:
    return _ks_over(np.array([crossing_time_cdf(geom, v, float(t)) for t in times]))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    a=st.floats(100.0, 5000.0),
    overlap_frac=st.floats(0.0, 0.999),
    v=st.floats(1.0, 60.0),
    samples=st.integers(1, 20_000),
    batches=st.integers(1, 8),
    seed=st.integers(0, 2**64 - 1),
)
# the 40 derandomized draws reach a only up to 4709, overlap_frac up to
# 0.983 and samples up to 19999; these pin the upper ends of those ranges,
# and the lower ends of samples and overlap_frac: at one sample the D+ and
# D- screens pick the same element, at two each may pick either
@example(a=5000.0, overlap_frac=0.999, v=60.0, samples=20_000, batches=8, seed=2**64 - 1)
@example(a=100.0, overlap_frac=0.999, v=1.0, samples=20_000, batches=1, seed=0)
@example(a=1000.0, overlap_frac=0.0, v=50.0, samples=1, batches=1, seed=7)
@example(a=100.0, overlap_frac=0.0, v=1.0, samples=2, batches=2, seed=2**64 - 1)
@example(a=5000.0, overlap_frac=0.0, v=60.0, samples=2, batches=1, seed=11)
def test_ecdf_ks_screen_equals_scalar_cdf_loop(a, overlap_frac, v, samples, batches, seed):
    # the screened KS step gives exactly what a per-sample loop over the
    # scalar closed form gives, over the whole parameter space
    geom = CellGeometry(a, overlap_frac * math.sqrt(3.0) / 2.0 * a)
    ctl = SimControls(samples=samples, seed=seed, batches=min(batches, samples))
    report = crossing_time_ecdf(geom, v, ctl)
    assert report.ks_stat == _loop_ks(geom, v, report.times_s)


def test_ecdf_ks_screen_keeps_an_argmax_the_fast_cdf_ranks_second(monkeypatch):
    # four times whose D+ at samples 1 and 3 differ by about 1e-13, and a
    # fast CDF 1e-12 too high at the exact argmax (sample 1), so the fast
    # maximum is sample 3: only the screen's margin keeps sample 1 a
    # candidate and the statistic exact
    dg = derive_geometry(KM_CELL)
    t_min, h = dg.trigger_to_chord_m / 50.0, dg.chord_half_angle_rad
    times = np.array([t_min / math.cos(u * h) for u in (0.05, 0.4, 0.55 + 1e-13, 0.9)])
    plus = np.arange(1, 5) / 4 - np.array([crossing_time_cdf(KM_CELL, 50.0, float(t)) for t in times])
    assert _loop_ks(KM_CELL, 50.0, times) == plus[0] and 0 < plus[0] - plus[2] < 1e-12

    def inject(dg, speed, u_h, u_v=None, out=None):
        out[:] = times
        return out

    def cdf_fast(dg, v, times):
        values = _cdf_fast(dg, v, times)
        values[0] += 1e-12
        return values

    monkeypatch.setattr(montecarlo, "_times", inject)
    monkeypatch.setattr(montecarlo, "_cdf_fast", cdf_fast)
    report = crossing_time_ecdf(KM_CELL, 50.0, SimControls(4, 0))
    assert report.ks_stat == _loop_ks(KM_CELL, 50.0, times)


def test_ecdf_ks_screen_keeps_a_d_minus_argmax_the_fast_cdf_ranks_second(monkeypatch):
    # the D- twin of the test above: four times whose D- at samples 1 and
    # 3 differ by about 1e-13, D- above every D+, and a fast CDF 1e-12 too
    # low at the exact D- argmax (sample 1), so the fast D- ranks sample 3
    # first and the fast D+ is least at sample 3: only the screen's margin
    # around the least D+ keeps sample 1 a candidate and the statistic exact
    dg = derive_geometry(KM_CELL)
    t_min, h = dg.trigger_to_chord_m / 50.0, dg.chord_half_angle_rad
    times = np.array([t_min / math.cos(u * h) for u in (0.3, 0.45, 0.8 - 1e-13, 0.9)])
    model = np.array([crossing_time_cdf(KM_CELL, 50.0, float(t)) for t in times])
    minus, plus = model - np.arange(4) / 4, np.arange(1, 5) / 4 - model
    assert _loop_ks(KM_CELL, 50.0, times) == minus[0] > plus.max() and 0 < minus[0] - minus[2] < 1e-12

    def inject(dg, speed, u_h, u_v=None, out=None):
        out[:] = times
        return out

    def cdf_fast(dg, v, times):
        values = _cdf_fast(dg, v, times)
        values[0] -= 1e-12
        return values

    monkeypatch.setattr(montecarlo, "_times", inject)
    monkeypatch.setattr(montecarlo, "_cdf_fast", cdf_fast)
    report = crossing_time_ecdf(KM_CELL, 50.0, SimControls(4, 0))
    assert report.ks_stat == _loop_ks(KM_CELL, 50.0, times)


def _assert_ks_screen_is_one_pass(monkeypatch, geom, v, ctl, times=None, fast=_cdf_fast):
    """crossing_time_ecdf at ctl, its sorted sample replaced by times when
    given and its fast CDF by fast: the samples its KS step sends to the
    scalar CDF are those that one fast pass over the whole sample keeps
    (D+ within the margin of the largest or least D+), and its statistic is
    the per-sample loop's."""
    def inject(dg, speed, u_h, u_v=None, out=None):
        out[:] = times
        return out

    if times is not None:
        monkeypatch.setattr(montecarlo, "_times", inject)
    monkeypatch.setattr(montecarlo, "_cdf_fast", fast)
    seen, cdf = [], montecarlo._cdf
    monkeypatch.setattr(montecarlo, "_cdf", lambda *args: seen.append(args[-1]) or cdf(*args))
    report = crossing_time_ecdf(geom, v, ctl)
    n, margin = report.n, montecarlo._KS_SCREEN
    plus = np.arange(1, n + 1) / n - fast(derive_geometry(geom), v, report.times_s)
    assert seen == report.times_s[(plus >= plus.max() - margin) | (plus <= plus.min() + margin)].tolist()
    assert report.ks_stat == _loop_ks(geom, v, report.times_s)


@pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 96, 97, 2**16 + 5])
def test_ecdf_ks_blocks_keep_every_candidate_at_block_edges(monkeypatch, n):
    # sample counts one short of, at and one past a block's end, and two
    # chunks' worth: the KS step evaluates the candidates of one fast pass
    # over the whole sample, exactly
    _assert_ks_screen_is_one_pass(monkeypatch, CellGeometry(1000.0, 50.0), 50.0, SimControls(n, 3))


def _times_at(u, v=50.0):
    """Sorted crossing times on KM_CELL at speed v whose CDF is each u in [0, 1)."""
    dg = derive_geometry(KM_CELL)
    return dg.trigger_to_chord_m / v / np.cos(np.asarray(u) * dg.chord_half_angle_rad)


def test_ecdf_ks_block_slack_keeps_a_candidate_a_non_monotone_fast_cdf_hides(monkeypatch):
    # 128 samples in four blocks, the least D+ at sample 64 (a block's first)
    # and sample 0 a D- candidate 4e-13 inside the margin; F barely grows
    # from sample 0 to 32, and a fast CDF 1e-12 low at sample 32 puts that
    # block start's D+ 5e-13 beyond the bound block 0 needs without the
    # slack, so only the slack keeps sample 0 a candidate
    n, margin = 128, montecarlo._KS_SCREEN
    least, u = -0.3, np.empty(128)
    u[:32] = 1 / n - (least + margin - 4e-13)
    u[32] = u[0] + 1e-13
    u[64] = 65 / n - least
    u[33:64] = np.linspace(u[32], u[64], 33)[1:-1]
    u[65:] = np.linspace(u[64], 0.99, 64)[1:]
    times = _times_at(u)

    def fast(dg, v, t):
        values = _cdf_fast(dg, v, t)
        values[t == times[32]] -= 1e-12
        return values

    plus = np.arange(1, n + 1) / n - fast(derive_geometry(KM_CELL), 50.0, times)
    assert plus.argmin() == 64 and plus[0] - plus[64] <= margin
    assert 0 < plus[32] - plus[64] - (32 / n + margin) < 1e-12
    _assert_ks_screen_is_one_pass(monkeypatch, KM_CELL, 50.0, SimControls(n, 0), times, fast)


def test_ecdf_ks_block_least_d_plus_is_bounded_by_the_next_block(monkeypatch):
    # 1024 samples at their quantiles but for a jump of F by 0.3 at sample
    # 159, the last of block 4, which holds the least D+ (and the statistic,
    # as D-), far below the block's first D+; a flat stretch puts the largest
    # D+ near sample 899, so block 4 runs only because the next block's
    # first D+ bounds it
    n = 1024
    u = (np.arange(n) + 0.5) / n
    u[159] += 0.3
    u[160:] = np.maximum(u[160:], u[159])
    u[700:900] = u[700]
    times = _times_at(u)
    plus = np.arange(1, n + 1) / n - _cdf_fast(derive_geometry(KM_CELL), 50.0, times)
    assert plus.argmin() == 159 and plus[128] - plus[159] > 0.25 and plus.max() > plus[128] + 0.1
    assert _loop_ks(KM_CELL, 50.0, times) == pytest.approx(0.3 + 0.5 / n)
    _assert_ks_screen_is_one_pass(monkeypatch, KM_CELL, 50.0, SimControls(n, 0), times)


def test_ecdf_memory_is_the_sample_and_little_more():
    # the report holds one float a sample; the KS step adds the block starts
    # and the blocks it runs, so a 2**20-sample call peaks at 12 bytes a
    # sample at most (9.0 measured; a fast CDF over the whole sample took 25)
    ctl = SimControls(2**20, 1)
    crossing_time_ecdf(KM_CELL, 50.0, SimControls(10, 1))  # warm the thread's generator
    tracemalloc.start()
    try:
        crossing_time_ecdf(CellGeometry(1000.0, 50.0), 50.0, ctl)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * ctl.samples


def test_ecdf_ks_is_exact_where_numpy_arccos_is_not():
    # here numpy's arccos and libm's acos differ in the last ulp at the
    # sample that maximises the KS difference, so a KS step on numpy's
    # arccos alone gives another statistic; the screen must not
    report = crossing_time_ecdf(KM_CELL, 50.0, SimControls(samples=2_000, seed=1))
    exact = _loop_ks(KM_CELL, 50.0, report.times_s)
    fast = _ks_over(_cdf_fast(derive_geometry(KM_CELL), 50.0, report.times_s))
    if fast == exact:
        pytest.skip("numpy's arccos agrees with libm's acos at the maximising sample here")
    assert report.ks_stat == exact


def test_ecdf_times_live_on_support():
    report = crossing_time_ecdf(KM_CELL, 50.0, SimControls(samples=5_000, seed=11))
    support = crossing_time_support(KM_CELL, 50.0)
    assert report.times_s.min() >= support.t_min_s
    assert report.times_s.max() <= support.t_max_s
    assert np.all(np.diff(report.times_s) >= 0)


def test_ecdf_array_is_read_only():
    report = crossing_time_ecdf(KM_CELL, 50.0, SimControls(samples=100, seed=1))
    with pytest.raises(ValueError):
        report.times_s[0] = 0.0


def test_ecdf_validation():
    with pytest.raises(InvalidParameterError):
        crossing_time_ecdf(KM_CELL, 0.0, SimControls(samples=10, seed=0))
    with pytest.raises(InvalidParameterError):
        crossing_time_ecdf(KM_CELL, -2.0, SimControls(samples=10, seed=0))


# ----------------------------------------------------------------------
# seed derivation
# ----------------------------------------------------------------------

def test_derive_seed_is_deterministic():
    assert derive_seed(42, 0) == derive_seed(42, 0)
    assert derive_seed(42, 1) == derive_seed(42, 1)


def test_derive_seed_spreads():
    seen = {derive_seed(9, i) for i in range(500)}
    assert len(seen) == 500
    assert derive_seed(9, 0) != derive_seed(10, 0)


def test_derive_seed_range():
    for seed, index in [(0, 0), (2**64 - 1, 0), (5, 10**6)]:
        value = derive_seed(seed, index)
        assert isinstance(value, int)
        assert 0 <= value < 2**64


# ----------------------------------------------------------------------
# the uniform-speed staircase, on Philox's grid
# ----------------------------------------------------------------------

def _to_speed(u, speed):
    """Grid values mapped onto a uniform model's [vmin, vmax) as Generator.uniform maps them."""
    return np.asarray(u, dtype=float) * (speed.vmax_mps - speed.vmin_mps) + speed.vmin_mps


def _exact_pairs(dg, speed, tau, u_h, u_v) -> int:
    """How many grid pairs (heading, speed) the exact step counts as crossing before tau."""
    dist = _ray_chord_hits_into(*_frame(dg), _to_heading(u_h, dg.chord_half_angle_rad))
    return int(np.count_nonzero(np.divide(dist, _to_speed(u_v, speed)) < tau))


def _bin_grid():
    """Each of the 256 heading bins' first and last grid value."""
    first = np.arange(256) * 2.0 ** -8
    return first, first + (2.0 ** -8 - GRID_STEP)


def _staircase_probes(tables):
    """Grid pairs: each bin's first and last heading crossed with the speeds
    at, one and 64 grid steps around the thresholds of its bin and of its
    neighbours, and the slowest and fastest speed; then 2000 random pairs."""
    first, last = _bin_grid()
    columns = [np.zeros(256), np.ones(256)]
    for t in tables:
        padded = np.concatenate([t[:1], t, t[-1:]])
        columns += [padded[:-2], padded[1:-1], padded[2:]]
    k = np.ceil(np.stack(columns, axis=1) * 2.0 ** 53)
    speeds = np.concatenate([k + s for s in (0, 1, -1, 64, -64)], axis=1) * GRID_STEP
    u_h = np.repeat(np.concatenate([first, last]), speeds.shape[1])
    u_v = np.tile(speeds.ravel(), 2)
    finite = np.isfinite(u_v)
    rng = np.random.Generator(np.random.Philox(9))
    return (np.concatenate([u_h[finite], rng.random(2000)]),
            np.concatenate([np.clip(u_v[finite], 0.0, 1.0 - GRID_STEP), rng.random(2000)]))


def _assert_staircase_is_exact(dg, speed, tau):
    """The staircase's thresholds are ordered, and its count of
    _staircase_probes is the exact step's; a staircase that decides every
    pair returns no thresholds and the share each probe counts, 0 or 1,
    over the probes at the slowest and fastest speeds and at random."""
    tables, count = montecarlo._staircase(dg, speed, tau)
    if isinstance(count, int):
        assert tables is None and count in (0, 1)
        u_h, u_v = _staircase_probes([])
        got = count * u_h.size
    else:
        assert np.all(tables[0] > tables[1])
        u_h, u_v = _staircase_probes(tables)
        got = count(u_h.copy(), u_v.copy(), np.empty(2 * u_h.size, dtype=bool), 0)
    assert got == _exact_pairs(dg, speed, tau, u_h, u_v)
    return tables


def _around_the_support(t_first, t_last, share):
    """0, each end of the support, the doubles beside it and 1e-12 either
    side of it, and a share of the way between the ends."""
    taus = [0.0, t_first + share * (t_last - t_first)]
    for end in (t_first, t_last):
        taus += [end, math.nextafter(end, 0.0), math.nextafter(end, math.inf), end * (1 + 1e-12), end * (1 - 1e-12)]
    return taus


# the staircase's property draws: forward frames, vmin, vmax/vmin and a
# share of the support; the examples pin the ends of every range, and the
# last one's share of 2 puts a tau beyond the support, where every pair is
# sure and the staircase gives the share 1 (tau 0 gives the share 0)
STAIRCASE_EXAMPLES = [
    (SCREEN_EXAMPLES[0][0], 1.0, 1.0 + 1e-9, 0.0),
    (SCREEN_EXAMPLES[1][0], 60.0, 10.0, 1.0),
    (SCREEN_EXAMPLES[2][0], 60.0, 1.0 + 1e-9, 1.0),
    (SCREEN_EXAMPLES[3][0], 1.0, 10.0, 0.0),
    (SCREEN_EXAMPLES[1][0], 1.0, 10.0, 2.0),
]


def _staircase_pinned(test):
    for source, vmin, ratio, share in STAIRCASE_EXAMPLES:
        test = example(source=source, vmin=vmin, ratio=ratio, share=share)(test)
    return test


@settings(derandomize=True, max_examples=30, deadline=None)
@given(source=forward_frames(), vmin=st.floats(1.0, 60.0), ratio=st.floats(1.0 + 1e-9, 10.0),
       share=st.floats(0.0, 1.0))
@_staircase_pinned
def test_staircase_count_equals_the_exact_step(source, vmin, ratio, share):
    # the uniform-speed path counts grid pairs against two speed thresholds
    # per heading bin and runs the exact step only on the band between; at
    # taus on, beside and 1e-12 either side of both ends of the support,
    # at 0 and in between, its count of pairs at every bin's first and last
    # heading, next to every threshold and at random is the exact step's
    dg = source[1]
    speed = SpeedModel.uniform(vmin, vmin * ratio)
    t_first, t_last = _support(dg, speed.vmax_mps)[0], _support(dg, vmin)[1]
    for tau in _around_the_support(t_first, t_last, share):
        _assert_staircase_is_exact(dg, speed, tau)
    # a solve that puts bin 0's VH at grid speed 0.5, with tau the time there
    # at the bin's larger distance: the exact step does not count t == tau,
    # so the check's margin must refuse that threshold for the count to hold
    first, last = _bin_grid()
    d = _ray_chord_hits_into(*_frame(dg), _to_heading([first[0], last[0]], dg.chord_half_angle_rad))
    tie = float(np.max(d) / _to_speed(0.5, speed))
    solve = montecarlo._solve_speeds
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(montecarlo, "_solve_speeds", lambda *args: np.concatenate([[0.5], solve(*args)[1:]]))
        assert _assert_staircase_is_exact(dg, speed, tie)[0][0] == math.inf


def test_staircase_scalar_check_decides_only_past_its_margin():
    # the scalar check decides a tau only where the margin holds: at the
    # least tau whose tau*(1 + eta) reaches the fastest time (heading 0 at
    # vmax) the table is built, and one ulp below it none is; at the least
    # tau whose tau*(1 - eta) reaches the slowest (heading -+H at vmin) none
    # is, and one ulp below it the table is built; every count is exact
    def least(holds, tau):
        while holds(math.nextafter(tau, 0.0)):
            tau = math.nextafter(tau, 0.0)
        while not holds(tau):
            tau = math.nextafter(tau, math.inf)
        return tau

    eta = montecarlo._ETA
    dg, speed = derive_geometry(KM_CELL), SpeedModel.uniform(40.0, 60.0)
    fast = montecarlo._fastest_time(dg, speed.vmax_mps)
    slow = dg.trigger_to_chord_m / math.cos(dg.chord_half_angle_rad) / speed.vmin_mps
    reach_fast = least(lambda tau: tau * (1.0 + eta) >= fast, fast / (1.0 + eta))
    reach_slow = least(lambda tau: tau * (1.0 - eta) >= slow, slow / (1.0 - eta))
    for tau, decided in ((reach_fast, False), (math.nextafter(reach_fast, 0.0), True),
                         (reach_slow, True), (math.nextafter(reach_slow, 0.0), False)):
        assert (_assert_staircase_is_exact(dg, speed, tau) is None) == decided, tau


def test_staircase_property_draws_reach_their_ranges(monkeypatch):
    # a spy on the staircase shows that the property's draws reach both ends
    # of every range they come from
    seen = []
    staircase = montecarlo._staircase
    monkeypatch.setattr(montecarlo, "_staircase", lambda dg, speed, tau: seen.append((dg, speed, tau))
                        or staircase(dg, speed, tau))
    test_staircase_count_equals_the_exact_step()
    bare = [dg for dg, _, _ in seen if dg.side_to_trigger_m == 0.0]
    cells = [dg for dg, _, _ in seen if dg.side_to_trigger_m > 0.0]
    offsets = [math.pi / 2 - dg.chord_half_angle_rad for dg in bare]
    assert min(offsets) == pytest.approx(1e-7) and max(offsets) == pytest.approx(0.5)
    assert min(dg.trigger_to_chord_m for dg in bare) == 1e-3 and max(dg.trigger_to_chord_m for dg in bare) == 1e3
    radii = [2 * dg.side_to_trigger_m / (2 - math.sqrt(3.0)) for dg in cells]
    assert min(radii) == pytest.approx(100.0) and max(radii) == pytest.approx(5000.0)
    overlaps = [(dg.trigger_to_chord_m - dg.side_to_trigger_m) / (math.sqrt(3.0) / 2 * r)
                for dg, r in zip(cells, radii)]
    assert min(overlaps) == 0.0 and max(overlaps) == pytest.approx(0.999)
    vmins = [speed.vmin_mps for _, speed, _ in seen]
    ratios = [speed.vmax_mps / speed.vmin_mps for _, speed, _ in seen]
    assert min(vmins) == 1.0 and max(vmins) == 60.0
    assert min(ratios) == pytest.approx(1.0 + 1e-9, abs=1e-15) and max(ratios) == pytest.approx(10.0)
    assert min(tau for _, _, tau in seen) == 0.0


def _expected_tables(dg, speed, tau, candidates):
    """The thresholds the staircase must keep from candidates [VH; VM]: each
    held in [0, 1], and kept only where the exact step at its speed shows
    t <= tau*(1 - eta) at its bin's largest distance (VH) or t > tau*(1 +
    eta) at its smallest (VM); else +inf or -inf."""
    first, last = _bin_grid()
    d = _ray_chord_hits_into(*_frame(dg), _to_heading(np.concatenate([first, last]), dg.chord_half_angle_rad))
    d_hi, d_lo = np.maximum(d[:256], d[256:]), np.minimum(d[:256], d[256:])
    u = np.fmin(np.fmax(candidates, 0.0), 1.0)
    t_hi, t_lo = d_hi / _to_speed(u[:256], speed), d_lo / _to_speed(u[256:], speed)
    eta = montecarlo._ETA
    return [np.where(t_hi <= tau * (1 - eta), u[:256], math.inf), np.where(t_lo > tau * (1 + eta), u[256:], -math.inf)]


def _at_half_the_speed_margin(d, reach, speed, tau):
    """Grid values where d/v lies half the staircase's margin inside tau
    (tau > 0), so the check must refuse them."""
    eta = montecarlo._ETA / 2
    bound = np.repeat([tau * (1 - eta), tau * (1 + eta)], 256)
    return (d / bound - speed.vmin_mps) / (speed.vmax_mps - speed.vmin_mps)


# solves that miss the thresholds: each makes [VH; VM] candidates from the
# true ones and _solve_speeds' arguments
WRONG_SPEEDS = {
    "swapped": lambda u, args: np.concatenate([u[256:], u[:256]]),
    "a grid step low": lambda u, args: u - GRID_STEP,
    "a grid step high": lambda u, args: u + GRID_STEP,
    "half the margin": lambda u, args: _at_half_the_speed_margin(*args),
    "nan": lambda u, args: np.full(512, math.nan),
    "+inf": lambda u, args: np.full(512, math.inf),
    "-inf": lambda u, args: np.full(512, -math.inf),
    "past the grid": lambda u, args: np.repeat([-3.0, 4.0], 256),
}


@pytest.mark.parametrize("wrong", WRONG_SPEEDS.values(), ids=WRONG_SPEEDS.keys())
def test_staircase_keeps_only_thresholds_the_exact_step_checks(monkeypatch, wrong):
    # the staircase trusts no solved threshold: whatever _solve_speeds
    # returns, every count is the exact step's, and a threshold is kept
    # (held in [0, 1]) only where its margin holds, else it is +-inf
    given = []
    solve = montecarlo._solve_speeds
    monkeypatch.setattr(montecarlo, "_solve_speeds", lambda *args: given.append(wrong(solve(*args), args)) or given[-1])
    for source, v, _ in SCREEN_EXAMPLES:
        dg = source[1]
        for ratio in (1.0 + 1e-9, 10.0):
            speed = SpeedModel.uniform(v, v * ratio)
            t_first, t_last = _support(dg, speed.vmax_mps)[0], _support(dg, v)[1]
            for tau in (t_first, (t_first + t_last) / 2, t_last):
                given.clear()
                tables = _assert_staircase_is_exact(dg, speed, tau)
                expected = _expected_tables(dg, speed, tau, given[0])
                assert all(np.array_equal(got, want) for got, want in zip(tables, expected))


def test_solved_thresholds_are_kept_where_thresholds_exist(monkeypatch):
    # the solve lands where the check keeps it: every solved threshold that
    # lies inside the grid's range is kept, so the band stays thin
    solved = []
    solve = montecarlo._solve_speeds
    monkeypatch.setattr(montecarlo, "_solve_speeds", lambda *args: solved.append(solve(*args)) or solved[-1].copy())
    for (_, dg), v, _ in SCREEN_EXAMPLES:
        for ratio in (1.0 + 1e-9, 2.0, 10.0):
            speed = SpeedModel.uniform(v, v * ratio)
            t_first, t_last = _support(dg, speed.vmax_mps)[0], _support(dg, v)[1]
            for tau in (t_first, (t_first + t_last) / 2, t_last):
                solved.clear()
                kept = np.concatenate(montecarlo._staircase(dg, speed, tau)[0])
                inside = (solved[0] > 0.0) & (solved[0] < 1.0)
                assert np.array_equal(kept[inside], solved[0][inside])


@pytest.mark.parametrize("a", [1e-150, 1e150])
@pytest.mark.parametrize("vmin,vmax", [(1e-150, 1e-149), (1e149, 1e150), (1e-150, 1e150)])
@pytest.mark.parametrize("overlap_frac", [0.0, 0.999])
def test_staircase_is_exact_at_the_speed_and_radius_bounds(a, vmin, vmax, overlap_frac):
    # at every corner of the radius and speed bounds, for taus of 0, the
    # least double, 1.7e308 and the support's ends, the staircase's count is
    # the exact step's, with no warning; the extreme taus give 0 or 1
    geom = CellGeometry(a, overlap_frac * math.sqrt(3.0) / 2.0 * a)
    dg = derive_geometry(geom)
    model = SpeedModel.uniform(vmin, vmax)
    t_first, t_last = crossing_time_support(geom, vmax).t_min_s, crossing_time_support(geom, vmin).t_max_s
    ctl = SimControls(70000, 3, 2)
    for tau in (0.0, 5e-324, 1.7e308, t_first, t_last):
        _assert_staircase_is_exact(dg, model, tau)
        p_hat = estimate_failure(geom, model, tau, ctl).p_hat
        if tau in (0.0, 5e-324, 1.7e308):
            assert p_hat == (tau == 1.7e308)


def _whole_pairs(ctl):
    """Every batch's heading and speed grid values, each batch drawn whole
    with Generator.random: nb headings, then nb speeds."""
    base, rem = divmod(ctl.samples, ctl.batches)
    u_h, u_v = [], []
    for batch in range(ctl.batches):
        nb = base + (batch < rem)
        r = np.random.Generator(np.random.Philox(key=np.array([ctl.seed, batch], dtype=np.uint64))).random(2 * nb)
        u_h.append(r[:nb])
        u_v.append(r[nb:])
    return np.concatenate(u_h), np.concatenate(u_v)


def test_uniform_path_steps_only_bin_ends_and_the_band_at_a_pinned_seed(monkeypatch):
    # the uniform-speed path runs the hits step once on the 512 bin-end
    # headings, and after that only on the drawn headings whose speed lies
    # strictly between their bin's thresholds, a small share of the draw
    calls, found = [], []
    hits, staircase = montecarlo._ray_chord_hits_into, montecarlo._staircase
    monkeypatch.setattr(montecarlo, "_ray_chord_hits_into", lambda r, w, h: calls.append(h.copy()) or hits(r, w, h))
    monkeypatch.setattr(montecarlo, "_staircase", lambda *args: found.append(staircase(*args)) or found[-1])
    ctl = SimControls(2**17 + 5, 11, 3)
    p = estimate_failure(PINNED_GEOMETRY, SpeedModel.uniform(40.0, 60.0), 8.0, ctl).p_hat
    assert p == 0.6769532412246237  # the estimate before the staircase
    ((vh, vm), _), = found
    half = derive_geometry(PINNED_GEOMETRY).chord_half_angle_rad
    first, last = _bin_grid()
    assert np.sort(calls[0]).tobytes() == np.sort(_to_heading(np.concatenate([first, last]), half)).tobytes()
    # bin 128 starts at heading 0, so no bin holds headings of both signs
    assert _to_heading([0.5], half)[0] == 0.0
    u_h, u_v = _whole_pairs(ctl)
    bins = (u_h * 256).astype(int)
    band = (u_v < vh[bins]) & (u_v > vm[bins])
    assert 0 < np.count_nonzero(band) < 0.01 * ctl.samples
    stepped = np.sort(np.concatenate(calls[1:]))
    assert stepped.tobytes() == np.sort(_to_heading(u_h[band], half)).tobytes()


def test_screened_grid_count_equals_the_exact_step():
    # the screen's count is the exact step's also where thresholds fall
    # back: below the support no heading crosses in time, so no inner
    # threshold is kept and [x1, x2) is empty
    for (_, dg), v, _ in SCREEN_EXAMPLES:
        t_min, t_max = _support(dg, v)
        _assert_screen_is_exact(dg, None, None)
        for tau in (0.0, t_min * (1 - 1e-12), t_min, (t_min + t_max) / 2, t_max):
            x = _assert_screen_is_exact(dg, SpeedModel.fixed(v), tau)
            if tau < t_min:
                assert x[1] == x[2] == 0.5

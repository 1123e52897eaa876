import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from handoff_lab.analytic import (
    SpeedModel,
    _cdf_many,
    crossing_time_cdf,
    crossing_time_support,
    expected_failure_over_speed,
    false_handoff_probability,
)
from handoff_lab.errors import InvalidParameterError
from handoff_lab.geometry import CellGeometry, derive_geometry
from handoff_lab.montecarlo import (
    SimControls,
    crossing_time_ecdf,
    derive_seed,
    estimate_failure,
    estimate_false_handoff,
)

KM_CELL = CellGeometry(1000.0, 0.0)


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


def test_failure_estimate_exact_branches():
    # below the minimum crossing time nothing fails; above the maximum all do
    never = estimate_failure(KM_CELL, 50.0, 2.0, SimControls(samples=20_000, seed=8))
    assert never.p_hat == 0.0 and never.std_err == 0.0
    always = estimate_failure(KM_CELL, 50.0, 20.0, SimControls(samples=20_000, seed=8))
    assert always.p_hat == 1.0 and always.std_err == 0.0


def test_failure_estimate_uniform_speed():
    model = SpeedModel.uniform(40.0, 60.0)
    expected = expected_failure_over_speed(KM_CELL, model, 3.0)
    est = estimate_failure(KM_CELL, model, 3.0, SimControls(samples=1_000_000, seed=2))
    assert abs(est.p_hat - expected) <= 3.0 * est.std_err


def test_fixed_speed_accepts_plain_number():
    ctl = SimControls(samples=40_000, seed=6)
    as_float = estimate_failure(KM_CELL, 50.0, 3.0, ctl)
    as_model = estimate_failure(KM_CELL, SpeedModel.fixed(50.0), 3.0, ctl)
    assert as_float == as_model


def test_failure_estimate_validation():
    with pytest.raises(InvalidParameterError):
        estimate_failure(KM_CELL, 50.0, -1.0, SimControls(samples=10, seed=0))
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
def test_ecdf_ks_screen_equals_scalar_cdf_loop(a, overlap_frac, v, samples, batches, seed):
    # the screened KS step gives exactly what a per-sample loop over the
    # scalar closed form gives, over the whole parameter space
    geom = CellGeometry(a, overlap_frac * math.sqrt(3.0) / 2.0 * a)
    ctl = SimControls(samples=samples, seed=seed, batches=min(batches, samples))
    report = crossing_time_ecdf(geom, v, ctl)
    assert report.ks_stat == _loop_ks(geom, v, report.times_s)


def test_ecdf_ks_is_exact_where_numpy_arccos_is_not():
    # here numpy's arccos and libm's acos differ in the last ulp at the
    # sample that maximises the KS difference, so a KS step on numpy's
    # arccos alone gives another statistic; the screen must not
    report = crossing_time_ecdf(KM_CELL, 50.0, SimControls(samples=2_000, seed=1))
    exact = _loop_ks(KM_CELL, 50.0, report.times_s)
    fast = _ks_over(_cdf_many(derive_geometry(KM_CELL), 50.0, report.times_s, exact=False))
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

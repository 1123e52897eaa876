"""Monte Carlo cross-checks for the closed-form handoff model.

Trajectory sampling never consults the closed forms it is meant to verify:
whether a sampled heading reaches the new cell is decided by exact
ray/segment intersection against the chord, and crossing times come from
the intersection distance divided by speed.

Reproducibility contract: streams come from numpy's Philox4x64 counter-based
generator keyed by (seed, batch_index), so every batch owns an independent
substream.  In a batch of nb samples, drawn quantity k sits at draws
[k*nb, (k+1)*nb) of that substream: k = 0 holds the headings, k = 1 the
speeds of a uniform speed model.  Every estimator runs through one kernel
that cuts each batch into chunks of 2**16 samples (the last one shorter)
and draws a chunk straight from its offset in the substream, so memory is
bounded by the chunk, not the batch, and every draw equals the one a
whole-batch Generator.uniform call gives.  Chunk boundaries depend only on
the batch sizes, never on the worker count; workers split the chunks, and
counts (integers) and per-sample values do not depend on who computed
them, so results are identical under any worker count.
"""

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Optional, Union

import numpy as np

from .analytic import SpeedModel, _cdf_many, _check_tau
from .errors import InvalidParameterError, _real_or_nan, coerce_numbers
from .geometry import CellGeometry, LocalFrame, _ray_chord_into, derive_geometry, local_frame

_MASK64 = (1 << 64) - 1
_CHUNK = 1 << 16  # samples per kernel chunk, whatever the batch size
# Candidate margin of the KS screen in crossing_time_ecdf.  It only has to
# exceed twice the ~1e-15 error of the fast CDF; a wider margin admits more
# candidates but never changes the statistic.
_KS_SCREEN = 1e-9

# One Philox bit generator and its Generator per thread, built on first use:
# constructing a Philox draws OS entropy for a seed sequence the kernel never
# uses, and the kernel sets the whole state before every draw, so reuse
# changes no value.
_generators = threading.local()


@dataclass(frozen=True)
class SimControls:
    """Sample count, 64-bit seed, and batch split for one estimator run."""

    samples: int
    seed: int
    batches: int = 1

    def __post_init__(self):
        coerce_numbers(self, "samples", "seed", "batches", integer=True)
        if not self.samples >= 1:
            raise InvalidParameterError(f"samples must be an integer >= 1, got {self.samples!r}")
        if not 0 <= self.seed <= _MASK64:
            raise InvalidParameterError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")
        if not 1 <= self.batches <= self.samples:
            raise InvalidParameterError(
                f"batches must be an integer in [1, samples], got {self.batches!r}"
            )


@dataclass(frozen=True)
class Estimate:
    """Binomial point estimate with its standard error and provenance."""

    p_hat: float
    std_err: float
    n: int
    seed: int


@dataclass(frozen=True, eq=False)
class EcdfReport:
    """Sorted crossing-time sample plus its KS distance to the model law."""

    times_s: np.ndarray
    ks_stat: float
    n: int


def derive_seed(seed: int, index: int) -> int:
    """Stable 64-bit seed for a derived stream (SplitMix64 of seed and index).

    Used by sweep runners to give every grid point its own decorrelated
    substream while keeping the whole table a pure function of one seed.
    """
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _thread_generator():
    """This thread's (Philox, Generator) pair, built on its first call."""
    pair = getattr(_generators, "pair", None)
    if pair is None:
        bitgen = np.random.Philox(key=0)
        pair = _generators.pair = bitgen, np.random.Generator(bitgen)
    return pair


def _batch_sizes(samples: int, batches: int) -> List[int]:
    base, rem = divmod(samples, batches)
    return [base + 1 if i < rem else base for i in range(batches)]


def _sample(
    frame: LocalFrame,
    half_range: float,
    ctl: SimControls,
    workers: int,
    *,
    speed: Optional[SpeedModel] = None,
    tau: Optional[float] = None,
    out: Optional[np.ndarray] = None,
) -> int:
    """The one Monte Carlo kernel: every sample of ctl, drawn and reduced in
    chunks of _CHUNK samples, in buffers allocated once per worker.

    Per sample it draws a heading uniform on [-half_range, half_range),
    finds the exact ray/chord distance (NaN for a miss) and, given a speed,
    divides it by the sample's speed into a crossing time.  Then either the
    values go to out[sample] (out given), or it returns how many are below
    tau (tau given; NaN compares false), or how many are misses (neither).
    """
    chunks, first = [], 0
    for batch, nb in enumerate(_batch_sizes(ctl.samples, ctl.batches)):
        chunks += [(batch, nb, start, min(_CHUNK, nb - start), first + start)
                   for start in range(0, nb, _CHUNK)]
        first += nb
    width = min(_CHUNK, -(-ctl.samples // ctl.batches))  # the largest batch, at most a chunk
    drawn = speed is not None and speed.kind == "uniform"

    def run(jobs) -> int:
        key, counter = [ctl.seed, 0], [0, 0, 0, 0]
        state = {"bit_generator": "Philox", "state": {"key": key, "counter": counter},
                 "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        bitgen, gen = _thread_generator()

        def uniform(buf, batch, position, m, lo, hi):
            # Generator.uniform(lo, hi) values position..position+m-1 of
            # substream (seed, batch), bit for bit.  Philox makes four words
            # per counter value, so the draw starts at the block holding
            # `position` and skips up to 3 words: buf has 3 spare slots.
            key[1] = batch
            counter[0], skip = divmod(position, 4)
            bitgen.state = state
            gen.random(out=buf[:skip + m])
            x = buf[skip:skip + m]
            x *= hi - lo
            x += lo
            return x

        h, v, a, b, c = np.empty((5, width + 3))
        hit, tmp = np.empty((2, width), dtype=bool)
        count = 0
        for batch, nb, start, m, at in jobs:
            heading = uniform(h, batch, start, m, -half_range, half_range)
            dist = _ray_chord_into(frame, heading, a[:m], b[:m], c[:m], hit[:m], tmp[:m])
            t = dist if out is None else out[at:at + m]
            if drawn:
                # a batch's speeds follow its nb headings in its substream
                np.divide(dist, uniform(v, batch, nb + start, m, speed.vmin_mps, speed.vmax_mps), out=t)
            elif speed is not None:
                np.divide(dist, speed.v_mps, out=t)
            if out is not None:
                continue
            if tau is None:
                np.isnan(t, out=hit[:m])
            else:
                np.less(t, tau, out=hit[:m])
            count += int(np.count_nonzero(hit[:m]))
        return count

    workers = min(workers, len(chunks))
    if workers <= 1:
        return run(chunks)
    # chunks are dealt to workers in a fixed way; counts are integers and
    # every value lands in its own slot of out, so no result depends on the
    # worker count
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return sum(pool.map(run, [chunks[w::workers] for w in range(workers)]))


def _binomial(hits: int, ctl: SimControls) -> Estimate:
    p = hits / ctl.samples
    return Estimate(
        p_hat=p,
        std_err=math.sqrt(p * (1.0 - p) / ctl.samples),
        n=ctl.samples,
        seed=ctl.seed,
    )


def estimate_false_handoff(geom: CellGeometry, ctl: SimControls, *, workers: int = 1) -> Estimate:
    """Fraction of uniform headings whose ray never reaches the chord.

    Headings are drawn uniformly over the full circle; the hit/miss decision
    is pure segment intersection, so this estimate is a genuinely independent
    check of the closed-form false-handoff probability.
    """
    misses = _sample(local_frame(geom), math.pi, ctl, workers)
    return _binomial(misses, ctl)


def estimate_failure(
    geom: CellGeometry,
    speed: Union[float, SpeedModel],
    tau_s: float,
    ctl: SimControls,
    *,
    workers: int = 1,
) -> Estimate:
    """Fraction of chord-bound trajectories that cross before tau_s elapses.

    Headings are uniform over the arc that reaches the new cell; each
    trajectory's crossing time is its exact intersection distance divided by
    its speed.  `speed` is either a fixed value in m/s or a SpeedModel;
    uniform models draw one speed per trajectory.
    """
    tau = _real_or_nan(tau_s)
    if not (math.isfinite(tau) and tau >= 0):
        raise InvalidParameterError(f"tau_s must be finite and nonnegative, got {tau_s!r}")
    if isinstance(speed, SpeedModel):
        model = speed
    else:
        model = SpeedModel.fixed(speed)
    half_angle = derive_geometry(geom).chord_half_angle_rad
    hits = _sample(local_frame(geom), half_angle, ctl, workers, speed=model, tau=tau)
    return _binomial(hits, ctl)


def crossing_time_ecdf(
    geom: CellGeometry, v_mps: float, ctl: SimControls, *, workers: int = 1
) -> EcdfReport:
    """Empirical crossing-time distribution and its KS distance to the model.

    Returns the sorted sample, the Kolmogorov-Smirnov sup statistic against
    the closed-form distribution, and the sample size.  At 95% confidence
    the statistic should stay below 1.36/sqrt(n).

    The statistic is the one a per-sample loop over the scalar
    crossing_time_cdf gives, bit for bit, found by a screen.  The model
    distribution is first evaluated over the whole sample with numpy's
    arccos (analytic._cdf_many with exact=False), which is within about
    1e-15 of the exact value because the chord half-angle exceeds pi/4.
    Every sample whose KS difference, D+ = i/n - F or D- = F - (i-1)/n,
    lies within _KS_SCREEN = 1e-9 of that difference's maximum is a
    candidate.  At the exact argmax the approximate difference lies within
    twice the approximation error of the approximate maximum, far below
    1e-9, so the exact argmax is always a candidate.  Only the candidates,
    usually one per difference, are then evaluated exactly with libm's
    acos, and the statistic is the largest exact difference among them.
    """
    speed = SpeedModel.fixed(v_mps)
    dg = derive_geometry(geom)
    times = np.empty(ctl.samples)
    _sample(local_frame(geom), dg.chord_half_angle_rad, ctl, workers, speed=speed, out=times)
    times.sort()
    n = len(times)
    # every heading in [-h, h] hits the chord, edges included, so no time is
    # NaN; a NaN, were one to appear, would sort last and be refused here as
    # the scalar CDF refuses it
    _check_tau(float(times[-1]))
    fast = _cdf_many(dg, speed.v_mps, times, exact=False)
    # the ECDF is levels[i] just below sample i and levels[i + 1] at it; one
    # difference array serves D+ and then D-, so the step's peak memory
    # stays below that of the CDF call above
    levels = np.arange(n + 1) / n
    diff = levels[1:] - fast
    near = diff >= diff.max() - _KS_SCREEN
    np.subtract(fast, levels[:-1], out=diff)
    near |= diff >= diff.max() - _KS_SCREEN
    near = np.flatnonzero(near)
    model = _cdf_many(dg, speed.v_mps, times[near])
    ks = max(float((levels[near + 1] - model).max()), float((model - levels[near]).max()))
    times.setflags(write=False)
    return EcdfReport(times_s=times, ks_stat=ks, n=n)

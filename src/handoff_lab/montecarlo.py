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

The false-handoff estimator draws headings over the whole circle, and about
half of them point away from the chord.  The kernel screens those out
before any trig, from the two lengths alone: with the trigger point at the
origin and heading 0 along +x, the whole chord lies on the line
x = trigger_to_chord_m > 0, between y = +-half_chord_m, so a heading with
|h| > pi/2 + _SCREEN_MARGIN moves toward negative x and is counted as a
miss.  Each such heading has cos(h) < -0.99e-6, so the exact intersection's
denominator cos(h)*(-2*half_chord_m) is positive and its miss test rejects
the heading as well: the miss count is the same integer, every draw stays
where the substream puts it, and every output byte is unchanged.  The
remaining headings are compacted and go through the exact miss test, which
decides each hit from the denominator's sign and the chord parameter and
computes no distance.  The screen uses only that half-plane, never the
chord's half-angle or any other closed-form quantity, so the estimate
stays independent of the closed form it checks.

The failure and crossing-time estimators draw only headings that hit the
chord, so they skip sin and the miss test (see _sample).
"""

from __future__ import annotations

import math
import numbers
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Union

from .analytic import SpeedModel, _cdf_many, _check_tau
from .errors import InvalidParameterError, _real_or_nan, coerce_numbers
from .geometry import CellGeometry, DerivedGeometry, _ray_chord_hits_into, _ray_chord_misses_into, derive_geometry

# numpy is imported inside the functions that sample, so a scenario's mc
# block (SimControls) parses without loading it.
if TYPE_CHECKING:
    import numpy as np

_MASK64 = (1 << 64) - 1
_CHUNK = 1 << 16  # samples per kernel chunk, whatever the batch size
# Candidate margin of the KS screen in crossing_time_ecdf.  It only has to
# exceed twice the ~1e-15 error of the fast CDF; a wider margin admits more
# candidates but never changes the statistic.
_KS_SCREEN = 1e-9
# The false-handoff screen counts a heading h with |h| > _FORWARD as a miss
# unevaluated.  The margin keeps cos(h) below -0.99e-6 for every screened
# heading, far from any roundoff of the ray's direction, so the exact miss
# test rejects it too (its denominator is positive).
_SCREEN_MARGIN = 1e-6
_FORWARD = math.pi / 2 + _SCREEN_MARGIN
# The screen packs kept headings this many at a time.  np.compress allocates
# an 8-byte index per kept element, and packing a whole chunk at once raised
# the peak RSS of mc_bulk by about 1.2 MB; 8192 keeps each index under 64 kB.
_PACK = 8192

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
            raise InvalidParameterError(f"must be an integer >= 1, got {self.samples!r}", "samples")
        if not 0 <= self.seed <= _MASK64:
            raise InvalidParameterError(f"must be an unsigned 64-bit integer, got {self.seed!r}", "seed")
        if not 1 <= self.batches <= self.samples:
            raise InvalidParameterError(f"must be an integer in [1, samples], got {self.batches!r}", "batches")


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
    import numpy as np

    pair = getattr(_generators, "pair", None)
    if pair is None:
        bitgen = np.random.Philox(key=0)
        pair = _generators.pair = bitgen, np.random.Generator(bitgen)
    return pair


def _batch_sizes(samples: int, batches: int) -> List[int]:
    base, rem = divmod(samples, batches)
    return [base + 1 if i < rem else base for i in range(batches)]


def _sample(
    dg: DerivedGeometry,
    ctl: SimControls,
    workers: int,
    *,
    speed: Optional[SpeedModel] = None,
    tau: Optional[float] = None,
    out: Optional[np.ndarray] = None,
) -> int:
    """The one Monte Carlo kernel: every sample of ctl, drawn and reduced in
    chunks of _CHUNK samples, in buffers allocated once per worker.  It
    works from dg's two lengths, trigger_to_chord_m and half_chord_m.

    Without a speed, it draws headings uniform on [-pi, pi) and returns how
    many miss the chord.  That needs no distances: the chord lies at
    x = trigger_to_chord_m > 0, so headings past +-_FORWARD move away from
    it and are counted without evaluation, and the rest by the miss step,
    _ray_chord_misses_into (see the module docstring).

    With a speed, it draws headings uniform on [-H, H), H dg's chord
    half-angle, all of which hit the chord (edges included, see
    ray_chord_crossing_many), so it takes each distance from
    _ray_chord_hits_into and divides it by the sample's speed into a
    crossing time.  Then either the times go to out[sample] (out given) or
    it returns how many are below tau.
    """
    import numpy as np

    if isinstance(workers, bool) or not isinstance(workers, numbers.Integral) or workers < 1:
        raise InvalidParameterError(f"workers must be an integer >= 1, got {workers!r}")
    chunks, first = [], 0
    for batch, nb in enumerate(_batch_sizes(ctl.samples, ctl.batches)):
        chunks += [(batch, nb, start, min(_CHUNK, nb - start), first + start)
                   for start in range(0, nb, _CHUNK)]
        first += nb
    width = min(_CHUNK, -(-ctl.samples // ctl.batches))  # the largest batch, at most a chunk
    drawn = speed is not None and speed.kind == "uniform"
    reach, w = dg.trigger_to_chord_m, dg.half_chord_m
    half_range = math.pi if speed is None else dg.chord_half_angle_rad

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

        h, v, a, c = np.empty((4, width + 3))
        mask, tmp = np.empty((2, width), dtype=bool)
        count = 0
        for batch, nb, start, m, at in jobs:
            heading = uniform(h, batch, start, m, -half_range, half_range)
            if speed is None:
                # headings past +-_FORWARD miss; the rest are packed into v
                forward = mask[:m]
                np.less_equal(heading, _FORWARD, out=forward)
                forward &= np.greater_equal(heading, -_FORWARD, out=tmp[:m])
                k = 0
                for i in range(0, m, _PACK):
                    kept = forward[i:i + _PACK]
                    n = int(np.count_nonzero(kept))
                    np.compress(kept, heading[i:i + _PACK], out=v[k:k + n])
                    k += n
                count += m - k
                _ray_chord_misses_into(reach, w, v[:k], a[:k], c[:k], mask[:k], tmp[:k])
                count += int(np.count_nonzero(mask[:k]))
                continue
            dist = _ray_chord_hits_into(reach, w, heading)
            t = dist if out is None else out[at:at + m]
            if drawn:
                # a batch's speeds follow its nb headings in its substream
                np.divide(dist, uniform(v, batch, nb + start, m, speed.vmin_mps, speed.vmax_mps), out=t)
            else:
                np.divide(dist, speed.v_mps, out=t)
            if out is None:
                count += int(np.count_nonzero(np.less(t, tau, out=mask[:m])))
        return count

    workers = min(int(workers), len(chunks))
    if workers <= 1:
        return run(chunks)
    # chunks are dealt to workers in a fixed way; counts are integers and
    # every value lands in its own slot of out, so no result depends on the
    # worker count
    from concurrent.futures import ThreadPoolExecutor

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
    misses = _sample(derive_geometry(geom), ctl, workers)
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
    hits = _sample(derive_geometry(geom), ctl, workers, speed=model, tau=tau)
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
    import numpy as np

    speed = SpeedModel.fixed(v_mps)
    dg = derive_geometry(geom)
    times = np.empty(ctl.samples)
    _sample(dg, ctl, workers, speed=speed, out=times)
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

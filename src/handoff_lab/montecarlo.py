"""Monte Carlo cross-checks for the closed-form handoff model.

Trajectory sampling never consults the closed forms it is meant to verify:
whether a sampled heading reaches the new cell is decided by exact
ray/segment intersection against the chord, and crossing times come from
the intersection distance divided by speed.

Reproducibility contract: streams come from numpy's Philox4x64 counter-based
generator keyed by (seed, batch_index), so every batch owns an independent
substream.  In a batch of nb samples, drawn quantity k sits at draws
[k*nb, (k+1)*nb) of that substream: k = 0 holds the headings, k = 1 the
speeds of a uniform speed model.  Every estimator runs through one kernel,
_sample, that cuts each batch into chunks of 2**16 samples (the last one
shorter), draws a chunk straight from its offset in the substream, hands
it to the step its estimator brings and sums what the steps return: the
count of _screen or _staircase, or 0 from crossing_time_ecdf's step, which
stores the chunk's times at its offset.  So memory is bounded by the
chunk, not the batch, and every draw equals the one a whole-batch
Generator.uniform call gives.  Chunk boundaries depend only on the batch
sizes, never on the worker count; workers split the chunks, and counts
(integers) and per-sample values do not depend on who computed them, so
results are identical under any worker count.

Each exact step is written once: _times gives the crossing times of grid
pairs (heading, speed), and _hits counts the pairs the exact step says yes
to, rays that hit the chord with no speed and crossings before tau with
one.  crossing_time_ecdf's step and the screens' bands and checks use them.

The estimators that only count screen, as crossing_time_ecdf's KS step
screens its candidates: F never decreases over the sorted sample, so the
fast CDF at block starts bounds every D+ of a block, and only blocks whose
bounds come within the margin of the extremes, widened by a slack equal to
the margin, get the full fast pass (its docstring).  False handoff and
fixed-speed failure compare each heading's grid value with four edge
thresholds (_screen), uniform-speed failure each pair's speed with two
thresholds of its heading's bin (_staircase); the thresholds are placed
once per call on the draws' own scale, [0, 1], and only the band no
threshold decides is mapped and goes to _hits.  Each count is the exact
step's on every sample, whatever the solves return:

- The map is monotone.  _scale rounds monotonically for any double in
  [0, 1], so a draw below (at or above) x maps at or below (at or above)
  _scale(x), and each decision is monotone in the heading on either side
  of 0 and in the speed within a heading bin.
- The margin lies in the step's output.  A threshold is kept only where
  the exact step at _scale(x) shows a margin of _ETA in s or in t against
  tau, never in the heading (t is flat in h near t_min).  The steps err by
  a few ulps, far below _ETA (radii and speeds within [1e-150, 1e150] keep
  every time a normal double), so every sample beyond a kept threshold
  gets the decision its margin implies.
- Each fallback decides nothing: 0, 1/2, 1/2 or 1 for an edge (the grid's
  ends and its middle, which _scale maps to heading 0 exactly), +-inf for
  a speed threshold, so the band takes in every sample it leaves.
- One step serves both check and band.  Each check runs the arithmetic of
  the samples it decides: _times, the miss step under _hits, or on each
  bin's extreme headings the hits step and divide of _times.
- A decided screen draws nothing.  Where _screen keeps no band (x0 = x1,
  x2 = x3) and its counted interval [x1, x2) holds none of [0, 1) or all
  of it, or where _staircase's scalar check finds the slowest pair sure
  or the fastest late, every grid value gets the same decision.  The
  screen then gives its share, 0 or 1, in place of its step, and _sample
  returns 0 or every sample before it imports numpy, allocates, sets a
  Philox state or starts a thread.  These are a tau below the fastest
  crossing and one beyond the slowest (at vmax and vmin for a uniform
  speed), each by the margin; with no speed the miss step's edges always
  leave a band.  At a fixed speed the first of them, where both solved
  edges are 0, is checked in scalar: every threshold is then 1/2, heading
  0, whose time _fastest_time gives bit for bit, so the check is the one
  the array step would make.  At a uniform speed both are checked in
  scalar, before any table: the fastest pair's time (_fastest_time at
  vmax) and the slowest's (heading -H at vmin, libm's cos in place of
  numpy's, a few ulps apart) each against tau with the margin, which the
  ulps cannot cross.

So counts and output bytes are the exact step's, and no closed form is
read.  crossing_time_ecdf needs a time per sample; like the failure
estimators, it draws only headings that hit the chord.
"""

from __future__ import annotations

import functools
import math
import numbers
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Union

from .analytic import SpeedModel, _cdf, _cdf_fast, _check_tau
from .errors import InvalidParameterError, _coerce, _real_or_nan
from .geometry import _ENDPOINT_SLACK, CellGeometry, DerivedGeometry, derive_geometry
from .geometry import _ray_chord_hits_into, _ray_chord_misses_into

# numpy is imported inside the functions that sample, so a scenario's mc
# block (SimControls) parses without loading it.
if TYPE_CHECKING:
    import numpy as np

_MASK64 = (1 << 64) - 1
_CHUNK = 1 << 16  # samples per kernel chunk, whatever the batch size
_GRID_STEP = 2.0 ** -53  # Generator.random draws grid values k * _GRID_STEP, 0 <= k < 2**53
_BINS = 256  # heading bins of the uniform-speed staircase
_BLOCK = 1 << 13  # grid values per staircase gather
# Candidate margin of the KS screen in crossing_time_ecdf.  It only has to
# exceed twice the ~1e-15 error of the fast CDF; a wider margin admits more
# candidates but never changes the statistic.
_KS_SCREEN = 1e-9
_KS_BLOCK = 32  # sorted samples per block of the KS screen's bounds
_ETA = 1e-9  # the screens' margin in the exact step's output (module docstring)

# One Philox bit generator and its Generator per thread, built on first use:
# constructing a Philox draws OS entropy for a seed sequence the kernel never
# uses, and the kernel sets the whole state before every draw, so reuse
# changes no value.
_generators = threading.local()


@dataclass(frozen=True, init=False)
class SimControls:
    """Sample count, 64-bit seed, and batch split for one estimator run.

    Each field is stored as coerce_numbers(..., integer=True) would store
    it: a plain int as it is, after one type test, and any other value
    through _coerce, which refuses it or converts it under the field's key.
    """

    samples: int
    seed: int
    batches: int = 1

    def __init__(self, samples: int, seed: int, batches: int = 1):
        samples = samples if type(samples) is int else _coerce(samples, "samples", int, False)
        seed = seed if type(seed) is int else _coerce(seed, "seed", int, False)
        batches = batches if type(batches) is int else _coerce(batches, "batches", int, False)
        self.__dict__.update(samples=samples, seed=seed, batches=batches)  # frozen: see analytic._setattr
        if not samples >= 1:
            raise InvalidParameterError(f"must be an integer >= 1, got {samples!r}", "samples")
        if not 0 <= seed <= _MASK64:
            raise InvalidParameterError(f"must be an unsigned 64-bit integer, got {seed!r}", "seed")
        if not 1 <= batches <= samples:
            raise InvalidParameterError(f"must be an integer in [1, samples], got {batches!r}", "batches")


@dataclass(frozen=True, init=False)
class Estimate:
    """Binomial point estimate with its standard error and provenance."""

    p_hat: float
    std_err: float
    n: int
    seed: int

    def __init__(self, p_hat: float, std_err: float, n: int, seed: int):
        self.__dict__.update(p_hat=p_hat, std_err=std_err, n=n, seed=seed)  # frozen: see analytic._setattr


@dataclass(frozen=True, eq=False, init=False)
class EcdfReport:
    """Sorted crossing-time sample plus its KS distance to the model law."""

    times_s: np.ndarray
    ks_stat: float
    n: int

    def __init__(self, times_s: np.ndarray, ks_stat: float, n: int):
        self.__dict__.update(times_s=times_s, ks_stat=ks_stat, n=n)  # frozen: see analytic._setattr


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


def _scale(x, lo, hi):
    """Values x in [0, 1] mapped onto [lo, hi] in place, with
    Generator.uniform's own two operations, so each grid value is the draw
    that uniform(lo, hi) makes from the same word.  Both operations round
    monotonically, so the map never reverses an order, for any double in
    [0, 1]."""
    x *= hi - lo
    x += lo
    return x


def _sample(ctl: SimControls, workers: int, step, drawn: bool = False) -> int:
    """The one Monte Carlo kernel: every sample of ctl, drawn in chunks of
    _CHUNK samples, and the sum of step(u_h, u_v, mask, at) over the chunks,
    one call per chunk.  u_h holds the chunk's heading grid values, u_v its
    speed grid values when drawn (else None), mask 2*len(u_h) or more spare
    bools, and at the index of the chunk's first sample among all of ctl's;
    the three arrays are buffers allocated once per worker, which step may
    overwrite.  A step that is an int, the share 0 or 1 of a screen that
    decides every grid value alike, gives share * samples without a draw, a
    buffer or a thread.
    """
    # a plain int skips the ABC check, which costs as much as a decided screen's arithmetic
    if not (type(workers) is int or not isinstance(workers, bool) and isinstance(workers, numbers.Integral)) or workers < 1:
        raise InvalidParameterError(f"must be an integer >= 1, got {workers!r}", "workers")
    if isinstance(step, int):
        return step * ctl.samples
    import numpy as np

    base, rem = divmod(ctl.samples, ctl.batches)  # the first rem batches hold one more sample
    per_big, per = -(-(base + 1) // _CHUNK), -(-base // _CHUNK)  # chunks per batch of base + 1, of base
    n_big = rem * per_big
    n_chunks = n_big + (ctl.batches - rem) * per

    def chunk(j: int):
        """Chunk j in batch order: (batch, its size, start in it, size, first sample)."""
        batch, k = divmod(j, per_big) if j < n_big else divmod(j - n_big + rem * per, per)
        nb, start = base + (batch < rem), k * _CHUNK
        return batch, nb, start, min(_CHUNK, nb - start), batch * base + min(batch, rem) + start

    width = min(_CHUNK, -(-ctl.samples // ctl.batches))  # the largest batch, at most a chunk

    def run(jobs) -> int:
        key, counter = [ctl.seed, 0], [0, 0, 0, 0]
        state = {"bit_generator": "Philox", "state": {"key": key, "counter": counter},
                 "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        bitgen, gen = _thread_generator()

        def draw(buf, batch, position, m):
            # Generator.random values position..position+m-1 of substream
            # (seed, batch), bit for bit, each a grid value k*2**-53.
            # Philox makes four words per counter value, so the draw starts
            # at the block holding `position` and skips up to 3 words: buf
            # has 3 spare slots.
            key[1] = batch
            counter[0], skip = divmod(position, 4)
            bitgen.state = state
            gen.random(out=buf[:skip + m])
            return buf[skip:skip + m]

        h, v = np.empty((2, width + 3)) if drawn else (np.empty(width + 3), None)
        mask = np.empty(2 * width, dtype=bool)
        total = 0
        for batch, nb, start, m, at in jobs:
            u_h = draw(h, batch, start, m)
            # a batch's speeds follow its nb headings in its substream
            u_v = draw(v, batch, nb + start, m) if drawn else None
            total += step(u_h, u_v, mask, at)
        return total

    # chunks are dealt to workers in a fixed way, worker w taking chunks w,
    # w + workers, ... lazily, so no schedule is held; steps return integers
    # and write only a chunk's own slots, so no result depends on the worker
    # count
    workers = min(int(workers), n_chunks)
    jobs = [map(chunk, range(w, n_chunks, workers)) for w in range(workers)]
    if workers == 1:
        return run(jobs[0])
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return sum(pool.map(run, jobs))


def _times(dg: DerivedGeometry, speed: SpeedModel, u_h, u_v=None, out=None):
    """Crossing times of grid pairs, in place in u_h or into out: the hits
    step's distance at each heading u_h mapped onto [-H, H), H dg's chord
    half-angle, where every ray hits (the miss step accepts a chord end
    within _ENDPOINT_SLACK), over speed.v_mps or u_v mapped onto [vmin, vmax]."""
    import numpy as np

    half = dg.chord_half_angle_rad
    dist = _ray_chord_hits_into(dg.trigger_to_chord_m, dg.half_chord_m, _scale(u_h, -half, half))
    v = speed.v_mps if u_v is None else _scale(u_v, speed.vmin_mps, speed.vmax_mps)
    return np.divide(dist, v, out=dist if out is None else out)


def _hits(dg: DerivedGeometry, speed: Optional[SpeedModel], tau: Optional[float], u_h, u_v=None) -> int:
    """How many grid pairs the exact step counts, overwriting u_h (and u_v):
    with no speed, the headings mapped onto [-pi, pi) whose ray hits the
    chord by the miss step; otherwise the pairs whose _times is below tau."""
    import numpy as np

    if speed is None:
        miss = _ray_chord_misses_into(dg.trigger_to_chord_m, dg.half_chord_m, _scale(u_h, -math.pi, math.pi))
        return u_h.size - int(np.count_nonzero(miss))
    return int(np.count_nonzero(_times(dg, speed, u_h, u_v) < tau))


def _screen(dg: DerivedGeometry, speed: Optional[SpeedModel], tau: Optional[float]):
    """Grid thresholds [x0, x1, x2, x3] for no speed or a fixed one, x = 1/2
    -+ outer and 1/2 -+ inner from _solve_edges' headings over 2*H (H = pi
    with no speed), and _sample's step count(u_h, u_v, mask, at), how many
    heading grid values _hits counts: those in [x1, x2), and by _hits those
    in [x0, x1) or [x2, x3).  Where the kept thresholds leave no band and
    [x1, x2) is empty or all of [0, 1), count would give 0 or len(u_h) for
    any values, so the share, the int 0 or 1, stands in its place.

    The edges are scaled and held in [0, 1/2] in scalar, as np.clip would
    hold them (NaN stays NaN).  At a fixed speed with both edges 0, every x
    is 1/2 and every check reads the one time _fastest_time gives in
    scalar; when it exceeds tau*(1 + eta), the checks keep x0 = x3 = 1/2
    and drop x1 = x2 to their fallback 1/2, so the share 0 is returned
    there, the decision the array checks make, with no numpy call.  Every
    other case goes on to those checks."""
    half = math.pi if speed is None else dg.chord_half_angle_rad
    inner, outer = _solve_edges(dg, speed, tau)
    inner, outer = [0.0 if q < 0.0 else 0.5 if q > 0.5 else q for q in (inner / (2.0 * half), outer / (2.0 * half))]
    if speed is not None and inner == outer == 0.0 and _fastest_time(dg, speed.v_mps) > tau * (1.0 + _ETA):
        return [0.5] * 4, 0
    import numpy as np

    x = [0.5 - outer, 0.5 - inner, 0.5 + inner, 0.5 + outer]
    if speed is None:
        s = _scale(np.array(x), -half, half)
        # the inner checks need a hit too: at +-pi s is near 1/2, but every ray misses
        miss = _ray_chord_misses_into(dg.trigger_to_chord_m, dg.half_chord_m, s).tolist()  # and s of each x, in s
        (s0, s1, s2, s3), slack = s.tolist(), _ENDPOINT_SLACK + _ETA
        holds = [s0 > 1.0 + slack, not miss[1] and s1 <= 1.0 - _ETA, not miss[2] and s2 >= _ETA, s3 < -slack]
    else:
        t0, t1, t2, t3 = _times(dg, speed, np.array(x)).tolist()
        lo, hi = tau * (1.0 - _ETA), tau * (1.0 + _ETA)
        holds = [t0 > hi, t1 <= lo, t2 <= lo, t3 > hi]
    # a value u < x[k] maps at or below _scale(x[k]): [x1, x2) is counted, [x0, x1) and [x2, x3) the band
    x = [xk if ok else fall for xk, ok, fall in zip(x, holds, [0.0, 0.5, 0.5, 1.0])]
    if x[0] == x[1] and x[2] == x[3] and (x[1] >= x[2] or x[1] <= 0.0 and x[2] >= 1.0):
        return x, int(x[1] < x[2])  # no band, and [x1, x2) holds no grid value or all of them

    def count(values, u_v, mask, at) -> int:
        mask = mask[:len(values)]
        below = [int(np.count_nonzero(np.less(values, xk, out=mask))) for xk in x]
        hits = below[2] - below[1]
        if band := below[3] - below[0] - hits:
            if band < len(values):
                pick = np.less(values, x[0])  # in the band, an odd number of x exceed u
                for xk in x[1:]:
                    pick ^= np.less(values, xk, out=mask)
                values = values[pick]
            hits += _hits(dg, speed, tau, values)
        return hits

    return x, count


def _fastest_time(dg: DerivedGeometry, v: float) -> float:
    """_times at the grid value 1/2, the fastest crossing, in scalar and bit
    for bit: _scale maps 1/2 onto [-H, H) as H + -H = 0 exactly, and cos 0 =
    1, so the hits step's distance is reach*ey/ey with ey = -2w."""
    return dg.trigger_to_chord_m * (-2.0 * dg.half_chord_m) / (-2.0 * dg.half_chord_m) / v


def _staircase(dg: DerivedGeometry, speed: SpeedModel, tau: float):
    """Speed thresholds [VH, VM] for a uniform speed, one pair per heading
    bin i = floor(_BINS*u_h), and _sample's step count(u_h, u_v, mask, at),
    how many grid pairs _hits counts (mask holds 2*len(u_h) bools): those
    with u_v >= VH[i], and by _hits those with VM[i] < u_v < VH[i].  The hits
    step runs once on each bin's ends of largest and smallest |h|
    (_bin_ends), for _solve_speeds and for the checks: VH needs t <=
    tau*(1 - eta) at the largest, VM t > tau*(1 + eta) at the smallest,
    which also makes VH > VM.  A scalar check decides every pair first,
    and then no table is built and the share 1 or 0 stands in place of
    count, as in _screen: every pair is sure where the slowest crossing
    (heading -+H at vmin) is at most tau*(1 - eta), and none counts where
    the fastest (heading 0 at vmax) lies beyond tau*(1 + eta)."""
    reach, w, half = dg.trigger_to_chord_m, dg.half_chord_m, dg.chord_half_angle_rad
    sure = reach / math.cos(half) / speed.vmin_mps <= tau * (1.0 - _ETA)
    if sure or _fastest_time(dg, speed.vmax_mps) > tau * (1.0 + _ETA):
        return None, int(sure)
    import numpy as np

    d = _ray_chord_hits_into(reach, w, _scale(_bin_ends().copy(), -half, half))
    u = np.fmax(_solve_speeds(d, reach, speed, tau), 0.0)  # NaN becomes 0, a speed the check decides on
    np.fmin(u, 1.0, out=u)
    t = np.divide(d, _scale(u.copy(), speed.vmin_mps, speed.vmax_mps), out=d)
    np.putmask(u[:_BINS], t[:_BINS] > tau * (1.0 - _ETA), math.inf)
    np.putmask(u[_BINS:], t[_BINS:] <= tau * (1.0 + _ETA), -math.inf)
    vh, vm = u[:_BINS], u[_BINS:]

    def count(u_h, u_v, mask, at) -> int:
        m = len(u_h)
        sure, band = mask[:m], mask[m:2 * m]
        # gathered in blocks, so the index and threshold buffers stay small
        idx, g = np.empty(min(m, _BLOCK), dtype=np.intp), np.empty(min(m, _BLOCK))
        for s in range(0, m, _BLOCK):
            b, n = slice(s, s + _BLOCK), min(_BLOCK, m - s)
            np.multiply(u_h[b], _BINS, out=idx[:n], casting="unsafe")  # floor: u_h >= 0
            np.greater_equal(u_v[b], vh.take(idx[:n], mode="clip", out=g[:n]), out=sure[b])
            np.greater(u_v[b], vm.take(idx[:n], mode="clip", out=g[:n]), out=band[b])
        hits = int(np.count_nonzero(sure))
        band ^= sure  # VH > VM, so a sure pair also lies above VM
        if band.any():
            hits += _hits(dg, speed, tau, u_h[band], u_v[band])
        return hits

    return [vh, vm], count


def _solve_speeds(d, reach: float, speed: SpeedModel, tau: float):
    """Grid values where the uniform draw's speed puts d/v twice _staircase's
    margin inside tau: u = (d/b - vmin)/span, b = tau*(1 - 2*eta) for the
    largest distances d[:_BINS] and tau*(1 + 2*eta) for the smallest
    d[_BINS:].  The factor 1/(b*span) is held at most cap, at which every u
    exceeds 1 (each d is about reach or more), so no product overflows and
    tau = 0 divides nothing by zero."""
    vmin, span = speed.vmin_mps, speed.vmax_mps - speed.vmin_mps
    cap = 2.0 * (1.0 + vmin / span) / reach
    b = tau * (1.0 - 2.0 * _ETA) * span
    u = d * (min(1.0 / b, cap) if b else cap)
    u[_BINS:] *= (1.0 - 2.0 * _ETA) / (1.0 + 2.0 * _ETA)
    u -= vmin / span
    return u


@functools.lru_cache(maxsize=None)
def _bin_ends():
    """Each staircase bin's grid value of largest |h|, then of smallest |h|.
    _scale maps u = 1/2 onto [-H, H) as H + -H = 0 exactly, and the map is
    monotone, so bins below _BINS/2 hold headings <= 0 and their first value
    i/_BINS has the largest |h|, and bins from _BINS/2 on hold headings >= 0
    and their last value (i + 1)/_BINS - 2**-53 does; both are exact."""
    import numpy as np

    first = np.arange(_BINS) / _BINS
    last = first + (1.0 / _BINS - _GRID_STEP)
    mid = _BINS // 2
    ends = np.concatenate([first[:mid], last[mid:], last[:mid], first[mid:]])
    ends.setflags(write=False)
    return ends


def _solve_edges(dg: DerivedGeometry, speed: Optional[SpeedModel], tau: Optional[float]):
    """Headings [inner, outer] >= 0 where the exact step's output lies twice
    _screen's margin inside and outside its bound: s = 1/2 - reach*tan(h)/(2w)
    at 2*eta and -slack - 2*eta, or t = reach/(v*cos h) at tau*(1 -+ 2*eta)."""
    reach, w = dg.trigger_to_chord_m, dg.half_chord_m
    if speed is None:
        return [math.atan(k * w / reach) for k in (1.0 - 4.0 * _ETA, 1.0 + 2.0 * (_ENDPOINT_SLACK + 2.0 * _ETA))]
    lo, hi = speed.v_mps * tau * (1.0 - 2.0 * _ETA), speed.v_mps * tau * (1.0 + 2.0 * _ETA)
    return [math.acos(reach / lo) if lo > reach else 0.0, math.acos(reach / hi) if hi > reach else 0.0]


def _binomial(hits: int, ctl: SimControls) -> Estimate:
    p = hits / ctl.samples
    return Estimate(p, math.sqrt(p * (1.0 - p) / ctl.samples), ctl.samples, ctl.seed)


def estimate_false_handoff(geom: CellGeometry, ctl: SimControls, *, workers: int = 1) -> Estimate:
    """Fraction of uniform headings whose ray never reaches the chord.

    Headings are drawn uniformly over the full circle; the hit/miss decision
    is pure segment intersection, so this estimate is a genuinely independent
    check of the closed-form false-handoff probability.
    """
    return _binomial(ctl.samples - _sample(ctl, workers, _screen(derive_geometry(geom), None, None)[1]), ctl)


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
    uniform models draw one speed per trajectory.  The count is the one a
    time per trajectory gives, found by a screen (see the module docstring).
    """
    tau = _real_or_nan(tau_s)
    if not (math.isfinite(tau) and tau >= 0):
        raise InvalidParameterError(f"must be finite and nonnegative, got {tau_s!r}", "tau_s")
    model = speed if isinstance(speed, SpeedModel) else SpeedModel.fixed(speed)
    drawn = model.kind == "uniform"
    step = (_staircase if drawn else _screen)(derive_geometry(geom), model, tau)[1]
    return _binomial(_sample(ctl, workers, step, drawn), ctl)


def crossing_time_ecdf(
    geom: CellGeometry, v_mps: float, ctl: SimControls, *, workers: int = 1
) -> EcdfReport:
    """Empirical crossing-time distribution and its KS distance to the model.

    Returns the sorted sample, the Kolmogorov-Smirnov sup statistic against
    the closed-form distribution, and the sample size.  At 95% confidence
    the statistic should stay below 1.36/sqrt(n).  The sample holds one
    float per draw, so its memory grows with ctl.samples, unlike the
    estimators': a 2**20-sample call peaks at 9.0 bytes a sample under
    tracemalloc, the sample's 8 and the chunk buffers and KS blocks.

    The statistic is the one a per-sample loop over the scalar
    crossing_time_cdf gives, bit for bit, found by a screen on the model
    distribution through numpy's arccos (analytic._cdf_fast), which is
    within about 1e-15 of the exact value because the chord half-angle
    exceeds pi/4.  Sample i (from 1) has the KS differences D+ = i/n - F
    and D- = F - (i-1)/n, on the levels i/n and (i-1)/n as the loop rounds
    them, and the approximate D+ of one fast pass over the sample screens
    both:

    - D+: every sample whose D+ lies within _KS_SCREEN = 1e-9 of the
      largest is a candidate.  At the exact argmax the approximate D+ lies
      within twice the approximation error of the approximate maximum, far
      below 1e-9.
    - D-: D+ + D- is the difference of the two rounded levels, which lies
      within an ulp of 1 (2.3e-16) of 1/n whatever F is, so the exact
      argmax of D- has an exact D+ within a few ulps of the least exact
      D+, and an approximate one within about 3e-15 of the least.  Every
      sample whose D+ lies within 1e-9 of that least D+ is a candidate.

    The pass need not reach every sample.  F never decreases over the
    sorted sample and the levels step by 1/n, so in a block of _KS_BLOCK
    sorted samples no D+ exceeds the block's first D+ by more than
    _KS_BLOCK/n, nor falls below the next block's first D+ (the last
    sample's, for the last block) by more.  The fast CDF runs first at each
    block's first sample and at the last sample, then over the blocks whose
    bounds come within the margin of the largest or least D+ found there,
    each bound widened by the margin once more, so a fast CDF non-monotone
    by its error cannot drop a candidate.  Those blocks hold both extremes
    and every candidate of the whole pass, and no other sample is one.

    So both exact argmaxes are always candidates.  Only the candidates,
    usually one per difference, are then evaluated by the scalar
    analytic._cdf, and the statistic is the largest exact difference among
    them, each level computed as the loop computes it.
    """
    import numpy as np

    speed = SpeedModel.fixed(v_mps)
    dg = derive_geometry(geom)
    times = np.empty(ctl.samples)

    def store(u_h, u_v, mask, at) -> int:
        _times(dg, speed, u_h, out=times[at:at + len(u_h)])
        return 0

    _sample(ctl, workers, store)
    times.sort()
    # every heading in [-h, h] hits the chord, edges included, so no time is
    # NaN; a NaN, were one to appear, would sort last and be refused here as
    # the scalar CDF refuses it
    _check_tau(float(times[-1]))
    n = ctl.samples
    # D+ at each block's first sample and at the last one; a block's D+ lie
    # within _KS_BLOCK/n above its first and below the next block's first
    # (docstring), and it runs where that comes within twice the margin of
    # the largest or least known D+
    first = np.append(np.arange(0, n, _KS_BLOCK), n - 1)
    known = (first + 1) / n - _cdf_fast(dg, speed.v_mps, times[first])
    width = _KS_BLOCK / n + 2.0 * _KS_SCREEN
    run = (known[:-1] >= known.max() - width) | (known[1:] <= known.min() + width)
    near = (first[:-1][run, None] + np.arange(_KS_BLOCK)).ravel()
    near = near[near < n]
    plus = (near + 1) / n - _cdf_fast(dg, speed.v_mps, times[near])
    near = near[(plus >= plus.max() - _KS_SCREEN) | (plus <= plus.min() + _KS_SCREEN)]
    cdf = functools.partial(_cdf, dg.trigger_to_chord_m, dg.half_chord_m, speed.v_mps)
    ks = max(max((i + 1) / n - F, F - i / n) for i, F in zip(near.tolist(), map(cdf, times[near].tolist())))
    times.setflags(write=False)
    return EcdfReport(times_s=times, ks_stat=ks, n=ctl.samples)

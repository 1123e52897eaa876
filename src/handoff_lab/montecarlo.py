"""Monte Carlo cross-checks for the closed-form handoff model.

Trajectory sampling never consults the closed forms it is meant to verify:
whether a sampled heading reaches the new cell is decided by exact
ray/segment intersection against the chord, and crossing times come from
the intersection distance divided by speed.

Reproducibility contract: streams come from numpy's Philox4x64 counter-based
generator keyed by (seed, batch_index), so every batch owns an independent
substream.  Batches are reduced in batch order regardless of how they were
executed, which makes results identical under any worker count.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, List, Union

import numpy as np

from .analytic import SpeedModel, _cdf_many, _check_tau
from .errors import InvalidParameterError, coerce_numbers
from .geometry import CellGeometry, derive_geometry, local_frame, ray_chord_crossing_many

_MASK64 = (1 << 64) - 1


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

    def __post_init__(self):
        if not (0.0 <= self.p_hat <= 1.0):
            raise InvalidParameterError(f"p_hat must lie in [0, 1], got {self.p_hat!r}")
        expected = math.sqrt(self.p_hat * (1.0 - self.p_hat) / self.n)
        if abs(self.std_err - expected) > 1e-12:
            raise InvalidParameterError("std_err is inconsistent with p_hat and n")


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


def _substream(seed: int, batch_index: int) -> np.random.Generator:
    key = np.array([seed, batch_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _batch_sizes(samples: int, batches: int) -> List[int]:
    base, rem = divmod(samples, batches)
    return [base + 1 if i < rem else base for i in range(batches)]


def _map_batches(ctl: SimControls, fn: Callable, workers: int) -> list:
    """Run fn(batch_index, batch_size) per batch; results come back in batch order."""
    sizes = _batch_sizes(ctl.samples, ctl.batches)
    if workers <= 1:
        return [fn(i, nb) for i, nb in enumerate(sizes)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(ctl.batches), sizes))


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
    frame = local_frame(geom)

    def one(i: int, nb: int) -> int:
        rng = _substream(ctl.seed, i)
        theta = rng.uniform(-math.pi, math.pi, nb)
        dist = ray_chord_crossing_many(frame, theta)
        return int(np.count_nonzero(np.isnan(dist)))

    misses = sum(_map_batches(ctl, one, workers))
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
    if not (math.isfinite(tau_s) and tau_s >= 0):
        raise InvalidParameterError(f"tau_s must be finite and nonnegative, got {tau_s!r}")
    if isinstance(speed, SpeedModel):
        model = speed
    else:
        model = SpeedModel.fixed(speed)
    frame = local_frame(geom)
    half_angle = derive_geometry(geom).chord_half_angle_rad

    def one(i: int, nb: int) -> int:
        rng = _substream(ctl.seed, i)
        beta = rng.uniform(-half_angle, half_angle, nb)
        dist = ray_chord_crossing_many(frame, beta)
        if model.kind == "fixed":
            t = dist / model.v_mps
        else:
            t = dist / rng.uniform(model.vmin_mps, model.vmax_mps, nb)
        return int(np.count_nonzero(t < tau_s))  # NaN compares false

    hits = sum(_map_batches(ctl, one, workers))
    return _binomial(hits, ctl)


def crossing_time_ecdf(
    geom: CellGeometry, v_mps: float, ctl: SimControls, *, workers: int = 1
) -> EcdfReport:
    """Empirical crossing-time distribution and its KS distance to the model.

    Returns the sorted sample, the Kolmogorov-Smirnov sup statistic against
    the closed-form distribution, and the sample size.  At 95% confidence
    the statistic should stay below 1.36/sqrt(n).  The model distribution is
    evaluated over the whole sample in one vectorised call whose every value
    equals the scalar crossing_time_cdf bit for bit, so the statistic is the
    one a per-sample loop would give.
    """
    if not (math.isfinite(v_mps) and v_mps > 0):
        raise InvalidParameterError(f"v_mps must be positive, got {v_mps!r}")
    frame = local_frame(geom)
    half_angle = derive_geometry(geom).chord_half_angle_rad

    def one(i: int, nb: int) -> np.ndarray:
        rng = _substream(ctl.seed, i)
        beta = rng.uniform(-half_angle, half_angle, nb)
        dist = ray_chord_crossing_many(frame, beta)
        return dist / v_mps

    parts = _map_batches(ctl, one, workers)
    times = np.sort(np.concatenate(parts))
    n = len(times)
    # every heading in [-h, h] hits the chord, edges included, so no time is
    # NaN; a NaN, were one to appear, would sort last and be refused here as
    # the scalar CDF refuses it
    _check_tau(float(times[-1]))
    model_cdf = _cdf_many(derive_geometry(geom), v_mps, times)
    ranks = np.arange(1, n + 1)
    ks = max(
        float((ranks / n - model_cdf).max()),
        float((model_cdf - (ranks - 1) / n).max()),
    )
    times.setflags(write=False)
    return EcdfReport(times_s=times, ks_stat=ks, n=n)

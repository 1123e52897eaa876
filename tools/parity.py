"""Hash the outputs of many seeded Monte Carlo calls drawn at random.

A change that claims to move no output byte runs this on both trees and
compares the digests.  The calls cover every estimator (false handoff,
fixed- and uniform-speed failure) and crossing_time_ecdf, at drawn
geometries, speeds, sample counts, batches and worker counts, with delays
below, at, inside, at the end of and beyond the crossing-time support; then
sampled sweeps of every kind.  The draws depend only on --seed, so the same
arguments give the same calls on any tree.  digests() returns the two
hashes; tests/test_parity.py pins them at 200 calls and 50 sweeps.

Usage: PYTHONPATH=src python tools/parity.py [--seed N] [--calls N] [--sweeps N]
"""

import argparse
import hashlib
import math
import random

from handoff_lab.analytic import SpeedModel, crossing_time_support
from handoff_lab.experiments import Axis, SweepSpec, run_sweep
from handoff_lab.geometry import CellGeometry
from handoff_lab.montecarlo import SimControls, crossing_time_ecdf, estimate_failure, estimate_false_handoff


def _geometry(rng):
    radius = 10.0 ** rng.uniform(0.0, 4.0)
    return CellGeometry(radius, rng.uniform(0.0, 0.999) * math.sqrt(3.0) / 2.0 * radius)


def _tau(rng, t_min, t_max):
    """A delay drawn from one of seven places around [t_min, t_max]."""
    return rng.choice([
        lambda: t_min * rng.random(), lambda: t_min, lambda: math.nextafter(t_min, math.inf),
        lambda: rng.uniform(t_min, t_max), lambda: t_max, lambda: math.nextafter(t_max, math.inf),
        lambda: t_max * rng.uniform(1.0, 3.0),
    ])()


def _call(rng):
    """One estimator or ECDF call, as a tuple of its outputs."""
    geom, v = _geometry(rng), rng.uniform(1.0, 60.0)
    samples = rng.choice([1, 2, 1000, rng.randint(1, 3 * 2**16)])
    ctl = SimControls(samples, rng.getrandbits(64), rng.randint(1, min(samples, 4)))
    workers, kind = rng.randint(1, 3), rng.randrange(4)
    if kind == 0:
        return ("false", estimate_false_handoff(geom, ctl, workers=workers))
    if kind == 1:
        report = crossing_time_ecdf(geom, v, ctl, workers=workers)
        return ("ecdf", hashlib.sha256(report.times_s.tobytes()).hexdigest(), report.ks_stat, report.n)
    vmax = v if kind == 2 else v * rng.uniform(1.01, 4.0)
    speed = SpeedModel.fixed(v) if kind == 2 else SpeedModel.uniform(v, vmax)
    tau = _tau(rng, crossing_time_support(geom, vmax).t_min_s, crossing_time_support(geom, v).t_max_s)
    return ("failure", estimate_failure(geom, speed, tau, ctl, workers=workers))


def _sweep(rng):
    """One sampled sweep of a drawn kind, whose axis may leave the support."""
    geom, v = _geometry(rng), rng.uniform(1.0, 60.0)
    a, ov = geom.cell_radius_m, geom.overlap_m
    support = crossing_time_support(geom, v)
    t_min, t_max = support.t_min_s, support.t_max_s
    samples = rng.choice([1, 500, 2000])
    mc = SimControls(samples, rng.getrandbits(64), rng.randint(1, min(samples, 2)))
    kind = rng.choice(["false_vs_overlap", "failure_vs_speed", "failure_vs_delay"])
    if kind == "false_vs_overlap":
        spec = SweepSpec(kind, Axis(0.0, ov or a / 2.0, 6), cell_radius_m=(a,), mc=mc)
    elif kind == "failure_vs_speed":
        spec = SweepSpec(kind, Axis(1.0, 80.0, 8), cell_radius_m=(a,), overlap_m=(0.0, ov),
                         delay_s=_tau(rng, t_min, t_max), mc=mc)
    else:
        spec = SweepSpec(kind, Axis(0.0, 2.0 * t_max, 8), cell_radius_m=(a,), overlap_m=(ov,), speed_mps=v, mc=mc)
    return run_sweep(spec).rows


def digests(seed: int = 0, calls: int = 1500, sweeps: int = 350) -> dict:
    """The sha256 hex digests of `calls` drawn calls, then of `sweeps` drawn
    sweeps, all from one random.Random(seed): {"calls": ..., "sweeps": ...}."""
    rng, out = random.Random(seed), {}
    for what, count, run in (("calls", calls, _call), ("sweeps", sweeps, _sweep)):
        digest = hashlib.sha256()
        for _ in range(count):
            digest.update(repr(run(rng)).encode())
        out[what] = digest.hexdigest()
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--calls", type=int, default=1500)
    parser.add_argument("--sweeps", type=int, default=350)
    args = parser.parse_args()
    found = digests(args.seed, args.calls, args.sweeps)
    for what, count in (("calls", args.calls), ("sweeps", args.sweeps)):
        print(f"{what} {count}: {found[what]}")


if __name__ == "__main__":
    main()

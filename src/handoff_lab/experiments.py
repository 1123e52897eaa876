"""Parameter sweeps over the closed-form model, with optional sampling overlay.

Three sweep kinds cover the quantities worth plotting:

    false_vs_overlap   false-handoff probability vs overlap, one series per
                       cell radius
    failure_vs_speed   failure probability vs speed, one series per overlap
    failure_vs_delay   failure probability vs signaling delay, one series
                       per overlap

Every grid point's analytic value comes from one call of the analytic
module's unchecked scalar cores, since SweepSpec has checked every grid
geometry, so it equals false_handoff_probability or
handoff_failure_probability bit for bit.
When Monte Carlo controls are attached, each point gets an estimate and
standard error from its own derived substream, so the whole table is a pure
function of the sweep spec.

numpy is not imported here: run_sweep takes its axis from Axis.values, in
plain floats, so a sweep loads numpy only when a point draws samples (see
montecarlo), or when Axis.points is asked for an array.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from . import __version__
from .analytic import SpeedModel, _cdf, _false_handoff
from .errors import InvalidParameterError, coerce_numbers
from .geometry import CellGeometry, _chord_half_angle, _lengths
from .montecarlo import SimControls, derive_seed, estimate_failure, estimate_false_handoff

# kind: (series field, swept quantity, fixed value it needs, value column)
_KINDS = {
    "false_vs_overlap": ("cell_radius_m", "overlap_m", None, "false_handoff_probability"),
    "failure_vs_speed": ("overlap_m", "speed_mps", "delay_s", "failure_probability"),
    "failure_vs_delay": ("overlap_m", "delay_s", "speed_mps", "failure_probability"),
}
SWEEP_KINDS = tuple(_KINDS)
# Grid points (series x steps) a sweep may have.  A point's row and its CSV
# text peak at about 250 bytes (500 with mc), so no sweep needs over 0.5 GB.
_MAX_POINTS = 10**6


@dataclass(frozen=True)
class Axis:
    """Linearly spaced sweep axis with at least two points."""

    start: float
    stop: float
    steps: int

    def __post_init__(self):
        coerce_numbers(self, "start", "stop", finite=True)
        coerce_numbers(self, "steps", integer=True)
        if not self.steps >= 2:
            raise InvalidParameterError(f"must be at least 2, got {self.steps!r}", "steps")
        if not self.stop > self.start:
            raise InvalidParameterError(f"must exceed start, got [{self.start!r}, {self.stop!r}]", "stop")

    def values(self) -> List[float]:
        """np.linspace(start, stop, steps).tolist(), bit for bit, in plain
        Python: point i is i*step + start with step = (stop - start)/(steps - 1),
        or (i/(steps - 1))*(stop - start) + start where step rounds to 0
        (numpy's branch for subnormal steps), and the last point is stop."""
        div, delta = self.steps - 1, self.stop - self.start
        step = delta / div
        return [(i * step if step else i / div * delta) + self.start for i in range(div)] + [self.stop]

    def points(self):
        """The axis as an ndarray, built from values()."""
        import numpy as np

        return np.array(self.values())


@dataclass(frozen=True)
class SweepSpec:
    """What to sweep, what to hold fixed, and whether to overlay sampling.

    Per kind:
      false_vs_overlap   series = cell_radius_m values, axis sweeps overlap_m
      failure_vs_speed   series = overlap_m values, axis sweeps speed;
                         cell_radius_m and delay_s fixed
      failure_vs_delay   series = overlap_m values, axis sweeps delay;
                         cell_radius_m and speed_mps fixed
    """

    kind: str
    axis: Axis
    cell_radius_m: Tuple[float, ...] = ()
    overlap_m: Tuple[float, ...] = (0.0,)
    speed_mps: Optional[float] = None
    delay_s: Optional[float] = None
    mc: Optional[SimControls] = None

    def __post_init__(self):
        coerce_numbers(self, "cell_radius_m", "overlap_m", each=True, finite=True)
        fixed = [name for name in ("speed_mps", "delay_s") if getattr(self, name) is not None]
        coerce_numbers(self, *fixed, finite=True)
        if self.kind not in SWEEP_KINDS:  # a tuple, so an unhashable kind is refused here too
            raise InvalidParameterError(f"must be one of {', '.join(SWEEP_KINDS)}, got {self.kind!r}", "kind")
        series, swept, needs, _ = _KINDS[self.kind]
        values = getattr(self, series)
        if series == "overlap_m" and len(self.cell_radius_m) != 1:
            raise InvalidParameterError(f"needs exactly one value for {self.kind}", "cell_radius_m")
        if not values:
            raise InvalidParameterError(f"needs at least one value for {self.kind}", series)
        if len(values) * self.axis.steps > _MAX_POINTS:
            raise InvalidParameterError(
                f"gives {len(values)} x {self.axis.steps} grid points, more than {_MAX_POINTS}", "axis.steps")
        if needs == "delay_s" and (self.delay_s is None or not self.delay_s >= 0):
            raise InvalidParameterError(f"must be given and nonnegative for {self.kind}", "delay_s")
        if needs == "speed_mps" and self.speed_mps is None:
            raise InvalidParameterError(f"must be given for {self.kind}", "speed_mps")
        # a swept overlap or delay starts at 0 or above, a swept speed within the speed range
        if swept != "speed_mps" and self.axis.start < 0:
            raise InvalidParameterError(f"must be 0 or above for {self.kind}", "axis.start")
        speeds = ({"axis.start": self.axis.start, "axis.stop": self.axis.stop} if swept == "speed_mps"
                  else {"speed_mps": self.speed_mps} if needs == "speed_mps" else {})
        for key, v in speeds.items():
            try:
                SpeedModel.fixed(v)
            except InvalidParameterError as exc:
                raise InvalidParameterError(exc.reason, key) from None
        # each radius and each overlap of its series (the axis stop where the overlap is swept) make a CellGeometry
        for i, a in enumerate(self.cell_radius_m):
            for j, ov in enumerate([self.axis.stop] if swept == "overlap_m" else self.overlap_m):
                try:
                    CellGeometry(a, ov)
                except InvalidParameterError as exc:
                    at = (f"cell_radius_m[{i}]" if exc.key == "cell_radius_m" else "axis.stop" if swept == "overlap_m"
                          else f"overlap_m[{j}]")
                    raise InvalidParameterError(exc.reason, at) from None


@dataclass(frozen=True)
class SweepTable:
    """Column-named rows in deterministic grid order, plus provenance."""

    columns: Tuple[str, ...]
    rows: Tuple[Tuple[float, ...], ...]
    provenance: Dict[str, str] = field(compare=False)


def _provenance(spec: SweepSpec) -> Dict[str, str]:
    prov = {
        "kind": spec.kind,
        "axis": f"{spec.axis.start:.9g}:{spec.axis.stop:.9g}:{spec.axis.steps}",
        "cell_radius_m": ",".join(f"{a:.9g}" for a in spec.cell_radius_m),
        "overlap_m": ",".join(f"{o:.9g}" for o in spec.overlap_m),
        "version": __version__,
    }
    if spec.speed_mps is not None:
        prov["speed_mps"] = f"{spec.speed_mps:.9g}"
    if spec.delay_s is not None:
        prov["delay_s"] = f"{spec.delay_s:.9g}"
    if spec.mc is not None:
        prov["mc_samples"] = str(spec.mc.samples)
        prov["mc_seed"] = str(spec.mc.seed)
        prov["mc_batches"] = str(spec.mc.batches)
    return prov


def run_sweep(spec: SweepSpec) -> SweepTable:
    """Evaluate one sweep spec into a table.

    Rows are emitted series-major, then along the axis, and a row's index
    is its point's substream index.  SweepSpec has checked every grid
    geometry, 0 <= axis.start, every speed and every delay, so each value
    comes from an unchecked core, and a CellGeometry is built only per
    failure series and per sampled point.
    """
    series, swept, _, value = _KINDS[spec.kind]
    by_radius, by_speed, mc = series == "cell_radius_m", swept == "speed_mps", spec.mc
    columns = [series, swept, value] + (["estimate", "std_err"] if mc is not None else [])
    a = spec.cell_radius_m[0]
    axis_values = spec.axis.values()
    rows = []
    for s in getattr(spec, series):
        if not by_radius:
            geom, (reach, w) = CellGeometry(a, s), _lengths(a, s)
        for x in axis_values:
            v, tau = (x, spec.delay_s) if by_speed else (spec.speed_mps, x)
            row = (s, x, _false_handoff(_chord_half_angle(*_lengths(s, x))) if by_radius else _cdf(reach, w, v, tau))
            if mc is not None:
                ctl = SimControls(mc.samples, derive_seed(mc.seed, len(rows)), mc.batches)
                est = (estimate_false_handoff(CellGeometry(s, x), ctl) if by_radius
                       else estimate_failure(geom, v, tau, ctl))
                row += (est.p_hat, est.std_err)
            rows.append(row)
    return SweepTable(tuple(columns), tuple(rows), _provenance(spec))

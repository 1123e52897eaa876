"""Command-line front end.

Scenarios live in small YAML documents (flags can override or replace any
key), results leave as CSV with 9 significant digits or, for sweeps, as a
minimal SVG line chart.  Exit status is 0 on success, 2 when the input
failed to parse or validate, 1 when a computation could not finish.
"""

import argparse
import math
import os
import sys
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import yaml

from .analytic import (
    SpeedModel,
    adapt_overlap,
    crossing_time_support,
    expected_failure_over_speed,
    false_handoff_probability,
    handoff_failure_probability,
)
from .errors import (
    HandoffLabError,
    InvalidParameterError,
    NotBracketedError,
    ScenarioParseError,
    ScenarioValidationError,
)
from .experiments import Axis, SweepSpec, SweepTable, run_sweep
from .geometry import SQRT3, CellGeometry
from .montecarlo import SimControls, estimate_failure, estimate_false_handoff
from .topology import (
    DelayProfile,
    HandoffType,
    NetworkTopology,
    classify_handoff,
    delay_for,
)

SEED_ENV_VAR = "HANDOFF_LAB_SEED"

COMMANDS = ("analytic", "simulate", "sweep", "adapt", "classify")

_SCENARIO_KEYS = {
    "cell_radius_m",
    "overlap_m",
    "speed",
    "delay_s",
    "handoff_type",
    "delay_profile",
    "topology",
    "mc",
}

_SWEEP_KEYS = {"kind", "axis", "cell_radius_m", "overlap_m", "speed_mps", "delay_s", "mc"}


# ======================================================================
# scenario documents
# ======================================================================


@dataclass(frozen=True)
class Scenario:
    """One fully validated run configuration."""

    geometry: CellGeometry
    speed: SpeedModel
    delay_s: Optional[float]
    handoff_type: Optional[HandoffType]
    delay_profile: DelayProfile
    topology: Optional[NetworkTopology]
    mc: Optional[SimControls]

    def resolved_delay_s(self) -> float:
        """Explicit delay if given, else the profile's delay for the handoff type."""
        if self.delay_s is not None:
            return self.delay_s
        return delay_for(self.delay_profile, self.handoff_type)


@dataclass(frozen=True)
class OutputSink:
    """Where results go: csv or svg, to a path or stdout (path None or "-")."""

    format: str = "csv"
    path: Optional[str] = None

    def __post_init__(self):
        if self.format not in ("csv", "svg"):
            raise InvalidParameterError(f"format must be 'csv' or 'svg', got {self.format!r}")

    def write(self, text: str):
        if self.path is None or self.path == "-":
            sys.stdout.write(text)
        else:
            with open(self.path, "w", newline="") as fh:
                fh.write(text)


def _load_yaml_mapping(text: str, what: str) -> dict:
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ScenarioParseError(f"{what} is not valid YAML: {exc}") from exc
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ScenarioParseError(f"{what} must be a mapping of keys to values")
    return doc


def _number(doc: Mapping, key: str, path: str) -> float:
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioValidationError(path, f"must be a number, got {value!r}")
    if not math.isfinite(float(value)):
        raise ScenarioValidationError(path, f"must be finite, got {value!r}")
    return float(value)


def _integer(doc: Mapping, key: str, path: str) -> int:
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioValidationError(path, f"must be an integer, got {value!r}")
    return value


def _parse_speed(raw, env_path: str = "speed") -> SpeedModel:
    if isinstance(raw, bool):
        raise ScenarioValidationError(env_path, f"must be a number or a vmin/vmax mapping, got {raw!r}")
    if isinstance(raw, (int, float)):
        if not (math.isfinite(float(raw)) and raw > 0):
            raise ScenarioValidationError(env_path, f"must be a positive speed in m/s, got {raw!r}")
        return SpeedModel.fixed(float(raw))
    if isinstance(raw, dict):
        extra = set(raw) - {"vmin", "vmax"}
        if extra:
            raise ScenarioValidationError(env_path, f"unknown speed keys: {sorted(extra)}")
        if "vmin" not in raw or "vmax" not in raw:
            raise ScenarioValidationError(env_path, "a speed range needs both vmin and vmax")
        vmin = _number(raw, "vmin", f"{env_path}.vmin")
        vmax = _number(raw, "vmax", f"{env_path}.vmax")
        if not 0 < vmin:
            raise ScenarioValidationError(f"{env_path}.vmin", f"must be positive, got {vmin!r}")
        if not vmin < vmax:
            raise ScenarioValidationError(
                f"{env_path}.vmax", f"must exceed vmin={vmin:.9g}, got {vmax!r}"
            )
        return SpeedModel.uniform(vmin, vmax)
    raise ScenarioValidationError(env_path, f"must be a number or a vmin/vmax mapping, got {raw!r}")


def _parse_delay_profile(raw, path: str) -> DelayProfile:
    if not isinstance(raw, dict):
        raise ScenarioValidationError(path, f"must be a mapping, got {raw!r}")
    extra = set(raw) - {"intra_s", "inter_s", "link_layer_s"}
    if extra:
        raise ScenarioValidationError(path, f"unknown keys: {sorted(extra)}")
    kwargs = {}
    for key in ("intra_s", "inter_s", "link_layer_s"):
        if key in raw and raw[key] is not None:
            kwargs[key] = _number(raw, key, f"{path}.{key}")
    try:
        return DelayProfile(**kwargs)
    except InvalidParameterError as exc:
        raise ScenarioValidationError(path, str(exc)) from exc


def _resolve_seed(mc_doc: Mapping, env: Mapping[str, str]) -> int:
    if "seed" in mc_doc:
        return _integer(mc_doc, "seed", "mc.seed")
    raw = env.get(SEED_ENV_VAR)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise ScenarioValidationError(
            "mc.seed", f"{SEED_ENV_VAR} must be an integer, got {raw!r}"
        ) from None


def _parse_mc(raw, env: Mapping[str, str]) -> SimControls:
    if not isinstance(raw, dict):
        raise ScenarioValidationError("mc", f"must be a mapping, got {raw!r}")
    extra = set(raw) - {"samples", "seed", "batches"}
    if extra:
        raise ScenarioValidationError("mc", f"unknown keys: {sorted(extra)}")
    if "samples" not in raw:
        raise ScenarioValidationError("mc.samples", "is required when an mc block is present")
    samples = _integer(raw, "samples", "mc.samples")
    seed = _resolve_seed(raw, env)
    batches = _integer(raw, "batches", "mc.batches") if "batches" in raw else 1
    try:
        return SimControls(samples=samples, seed=seed, batches=batches)
    except InvalidParameterError as exc:
        msg = str(exc)
        key = "samples" if "samples" in msg else ("batches" if "batches" in msg else "seed")
        raise ScenarioValidationError(f"mc.{key}", msg) from exc


def scenario_from_dict(doc: dict, env: Optional[Mapping[str, str]] = None) -> Scenario:
    """Validate a plain mapping into a Scenario; paths name offending keys."""
    env = os.environ if env is None else env
    unknown = set(doc) - _SCENARIO_KEYS
    if unknown:
        raise ScenarioValidationError(sorted(unknown)[0], "is not a recognized scenario key")

    if "cell_radius_m" not in doc:
        raise ScenarioValidationError("cell_radius_m", "is required")
    radius = _number(doc, "cell_radius_m", "cell_radius_m")
    if not radius > 0:
        raise ScenarioValidationError("cell_radius_m", f"must be positive, got {radius:.9g}")

    if "overlap_m" not in doc:
        raise ScenarioValidationError("overlap_m", "is required")
    overlap = _number(doc, "overlap_m", "overlap_m")
    bound = SQRT3 / 2.0 * radius
    if not 0.0 <= overlap < bound:
        raise ScenarioValidationError(
            "overlap_m", f"must lie in [0, {bound:.9g}) for this cell radius, got {overlap:.9g}"
        )
    geometry = CellGeometry(cell_radius_m=radius, overlap_m=overlap)

    if "speed" not in doc:
        raise ScenarioValidationError("speed", "is required")
    speed = _parse_speed(doc["speed"])

    has_delay = "delay_s" in doc
    has_type = "handoff_type" in doc
    if has_delay and has_type:
        raise ScenarioValidationError("delay_s", "give either delay_s or handoff_type, not both")
    if not has_delay and not has_type:
        raise ScenarioValidationError("delay_s", "one of delay_s or handoff_type is required")

    delay_s = None
    handoff_type = None
    if has_delay:
        delay_s = _number(doc, "delay_s", "delay_s")
        if not delay_s >= 0:
            raise ScenarioValidationError("delay_s", f"must be nonnegative, got {delay_s:.9g}")
        if "delay_profile" in doc:
            raise ScenarioValidationError(
                "delay_profile", "is only meaningful together with handoff_type"
            )
    else:
        raw_type = doc["handoff_type"]
        try:
            handoff_type = HandoffType(raw_type)
        except ValueError:
            valid = ", ".join(t.value for t in HandoffType)
            raise ScenarioValidationError(
                "handoff_type", f"must be one of {valid}, got {raw_type!r}"
            ) from None

    profile = DelayProfile()
    if "delay_profile" in doc and doc["delay_profile"] is not None:
        profile = _parse_delay_profile(doc["delay_profile"], "delay_profile")

    topology = None
    if "topology" in doc and doc["topology"] is not None:
        try:
            topology = NetworkTopology.from_dict(doc["topology"])
        except InvalidParameterError as exc:
            raise ScenarioValidationError("topology", str(exc)) from exc

    mc = None
    if "mc" in doc and doc["mc"] is not None:
        mc = _parse_mc(doc["mc"], env)

    return Scenario(
        geometry=geometry,
        speed=speed,
        delay_s=delay_s,
        handoff_type=handoff_type,
        delay_profile=profile,
        topology=topology,
        mc=mc,
    )


def parse_scenario(text: str, env: Optional[Mapping[str, str]] = None) -> Scenario:
    """Parse scenario YAML text; parse errors and validation errors stay distinct."""
    return scenario_from_dict(_load_yaml_mapping(text, "scenario"), env=env)


def _values_tuple(raw, path: str) -> Tuple[float, ...]:
    values = raw if isinstance(raw, list) else [raw]
    out = []
    for i, v in enumerate(values):
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(float(v)):
            raise ScenarioValidationError(f"{path}[{i}]", f"must be a finite number, got {v!r}")
        out.append(float(v))
    if not out:
        raise ScenarioValidationError(path, "must not be empty")
    return tuple(out)


def parse_sweep_spec(text: str, env: Optional[Mapping[str, str]] = None) -> SweepSpec:
    """Parse sweep YAML: kind, axis {start, stop, steps}, fixed values, optional mc."""
    return sweep_spec_from_dict(_load_yaml_mapping(text, "sweep spec"), env=env)


def sweep_spec_from_dict(doc: dict, env: Optional[Mapping[str, str]] = None) -> SweepSpec:
    env = os.environ if env is None else env
    unknown = set(doc) - _SWEEP_KEYS
    if unknown:
        raise ScenarioValidationError(sorted(unknown)[0], "is not a recognized sweep key")
    for key in ("kind", "axis", "cell_radius_m"):
        if key not in doc:
            raise ScenarioValidationError(key, "is required")
    kind = doc["kind"]
    raw_axis = doc["axis"]
    if not isinstance(raw_axis, dict):
        raise ScenarioValidationError("axis", "must be a mapping with start, stop, steps")
    extra = set(raw_axis) - {"start", "stop", "steps"}
    if extra:
        raise ScenarioValidationError("axis", f"unknown keys: {sorted(extra)}")
    for key in ("start", "stop", "steps"):
        if key not in raw_axis:
            raise ScenarioValidationError(f"axis.{key}", "is required")
    axis_kwargs = {
        "start": _number(raw_axis, "start", "axis.start"),
        "stop": _number(raw_axis, "stop", "axis.stop"),
        "steps": _integer(raw_axis, "steps", "axis.steps"),
    }
    mc = _parse_mc(doc["mc"], env) if doc.get("mc") is not None else None
    kwargs = dict(
        kind=kind,
        cell_radius_m=_values_tuple(doc["cell_radius_m"], "cell_radius_m"),
        mc=mc,
    )
    if "overlap_m" in doc:
        kwargs["overlap_m"] = _values_tuple(doc["overlap_m"], "overlap_m")
    if "speed_mps" in doc:
        kwargs["speed_mps"] = _number(doc, "speed_mps", "speed_mps")
    if "delay_s" in doc:
        kwargs["delay_s"] = _number(doc, "delay_s", "delay_s")
    try:
        return SweepSpec(axis=Axis(**axis_kwargs), **kwargs)
    except InvalidParameterError as exc:
        raise ScenarioValidationError("sweep", str(exc)) from exc


# ======================================================================
# serialization
# ======================================================================


def _fmt(value: Union[float, int, str]) -> str:
    if isinstance(value, str):
        return value
    return f"{float(value):.9g}"


def render_csv(
    columns: Sequence[str],
    rows: Sequence[Sequence[Union[float, str]]],
    provenance: Optional[Mapping[str, str]] = None,
) -> str:
    lines = []
    if provenance:
        for key, value in provenance.items():
            lines.append(f"# {key}={value}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(cell) for cell in row))
    return "\n".join(lines) + "\n"


def render_sweep_svg(table: SweepTable) -> str:
    """One line chart: swept axis on x, analytic value on y, a polyline per series."""
    width, height = 640.0, 400.0
    ml, mr, mt, mb = 70.0, 160.0, 20.0, 50.0
    plot_w, plot_h = width - ml - mr, height - mt - mb
    palette = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

    series_col, x_col, y_col = table.columns[0], table.columns[1], table.columns[2]
    series: Dict[float, List[Tuple[float, float]]] = {}
    for row in table.rows:
        series.setdefault(row[0], []).append((row[1], row[2]))

    xs = [p[0] for pts in series.values() for p in pts]
    ys = [p[1] for pts in series.values() for p in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    y_pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    def px(x: float) -> float:
        return ml + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return mt + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}" font-family="sans-serif" font-size="11">',
        f'<rect x="0" y="0" width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<rect x="{ml}" y="{mt}" width="{plot_w}" height="{plot_h}" fill="none" stroke="#444"/>',
    ]
    ticks = 5
    for i in range(ticks):
        fx = x_lo + (x_hi - x_lo) * i / (ticks - 1)
        gx = px(fx)
        parts.append(f'<line x1="{gx:.2f}" y1="{mt + plot_h}" x2="{gx:.2f}" y2="{mt + plot_h + 5}" stroke="#444"/>')
        parts.append(f'<text x="{gx:.2f}" y="{mt + plot_h + 18}" text-anchor="middle">{fx:.4g}</text>')
        fy = y_lo + (y_hi - y_lo) * i / (ticks - 1)
        gy = py(fy)
        parts.append(f'<line x1="{ml - 5}" y1="{gy:.2f}" x2="{ml}" y2="{gy:.2f}" stroke="#444"/>')
        parts.append(f'<text x="{ml - 8}" y="{gy + 4:.2f}" text-anchor="end">{fy:.4g}</text>')
    parts.append(
        f'<text x="{ml + plot_w / 2:.2f}" y="{height - 12:.2f}" text-anchor="middle">{x_col}</text>'
    )
    parts.append(
        f'<text x="16" y="{mt + plot_h / 2:.2f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {mt + plot_h / 2:.2f})">{y_col}</text>'
    )
    for idx, (key, pts) in enumerate(series.items()):
        color = palette[idx % len(palette)]
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = mt + 14 + 16 * idx
        lx = ml + plot_w + 10
        parts.append(f'<line x1="{lx}" y1="{ly - 4:.2f}" x2="{lx + 18}" y2="{ly - 4:.2f}" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{lx + 24}" y="{ly:.2f}">{series_col}={_fmt(key)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ======================================================================
# command execution
# ======================================================================


def _analytic_row(scenario: Scenario) -> Tuple[Tuple[str, ...], Tuple[float, ...]]:
    geom = scenario.geometry
    tau = scenario.resolved_delay_s()
    pa = false_handoff_probability(geom)
    if scenario.speed.kind == "fixed":
        support = crossing_time_support(geom, scenario.speed.v_mps)
        t_min, t_max = support.t_min_s, support.t_max_s
        pf = handoff_failure_probability(geom, scenario.speed.v_mps, tau)
    else:
        # support of the crossing time over the whole speed range
        t_min = crossing_time_support(geom, scenario.speed.vmax_mps).t_min_s
        t_max = crossing_time_support(geom, scenario.speed.vmin_mps).t_max_s
        pf = expected_failure_over_speed(geom, scenario.speed, tau)
    columns = ("false_handoff_probability", "t_min_s", "t_max_s", "failure_probability")
    return columns, (pa, t_min, t_max, pf)


def execute(
    command: str,
    *,
    scenario: Optional[Scenario] = None,
    sweep: Optional[SweepSpec] = None,
    sink: Optional[OutputSink] = None,
    from_bs: Optional[str] = None,
    to_bs: Optional[str] = None,
    target_pf: Optional[float] = None,
) -> int:
    """Run one command against a parsed scenario or sweep spec.

    Writes to the sink only; raises package errors for the caller (or main)
    to map onto exit codes.
    """
    sink = sink if sink is not None else OutputSink()
    if command not in COMMANDS:
        raise InvalidParameterError(f"unknown command {command!r}")
    if sink.format == "svg" and command != "sweep":
        raise ScenarioValidationError("format", "svg output is only available for sweep")
    if command == "sweep":
        if sweep is None:
            raise InvalidParameterError("sweep command needs a sweep spec")
    elif scenario is None:
        raise InvalidParameterError(f"{command} command needs a scenario")

    if command == "analytic":
        columns, row = _analytic_row(scenario)
        sink.write(render_csv(columns, [row]))
        return 0

    if command == "simulate":
        if scenario.mc is None:
            raise ScenarioValidationError("mc", "simulate needs an mc block (samples, seed)")
        columns, row = _analytic_row(scenario)
        geom = scenario.geometry
        tau = scenario.resolved_delay_s()
        speed = scenario.speed if scenario.speed.kind == "uniform" else scenario.speed.v_mps
        est_pa = estimate_false_handoff(geom, scenario.mc)
        est_pf = estimate_failure(geom, speed, tau, scenario.mc)
        columns = columns + ("pa_estimate", "pa_std_err", "pf_estimate", "pf_std_err")
        row = row + (est_pa.p_hat, est_pa.std_err, est_pf.p_hat, est_pf.std_err)
        sink.write(render_csv(columns, [row]))
        return 0

    if command == "sweep":
        table = run_sweep(sweep)
        if sink.format == "svg":
            sink.write(render_sweep_svg(table))
        else:
            sink.write(render_csv(table.columns, table.rows, table.provenance))
        return 0

    if command == "adapt":
        if scenario.speed.kind != "fixed":
            raise ScenarioValidationError("speed", "adapt requires a fixed speed")
        if target_pf is None:
            raise ScenarioValidationError("target_pf", "is required for adapt")
        solution = adapt_overlap(
            scenario.geometry.cell_radius_m,
            scenario.speed.v_mps,
            scenario.resolved_delay_s(),
            target_pf,
        )
        sink.write(
            render_csv(
                ("overlap_m", "false_handoff_probability", "failure_probability"),
                [(solution.overlap_m, solution.false_handoff_probability, solution.failure_probability)],
            )
        )
        return 0

    # classify
    if scenario.topology is None:
        raise ScenarioValidationError("topology", "classify needs a topology block")
    if not from_bs or not to_bs:
        raise ScenarioValidationError("from_bs", "classify needs --from-bs and --to-bs")
    kind = classify_handoff(scenario.topology, from_bs, to_bs)
    delay = delay_for(scenario.delay_profile, kind)
    sink.write(render_csv(("handoff_type", "delay_s"), [(kind.value, delay)]))
    return 0


# ======================================================================
# argument parsing
# ======================================================================


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="handoff-lab",
        description="False-handoff and handoff-failure calculator for overlapping cells.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p):
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--format", default="csv", choices=("csv", "svg"),
                       help="output format; svg only applies to sweep")

    def add_scenario(p, with_mc: bool):
        p.add_argument("--scenario", default=None, help="scenario YAML file")
        p.add_argument("--cell-radius-m", type=float, default=None)
        p.add_argument("--overlap-m", type=float, default=None)
        p.add_argument("--speed-mps", type=float, default=None, help="fixed speed in m/s")
        p.add_argument("--speed-kmh", type=float, default=None,
                       help="fixed speed in km/h (converted to m/s)")
        p.add_argument("--vmin-mps", type=float, default=None, help="uniform speed lower bound")
        p.add_argument("--vmax-mps", type=float, default=None, help="uniform speed upper bound")
        p.add_argument("--delay-s", type=float, default=None, help="signaling delay in seconds")
        p.add_argument("--handoff-type", default=None,
                       choices=tuple(t.value for t in HandoffType),
                       help="pick the delay from the profile instead of --delay-s")
        if with_mc:
            p.add_argument("--samples", type=int, default=None)
            p.add_argument("--seed", type=int, default=None)
            p.add_argument("--batches", type=int, default=None)

    p = sub.add_parser("analytic", help="closed-form results for one scenario")
    add_scenario(p, with_mc=False)
    add_output(p)

    p = sub.add_parser("simulate", help="analytic row plus Monte Carlo estimates")
    add_scenario(p, with_mc=True)
    add_output(p)

    p = sub.add_parser("sweep", help="evaluate a sweep spec into a table or chart")
    p.add_argument("--spec", required=True, help="sweep spec YAML file")
    p.add_argument("--samples", type=int, default=None, help="override mc samples")
    p.add_argument("--seed", type=int, default=None, help="override mc seed")
    p.add_argument("--batches", type=int, default=None, help="override mc batches")
    add_output(p)

    p = sub.add_parser("adapt", help="solve for the overlap matching a target failure probability")
    add_scenario(p, with_mc=False)
    p.add_argument("--target-pf", type=float, required=True)
    add_output(p)

    p = sub.add_parser("classify", help="classify a handoff between two base stations")
    add_scenario(p, with_mc=False)
    p.add_argument("--from-bs", required=True)
    p.add_argument("--to-bs", required=True)
    add_output(p)

    return parser


def _merge_flags(doc: dict, args: argparse.Namespace) -> dict:
    """Overlay command-line flags onto a scenario document."""
    doc = dict(doc)
    if args.cell_radius_m is not None:
        doc["cell_radius_m"] = args.cell_radius_m
    if args.overlap_m is not None:
        doc["overlap_m"] = args.overlap_m

    speed_flags = [
        args.speed_mps is not None,
        args.speed_kmh is not None,
        args.vmin_mps is not None or args.vmax_mps is not None,
    ]
    if sum(speed_flags) > 1:
        raise ScenarioValidationError(
            "speed", "give one of --speed-mps, --speed-kmh, or --vmin-mps/--vmax-mps"
        )
    if args.speed_mps is not None:
        doc["speed"] = args.speed_mps
    elif args.speed_kmh is not None:
        doc["speed"] = args.speed_kmh / 3.6
    elif args.vmin_mps is not None or args.vmax_mps is not None:
        if args.vmin_mps is None or args.vmax_mps is None:
            raise ScenarioValidationError("speed", "--vmin-mps and --vmax-mps go together")
        doc["speed"] = {"vmin": args.vmin_mps, "vmax": args.vmax_mps}

    if args.delay_s is not None and args.handoff_type is not None:
        raise ScenarioValidationError("delay_s", "give either --delay-s or --handoff-type")
    if args.delay_s is not None:
        doc["delay_s"] = args.delay_s
        doc.pop("handoff_type", None)
    if args.handoff_type is not None:
        doc["handoff_type"] = args.handoff_type
        doc.pop("delay_s", None)

    return _merge_mc_flags(doc, args)


def _merge_mc_flags(doc: dict, args: argparse.Namespace) -> dict:
    """Overlay --samples/--seed/--batches onto the document's mc block."""
    for flag in ("samples", "seed", "batches"):
        value = getattr(args, flag, None)
        if value is not None:
            mc_doc = {} if doc.get("mc") is None else doc["mc"]
            if not isinstance(mc_doc, dict):
                raise ScenarioValidationError("mc", "must be a mapping")
            doc["mc"] = {**mc_doc, flag: value}
    return doc


def _read_text(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise ScenarioParseError(f"cannot read {path!r}: {exc}") from exc


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        sink = OutputSink(format=args.format, path=args.out)
        if args.command == "sweep":
            doc = _load_yaml_mapping(_read_text(args.spec), "sweep spec")
            spec = sweep_spec_from_dict(_merge_mc_flags(doc, args), env=os.environ)
            return execute("sweep", sweep=spec, sink=sink)

        doc = _load_yaml_mapping(_read_text(args.scenario), "scenario") if args.scenario else {}
        doc = _merge_flags(doc, args)
        scenario = scenario_from_dict(doc, env=os.environ)
        kwargs = {}
        if args.command == "adapt":
            kwargs["target_pf"] = args.target_pf
        if args.command == "classify":
            kwargs["from_bs"] = args.from_bs
            kwargs["to_bs"] = args.to_bs
        return execute(args.command, scenario=scenario, sink=sink, **kwargs)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        # bad input exits 2; a computation that could not finish exits 1
        bad_input = isinstance(exc, HandoffLabError) and not isinstance(exc, NotBracketedError)
        return 2 if bad_input else 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Scenarios live in small YAML documents (flags can override or replace any
key), results leave as CSV with 9 significant digits or, for sweeps, as a
minimal SVG line chart.  Exit status is 0 on success, 2 when the input
failed to parse or validate, 1 when a computation could not finish.

The Monte Carlo and sweep modules, and with them numpy, are imported only
where a command samples or sweeps, so analytic, adapt and classify start
without numpy.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple, Union

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
    coerce_numbers,
)
from .geometry import CellGeometry
from .topology import (
    DelayProfile,
    HandoffType,
    NetworkTopology,
    classify_handoff,
    delay_for,
)

if TYPE_CHECKING:
    from .experiments import SweepSpec, SweepTable
    from .montecarlo import SimControls

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

# libyaml's parser where PyYAML was built with it; both build the same
# documents through SafeLoader's constructor
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


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

    def __post_init__(self):
        if self.delay_s is not None:
            coerce_numbers(self, "delay_s", finite=True)
            if not self.delay_s >= 0:
                raise InvalidParameterError(f"delay_s must be nonnegative, got {self.delay_s!r}")

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
        doc = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ScenarioParseError(f"{what} is not valid YAML: {exc}") from exc
    except ValueError as exc:  # an integer past Python's digit limit; libyaml on a lone surrogate
        raise ScenarioParseError(f"{what} could not be read: {exc}") from exc
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ScenarioParseError(f"{what} must be a mapping of keys to values")
    return doc


def _shape(doc, keys, required=(), path: str = "") -> dict:
    """Check doc's shape, the only check parsing makes: a mapping with only
    the given keys and every required one.  path is doc's own, "" at the top."""
    if not isinstance(doc, dict):
        raise ScenarioValidationError(path or "document", f"must be a mapping, got {doc!r}")
    prefix = f"{path}." if path else ""
    for key in doc:
        if key not in keys:
            raise ScenarioValidationError(f"{prefix}{key}", "is not a recognized key")
    for key in required:
        if key not in doc:
            raise ScenarioValidationError(f"{prefix}{key}", "is required")
    return doc


def _checked(path: str, build, *args, **kwargs):
    """build(*args, **kwargs) with an InvalidParameterError reported at path.
    A dataclass holding several keys is built one key at a time, so that the
    error names its key."""
    try:
        return build(*args, **kwargs)
    except InvalidParameterError as exc:
        raise ScenarioValidationError(path, str(exc)) from exc


def _parse_speed(raw) -> SpeedModel:
    if not isinstance(raw, dict):
        return _checked("speed", SpeedModel.fixed, raw)
    _shape(raw, ("vmin", "vmax"), required=("vmin", "vmax"), path="speed")
    vmin = _checked("speed.vmin", SpeedModel.fixed, raw["vmin"]).v_mps
    return _checked("speed.vmax", SpeedModel.uniform, vmin, raw["vmax"])


def _resolve_seed(mc_doc: Mapping, env: Optional[Mapping[str, str]]):
    """The mc block's seed, else the integer in SEED_ENV_VAR, else 0."""
    env = os.environ if env is None else env
    if "seed" in mc_doc or SEED_ENV_VAR not in env:
        return mc_doc.get("seed", 0)
    try:
        return int(env[SEED_ENV_VAR])
    except ValueError:
        raise ScenarioValidationError(
            "mc.seed", f"{SEED_ENV_VAR} must be an integer, got {env[SEED_ENV_VAR]!r}"
        ) from None


def _parse_mc(raw, env: Optional[Mapping[str, str]]) -> SimControls:
    from .montecarlo import SimControls

    _shape(raw, ("samples", "seed", "batches"), required=("samples",), path="mc")
    samples = _checked("mc.samples", SimControls, raw["samples"], 0).samples
    seed = _checked("mc.seed", SimControls, samples, _resolve_seed(raw, env)).seed
    return _checked("mc.batches", SimControls, samples, seed, raw.get("batches", 1))


def scenario_from_dict(doc: dict, env: Optional[Mapping[str, str]] = None) -> Scenario:
    """Validate a plain mapping into a Scenario; paths name offending keys.

    A key set to null counts as absent wherever the key is optional.
    """
    _shape(doc, _SCENARIO_KEYS, required=("cell_radius_m", "overlap_m", "speed"))
    given = {key for key, value in doc.items() if value is not None}
    if ("delay_s" in given) == ("handoff_type" in given):
        raise ScenarioValidationError("delay_s", "give exactly one of delay_s or handoff_type")
    if "delay_s" in given and "delay_profile" in given:
        raise ScenarioValidationError("delay_profile", "is only meaningful together with handoff_type")

    radius = _checked("cell_radius_m", CellGeometry, doc["cell_radius_m"]).cell_radius_m
    geometry = _checked("overlap_m", CellGeometry, radius, doc["overlap_m"])
    speed = _parse_speed(doc["speed"])

    handoff_type = None
    if "handoff_type" in given:
        try:
            handoff_type = HandoffType(doc["handoff_type"])
        except ValueError:
            valid = ", ".join(t.value for t in HandoffType)
            raise ScenarioValidationError(
                "handoff_type", f"must be one of {valid}, got {doc['handoff_type']!r}"
            ) from None

    profile = DelayProfile()
    if "delay_profile" in given:
        raw = _shape(doc["delay_profile"], ("intra_s", "inter_s", "link_layer_s"), path="delay_profile")
        values = {key: value for key, value in raw.items() if value is not None}
        profile = _checked("delay_profile", DelayProfile, **values)

    topology = None
    if "topology" in given:
        topology = _checked("topology", NetworkTopology.from_dict, doc["topology"])
    mc = _parse_mc(doc["mc"], env) if "mc" in given else None

    return _checked(
        "delay_s",
        Scenario,
        geometry=geometry,
        speed=speed,
        delay_s=doc.get("delay_s"),
        handoff_type=handoff_type,
        delay_profile=profile,
        topology=topology,
        mc=mc,
    )


def parse_scenario(text: str, env: Optional[Mapping[str, str]] = None) -> Scenario:
    """Parse scenario YAML text; parse errors and validation errors stay distinct."""
    return scenario_from_dict(_load_yaml_mapping(text, "scenario"), env=env)


def parse_sweep_spec(text: str, env: Optional[Mapping[str, str]] = None) -> SweepSpec:
    """Parse sweep YAML: kind, axis {start, stop, steps}, fixed values, optional mc."""
    return sweep_spec_from_dict(_load_yaml_mapping(text, "sweep spec"), env=env)


def sweep_spec_from_dict(doc: dict, env: Optional[Mapping[str, str]] = None) -> SweepSpec:
    from .experiments import Axis, SweepSpec

    _shape(doc, _SWEEP_KEYS, required=("kind", "axis", "cell_radius_m"))
    axis_keys = ("start", "stop", "steps")
    axis = _checked("axis", Axis, **_shape(doc["axis"], axis_keys, required=axis_keys, path="axis"))
    # a single series value stands for a list of one
    series = {key: doc[key] if isinstance(doc[key], list) else [doc[key]]
              for key in ("cell_radius_m", "overlap_m") if key in doc}
    fixed = {key: doc[key] for key in ("speed_mps", "delay_s") if key in doc}
    mc = _parse_mc(doc["mc"], env) if doc.get("mc") is not None else None
    return _checked("sweep", SweepSpec, kind=doc["kind"], axis=axis, mc=mc, **series, **fixed)


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

    if command == "analytic":
        columns, row = _analytic_row(scenario)
        sink.write(render_csv(columns, [row]))
        return 0

    if command == "simulate":
        if scenario.mc is None:
            raise ScenarioValidationError("mc", "simulate needs an mc block (samples, seed)")
        from .montecarlo import estimate_failure, estimate_false_handoff

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
        from .experiments import run_sweep

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


def _probability(text: str) -> float:
    """--target-pf's type: a probability in (0, 1]; argparse exits 2 on anything else."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be a probability in (0, 1], got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", default=None, help="output path (default: stdout)")
    output.add_argument("--format", default="csv", choices=("csv", "svg"),
                        help="output format; svg only applies to sweep")

    scenario = argparse.ArgumentParser(add_help=False)
    scenario.add_argument("--scenario", default=None, help="scenario YAML file")
    scenario.add_argument("--cell-radius-m", type=float, default=None)
    scenario.add_argument("--overlap-m", type=float, default=None)
    scenario.add_argument("--speed-mps", type=float, default=None, help="fixed speed in m/s")
    scenario.add_argument("--speed-kmh", type=float, default=None,
                          help="fixed speed in km/h (converted to m/s)")
    scenario.add_argument("--vmin-mps", type=float, default=None, help="uniform speed lower bound")
    scenario.add_argument("--vmax-mps", type=float, default=None, help="uniform speed upper bound")
    delay = scenario.add_mutually_exclusive_group()
    delay.add_argument("--delay-s", type=float, default=None, help="signaling delay in seconds")
    delay.add_argument("--handoff-type", default=None,
                       choices=tuple(t.value for t in HandoffType),
                       help="pick the delay from the profile instead of --delay-s")

    mc = argparse.ArgumentParser(add_help=False)
    mc.add_argument("--samples", type=int, default=None, help="override mc samples")
    mc.add_argument("--seed", type=int, default=None, help="override mc seed")
    mc.add_argument("--batches", type=int, default=None, help="override mc batches")

    parser = argparse.ArgumentParser(
        prog="handoff-lab",
        description="False-handoff and handoff-failure calculator for overlapping cells.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("analytic", parents=[scenario, output],
                   help="closed-form results for one scenario")
    sub.add_parser("simulate", parents=[scenario, mc, output],
                   help="analytic row plus Monte Carlo estimates")
    p = sub.add_parser("sweep", parents=[mc, output],
                       help="evaluate a sweep spec into a table or chart")
    p.add_argument("--spec", required=True, help="sweep spec YAML file")
    p = sub.add_parser("adapt", parents=[scenario, output],
                       help="solve for the overlap matching a target failure probability")
    p.add_argument("--target-pf", type=_probability, required=True)
    p = sub.add_parser("classify", parents=[scenario, output],
                       help="classify a handoff between two base stations")
    p.add_argument("--from-bs", required=True)
    p.add_argument("--to-bs", required=True)
    return parser


def _merge_flags(doc: dict, args: argparse.Namespace) -> dict:
    """Overlay command-line flags onto a scenario document."""
    doc = dict(doc)
    for key in ("cell_radius_m", "overlap_m"):
        if getattr(args, key) is not None:
            doc[key] = getattr(args, key)

    speeds = []
    if args.speed_mps is not None:
        speeds.append(args.speed_mps)
    if args.speed_kmh is not None:
        speeds.append(args.speed_kmh / 3.6)
    if args.vmin_mps is not None or args.vmax_mps is not None:
        # a missing bound is left for the shape check to name
        bounds = {"vmin": args.vmin_mps, "vmax": args.vmax_mps}
        speeds.append({key: value for key, value in bounds.items() if value is not None})
    if len(speeds) > 1:
        raise ScenarioValidationError(
            "speed", "give one of --speed-mps, --speed-kmh, or --vmin-mps/--vmax-mps"
        )
    if speeds:
        doc["speed"] = speeds[0]

    # the flags are mutually exclusive, and the one left None counts as absent
    if args.delay_s is not None or args.handoff_type is not None:
        doc.update(delay_s=args.delay_s, handoff_type=args.handoff_type)

    return _merge_mc_flags(doc, args)


def _merge_mc_flags(doc: dict, args: argparse.Namespace) -> dict:
    """Overlay --samples/--seed/--batches onto the document's mc block."""
    for flag in ("samples", "seed", "batches"):
        value = getattr(args, flag, None)
        mc_doc = {} if doc.get("mc") is None else doc["mc"]
        if value is not None and isinstance(mc_doc, dict):  # any other mc fails the shape check
            doc["mc"] = {**mc_doc, flag: value}
    return doc


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ScenarioParseError(f"cannot read {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ScenarioParseError(f"{path!r} is not UTF-8 text: {exc}") from exc


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
        kwargs = {key: getattr(args, key) for key in ("target_pf", "from_bs", "to_bs") if key in args}
        return execute(args.command, scenario=scenario, sink=sink, **kwargs)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        # bad input exits 2; a computation that could not finish exits 1
        bad_input = isinstance(exc, HandoffLabError) and not isinstance(exc, NotBracketedError)
        return 2 if bad_input else 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Scenarios live in small YAML documents (flags can override or replace any
key), results leave as CSV with 9 significant digits or, for sweeps, as a
minimal SVG line chart.  Exit status is 0 on success, 2 when the input
failed to parse or validate, 1 when a computation could not finish.

numpy is imported only where a command samples, so analytic, adapt and
classify start without it, even for a scenario with an mc block, and so
does a sweep whose sampled points the edge screen all decides.
PyYAML is imported only where a command reads a file.
"""

from __future__ import annotations

import argparse
import errno
import functools
import math
import os
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple, Union

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
    UnknownBaseStationError,
    _shape,
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
_MC_KEYS = ("samples", "seed", "batches")

# the loader by name, since yaml loads only to read a file: libyaml's where
# PyYAML has it, else SafeLoader; both construct documents as SafeLoader does
_YAML_LOADER = "CSafeLoader"
# YAML 1.2's float pattern, which also reads 1e3, 1E3 and -2e-1, where YAML
# 1.1 wants a dot and a signed exponent (1.0e+3)
_YAML12_FLOAT = r"^[-+]?(\.[0-9]+|[0-9]+(\.[0-9]*)?)([eE][-+]?[0-9]+)?$"


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
                raise InvalidParameterError(f"must be nonnegative, got {self.delay_s!r}", "delay_s")

    def resolved_delay_s(self) -> float:
        """Explicit delay if given, else the profile's delay for the handoff type."""
        if self.delay_s is not None:
            return self.delay_s
        return delay_for(self.delay_profile, self.handoff_type)


@functools.lru_cache(maxsize=None)
def _yaml_loader(name: str):
    """yaml's loader `name` (SafeLoader where PyYAML lacks it) with YAML
    1.2's float pattern tried after YAML 1.1's rules: a scalar YAML 1.1
    reads as a number, bool, null or date keeps its type, and one it read
    as a string but YAML 1.2 reads as a float becomes that float."""
    import re

    import yaml

    loader = type("Loader", (getattr(yaml, name, yaml.SafeLoader),), {})
    loader.add_implicit_resolver("tag:yaml.org,2002:float", re.compile(_YAML12_FLOAT), list("-+0123456789."))
    return loader


def _yaml_reason(exc) -> str:
    """PyYAML's error on one line: each part's text with the line and column
    of its mark, or a reader error's position, and not the name PyYAML gives
    the text it parsed, "<unicode string>"."""
    import yaml

    if not isinstance(exc, yaml.MarkedYAMLError):
        return " ".join(str(exc).replace('in "<unicode string>",', "at").split())
    parts = [(exc.context, exc.context_mark), (exc.problem, exc.problem_mark), (exc.note, None)]
    return "; ".join(text + (f" at line {mark.line + 1}, column {mark.column + 1}" if mark else "")
                     for text, mark in parts if text)


def _load_yaml_mapping(text: str, what: str) -> dict:
    import yaml

    try:
        doc = yaml.load(text, Loader=_yaml_loader(_YAML_LOADER))
    except yaml.YAMLError as exc:
        raise ScenarioParseError(f"{what} is not valid YAML: {_yaml_reason(exc)}") from exc
    except ValueError as exc:  # an integer past Python's digit limit; libyaml on a lone surrogate
        raise ScenarioParseError(f"{what} could not be read: {exc}") from exc
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ScenarioParseError(f"{what} must be a mapping of keys to values")
    return doc


def _checked(path: str, build, *args, **keys):
    """build(*args, **keys) with an InvalidParameterError reported by its
    reason alone: at path.key for a build from document keys (keyword
    arguments, one per key), else at path."""
    try:
        return build(*args, **keys)
    except InvalidParameterError as exc:
        if keys and exc.key:
            path = f"{path}.{exc.key}" if path else exc.key
        raise ScenarioValidationError(path, exc.reason) from exc


def _parse_speed(raw) -> SpeedModel:
    if not isinstance(raw, dict):
        return _checked("speed", SpeedModel.fixed, raw)
    raw = _shape(raw, ("vmin", "vmax"), required=("vmin", "vmax"), path="speed")
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

    raw = _shape(raw, _MC_KEYS, required=("samples",), path="mc")
    raw["seed"] = _resolve_seed(raw, env)
    return _checked("mc", SimControls, **raw)


def scenario_from_dict(doc: dict, env: Optional[Mapping[str, str]] = None) -> Scenario:
    """Validate a plain mapping into a Scenario; paths name offending keys.
    A key set to null counts as absent (see _shape)."""
    doc = _shape(doc, _SCENARIO_KEYS, required=("cell_radius_m", "overlap_m", "speed"))
    if ("delay_s" in doc) == ("handoff_type" in doc):
        raise ScenarioValidationError("delay_s", "give exactly one of delay_s or handoff_type")

    geometry = _checked("", CellGeometry, cell_radius_m=doc["cell_radius_m"], overlap_m=doc["overlap_m"])
    speed = _parse_speed(doc["speed"])

    profile = DelayProfile()
    if "delay_profile" in doc:
        raw = _shape(doc["delay_profile"], ("intra_s", "inter_s", "link_layer_s"), path="delay_profile")
        profile = _checked("delay_profile", DelayProfile, **raw)

    handoff_type = None
    if "handoff_type" in doc:
        try:
            handoff_type = HandoffType(doc["handoff_type"])
        except ValueError:
            valid = ", ".join(t.value for t in HandoffType)
            raise ScenarioValidationError(
                "handoff_type", f"must be one of {valid}, got {doc['handoff_type']!r}"
            ) from None
        _checked("handoff_type", delay_for, profile, handoff_type)  # the profile must give it a delay

    topology = None
    if "topology" in doc:
        topology = _checked("topology", NetworkTopology.from_dict, doc["topology"])
    mc = _parse_mc(doc["mc"], env) if "mc" in doc else None

    return _checked(
        "",
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

    doc = _shape(doc, _SWEEP_KEYS, required=("kind", "axis", "cell_radius_m"))
    axis_keys = ("start", "stop", "steps")
    axis = _checked("axis", Axis, **_shape(doc["axis"], axis_keys, required=axis_keys, path="axis"))
    # a single series value stands for a list of one
    series = {key: doc[key] if isinstance(doc[key], list) else [doc[key]]
              for key in ("cell_radius_m", "overlap_m") if key in doc}
    fixed = {key: doc[key] for key in ("speed_mps", "delay_s") if key in doc}
    mc = _parse_mc(doc["mc"], env) if "mc" in doc else None
    return _checked("", SweepSpec, kind=doc["kind"], axis=axis, mc=mc, **series, **fixed)


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
    geom, speed, tau = scenario.geometry, scenario.speed, scenario.resolved_delay_s()
    pa = false_handoff_probability(geom)
    fixed = speed.kind == "fixed"
    # the crossing time's support over the speed range: t_min at the fastest speed, t_max at the slowest
    fastest, slowest = (speed.v_mps, speed.v_mps) if fixed else (speed.vmax_mps, speed.vmin_mps)
    t_min, t_max = crossing_time_support(geom, fastest).t_min_s, crossing_time_support(geom, slowest).t_max_s
    pf = handoff_failure_probability(geom, speed.v_mps, tau) if fixed else expected_failure_over_speed(geom, speed, tau)
    columns = ("false_handoff_probability", "t_min_s", "t_max_s", "failure_probability")
    return columns, (pa, t_min, t_max, pf)


def _scenario(args: argparse.Namespace) -> Scenario:
    """The scenario file, if any, with the flags merged in; only then is svg refused."""
    doc = _load_file(args.scenario, "scenario") if args.scenario else {}
    scenario = scenario_from_dict(_merge_flags(doc, args, _SCENARIO_KEYS), env=os.environ)
    if args.format == "svg":
        raise ScenarioValidationError("format", "svg output is only available for sweep")
    return scenario


def _analytic(args: argparse.Namespace) -> str:
    columns, row = _analytic_row(_scenario(args))
    return render_csv(columns, [row])


def _simulate(args: argparse.Namespace) -> str:
    scenario = _scenario(args)
    if scenario.mc is None:
        raise ScenarioValidationError("mc", "simulate needs an mc block (samples, seed)")
    from .montecarlo import estimate_failure, estimate_false_handoff

    columns, row = _analytic_row(scenario)
    geom = scenario.geometry
    est_pa = estimate_false_handoff(geom, scenario.mc)
    est_pf = estimate_failure(geom, scenario.speed, scenario.resolved_delay_s(), scenario.mc)
    columns = columns + ("pa_estimate", "pa_std_err", "pf_estimate", "pf_std_err")
    row = row + (est_pa.p_hat, est_pa.std_err, est_pf.p_hat, est_pf.std_err)
    return render_csv(columns, [row])


def _sweep(args: argparse.Namespace) -> str:
    from .experiments import run_sweep

    doc = _load_file(args.spec, "sweep spec")
    table = run_sweep(sweep_spec_from_dict(_merge_flags(doc, args, _SWEEP_KEYS), env=os.environ))
    if args.format == "svg":
        return render_sweep_svg(table)
    return render_csv(table.columns, table.rows, table.provenance)


def _adapt(args: argparse.Namespace) -> str:
    scenario = _scenario(args)
    if scenario.speed.kind != "fixed":
        raise ScenarioValidationError("speed", "adapt requires a fixed speed")
    solution = adapt_overlap(
        scenario.geometry.cell_radius_m,
        scenario.speed.v_mps,
        scenario.resolved_delay_s(),
        args.target_pf,
    )
    return render_csv(
        ("overlap_m", "false_handoff_probability", "failure_probability"),
        [(solution.overlap_m, solution.false_handoff_probability, solution.failure_probability)],
    )


def _classify(args: argparse.Namespace) -> str:
    scenario = _scenario(args)
    if scenario.topology is None:
        raise ScenarioValidationError("topology", "classify needs a topology block")
    for key in ("from_bs", "to_bs"):  # classify_handoff's refusals, each at its flag's key
        try:
            scenario.topology.locate(getattr(args, key))
        except UnknownBaseStationError as exc:
            raise ScenarioValidationError(key, str(exc)) from None
    kind = _checked("to_bs", classify_handoff, scenario.topology, args.from_bs, args.to_bs)
    delay = _checked("delay_profile.link_layer_s", delay_for, scenario.delay_profile, kind)
    return render_csv(("handoff_type", "delay_s"), [(kind.value, delay)])


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

    scenario = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    scenario.add_argument("--scenario", default=None, help="scenario YAML file")
    scenario.add_argument("--cell-radius-m", type=float)
    scenario.add_argument("--overlap-m", type=float)
    scenario.add_argument("--speed-mps", type=float, help="fixed speed in m/s")
    scenario.add_argument("--speed-kmh", type=float, help="fixed speed in km/h (converted to m/s)")
    scenario.add_argument("--vmin-mps", type=float, help="uniform speed lower bound")
    scenario.add_argument("--vmax-mps", type=float, help="uniform speed upper bound")
    delay = scenario.add_mutually_exclusive_group()
    delay.add_argument("--delay-s", type=float, help="signaling delay in seconds")
    delay.add_argument("--handoff-type", choices=tuple(t.value for t in HandoffType),
                       help="pick the delay from the profile instead of --delay-s")

    mc = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    mc.add_argument("--samples", type=int, help="override mc samples")
    mc.add_argument("--seed", type=int, help="override mc seed")
    mc.add_argument("--batches", type=int, help="override mc batches")

    parser = argparse.ArgumentParser(
        prog="handoff-lab",
        description="False-handoff and handoff-failure calculator for overlapping cells.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("analytic", parents=[scenario, output],
                   help="closed-form results for one scenario").set_defaults(run=_analytic)
    sub.add_parser("simulate", parents=[scenario, mc, output],
                   help="analytic row plus Monte Carlo estimates").set_defaults(run=_simulate)
    p = sub.add_parser("sweep", parents=[mc, output],
                       help="evaluate a sweep spec into a table or chart")
    p.add_argument("--spec", required=True, help="sweep spec YAML file")
    p.set_defaults(run=_sweep)
    p = sub.add_parser("adapt", parents=[scenario, output],
                       help="solve for the overlap matching a target failure probability")
    p.add_argument("--target-pf", type=_probability, required=True)
    p.set_defaults(run=_adapt)
    p = sub.add_parser("classify", parents=[scenario, output],
                       help="classify a handoff between two base stations")
    p.add_argument("--from-bs", required=True)
    p.add_argument("--to-bs", required=True)
    p.set_defaults(run=_classify)
    return parser


def _merge_flags(doc: dict, args: argparse.Namespace, keys) -> dict:
    """Overlay the flags given (argparse sets no others) onto a document with
    these keys, each by its dest; mc's merge into mc, speed and delay below."""
    flags = vars(args)
    doc = {**doc, **{key: value for key, value in flags.items() if key in keys}}

    speeds = [flags[key] / scale for key, scale in (("speed_mps", 1.0), ("speed_kmh", 3.6)) if key in flags]
    bounds = {key: flags[f"{key}_mps"] for key in ("vmin", "vmax") if f"{key}_mps" in flags}
    if bounds:  # a missing bound is left for the shape check to name
        speeds.append(bounds)
    if len(speeds) > 1:
        raise ScenarioValidationError(
            "speed", "give one of --speed-mps, --speed-kmh, or --vmin-mps/--vmax-mps"
        )
    if speeds:
        doc["speed"] = speeds[0]

    # the flags are mutually exclusive, and the one not given counts as absent
    if "delay_s" in flags or "handoff_type" in flags:
        doc.update(delay_s=flags.get("delay_s"), handoff_type=flags.get("handoff_type"))

    mc_flags = {key: flags[key] for key in _MC_KEYS if key in flags}
    mc_doc = {} if doc.get("mc") is None else doc["mc"]
    if mc_flags and isinstance(mc_doc, dict):  # any other mc fails the shape check
        doc["mc"] = {**mc_doc, **mc_flags}
    return doc


def _load_file(path: str, what: str) -> dict:
    """The YAML mapping in the file at path; every refusal names the file."""
    return _load_yaml_mapping(_read_text(path), f"{what} {path!r}")


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ScenarioParseError(f"cannot read {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ScenarioParseError(f"{path!r} is not UTF-8 text: {exc}") from exc


def _cannot_write(path: str, reason: str) -> ScenarioValidationError:
    return ScenarioValidationError("out", f"cannot write {path!r}: {reason}")


def _check_out(path: str) -> None:
    """Refuse, before any work, an --out that is a directory or whose parent
    directory cannot be reached, with open()'s reason; main opens it only
    after the run, so a run that fails writes no file."""
    if os.path.isdir(path):
        raise _cannot_write(path, os.strerror(errno.EISDIR))
    try:
        os.stat(os.path.join(os.path.dirname(path) or ".", ""))  # the trailing "" needs a directory
    except OSError as exc:
        raise _cannot_write(path, exc.strerror) from exc


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        to_file = args.out is not None and args.out != "-"
        if to_file:
            _check_out(args.out)
        # argparse chose the subcommand's function; a run that fails writes no file
        text = args.run(args)
        if not to_file:
            sys.stdout.write(text)
        else:
            try:
                fh = open(args.out, "w", newline="")
            except OSError as exc:
                raise _cannot_write(args.out, exc.strerror) from exc
            with fh:
                fh.write(text)
        return 0
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        # bad input exits 2; a computation that could not finish exits 1
        bad_input = isinstance(exc, HandoffLabError) and not isinstance(exc, NotBracketedError)
        return 2 if bad_input else 1


if __name__ == "__main__":
    sys.exit(main())

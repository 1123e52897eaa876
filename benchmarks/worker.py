"""One benchmark workload in a fresh interpreter; benchmarks/run.py drives it.

    python benchmarks/worker.py --workload NAME --seed N --seconds S --work DIR
                                [--setup-only] [--trace --spans PATH]

with src on PYTHONPATH.  Set-up is the package import, input generation and
a warm-up call of every operation; it ends with the line READY on stdout,
and run.py times the interval from spawn to that line.  The measured part
repeats one fixed-size round of the workload until S seconds have passed
and ends with one JSON line on stdout.

With --trace the worker instead runs a fixed traced suite three times (one
round of mc_bulk and of sweep_grid, in-process CLI calls, and layer probes), then
alternates untraced and traced rounds of the chosen workload to state the
tracing overhead, and reports per-layer numbers.
"""

import argparse
import dataclasses
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from typing import Callable, Dict, Optional

import numpy as np
import scipy
import yaml

import handoff_lab
from handoff_lab.analytic import (
    SpeedModel,
    adapt_overlap,
    crossing_time_support,
    expected_failure_over_speed,
    false_handoff_probability,
    handoff_failure_probability,
)
from handoff_lab.experiments import Axis, SweepSpec, run_sweep
from handoff_lab.geometry import CellGeometry, local_frame
from handoff_lab.montecarlo import SimControls, derive_seed, estimate_failure, estimate_false_handoff
from handoff_lab.topology import DelayProfile, NetworkTopology, classify_handoff, delay_for

import benchlib
from benchlib import Failure, Tracer

SQRT3_HALF = math.sqrt(3.0) / 2.0

# Input sizes.  A round of mc_bulk or sweep_grid takes about a second on one
# 2-CPU machine, a round of cli_session about six.
MC_SAMPLES = 2_000_000
MC_BATCHES = 8
SWEEP_STEPS = 200
GRID_POINTS = 1500
SPEED_SCENARIOS = 120
ADAPT_TARGETS = 200
ECDF_SAMPLES = 100_000
OVERLAY_STEPS = 40
OVERLAY_SAMPLES = 10_000
TINY_SAMPLES = 1_000
CLI_SIM_SAMPLES = 200_000
CLI_SWEEP_SAMPLES = 2_000
TOPOLOGY_PAIRS = 2000
TOPOLOGY_BUILDS = 200
PARSE_REPEATS = 20
MIN_ROUNDS = 3
PROBE_REPEATS = 3
TRACE_PASSES = 3

LAYERS = ("geometry", "analytic", "montecarlo", "experiments", "topology", "cli")
CLI_SUBCOMMANDS = ("analytic", "simulate", "sweep", "adapt", "classify")
ANALYTIC_COLUMNS = ("false_handoff_probability", "t_min_s", "t_max_s", "failure_probability")
SIMULATE_COLUMNS = ANALYTIC_COLUMNS + ("pa_estimate", "pa_std_err", "pf_estimate", "pf_std_err")

# Span name -> (module, attribute path) of the public function it times.
# Some functions appear under two names because the benchmark calls them in
# two ways whose costs differ (batch split, worker count, sample count).
CALLS = {
    "geometry.derive_geometry": ("geometry", "derive_geometry"),
    "geometry.local_frame": ("geometry", "local_frame"),
    "geometry.ray_chord_crossing_many": ("geometry", "ray_chord_crossing_many"),
    "analytic.crossing_time_cdf": ("analytic", "crossing_time_cdf"),
    "analytic.handoff_failure_probability": ("analytic", "handoff_failure_probability"),
    "analytic.false_handoff_probability": ("analytic", "false_handoff_probability"),
    "analytic.crossing_time_support": ("analytic", "crossing_time_support"),
    "analytic.expected_failure_over_speed": ("analytic", "expected_failure_over_speed"),
    "analytic.adapt_overlap": ("analytic", "adapt_overlap"),
    "montecarlo.estimate_false_handoff": ("montecarlo", "estimate_false_handoff"),
    "montecarlo.estimate_failure_fixed": ("montecarlo", "estimate_failure"),
    "montecarlo.estimate_failure_uniform": ("montecarlo", "estimate_failure"),
    "montecarlo.estimate_false_handoff.parallel": ("montecarlo", "estimate_false_handoff"),
    "montecarlo.estimate_failure_fixed.parallel": ("montecarlo", "estimate_failure"),
    "montecarlo.estimate_failure_uniform.parallel": ("montecarlo", "estimate_failure"),
    "montecarlo.estimate_failure_small": ("montecarlo", "estimate_failure"),
    "montecarlo.estimate_failure_tiny": ("montecarlo", "estimate_failure"),
    "montecarlo.crossing_time_ecdf": ("montecarlo", "crossing_time_ecdf"),
    "experiments.run_sweep": ("experiments", "run_sweep"),
    "experiments.run_sweep_mc": ("experiments", "run_sweep"),
    "topology.NetworkTopology.from_dict": ("topology", "NetworkTopology.from_dict"),
    "topology.classify_handoff": ("topology", "classify_handoff"),
    "cli.parse_scenario": ("cli", "parse_scenario"),
    "cli.render_csv": ("cli", "render_csv"),
    "cli.render_sweep_svg": ("cli", "render_sweep_svg"),
    **{f"cli.main.{sub}": ("cli", "main") for sub in CLI_SUBCOMMANDS},
}


def run_command(argv):
    """One CLI invocation in a fresh interpreter: (seconds from spawn to exit, exit code, stdout)."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "handoff_lab.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=120,
    )
    return time.perf_counter() - start, proc.returncode, proc.stdout


def bind(tracer: Optional[Tracer] = None) -> Dict[str, Callable]:
    """Span name -> callable; each wrapped in a span when a tracer is given."""
    lib = {}
    for name, (module, path) in CALLS.items():
        fn = importlib.import_module(f"handoff_lab.{module}")
        for part in path.split("."):
            fn = getattr(fn, part)
        lib[name] = fn
    lib["cli.command"] = run_command
    if tracer is not None:
        lib = {name: tracer.wrap(name, fn) for name, fn in lib.items()}
    return lib


def guard(fn, *args, **kwargs):
    """fn's result, or a Failure when it raises: a failed operation is counted, not fatal."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - every exception is a counted failure
        return Failure(repr(exc))


def plain(x):
    """Output as plain data for comparison across rounds and for the digest."""
    if isinstance(x, Failure):
        return ["failure", x.error]
    if isinstance(x, np.ndarray):
        return hashlib.sha256(np.ascontiguousarray(x).tobytes()).hexdigest()
    if dataclasses.is_dataclass(x):
        return [plain(getattr(x, f.name)) for f in dataclasses.fields(x)]
    if isinstance(x, dict):
        return {str(k): plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [plain(v) for v in x]
    return x


class Ledger:
    """Operations attempted and failed over the rounds of one workload.

    The first round's outputs pass through the workload's correctness gate.
    Each later round must reproduce them exactly; an operation whose output
    differs, or whose first-round output failed the gate, counts as failed.
    """

    def __init__(self, gate: Callable):
        self.gate = gate
        self.first = None
        self.bad = set()
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def add(self, raw: dict):
        out = {group: [plain(item) for item in items] for group, items in raw.items()}
        if self.first is None:
            self.first = out
            self.bad = {
                (group, i)
                for group, items in raw.items()
                for i, item in enumerate(items)
                if isinstance(item, Failure)
            }
            self.bad |= self.gate(raw)
            self.errors += [f"{group}[{i}]: {plain(raw[group][i])}" for group, i in sorted(self.bad)]
        failed = set(self.bad)
        for group, items in out.items():
            self.attempted += len(items)
            failed |= {(group, i) for i, item in enumerate(items) if item != self.first[group][i]}
        if failed - self.bad:
            self.errors.append(f"outputs differ from the first round at {sorted(failed - self.bad)[:5]}")
        self.failed += len(failed)

    def digest(self) -> str:
        return benchlib.digest(self.first)


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------


def uniform(rng, lo, hi) -> float:
    return float(rng.uniform(lo, hi))


def draw_geometry(rng, lo=0.05, hi=0.7) -> CellGeometry:
    """Radius 500-3000 m; overlap a share lo..hi of its bound."""
    a = uniform(rng, 500.0, 3000.0)
    return CellGeometry(a, uniform(rng, lo, hi) * SQRT3_HALF * a)


def delay_inside(geom, v, rng) -> float:
    """A delay well inside the crossing-time support, so 0 < failure < 1."""
    s = crossing_time_support(geom, v)
    return s.t_min_s + uniform(rng, 0.2, 0.8) * (s.t_max_s - s.t_min_s)


def draw_speed_model(rng) -> SpeedModel:
    vmin = uniform(rng, 5.0, 15.0)
    return SpeedModel.uniform(vmin, vmin + uniform(rng, 10.0, 30.0))


def mid_speed(model: SpeedModel) -> float:
    return 0.5 * (model.vmin_mps + model.vmax_mps)


def draw_seed(rng) -> int:
    return int(rng.integers(0, 2**63))


def mc_bulk_inputs(rng, nproc: int) -> dict:
    """Three multi-million-sample estimator calls with their closed forms.

    The uniform-speed call keeps its whole sample in one batch, so the
    per-batch memory shows in peak RSS.
    """
    g1, g2, g3 = draw_geometry(rng), draw_geometry(rng), draw_geometry(rng)
    v = uniform(rng, 5.0, 40.0)
    tau = delay_inside(g2, v, rng)
    model = draw_speed_model(rng)
    tau_u = delay_inside(g3, mid_speed(model), rng)
    calls = [
        ("estimate_false_handoff", (g1, SimControls(MC_SAMPLES, draw_seed(rng), MC_BATCHES)),
         false_handoff_probability(g1)),
        ("estimate_failure_fixed", (g2, v, tau, SimControls(MC_SAMPLES, draw_seed(rng), MC_BATCHES)),
         handoff_failure_probability(g2, v, tau)),
        ("estimate_failure_uniform", (g3, model, tau_u, SimControls(MC_SAMPLES, draw_seed(rng), 1)),
         expected_failure_over_speed(g3, model, tau_u)),
    ]
    return {"nproc": nproc, "calls": calls}


def mc_bulk_warm(inp: dict):
    for _, args, _ in inp["calls"]:
        small = args[:-1] + (SimControls(1000, 1, 2),)
        fn = estimate_false_handoff if len(args) == 2 else estimate_failure
        fn(*small)
        fn(*small, workers=inp["nproc"])


def sweep_grid_inputs(rng) -> dict:
    """Many small calls: fine analytic sweeps, a seeded closed-form grid,
    speed averages, overlap solves, one ECDF and one sweep with sampling."""
    radii = tuple(sorted(uniform(rng, 500.0, 3000.0) for _ in range(4)))

    def overlaps(a, n):
        return tuple(f * SQRT3_HALF * a for f in sorted(rng.uniform(0.0, 0.8, n)))

    a1, a2, a3 = (uniform(rng, 500.0, 3000.0) for _ in range(3))
    sweeps = [
        SweepSpec("false_vs_overlap", Axis(0.0, 0.8 * SQRT3_HALF * radii[0], SWEEP_STEPS),
                  cell_radius_m=radii),
        SweepSpec("failure_vs_speed", Axis(2.0, 60.0, SWEEP_STEPS), cell_radius_m=(a1,),
                  overlap_m=overlaps(a1, 4), delay_s=uniform(rng, 0.5, 3.0)),
        SweepSpec("failure_vs_delay", Axis(0.0, 8.0, SWEEP_STEPS), cell_radius_m=(a2,),
                  overlap_m=overlaps(a2, 4), speed_mps=uniform(rng, 5.0, 40.0)),
    ]
    grid = []
    for _ in range(GRID_POINTS):
        g = draw_geometry(rng, 0.0, 0.85)
        tau = uniform(rng, 0.0, 6.0)
        grid.append((g, uniform(rng, 2.0, 60.0), tau, 1.5 * tau + 0.1))
    speed_avg = []
    for _ in range(SPEED_SCENARIOS):
        g, model = draw_geometry(rng), draw_speed_model(rng)
        lo = crossing_time_support(g, model.vmax_mps).t_min_s
        hi = crossing_time_support(g, model.vmin_mps).t_max_s
        speed_avg.append((g, model, uniform(rng, 0.5 * lo, 1.2 * hi)))
    adapt = []
    for _ in range(ADAPT_TARGETS):
        g0, v = draw_geometry(rng, 0.05, 0.8), uniform(rng, 5.0, 40.0)
        tau = delay_inside(g0, v, rng)
        adapt.append((g0.cell_radius_m, v, tau, handoff_failure_probability(g0, v, tau)))
    g, v = draw_geometry(rng), uniform(rng, 5.0, 40.0)
    ecdf = (g, v, SimControls(ECDF_SAMPLES, draw_seed(rng), 4))
    overlay = SweepSpec("failure_vs_speed", Axis(2.0, 60.0, OVERLAY_STEPS), cell_radius_m=(a3,),
                        overlap_m=overlaps(a3, 2), delay_s=uniform(rng, 0.5, 3.0),
                        mc=SimControls(OVERLAY_SAMPLES, draw_seed(rng), 1))
    return {"sweeps": sweeps, "grid": grid, "speed_avg": speed_avg, "adapt": adapt,
            "ecdf": ecdf, "overlay": overlay}


def sweep_points(spec: SweepSpec) -> int:
    series = spec.cell_radius_m if spec.kind == "false_vs_overlap" else spec.overlap_m
    return len(series) * spec.axis.steps


def sweep_grid_warm(inp: dict):
    run_sweep(SweepSpec("false_vs_overlap", Axis(0.0, 100.0, 3), cell_radius_m=(1000.0,)))
    g, v, tau, tau2 = inp["grid"][0]
    crossing_time_support(g, v)
    handoff_failure_probability(g, v, tau2)
    expected_failure_over_speed(*inp["speed_avg"][0])
    adapt_overlap(*inp["adapt"][0])
    g, v, _ = inp["ecdf"]
    handoff_lab.crossing_time_ecdf(g, v, SimControls(100, 1, 1))
    o = inp["overlay"]
    run_sweep(dataclasses.replace(o, axis=Axis(2.0, 60.0, 2), mc=SimControls(100, 1, 1)))


def yaml_file(path: Path, doc: dict) -> str:
    path.write_text(yaml.safe_dump(doc, sort_keys=False))
    return str(path)


def analytic_row(g, speed: SpeedModel, tau: float) -> tuple:
    """The analytic command's row, from public library calls."""
    if speed.kind == "fixed":
        s = crossing_time_support(g, speed.v_mps)
        return (false_handoff_probability(g), s.t_min_s, s.t_max_s,
                handoff_failure_probability(g, speed.v_mps, tau))
    return (false_handoff_probability(g),
            crossing_time_support(g, speed.vmax_mps).t_min_s,
            crossing_time_support(g, speed.vmin_mps).t_max_s,
            expected_failure_over_speed(g, speed, tau))


def sweep_doc(spec: SweepSpec) -> dict:
    doc = {"kind": spec.kind,
           "axis": {"start": spec.axis.start, "stop": spec.axis.stop, "steps": spec.axis.steps},
           "cell_radius_m": list(spec.cell_radius_m), "overlap_m": list(spec.overlap_m)}
    if spec.speed_mps is not None:
        doc["speed_mps"] = spec.speed_mps
    if spec.delay_s is not None:
        doc["delay_s"] = spec.delay_s
    doc["mc"] = {"samples": spec.mc.samples, "seed": spec.mc.seed, "batches": spec.mc.batches}
    return doc


def cli_session_inputs(rng, work: Path) -> dict:
    """A fixed script of CLI invocations, each with the output the library predicts.

    Expectations are ("csv", columns, rows) or ("svg",).
    """
    script = []

    g, v = draw_geometry(rng), uniform(rng, 5.0, 40.0)
    tau = delay_inside(g, v, rng)
    script.append((["analytic", "--cell-radius-m", repr(g.cell_radius_m), "--overlap-m", repr(g.overlap_m),
                    "--speed-mps", repr(v), "--delay-s", repr(tau)],
                   ("csv", ANALYTIC_COLUMNS, [analytic_row(g, SpeedModel.fixed(v), tau)])))

    g, model = draw_geometry(rng), draw_speed_model(rng)
    tau = delay_inside(g, mid_speed(model), rng)
    uniform_doc = {"cell_radius_m": g.cell_radius_m, "overlap_m": g.overlap_m,
                   "speed": {"vmin": model.vmin_mps, "vmax": model.vmax_mps}, "delay_s": tau}
    script.append((["analytic", "--scenario", yaml_file(work / "uniform.yaml", uniform_doc)],
                   ("csv", ANALYTIC_COLUMNS, [analytic_row(g, model, tau)])))

    g0, v = draw_geometry(rng, 0.05, 0.8), uniform(rng, 5.0, 40.0)
    tau = delay_inside(g0, v, rng)
    target = handoff_failure_probability(g0, v, tau)
    sol = adapt_overlap(g0.cell_radius_m, v, tau, target)
    script.append((["adapt", "--cell-radius-m", repr(g0.cell_radius_m), "--overlap-m", "0",
                    "--speed-mps", repr(v), "--delay-s", repr(tau), "--target-pf", repr(target)],
                   ("csv", ("overlap_m", "false_handoff_probability", "failure_probability"),
                    [(sol.overlap_m, sol.false_handoff_probability, sol.failure_probability)])))

    topology_doc = {"systems": [
        {"system_id": f"sys{i}", "gfa_id": f"gfa{i}",
         "fas": [{"fa_id": f"fa{i}{j}", "bs_ids": [f"bs{i}{j}{k}" for k in range(4)]} for j in range(3)]}
        for i in range(3)]}
    stations = [bs for s in topology_doc["systems"] for fa in s["fas"] for bs in fa["bs_ids"]]
    pairs = [tuple(stations[i] for i in rng.choice(len(stations), 2, replace=False))
             for _ in range(TOPOLOGY_PAIRS)]
    intra = uniform(rng, 0.5, 2.0)
    profile = {"intra_s": intra, "inter_s": intra + uniform(rng, 0.5, 2.0),
               "link_layer_s": uniform(rng, 0.05, 0.3)}
    g, (from_bs, to_bs) = draw_geometry(rng), pairs[0]
    classify_doc = {"cell_radius_m": g.cell_radius_m, "overlap_m": g.overlap_m,
                    "speed": uniform(rng, 5.0, 40.0), "handoff_type": "inter",
                    "delay_profile": profile, "topology": topology_doc}
    kind = classify_handoff(NetworkTopology.from_dict(topology_doc), from_bs, to_bs)
    script.append((["classify", "--scenario", yaml_file(work / "classify.yaml", classify_doc),
                    "--from-bs", from_bs, "--to-bs", to_bs],
                   ("csv", ("handoff_type", "delay_s"), [(kind.value, delay_for(DelayProfile(**profile), kind))])))

    a = uniform(rng, 500.0, 3000.0)
    mc = SimControls(CLI_SWEEP_SAMPLES, draw_seed(rng), 2)
    spec = SweepSpec("failure_vs_delay", Axis(0.0, 8.0, 25), cell_radius_m=(a,),
                     overlap_m=(0.1 * a, 0.4 * a), speed_mps=uniform(rng, 5.0, 40.0), mc=mc)
    table = run_sweep(spec)
    script.append((["sweep", "--spec", yaml_file(work / "sweep_csv.yaml", sweep_doc(spec))],
                   ("csv", table.columns, table.rows)))
    spec = SweepSpec("false_vs_overlap", Axis(0.0, 0.4 * a, 25), cell_radius_m=(a, 1.5 * a),
                     mc=SimControls(CLI_SWEEP_SAMPLES, draw_seed(rng), 1))
    script.append((["sweep", "--spec", yaml_file(work / "sweep_svg.yaml", sweep_doc(spec)), "--format", "svg"],
                   ("svg",)))

    sims = []
    for speed in (uniform(rng, 5.0, 40.0), draw_speed_model(rng)):
        g = draw_geometry(rng)
        ctl = SimControls(CLI_SIM_SAMPLES, draw_seed(rng), 4)
        model = SpeedModel.fixed(speed) if isinstance(speed, float) else speed
        tau = delay_inside(g, model.v_mps if model.kind == "fixed" else mid_speed(model), rng)
        pa, pf = estimate_false_handoff(g, ctl), estimate_failure(g, speed, tau, ctl)
        row = analytic_row(g, model, tau) + (pa.p_hat, pa.std_err, pf.p_hat, pf.std_err)
        speed_doc = speed if model.kind == "fixed" else {"vmin": model.vmin_mps, "vmax": model.vmax_mps}
        doc = {"cell_radius_m": g.cell_radius_m, "overlap_m": g.overlap_m, "speed": speed_doc, "delay_s": tau}
        sims.append((doc, ctl, row))
    # the first takes its mc block from the file, the second from flags
    doc, ctl, row = sims[0]
    doc = dict(doc, mc={"samples": ctl.samples, "seed": ctl.seed, "batches": ctl.batches})
    script.append((["simulate", "--scenario", yaml_file(work / "simulate_fixed.yaml", doc)],
                   ("csv", SIMULATE_COLUMNS, [row])))
    doc, ctl, row = sims[1]
    script.append((["simulate", "--scenario", yaml_file(work / "simulate_uniform.yaml", doc),
                    "--samples", str(ctl.samples), "--seed", str(ctl.seed), "--batches", str(ctl.batches)],
                   ("csv", SIMULATE_COLUMNS, [row])))

    texts = [Path(argv[argv.index("--scenario") + 1]).read_text()
             for argv, _ in script if "--scenario" in argv]
    return {"script": script, "work": work, "topology_doc": topology_doc, "pairs": pairs,
            "scenario_texts": texts}


# ----------------------------------------------------------------------
# rounds: each returns ({group: [output per operation]}, {phase: seconds})
# ----------------------------------------------------------------------


def mc_bulk_round(lib, inp):
    out, phases = {}, {}
    for group, suffix, workers in (("workers_1", "", 1), ("workers_n", ".parallel", inp["nproc"])):
        out[group], phases[group] = [], []
        for name, args, _ in inp["calls"]:
            start = time.perf_counter()
            out[group].append(guard(lib[f"montecarlo.{name}{suffix}"], *args, workers=workers))
            phases[group].append(time.perf_counter() - start)
    return out, phases


def sweep_grid_round(lib, inp):
    out, phases = {}, {}
    start = time.perf_counter()
    out["sweeps"] = [guard(lib["experiments.run_sweep"], spec) for spec in inp["sweeps"]]
    phases["sweeps"] = time.perf_counter() - start

    support = lib["analytic.crossing_time_support"]
    false_p = lib["analytic.false_handoff_probability"]
    failure_p = lib["analytic.handoff_failure_probability"]
    cdf = lib["analytic.crossing_time_cdf"]
    rows = []
    start = time.perf_counter()
    for g, v, tau, tau2 in inp["grid"]:
        try:
            rows.append((support(g, v), false_p(g), failure_p(g, v, tau), cdf(g, v, tau2)))
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            rows.append(Failure(repr(exc)))
    phases["closed_form"] = time.perf_counter() - start
    out["closed_form"] = rows

    start = time.perf_counter()
    out["speed_avg"] = [guard(lib["analytic.expected_failure_over_speed"], *args) for args in inp["speed_avg"]]
    phases["speed_avg"] = time.perf_counter() - start
    start = time.perf_counter()
    out["adapt"] = [guard(lib["analytic.adapt_overlap"], *args) for args in inp["adapt"]]
    phases["adapt"] = time.perf_counter() - start
    start = time.perf_counter()
    out["ecdf"] = [guard(lib["montecarlo.crossing_time_ecdf"], *inp["ecdf"])]
    phases["ecdf"] = time.perf_counter() - start
    start = time.perf_counter()
    out["overlay"] = [guard(lib["experiments.run_sweep_mc"], inp["overlay"])]
    phases["overlay"] = time.perf_counter() - start
    return out, phases


def cli_session_round(lib, inp):
    times, outputs = [], []
    for argv, _ in inp["script"]:
        seconds, code, stdout = lib["cli.command"](argv)
        times.append(seconds)
        outputs.append((code, stdout))
    return {"commands": outputs}, {"commands": times}


def cli_inprocess_round(lib, inp):
    """The cli_session script through main() in this process, after import."""
    outputs = []
    for k, (argv, _) in enumerate(inp["script"]):
        path = inp["work"] / f"inprocess-{k}.out"
        code = lib[f"cli.main.{argv[0]}"]([*argv, "--out", str(path)])
        outputs.append((code, path.read_text() if path.exists() else ""))
    return {"commands": outputs}, {}


# ----------------------------------------------------------------------
# correctness gates: each returns the (group, index) of operations that fail
# ----------------------------------------------------------------------


def mc_bulk_gate(inp):
    def gate(out):
        bad = set()
        for i, (_, _, p) in enumerate(inp["calls"]):
            one, many = out["workers_1"][i], out["workers_n"][i]
            if isinstance(one, Failure):
                continue
            if not benchlib.estimate_agrees(one.p_hat, p, one.n):
                bad.add(("workers_1", i))
            # criterion 10: the worker count never changes an Estimate
            if not isinstance(many, Failure) and many != one:
                bad.add(("workers_n", i))
        return bad

    return gate


def direct_rows(spec: SweepSpec) -> list:
    """Sweep rows recomputed with one scalar closed-form call per point."""
    xs = [float(x) for x in np.linspace(spec.axis.start, spec.axis.stop, spec.axis.steps)]
    if spec.kind == "false_vs_overlap":
        return [(a, x, false_handoff_probability(CellGeometry(a, x))) for a in spec.cell_radius_m for x in xs]
    a = spec.cell_radius_m[0]
    rows = []
    for ov in spec.overlap_m:
        g = CellGeometry(a, ov)
        for x in xs:
            v, tau = (x, spec.delay_s) if spec.kind == "failure_vs_speed" else (spec.speed_mps, x)
            rows.append((ov, x, handoff_failure_probability(g, v, tau)))
    return rows


def sweep_grid_gate(inp):
    def gate(out):
        bad = set()
        for i, (spec, table) in enumerate(zip(inp["sweeps"], out["sweeps"])):
            if not isinstance(table, Failure) and list(table.rows) != direct_rows(spec):
                bad.add(("sweeps", i))
        for i, row in enumerate(out["closed_form"]):
            if isinstance(row, Failure):
                continue
            support, false_p, failure_p, later_p = row
            ok = (0.0 < support.t_min_s < support.t_max_s
                  and all(0.0 <= p <= 1.0 for p in (false_p, failure_p, later_p))
                  and later_p >= failure_p)  # the CDF is nondecreasing in the delay
            if not ok:
                bad.add(("closed_form", i))
        for i, ((g, model, tau), value) in enumerate(zip(inp["speed_avg"], out["speed_avg"])):
            if isinstance(value, Failure):
                continue
            ref = benchlib.fine_average(lambda v: handoff_failure_probability(g, v, tau),
                                        model.vmin_mps, model.vmax_mps)
            if not benchlib.averages_agree(value, ref):
                bad.add(("speed_avg", i))
        for i, ((a, v, tau, target), sol) in enumerate(zip(inp["adapt"], out["adapt"])):
            if isinstance(sol, Failure):
                continue
            again = handoff_failure_probability(CellGeometry(a, sol.overlap_m), v, tau)
            if not (benchlib.round_trips(sol.failure_probability, target)
                    and benchlib.round_trips(again, target)):
                bad.add(("adapt", i))
        report = out["ecdf"][0]
        if not isinstance(report, Failure):
            ok = (report.n == inp["ecdf"][2].samples and benchlib.ks_ok(report.ks_stat, report.n)
                  and bool(np.all(np.diff(report.times_s) >= 0)))
            if not ok:
                bad.add(("ecdf", 0))
        spec, table = inp["overlay"], out["overlay"][0]
        if not isinstance(table, Failure):
            analytic_ok = [row[:3] for row in table.rows] == direct_rows(spec)
            sampled_ok = all(benchlib.estimate_agrees(row[3], row[2], spec.mc.samples) for row in table.rows)
            if not (analytic_ok and sampled_ok):
                bad.add(("overlay", 0))
        return bad

    return gate


def cli_gate(inp):
    def gate(out):
        bad = set()
        for i, ((code, text), (_, expect)) in enumerate(zip(out["commands"], inp["script"])):
            if expect[0] == "csv":
                ok = benchlib.csv_matches(text, expect[1], expect[2])
            else:
                ok = benchlib.svg_parses(text)
            if code != 0 or not ok:
                bad.add(("commands", i))
        return bad

    return gate


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------


def metric(value, unit, better):
    return {"value": value, "unit": unit, "better": better}


def fastest(rounds, keys) -> float:
    """Each timed part's fastest time over the rounds, summed over the parts.

    A part is one phase, or one call or command where a phase holds a list.
    On a shared machine CPU speed can swing by half and more for seconds at a
    time, and that noise only ever adds time; a part's fastest time is its
    cost, and timing parts separately gives each many chances at a quiet spell.
    """
    total = 0.0
    for key in keys:
        columns = zip(*([r[key]] if isinstance(r[key], float) else r[key] for r in rounds))
        total += sum(min(col) for col in columns)
    return total


def peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def mc_bulk_metrics(inp, rounds):
    samples = sum(args[-1].samples for _, args, _ in inp["calls"])
    return {
        "wall_s": metric(fastest(rounds, MC_PARTS), "s", "lower"),
        "mc_samples_per_s": metric(samples / fastest(rounds, ["workers_1"]), "1/s", "higher"),
        "peak_rss_mb": metric(peak_rss_mb(resource.RUSAGE_SELF), "MB", "lower"),
    }


def sweep_grid_metrics(inp, rounds):
    calls = 4 * len(inp["grid"]) + len(inp["speed_avg"]) + len(inp["adapt"])
    points = sum(sweep_points(s) for s in inp["sweeps"]) + sweep_points(inp["overlay"])
    return {
        "wall_s": metric(fastest(rounds, SWEEP_PARTS), "s", "lower"),
        "closed_form_calls_per_s": metric(
            calls / fastest(rounds, ["closed_form", "speed_avg", "adapt"]), "1/s", "higher"),
        "sweep_points_per_s": metric(points / fastest(rounds, ["sweeps", "overlay"]), "1/s", "higher"),
        "peak_rss_mb": metric(peak_rss_mb(resource.RUSAGE_SELF), "MB", "lower"),
    }


def cli_session_metrics(inp, rounds):
    times = [t for r in rounds for t in r["commands"]]
    out = {
        "wall_s": metric(fastest(rounds, CLI_PARTS), "s", "lower"),
        "cmd_p50_s": metric(statistics.median(times), "s", "lower"),
        # the CLI runs in child processes; the largest of them is the peak
        "peak_rss_mb": metric(peak_rss_mb(resource.RUSAGE_CHILDREN), "MB", "lower"),
    }
    t = benchlib.tail(times)
    if t is not None:
        out["cmd_tail_s"] = dict(metric(t.value, "s", "lower"), percentile=t.percentile,
                                 samples=t.samples, beyond=t.beyond)
    return out


MC_PARTS = ("workers_1", "workers_n")
SWEEP_PARTS = ("sweeps", "closed_form", "speed_avg", "adapt", "ecdf", "overlay")
CLI_PARTS = ("commands",)
WORKLOADS = {
    "mc_bulk": (mc_bulk_round, mc_bulk_gate, mc_bulk_metrics, MC_PARTS),
    "sweep_grid": (sweep_grid_round, sweep_grid_gate, sweep_grid_metrics, SWEEP_PARTS),
    "cli_session": (cli_session_round, cli_gate, cli_session_metrics, CLI_PARTS),
}


def make_inputs(workload: str, seed: int, nproc: int, work: Path) -> dict:
    # each workload draws from its own stream, so one seed names all three input sets
    rng = np.random.default_rng([seed, list(WORKLOADS).index(workload)])
    if workload == "mc_bulk":
        inp = mc_bulk_inputs(rng, nproc)
        mc_bulk_warm(inp)
    elif workload == "sweep_grid":
        inp = sweep_grid_inputs(rng)
        sweep_grid_warm(inp)
    else:
        inp = cli_session_inputs(rng, work)
    return inp


def timed_round(round_fn, lib, inp):
    start = time.perf_counter()
    raw, phases = round_fn(lib, inp)
    phases["round_s"] = time.perf_counter() - start
    return raw, phases


def measure(workload: str, inp: dict, seconds: float) -> dict:
    round_fn, gate, metrics_fn, _ = WORKLOADS[workload]
    lib, ledger, rounds = bind(), Ledger(gate(inp)), []
    deadline = time.perf_counter() + seconds
    while len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
        raw, phases = timed_round(round_fn, lib, inp)
        ledger.add(raw)
        rounds.append(phases)
    return {"rounds": len(rounds), "attempted": ledger.attempted, "failed": ledger.failed,
            "errors": ledger.errors[:10], "digest": ledger.digest(), "metrics": metrics_fn(inp, rounds),
            "round_phases_s": rounds}


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------


def fresh_interpreter_s(code: str) -> float:
    """Median wall time of `python -c code` from spawn to exit."""
    times = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def layer_probes(lib, mc, sg, cli, tables, frame, headings):
    """Calls into each layer that the workloads make only indirectly."""
    for g, *_ in sg["grid"]:
        lib["geometry.derive_geometry"](g)
    for g, *_ in sg["grid"]:
        lib["geometry.local_frame"](g)
    for h in headings:
        lib["geometry.ray_chord_crossing_many"](frame, h)
    for name, samples in (("small", OVERLAY_SAMPLES), ("tiny", TINY_SAMPLES)):
        fn = lib[f"montecarlo.estimate_failure_{name}"]
        for args in overlay_calls(sg["overlay"], samples):
            fn(*args)
    for _ in range(TOPOLOGY_BUILDS):
        topology = lib["topology.NetworkTopology.from_dict"](cli["topology_doc"])
    for from_bs, to_bs in cli["pairs"]:
        lib["topology.classify_handoff"](topology, from_bs, to_bs)
    for _ in range(PARSE_REPEATS):
        for text in cli["scenario_texts"]:
            lib["cli.parse_scenario"](text, env={})
    for table in tables:
        lib["cli.render_csv"](table.columns, table.rows, table.provenance)
        lib["cli.render_sweep_svg"](table)


def overlay_calls(spec: SweepSpec, samples: int) -> list:
    """The estimator calls the overlay sweep makes, made directly at a given sample count."""
    calls, index = [], 0
    for ov in spec.overlap_m:
        g = CellGeometry(spec.cell_radius_m[0], ov)
        for v in spec.axis.points():
            ctl = SimControls(samples, derive_seed(spec.mc.seed, index), spec.mc.batches)
            calls.append((g, float(v), spec.delay_s, ctl))
            index += 1
    return calls


def per_layer(passes, mc, sg, cli, tables, headings, probes) -> dict:
    """Per-layer metrics from the spans of the traced suite's passes.

    Each span name's total comes from its fastest pass, for the reason
    fastest() gives.
    """
    totals = benchlib.fastest_totals(passes)

    def ns(name):
        return totals[name][1]

    def us_per_call(name):
        count, total = totals[name]
        return metric(total / count / 1e3, "us/call", "lower")

    m = {}
    n_headings = sum(len(h) for h in headings)
    ray_ns = ns("geometry.ray_chord_crossing_many") / n_headings
    m["geometry.ray_chord_crossing_many.ns_per_heading"] = metric(ray_ns, "ns/heading", "lower")
    m["geometry.derive_geometry.us_per_call"] = us_per_call("geometry.derive_geometry")
    m["geometry.local_frame.us_per_call"] = us_per_call("geometry.local_frame")

    m["analytic.import_s"] = metric(probes["analytic.import_s"], "s", "lower")
    for fn in ("crossing_time_cdf", "handoff_failure_probability", "false_handoff_probability",
               "crossing_time_support", "expected_failure_over_speed", "adapt_overlap"):
        m[f"analytic.{fn}.us_per_call"] = us_per_call(f"analytic.{fn}")
    m["analytic.calls"] = metric(sum(c for n, (c, _) in totals.items() if n.startswith("analytic.")),
                                 "count", "higher")

    w1_ns = w1_samples = 0
    for name, args, _ in mc["calls"]:
        samples = args[-1].samples
        m[f"montecarlo.{name}.ns_per_sample"] = metric(ns(f"montecarlo.{name}") / samples, "ns/sample", "lower")
        w1_ns += ns(f"montecarlo.{name}")
        w1_samples += samples
    m["montecarlo.self_ns_per_sample"] = metric(w1_ns / w1_samples - ray_ns, "ns/sample", "lower")
    m["montecarlo.peak_bytes_per_sample"] = metric(probes["peak_bytes_per_sample"], "B/sample", "lower")
    batched = [name for name, args, _ in mc["calls"] if args[-1].batches > 1]
    m["montecarlo.parallel_speedup"] = metric(
        sum(ns(f"montecarlo.{n}") for n in batched) / sum(ns(f"montecarlo.{n}.parallel") for n in batched),
        "ratio", "higher")
    # Per-call overhead: the intercept of the line through the per-call times
    # at TINY_SAMPLES and OVERLAY_SAMPLES.  Subtracting the large calls'
    # ns/sample instead gives a negative number, because arrays of 1e4
    # samples stay in cache and cost less per sample than batches of 2.5e5.
    small_count, small_ns = totals["montecarlo.estimate_failure_small"]
    tiny_count, tiny_ns = totals["montecarlo.estimate_failure_tiny"]
    small_ns, tiny_ns = small_ns / small_count, tiny_ns / tiny_count
    per_sample = (small_ns - tiny_ns) / (OVERLAY_SAMPLES - TINY_SAMPLES)
    m["montecarlo.small_call_overhead_us"] = metric((tiny_ns - TINY_SAMPLES * per_sample) / 1e3,
                                                    "us/call", "lower")
    m["montecarlo.crossing_time_ecdf.ms"] = metric(ns("montecarlo.crossing_time_ecdf") / 1e6, "ms", "lower")
    mc_samples = (2 * w1_samples + sg["ecdf"][2].samples
                  + small_count * OVERLAY_SAMPLES + tiny_count * TINY_SAMPLES)
    m["montecarlo.samples"] = metric(mc_samples, "count", "higher")
    m["montecarlo.calls"] = metric(sum(c for n, (c, _) in totals.items() if n.startswith("montecarlo.")),
                                   "count", "higher")

    analytic_points = sum(sweep_points(s) for s in sg["sweeps"])
    overlay_points = sweep_points(sg["overlay"])
    m["experiments.run_sweep.us_per_point"] = metric(
        ns("experiments.run_sweep") / analytic_points / 1e3, "us/point", "lower")
    m["experiments.run_sweep_mc.us_per_point"] = metric(
        ns("experiments.run_sweep_mc") / overlay_points / 1e3, "us/point", "lower")
    m["experiments.points"] = metric(analytic_points + overlay_points, "count", "higher")

    m["topology.NetworkTopology.from_dict.us_per_call"] = us_per_call("topology.NetworkTopology.from_dict")
    m["topology.classify_handoff.us_per_call"] = us_per_call("topology.classify_handoff")

    m["cli.import_s"] = metric(probes["cli.import_s"], "s", "lower")
    m["cli.interpreter_floor_s"] = metric(probes["cli.interpreter_floor_s"], "s", "lower")
    for sub in CLI_SUBCOMMANDS:
        count, total = totals[f"cli.main.{sub}"]
        m[f"cli.main.{sub}.ms"] = metric(total / count / 1e6, "ms", "lower")
    m["cli.parse_scenario.us_per_call"] = us_per_call("cli.parse_scenario")
    rows = sum(len(t.rows) for t in tables)
    m["cli.render_csv.us_per_row"] = metric(ns("cli.render_csv") / rows / 1e3, "us/row", "lower")
    count, total = totals["cli.render_sweep_svg"]
    m["cli.render_sweep_svg.ms"] = metric(total / count / 1e6, "ms", "lower")
    m["cli.commands"] = metric(sum(c for n, (c, _) in totals.items() if n.startswith("cli.main.")),
                               "count", "higher")

    # Library spans are leaves until the program records its own spans, so a
    # layer's self time is the time its public functions were busy.
    for layer in LAYERS:
        busy = []
        for spans in passes:
            self_ns = benchlib.self_times_ns(spans)
            busy.append(sum(self_ns[s.span_id] for s in spans if s.name.startswith(layer + ".")))
        m[f"{layer}.self_ms"] = metric(min(busy) / 1e6, "ms", "lower")
    return m


def trace(workload: str, seed: int, seconds: float, inputs: dict, spans_path: str) -> dict:
    tracer = Tracer(f"{workload}-seed{seed}-pid{os.getpid()}")
    traced, untraced = bind(tracer), bind()
    mc, sg, cli = inputs["mc_bulk"], inputs["sweep_grid"], inputs["cli_session"]
    start = time.perf_counter()

    probes = {
        "cli.interpreter_floor_s": fresh_interpreter_s("pass"),
        "analytic.import_s": fresh_interpreter_s("import handoff_lab.analytic"),
        "cli.import_s": fresh_interpreter_s("import handoff_lab.cli"),
    }
    args = mc["calls"][2][1]  # the single-batch call
    tracemalloc.start()
    estimate_failure(*args)
    probes["peak_bytes_per_sample"] = tracemalloc.get_traced_memory()[1] / args[-1].samples
    tracemalloc.stop()

    tables = [run_sweep(spec) for spec in sg["sweeps"]]
    frame = local_frame(mc["calls"][0][1][0])
    rng = np.random.default_rng([seed, len(WORKLOADS)])
    headings = [rng.uniform(-math.pi, math.pi, MC_SAMPLES // MC_BATCHES) for _ in range(MC_BATCHES)]

    ledgers = {"mc_bulk": Ledger(mc_bulk_gate(mc)), "sweep_grid": Ledger(sweep_grid_gate(sg)),
               "cli_inprocess": Ledger(cli_gate(cli)), "cli_session": Ledger(cli_gate(cli))}
    passes = []
    for _ in range(TRACE_PASSES):
        first = len(tracer.spans)
        with tracer.span("suite"):
            with tracer.span("mc_bulk.round"):
                ledgers["mc_bulk"].add(mc_bulk_round(traced, mc)[0])
            with tracer.span("sweep_grid.round"):
                ledgers["sweep_grid"].add(sweep_grid_round(traced, sg)[0])
            with tracer.span("cli_session.inprocess"):
                ledgers["cli_inprocess"].add(cli_inprocess_round(traced, cli)[0])
            with tracer.span("layer_probes"):
                layer_probes(traced, mc, sg, cli, tables, frame, headings)
        passes.append(tracer.spans[first:])
    metrics = per_layer(passes, mc, sg, cli, tables, headings, probes)

    # Tracing overhead: the same round of the chosen workload with and without
    # spans, alternating which goes first.
    round_fn, parts = WORKLOADS[workload][0], WORKLOADS[workload][3]
    plain_rounds, traced_rounds = [], []
    while not plain_rounds or time.perf_counter() - start < seconds:
        order = ((untraced, plain_rounds), (traced, traced_rounds))
        for lib, rounds in order if len(plain_rounds) % 2 == 0 else reversed(order):
            with tracer.span(f"{workload}.round"):
                raw, phases = timed_round(round_fn, lib, inputs[workload])
            ledgers[workload].add(raw)
            rounds.append(phases)
    wall = fastest(traced_rounds, parts)
    metrics["trace.wall_s"] = metric(wall, "s", "lower")
    metrics["trace.overhead_pct"] = metric(100.0 * (wall / fastest(plain_rounds, parts) - 1.0), "%", "lower")

    tracer.write(spans_path)
    return {"rounds": len(plain_rounds), "spans": len(tracer.spans),
            "attempted": sum(l.attempted for l in ledgers.values()),
            "failed": sum(l.failed for l in ledgers.values()),
            "errors": [e for l in ledgers.values() for e in l.errors][:10],
            "digest": benchlib.digest({k: l.first for k, l in ledgers.items()}),
            "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--work", required=True, help="scratch directory for generated files")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--spans", help="where the traced run writes its spans (JSON lines)")
    args = p.parse_args(argv)

    nproc = len(os.sched_getaffinity(0))
    work = Path(args.work)
    names = tuple(WORKLOADS) if args.trace else (args.workload,)
    inputs = {name: make_inputs(name, args.seed, nproc, work) for name in names}
    print("READY", flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        result = trace(args.workload, args.seed, args.seconds, inputs, args.spans)
    else:
        result = measure(args.workload, inputs[args.workload], args.seconds)
    result["env"] = {"nproc": nproc, "python": platform.python_version(), "numpy": np.__version__,
                     "scipy": scipy.__version__, "handoff_lab": handoff_lab.__version__,
                     "handoff_lab_path": str(Path(handoff_lab.__file__).parent)}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

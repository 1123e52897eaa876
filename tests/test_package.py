"""The package boundary: what importing it loads, and what it exports."""

import dataclasses
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

import handoff_lab
from handoff_lab.analytic import CrossingTimeSupport, OverlapSolution, SpeedModel
from handoff_lab.montecarlo import EcdfReport, Estimate, SimControls


def run_python(*args):
    src = os.path.dirname(os.path.dirname(os.path.abspath(handoff_lab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=60)


SCENARIO = """
cell_radius_m: 1000
overlap_m: 0
speed: {vmin: 40, vmax: 60}
handoff_type: inter
topology:
  systems:
    - {system_id: s1, gfa_id: g1, fas: [{fa_id: f1, bs_ids: [b1]}, {fa_id: f2, bs_ids: [b2]}]}
"""
# a sampling block, which the closed-form commands parse but never run
MC_BLOCK = "mc:\n  samples: 1000\n  seed: 1\n"
FLAGS = ["--cell-radius-m", "1000", "--overlap-m", "0", "--speed-mps", "50", "--delay-s", "3"]


@pytest.mark.parametrize("argv", [
    ["analytic", *FLAGS],
    ["analytic", "--scenario", "{scenario}"],
    ["analytic", "--scenario", "{with_mc}"],
    ["adapt", *FLAGS, "--target-pf", "0.2199"],
    ["classify", "--scenario", "{scenario}", "--from-bs", "b1", "--to-bs", "b2"],
], ids=["analytic-flags", "analytic-scenario", "analytic-scenario-with-mc", "adapt", "classify"])
def test_closed_form_commands_do_not_load_numpy(tmp_path, argv):
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(SCENARIO)
    with_mc = tmp_path / "with-mc.yaml"
    with_mc.write_text(SCENARIO + MC_BLOCK)
    argv = [arg.format(scenario=scenario, with_mc=with_mc) for arg in argv]
    out = run_python("-X", "importtime", "-m", "handoff_lab.cli", *argv)
    assert out.returncode == 0, out.stderr
    # -X importtime writes one "import time: self | cumulative | name" line
    # per module the run imported
    loaded = {line.rsplit("|", 1)[-1].strip()
              for line in out.stderr.splitlines() if line.startswith("import time:")}
    assert "handoff_lab.analytic" in loaded
    assert "numpy" not in loaded
    # PyYAML loads only to read a file
    assert ("yaml" in loaded) == ("--scenario" in argv)


# a sampled sweep whose delay decides every point (at 0.1 s no speed up to
# 80 m/s reaches the chord, 134 m away) or leaves some to draw (3 s)
SWEEP = "kind: failure_vs_speed\naxis: {{start: 10, stop: 80, steps: 8}}\ncell_radius_m: 1000\n" \
        "overlap_m: [0, 50]\ndelay_s: {delay}\n{mc}"


@pytest.mark.parametrize("delay,mc,fmt,drawn", [
    (0.1, "mc: {samples: 20000, seed: 7}\n", "csv", False),
    (0.1, "mc: {samples: 20000, seed: 7}\n", "svg", False),
    (3, "", "csv", False),
    (3, "mc: {samples: 20000, seed: 7}\n", "csv", True),
], ids=["decided-csv", "decided-svg", "analytic", "drawn"])
def test_a_sweep_loads_numpy_only_when_a_point_draws(tmp_path, delay, mc, fmt, drawn):
    spec, out = tmp_path / "sweep.yaml", tmp_path / f"sweep.{fmt}"
    spec.write_text(SWEEP.format(delay=delay, mc=mc))
    run = run_python("-X", "importtime", "-m", "handoff_lab.cli", "sweep", "--spec", str(spec),
                     "--format", fmt, "--out", str(out))
    assert run.returncode == 0, run.stderr
    loaded = {line.rsplit("|", 1)[-1].strip()
              for line in run.stderr.splitlines() if line.startswith("import time:")}
    assert "handoff_lab.experiments" in loaded
    assert ("numpy" in loaded) == drawn
    assert out.stat().st_size > 0


def test_package_and_cli_import_without_numpy():
    out = run_python("-c", "import sys, handoff_lab, handoff_lab.cli; print('numpy' in sys.modules)")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_every_exported_name_resolves():
    for name in handoff_lab.__all__:
        assert getattr(handoff_lab, name) is not None, name
    assert set(handoff_lab.__all__) <= set(dir(handoff_lab))
    assert handoff_lab.SimControls is sys.modules["handoff_lab.montecarlo"].SimControls
    assert handoff_lab.run_sweep is sys.modules["handoff_lab.experiments"].run_sweep
    with pytest.raises(AttributeError):
        handoff_lab.no_such_name


def test_star_import_binds_every_exported_name():
    # a fresh interpreter, so that the lazy names are resolved by the star import
    out = run_python("-c", "from handoff_lab import *; import handoff_lab; "
                           "print(sorted(set(handoff_lab.__all__) - set(globals())))")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


# each record whose __init__ is written out, with field values that differ
# from one another and from every default, so a swapped or dropped field shows
RECORDS = [
    (CrossingTimeSupport, (1.5, 2.5)),
    (OverlapSolution, (150.0, 0.25, 0.625)),
    (Estimate, (0.375, 0.0125, 400, 11)),
    (EcdfReport, (np.array([1.0, 2.0]), 0.0625, 2)),
    (SpeedModel, ("fixed", 30.0, 5.0, 40.0)),
    (SimControls, (400, 11, 4)),
]


@pytest.mark.parametrize("cls,values", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_records_behave_as_their_generated_dataclass(cls, values):
    # the twin is the frozen dataclass the record was before its __init__
    # was written out; everything the dataclass machinery gives must agree
    names = [f.name for f in dataclasses.fields(cls)]
    eq = cls.__dataclass_params__.eq
    twin_cls = dataclasses.make_dataclass(cls.__name__, [(f.name, f.type) for f in dataclasses.fields(cls)],
                                          frozen=True, eq=eq)
    record, twin = cls(*values), twin_cls(*values)
    assert dataclasses.is_dataclass(record) and names == [f.name for f in dataclasses.fields(twin)]
    assert all(getattr(record, name) is value for name, value in zip(names, values))
    assert cls(**dict(zip(names, values))).__dict__.keys() == record.__dict__.keys() == set(names)
    assert repr(record) == repr(twin)
    assert repr(dataclasses.asdict(record)) == repr(dataclasses.asdict(twin))
    assert dataclasses.astuple(record)[1:] == dataclasses.astuple(twin)[1:]
    if eq:
        assert record == cls(*values) and hash(record) == hash(cls(*values)) == hash(twin)
    else:  # equality and hashing by identity, as the dataclass declared them
        assert record != cls(*values) and record == record and hash(record) == object.__hash__(record)
    for i, name in enumerate(names):
        other = values[1] if i == 0 else values[0]  # a valid value of the same kind for every field
        if isinstance(record, SpeedModel):
            other = "uniform" if name == "kind" else 35.0
        moved = dataclasses.replace(record, **{name: other})
        assert type(moved) is cls and getattr(moved, name) is other
        assert all(getattr(moved, n) is getattr(record, n) for n in names if n != name)
        if eq:
            assert moved != record
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, other)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, name)
    loaded = pickle.loads(pickle.dumps(record))
    assert type(loaded) is cls and repr(loaded) == repr(record)
    if eq:
        assert loaded == record and hash(loaded) == hash(record)

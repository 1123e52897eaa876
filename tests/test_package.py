"""The package boundary: what importing it loads, and what it exports."""

import os
import subprocess
import sys

import pytest

import handoff_lab


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

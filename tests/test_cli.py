import argparse
import contextlib
import copy
import io
import math
import os
import random
import re
import xml.etree.ElementTree as ET

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from handoff_lab import cli, experiments, montecarlo
from handoff_lab.analytic import (
    SpeedModel,
    crossing_time_support,
    expected_failure_over_speed,
    false_handoff_probability,
    handoff_failure_probability,
)
from handoff_lab.cli import (
    _SCENARIO_KEYS,
    _SWEEP_KEYS,
    _build_parser,
    _load_yaml_mapping,
    SEED_ENV_VAR,
    main,
    parse_scenario,
    parse_sweep_spec,
    render_csv,
    scenario_from_dict,
    sweep_spec_from_dict,
)
from handoff_lab.errors import (
    HandoffLabError,
    InvalidParameterError,
    NotBracketedError,
    ScenarioParseError,
    ScenarioValidationError,
)
from handoff_lab.experiments import Axis, SweepSpec
from handoff_lab.geometry import CellGeometry
from handoff_lab.montecarlo import SimControls, estimate_failure, estimate_false_handoff
from handoff_lab.topology import DelayProfile, HandoffType

MINIMAL = """
cell_radius_m: 1000
overlap_m: 0
speed: 50
delay_s: 3
"""

TOPOLOGY_DOC = """
cell_radius_m: 1000
overlap_m: 0
speed: 50
handoff_type: inter
topology:
  systems:
    - system_id: sys1
      gfa_id: gfa1
      fas:
        - fa_id: fa1
          bs_ids: [bs10, bs11]
        - fa_id: fa2
          bs_ids: [bs12]
    - system_id: sys2
      gfa_id: gfa2
      fas:
        - fa_id: fa3
          bs_ids: [bs20]
"""


def validation_path(doc_text: str, env=None):
    with pytest.raises(ScenarioValidationError) as err:
        parse_scenario(doc_text, env=env if env is not None else {})
    return err.value.path


# ----------------------------------------------------------------------
# scenario parsing
# ----------------------------------------------------------------------

def test_minimal_scenario():
    sc = parse_scenario(MINIMAL, env={})
    assert sc.geometry == CellGeometry(1000.0, 0.0)
    assert sc.speed == SpeedModel.fixed(50.0)
    assert sc.resolved_delay_s() == 3.0
    assert sc.topology is None and sc.mc is None


def test_handoff_type_selects_profile_delay():
    base = "cell_radius_m: 1000\noverlap_m: 0\nspeed: 50\n"
    inter = parse_scenario(base + "handoff_type: inter", env={})
    assert inter.handoff_type is HandoffType.INTER_SYSTEM
    assert inter.resolved_delay_s() == 3.0
    intra = parse_scenario(base + "handoff_type: intra", env={})
    assert intra.resolved_delay_s() == 1.5
    custom = parse_scenario(
        base + "handoff_type: intra\ndelay_profile: {intra_s: 0.7, inter_s: 5.0}", env={}
    )
    assert custom.resolved_delay_s() == 0.7


def test_uniform_speed_scenario():
    sc = parse_scenario(
        "cell_radius_m: 1000\noverlap_m: 0\nspeed: {vmin: 40, vmax: 60}\ndelay_s: 3",
        env={},
    )
    assert sc.speed == SpeedModel.uniform(40.0, 60.0)


def test_parse_error_vs_validation_error():
    with pytest.raises(ScenarioParseError):
        parse_scenario("cell_radius_m: [unclosed", env={})
    with pytest.raises(ScenarioParseError):
        parse_scenario("- just\n- a\n- list", env={})
    with pytest.raises(ScenarioValidationError):
        parse_scenario("cell_radius_m: -5", env={})


def test_validation_error_paths():
    assert validation_path("overlap_m: 0\nspeed: 50\ndelay_s: 3") == "cell_radius_m"
    assert validation_path("cell_radius_m: 1000\nspeed: 50\ndelay_s: 3") == "overlap_m"
    assert (
        validation_path("cell_radius_m: 1000\noverlap_m: 900\nspeed: 50\ndelay_s: 3")
        == "overlap_m"
    )
    assert validation_path("cell_radius_m: 1000\noverlap_m: 0\ndelay_s: 3") == "speed"
    assert (
        validation_path(
            "cell_radius_m: 1000\noverlap_m: 0\nspeed: {vmin: 60, vmax: 40}\ndelay_s: 3"
        )
        == "speed.vmax"
    )
    assert validation_path("cell_radius_m: 1000\noverlap_m: 0\nspeed: 50") == "delay_s"
    assert (
        validation_path(
            "cell_radius_m: 1000\noverlap_m: 0\nspeed: 50\ndelay_s: 3\nhandoff_type: inter"
        )
        == "delay_s"
    )
    assert (
        validation_path(
            "cell_radius_m: 1000\noverlap_m: 0\nspeed: 50\nhandoff_type: sideways"
        )
        == "handoff_type"
    )
    assert (
        validation_path(MINIMAL + "bogus_key: 1")
        == "bogus_key"
    )
    assert validation_path(MINIMAL + "mc: {seed: 1}") == "mc.samples"
    # a type the profile gives no delay is refused while parsing
    assert (
        validation_path("cell_radius_m: 1000\noverlap_m: 0\nspeed: 50\nhandoff_type: link_layer")
        == "handoff_type"
    )
    assert validation_path(MINIMAL + "delay_profile: {intra_s: 4}") == "delay_profile.inter_s"
    assert validation_path(MINIMAL + "topology: {systems: []}") == "topology"


def test_mc_error_paths_name_the_key():
    assert validation_path(MINIMAL + "mc: {samples: 10, batches: 20}") == "mc.batches"
    assert validation_path(MINIMAL + "mc: {samples: 10, seed: -1}") == "mc.seed"
    sweep = "kind: false_vs_overlap\naxis: {start: 0, stop: 100, steps: 3}\ncell_radius_m: 1000\n"
    for mc, path in (("{samples: 10, batches: 20}", "mc.batches"), ("{samples: 10, seed: -1}", "mc.seed")):
        with pytest.raises(ScenarioValidationError) as err:
            parse_sweep_spec(sweep + f"mc: {mc}", env={})
        assert err.value.path == path


def test_null_keys_count_as_absent():
    # an optional key set to null is absent, in a sweep as in a scenario
    sweep = "kind: failure_vs_delay\naxis: {start: 1, stop: 3, steps: 3}\ncell_radius_m: 1000\nspeed_mps: 50\n"
    assert parse_sweep_spec(sweep + "overlap_m: null\nmc: null", env={}) == parse_sweep_spec(sweep, env={})
    # an unknown key is refused even when null, and a null required key is
    # missing
    assert validation_path(MINIMAL + "foo: null") == "foo"
    assert validation_path(MINIMAL.replace("speed: 50", "speed: null")) == "speed"
    assert validation_path(MINIMAL + "mc: {samples: null}") == "mc.samples"
    with pytest.raises(ScenarioValidationError, match="is required"):
        parse_sweep_spec(sweep.replace("cell_radius_m: 1000", "cell_radius_m: null"), env={})


def test_main_null_seed_takes_the_environment_seed(tmp_path, monkeypatch):
    # a null seed defers to the environment, a null batches to its default
    monkeypatch.setenv(SEED_ENV_VAR, "5")
    for mc in ("{samples: 1000, seed: null}", "{samples: 1000, batches: null}"):
        assert run_scenario(tmp_path, "simulate", MINIMAL + f"mc: {mc}") == 0
        got = (tmp_path / "out.csv").read_text()
        assert run_scenario(tmp_path, "simulate", MINIMAL + "mc: {samples: 1000, seed: 5}") == 0
        assert got == (tmp_path / "out.csv").read_text()


def test_seed_resolution_order():
    explicit = parse_scenario(MINIMAL + "mc: {samples: 10, seed: 5}", env={SEED_ENV_VAR: "9"})
    assert explicit.mc.seed == 5
    from_env = parse_scenario(MINIMAL + "mc: {samples: 10}", env={SEED_ENV_VAR: "9"})
    assert from_env.mc.seed == 9
    fallback = parse_scenario(MINIMAL + "mc: {samples: 10}", env={})
    assert fallback.mc.seed == 0
    with pytest.raises(ScenarioValidationError) as err:
        parse_scenario(MINIMAL + "mc: {samples: 10}", env={SEED_ENV_VAR: "ten"})
    assert err.value.path == "mc.seed"


# ----------------------------------------------------------------------
# command execution
# ----------------------------------------------------------------------

def read_csv(text: str):
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


def run_scenario(tmp_path, command, doc, *flags):
    """main on doc written to a scenario file, with the output to out.csv."""
    path = tmp_path / "scenario.yaml"
    path.write_text(doc)
    return main([command, "--scenario", str(path), "--out", str(tmp_path / "out.csv"), *flags])


def test_analytic_command_values(tmp_path):
    assert run_scenario(tmp_path, "analytic", MINIMAL) == 0
    header, rows = read_csv((tmp_path / "out.csv").read_text())
    assert header == ["false_handoff_probability", "t_min_s", "t_max_s", "failure_probability"]
    assert rows[0][0] == "0.583333333"
    geom = CellGeometry(1000.0, 0.0)
    support = crossing_time_support(geom, 50.0)
    expected = (
        false_handoff_probability(geom),
        support.t_min_s,
        support.t_max_s,
        handoff_failure_probability(geom, 50.0, 3.0),
    )
    for cell, want in zip(rows[0], expected):
        assert float(cell) == pytest.approx(want, rel=1e-8)


def test_analytic_command_uniform_speed(tmp_path):
    doc = "cell_radius_m: 1000\noverlap_m: 0\nspeed: {vmin: 40, vmax: 60}\ndelay_s: 3"
    assert run_scenario(tmp_path, "analytic", doc) == 0
    _, rows = read_csv((tmp_path / "out.csv").read_text())
    geom = CellGeometry(1000.0, 0.0)
    assert float(rows[0][1]) == pytest.approx(
        crossing_time_support(geom, 60.0).t_min_s, rel=1e-8
    )
    assert float(rows[0][2]) == pytest.approx(
        crossing_time_support(geom, 40.0).t_max_s, rel=1e-8
    )
    assert float(rows[0][3]) == pytest.approx(
        expected_failure_over_speed(geom, SpeedModel.uniform(40.0, 60.0), 3.0), rel=1e-8
    )


def test_simulate_command_matches_library(tmp_path):
    assert run_scenario(tmp_path, "simulate", MINIMAL + "mc: {samples: 50000, seed: 11, batches: 2}") == 0
    header, rows = read_csv((tmp_path / "out.csv").read_text())
    assert header[-4:] == ["pa_estimate", "pa_std_err", "pf_estimate", "pf_std_err"]
    geom = CellGeometry(1000.0, 0.0)
    ctl = SimControls(samples=50_000, seed=11, batches=2)
    est_pa = estimate_false_handoff(geom, ctl)
    est_pf = estimate_failure(geom, 50.0, 3.0, ctl)
    assert float(rows[0][4]) == pytest.approx(est_pa.p_hat, rel=1e-8)
    assert float(rows[0][5]) == pytest.approx(est_pa.std_err, rel=1e-6)
    assert float(rows[0][6]) == pytest.approx(est_pf.p_hat, rel=1e-8)
    assert float(rows[0][7]) == pytest.approx(est_pf.std_err, rel=1e-6)


def test_simulate_requires_mc_block(tmp_path, capsys):
    assert run_scenario(tmp_path, "simulate", MINIMAL) == 2
    assert capsys.readouterr().err.startswith("error: mc: ")


def test_classify_command(tmp_path):
    assert run_scenario(tmp_path, "classify", TOPOLOGY_DOC, "--from-bs", "bs11", "--to-bs", "bs12") == 0
    header, rows = read_csv((tmp_path / "out.csv").read_text())
    assert header == ["handoff_type", "delay_s"]
    assert rows[0] == ["intra", "1.5"]


def test_classify_takes_the_profile_delay_beside_delay_s(tmp_path):
    # classify reads the profile whichever key picks the scenario's delay
    doc = TOPOLOGY_DOC.replace("handoff_type: inter", "delay_s: 2\ndelay_profile: {intra_s: 0.7, inter_s: 5}")
    assert run_scenario(tmp_path, "classify", doc, "--from-bs", "bs11", "--to-bs", "bs12") == 0
    _, rows = read_csv((tmp_path / "out.csv").read_text())
    assert rows[0] == ["intra", "0.7"]


def test_classify_refuses_empty_base_station_id(tmp_path, capsys):
    doc = TOPOLOGY_DOC.replace("bs_ids: [bs10, bs11]", 'bs_ids: ["", bs11]')
    assert run_scenario(tmp_path, "classify", doc, "--from-bs", "", "--to-bs", "bs20") == 2
    assert capsys.readouterr().err.startswith("error: topology: empty bs_id")


def test_classify_refuses_an_id_that_is_not_a_string(tmp_path, capsys):
    doc = TOPOLOGY_DOC.replace("fa_id: fa2", "fa_id: 012")
    assert run_scenario(tmp_path, "classify", doc, "--from-bs", "bs11", "--to-bs", "bs12") == 2
    assert capsys.readouterr().err.startswith("error: topology: systems[0].fas[1].fa_id must be a string")


def test_classify_refuses_a_misspelt_topology_key(tmp_path, capsys):
    # a misspelt key beside bs_ids was once ignored, and its stations with it
    doc = TOPOLOGY_DOC.replace("bs_ids: [bs12]", "bs_ids: [bs12]\n          bs_idz: [bs13]")
    assert run_scenario(tmp_path, "classify", doc, "--from-bs", "bs11", "--to-bs", "bs12") == 2
    assert capsys.readouterr().err.startswith("error: topology: systems[0].fas[1].bs_idz")


@pytest.mark.parametrize("doc,want", [
    (TOPOLOGY_DOC.split("topology:")[0] + "topology: 5\n", "topology: must be a mapping, got 5\n"),
    (TOPOLOGY_DOC.replace("bs_ids: [bs12]", "bs_ids: []"),
     "topology: systems[0].fas[1].bs_ids must not be empty\n"),
    (TOPOLOGY_DOC.replace("fas:\n        - fa_id: fa3\n          bs_ids: [bs20]", "fas: []"),
     "topology: systems[1].fas must not be empty\n"),
], ids=["not-a-mapping", "no-base-stations", "no-foreign-agents"])
def test_classify_names_the_path_of_a_bad_topology_block(tmp_path, capsys, doc, want):
    assert run_scenario(tmp_path, "classify", doc, "--from-bs", "bs11", "--to-bs", "bs12") == 2
    assert capsys.readouterr().err == "error: " + want


@pytest.mark.parametrize("command,doc,flags,want", [
    ("analytic", None, ["--cell-radius-m", "1000", "--overlap-m", "0", "--speed-mps", "50", "--delay-s", "-1"],
     "delay_s: must be nonnegative, got -1.0"),
    ("analytic", "", [], "cell_radius_m: is required"),
    ("classify", MINIMAL, ["--from-bs", "bs10", "--to-bs", "bs11"], "topology: classify needs a topology block"),
    ("classify", TOPOLOGY_DOC, ["--from-bs", "zz", "--to-bs", "bs11"], "from_bs: unknown base station 'zz'"),
    ("classify", TOPOLOGY_DOC, ["--from-bs", "bs11", "--to-bs", "zz"], "to_bs: unknown base station 'zz'"),
    ("classify", TOPOLOGY_DOC, ["--from-bs", "zz", "--to-bs", "zz"], "from_bs: unknown base station 'zz'"),
    ("classify", TOPOLOGY_DOC, ["--from-bs", "bs11", "--to-bs", "bs11"],
     "to_bs: handoff endpoints must differ, got 'bs11' twice"),
    ("classify", TOPOLOGY_DOC, ["--from-bs", "bs10", "--to-bs", "bs11"],
     "delay_profile.link_layer_s: link-layer handoffs have no delay in this profile; set link_layer_s to model one"),
], ids=["negative-delay", "empty-scenario", "classify-without-topology", "unknown-from-bs", "unknown-to-bs",
        "both-unknown", "same-station", "link-layer-without-delay"])
def test_main_refusal_names_its_key(tmp_path, capsys, command, doc, flags, want):
    # one line, the key and then the reason; exit 2 and no file written
    out = tmp_path / "out.csv"
    if doc is not None:
        (tmp_path / "scenario.yaml").write_text(doc)
        flags = ["--scenario", str(tmp_path / "scenario.yaml"), *flags]
    assert main([command, *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {want}\n"
    assert not out.exists()


def test_svg_rejected_outside_sweep(tmp_path, capsys):
    assert run_scenario(tmp_path, "analytic", MINIMAL, "--format", "svg") == 2
    assert capsys.readouterr().err.startswith("error: format: ")


# ----------------------------------------------------------------------
# the command line proper
# ----------------------------------------------------------------------

def test_main_analytic_from_flags(capsys, monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    code = main(
        [
            "analytic",
            "--cell-radius-m", "1000",
            "--overlap-m", "0",
            "--speed-mps", "50",
            "--delay-s", "3",
        ]
    )
    assert code == 0
    header, rows = read_csv(capsys.readouterr().out)
    assert rows[0][0] == "0.583333333"


def test_main_speed_kmh_equivalent(capsys, monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    base = ["analytic", "--cell-radius-m", "1000", "--overlap-m", "0", "--delay-s", "3"]
    assert main(base + ["--speed-mps", "50"]) == 0
    via_mps = capsys.readouterr().out
    assert main(base + ["--speed-kmh", "180"]) == 0
    via_kmh = capsys.readouterr().out
    assert via_mps == via_kmh


def test_main_flags_override_file(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    path = tmp_path / "scenario.yaml"
    path.write_text(MINIMAL)
    assert main(["analytic", "--scenario", str(path), "--overlap-m", "200"]) == 0
    _, rows = read_csv(capsys.readouterr().out)
    geom = CellGeometry(1000.0, 200.0)
    assert float(rows[0][0]) == pytest.approx(false_handoff_probability(geom), rel=1e-8)


def test_main_uniform_speed_flags(capsys, monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    code = main(
        [
            "analytic",
            "--cell-radius-m", "1000",
            "--overlap-m", "0",
            "--vmin-mps", "40",
            "--vmax-mps", "60",
            "--delay-s", "3",
        ]
    )
    assert code == 0
    _, rows = read_csv(capsys.readouterr().out)
    geom = CellGeometry(1000.0, 0.0)
    assert float(rows[0][3]) == pytest.approx(
        expected_failure_over_speed(geom, SpeedModel.uniform(40.0, 60.0), 3.0), rel=1e-8
    )


def test_main_delay_flag_replaces_file_handoff_type(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    path = tmp_path / "scenario.yaml"
    path.write_text("cell_radius_m: 1000\noverlap_m: 0\nspeed: 50\nhandoff_type: inter\n")
    assert main(["analytic", "--scenario", str(path), "--delay-s", "3"]) == 0
    _, rows = read_csv(capsys.readouterr().out)
    assert float(rows[0][3]) == pytest.approx(
        handoff_failure_probability(CellGeometry(1000.0, 0.0), 50.0, 3.0), rel=1e-8
    )


MC_SMALL = "mc: {samples: 1000, seed: 4}\n"
PROFILE = "delay_profile: {intra_s: 0.7, inter_s: 5}\n"


@pytest.mark.parametrize("doc,flags,want", [
    (MINIMAL + MC_SMALL, ["--speed-mps", "50", "--speed-kmh", "180"],
     "error: speed: give one of --speed-mps, --speed-kmh, or --vmin-mps/--vmax-mps"),
    (MINIMAL + MC_SMALL, ["--vmin-mps", "40"], "error: speed.vmax: "),
    (MINIMAL + "mc: 5\n", ["--samples", "10"], "error: mc: must be a mapping"),
    (MINIMAL + MC_SMALL, ["--seed", "9"], MINIMAL + "mc: {samples: 1000, seed: 9}\n"),
    (MINIMAL.replace("delay_s: 3", "delay_s: 1") + MC_SMALL, ["--handoff-type", "inter"],
     MINIMAL.replace("delay_s: 3", "handoff_type: inter") + MC_SMALL),
    (MINIMAL.replace("delay_s: 3", "handoff_type: intra") + PROFILE + MC_SMALL, ["--delay-s", "3"],
     MINIMAL + PROFILE + MC_SMALL),
], ids=["two-speeds", "vmin-alone", "samples-over-non-mapping-mc", "seed-keeps-samples",
        "handoff-type-replaces-delay", "delay-replaces-handoff-type-beside-a-profile"])
def test_main_flag_overlay(tmp_path, capsys, monkeypatch, doc, flags, want):
    # want is the error's start, or a file that must give the same output
    # without flags
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    path = tmp_path / "scenario.yaml"
    path.write_text(doc)
    code = main(["simulate", "--scenario", str(path), *flags])
    out, err = capsys.readouterr()
    if want.startswith("error: "):
        assert code == 2
        assert err.startswith(want)
        return
    assert code == 0, err
    path.write_text(want)
    assert main(["simulate", "--scenario", str(path)]) == 0
    assert capsys.readouterr().out == out


def test_main_exit_codes(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    flags = ["--cell-radius-m", "1000", "--overlap-m", "0", "--speed-mps", "50", "--delay-s", "3"]

    code = main(["simulate"] + flags + ["--samples", "0", "--seed", "1"])
    assert code == 2
    assert "mc.samples" in capsys.readouterr().err

    code = main(["adapt"] + flags + ["--target-pf", "0.9"])
    assert code == 1
    assert "error:" in capsys.readouterr().err

    code = main(
        ["adapt", "--cell-radius-m", "1000", "--overlap-m", "0", "--vmin-mps", "40",
         "--vmax-mps", "60", "--delay-s", "3", "--target-pf", "0.2"]
    )
    assert code == 2
    assert "speed" in capsys.readouterr().err

    topo = tmp_path / "topo.yaml"
    topo.write_text(TOPOLOGY_DOC)
    code = main(["classify", "--scenario", str(topo), "--from-bs", "bs10", "--to-bs", "bs11"])
    assert code == 2
    assert "link" in capsys.readouterr().err

    code = main(["classify", "--scenario", str(topo), "--from-bs", "bs10", "--to-bs", "nope"])
    assert code == 2
    assert "nope" in capsys.readouterr().err

    code = main(["analytic"] + flags + ["--format", "svg"])
    assert code == 2
    assert "svg" in capsys.readouterr().err

    code = main(["analytic", "--scenario", str(tmp_path / "missing.yaml")])
    assert code == 2
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analytic", "simulate"])
@pytest.mark.parametrize("target", ["", "missing/out.csv"], ids=["directory", "missing-directory"])
def test_main_out_that_cannot_be_opened_names_out(tmp_path, capsys, monkeypatch, target, command):
    # --out cannot be opened: bad input, exit 2, and no file is left behind;
    # it is refused before the run, so a simulate whose estimators fail on
    # any call never reaches them
    def fail(*args, **kwargs):
        raise AssertionError("sampled before --out was checked")

    for name in ("estimate_false_handoff", "estimate_failure"):
        monkeypatch.setattr(montecarlo, name, fail)
    out = tmp_path / target
    flags = ["--cell-radius-m", "1000", "--overlap-m", "0", "--speed-mps", "50", "--delay-s", "3"]
    if command == "simulate":
        flags += ["--samples", "1000", "--seed", "1"]
    assert main([command] + flags + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: out: cannot write {str(out)!r}: ")
    assert err.count("\n") == 1
    assert sorted(tmp_path.iterdir()) == []


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device whose writes fail")
def test_main_out_that_fails_while_writing_exits_1(capsys):
    flags = ["--cell-radius-m", "1000", "--overlap-m", "0", "--speed-mps", "50", "--delay-s", "3"]
    assert main(["analytic"] + flags + ["--out", "/dev/full"]) == 1
    assert "No space left" in capsys.readouterr().err


def test_main_integer_beyond_float_range_names_key(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    path = tmp_path / "scenario.yaml"
    path.write_text(MINIMAL.replace("1000", "9" * 400))
    assert main(["analytic", "--scenario", str(path)]) == 2
    assert "cell_radius_m" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analytic", "simulate"])
@pytest.mark.parametrize("radius", ["5e-324", "1e200"])
def test_main_refuses_a_radius_whose_arithmetic_under_or_overflows(capsys, command, radius):
    flags = ["--cell-radius-m", radius, "--overlap-m", "0", "--speed-mps", "50", "--delay-s", "3"]
    extra = ["--samples", "100", "--seed", "1"] if command == "simulate" else []
    assert main([command, *flags, *extra]) == 2
    assert "cell_radius_m:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analytic", "simulate"])
@pytest.mark.parametrize("speed,key", [
    (["--speed-mps", "1e300"], "speed:"),
    (["--speed-mps", "1e-200"], "speed:"),
    (["--vmin-mps", "40", "--vmax-mps", "1e300"], "speed.vmax:"),
], ids=["fast", "slow", "fast-vmax"])
def test_main_refuses_a_speed_whose_times_under_or_overflow(capsys, command, speed, key):
    flags = ["--cell-radius-m", "1000", "--overlap-m", "0", *speed, "--delay-s", "3"]
    extra = ["--samples", "100", "--seed", "1"] if command == "simulate" else []
    assert main([command, *flags, *extra]) == 2
    assert f"error: {key} " in capsys.readouterr().err


def test_main_refuses_delay_with_handoff_type(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analytic", "--cell-radius-m", "1000", "--overlap-m", "0", "--speed-mps", "50",
              "--delay-s", "3", "--handoff-type", "inter"])
    assert exc.value.code == 2
    assert "--delay-s" in capsys.readouterr().err


def test_main_adapt_solves(capsys, monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    code = main(
        ["adapt", "--cell-radius-m", "1000", "--overlap-m", "0", "--speed-mps", "50",
         "--delay-s", "3", "--target-pf", "0.2199"]
    )
    assert code == 0
    _, rows = read_csv(capsys.readouterr().out)
    assert float(rows[0][0]) == pytest.approx(10.0, abs=0.01)
    assert float(rows[0][2]) == pytest.approx(0.2199, abs=1e-8)


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-0.1", "1.5", "abc"])
def test_main_adapt_refuses_a_target_pf_outside_0_1(capsys, value):
    # malformed input exits 2 at the parser; a valid but unreachable target
    # still exits 1 (test_main_exit_codes)
    flags = ["--cell-radius-m", "1000", "--overlap-m", "0", "--speed-mps", "50", "--delay-s", "3"]
    with pytest.raises(SystemExit) as exc:
        main(["adapt", *flags, "--target-pf", value])
    assert exc.value.code == 2
    assert "--target-pf" in capsys.readouterr().err


# ----------------------------------------------------------------------
# sweep output files
# ----------------------------------------------------------------------

# a file that is not valid YAML, and one whose document is no mapping
BAD_YAML = "cell_radius_m: [unclosed\n"
LIST_YAML = "- just\n- a\n- list\n"

SWEEP_DOC = """
kind: failure_vs_speed
axis: {start: 10, stop: 80, steps: 8}
cell_radius_m: 1000
overlap_m: [0, 50]
delay_s: 3
mc: {samples: 20000, seed: 7, batches: 2}
"""


@pytest.mark.parametrize("command,flag,doc", [("analytic", "--scenario", MINIMAL),
                                               ("sweep", "--spec", SWEEP_DOC)],
                         ids=["scenario", "sweep"])
def test_main_integer_past_digit_limit_is_a_parse_error(tmp_path, capsys, monkeypatch, command, flag, doc):
    # yaml.safe_load raises a plain ValueError for integers over 4300 digits
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    path = tmp_path / "doc.yaml"
    path.write_text(doc.replace("1000", "9" * 5000))
    assert main([command, flag, str(path), "--out", str(tmp_path / "out")]) == 2
    assert "could not be read" in capsys.readouterr().err


@pytest.mark.parametrize("command,flag,doc", [("analytic", "--scenario", MINIMAL),
                                               ("sweep", "--spec", SWEEP_DOC)],
                         ids=["scenario", "sweep"])
def test_main_file_that_is_not_utf8_is_a_parse_error(tmp_path, capsys, monkeypatch, command, flag, doc):
    # a valid document plus a comment holding byte 0xff, which no UTF-8 text has
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    path = tmp_path / "doc.yaml"
    path.write_bytes(doc.encode() + b"# \xff\n")
    assert main([command, flag, str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert str(path) in err
    assert "not UTF-8" in err


def test_sweep_runs_are_byte_identical(tmp_path, monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    spec = tmp_path / "sweep.yaml"
    spec.write_text(SWEEP_DOC)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "--spec", str(spec), "--out", str(out1)]) == 0
    assert main(["sweep", "--spec", str(spec), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    text = out1.read_text()
    assert "# kind=failure_vs_speed" in text
    assert "# mc_seed=7" in text


def test_sweep_mc_flag_overrides(tmp_path, monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    spec = tmp_path / "sweep.yaml"
    spec.write_text(SWEEP_DOC)
    out = tmp_path / "c.csv"
    assert main(["sweep", "--spec", str(spec), "--seed", "99", "--out", str(out)]) == 0
    assert "# mc_seed=99" in out.read_text()


def test_sweep_svg_structure(tmp_path, monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    spec = tmp_path / "sweep.yaml"
    spec.write_text(SWEEP_DOC)
    out = tmp_path / "chart.svg"
    assert main(["sweep", "--spec", str(spec), "--format", "svg", "--out", str(out)]) == 0
    root = ET.fromstring(out.read_text())
    ns = "{http://www.w3.org/2000/svg}"
    polylines = root.findall(f"{ns}polyline")
    assert len(polylines) == 2
    for poly in polylines:
        points = poly.attrib["points"].split()
        assert len(points) == 8
    texts = [el.text for el in root.findall(f"{ns}text")]
    assert "speed_mps" in texts
    assert "failure_probability" in texts
    assert "overlap_m=0" in texts and "overlap_m=50" in texts


def test_sweep_svg_of_a_flat_series(tmp_path, monkeypatch):
    # every delay lies below t_min, so every value is 0: the y range widens
    # to [-0.5, 0.5] (padded by 5%) instead of dividing by zero, and the
    # line runs along the middle of the plot
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    spec = tmp_path / "sweep.yaml"
    spec.write_text("kind: failure_vs_delay\naxis: {start: 0, stop: 1, steps: 3}\n"
                    "cell_radius_m: 1000\noverlap_m: 0\nspeed_mps: 50\n")
    out = tmp_path / "chart.svg"
    assert main(["sweep", "--spec", str(spec), "--format", "svg", "--out", str(out)]) == 0
    root = ET.fromstring(out.read_text())
    ns = "{http://www.w3.org/2000/svg}"
    (poly,) = root.findall(f"{ns}polyline")
    assert [p.split(",")[1] for p in poly.attrib["points"].split()] == ["185.00"] * 3
    texts = [el.text for el in root.findall(f"{ns}text")]
    assert {"-0.55", "-0.275", "0", "0.275", "0.55"} <= set(texts)


def test_sweep_spec_validation_error_paths():
    with pytest.raises(ScenarioValidationError) as err:
        parse_sweep_spec("axis: {start: 0, stop: 1, steps: 4}\ncell_radius_m: 1000", env={})
    assert err.value.path == "kind"
    with pytest.raises(ScenarioValidationError) as err:
        parse_sweep_spec(
            "kind: failure_vs_speed\naxis: {start: 10, stop: 80, steps: 4}\ncell_radius_m: 1000",
            env={},
        )
    assert err.value.path == "delay_s"
    with pytest.raises(ScenarioValidationError) as err:
        parse_sweep_spec(SWEEP_DOC.replace("stop: 80", "stop: 8"), env={})
    assert str(err.value) == "axis.stop: must exceed start, got [10.0, 8.0]"
    # a kind YAML reads as a list is refused at kind, as any unknown kind is
    with pytest.raises(ScenarioValidationError) as err:
        parse_sweep_spec(SWEEP_DOC.replace("kind: failure_vs_speed", "kind: [failure_vs_speed]"), env={})
    assert str(err.value) == (
        "kind: must be one of false_vs_overlap, failure_vs_speed, failure_vs_delay, got ['failure_vs_speed']")
    with pytest.raises(ScenarioValidationError) as err:
        parse_sweep_spec(SWEEP_DOC.replace("overlap_m: [0, 50]", "overlap_m: []"), env={})
    assert str(err.value) == "overlap_m: needs at least one value for failure_vs_speed"


@pytest.mark.parametrize("doc,want", [
    ("kind: false_vs_overlap\naxis: {start: 0, stop: 900, steps: 5}\ncell_radius_m: [2000, 1000]\n",
     "axis.stop: must lie in [0, 866.025) for cell_radius_m=1000, got 900.0\n"),
    (SWEEP_DOC.replace("overlap_m: [0, 50]", "overlap_m: [0, 5000]"),
     "overlap_m[1]: must lie in [0, 866.025) for cell_radius_m=1000, got 5000.0\n"),
    ("kind: failure_vs_delay\naxis: {start: 0, stop: 8, steps: 5}\ncell_radius_m: 1.0e+200\nspeed_mps: 20\n",
     "cell_radius_m[0]: must lie in [1e-150, 1e150], got 1e+200\n"),
    (SWEEP_DOC.replace("steps: 8", "steps: 10000000000000"),
     "axis.steps: gives 2 x 10000000000000 grid points, more than 1000000\n"),
], ids=["false_vs_overlap", "failure_vs_speed", "failure_vs_delay", "steps"])
def test_sweep_grid_past_its_bounds_is_refused_at_the_key(tmp_path, capsys, monkeypatch, doc, want):
    # the grid is checked while the spec is parsed, so the error names the
    # document key at fault, as every other bad sweep input does
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    path = tmp_path / "spec.yaml"
    path.write_text(doc)
    assert main(["sweep", "--spec", str(path)]) == 2
    assert capsys.readouterr().err == "error: " + want


# ----------------------------------------------------------------------
# rendering details
# ----------------------------------------------------------------------

def test_csv_nine_significant_digits_round_trip():
    values = (1.0 / 3.0, math.pi, 2.679491924311227, 0.35635248819532506)
    text = render_csv(("a", "b", "c", "d"), [values])
    _, rows = read_csv(text)
    for cell, want in zip(rows[0], values):
        assert float(cell) == pytest.approx(want, rel=5e-9)


def test_csv_provenance_comment_lines():
    text = render_csv(("x",), [(1.0,)], {"kind": "demo", "seed": "3"})
    lines = text.splitlines()
    assert lines[0] == "# kind=demo"
    assert lines[1] == "# seed=3"
    assert lines[2] == "x"
    assert text.endswith("\n")


def test_no_stray_files(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    monkeypatch.chdir(tmp_path)
    code = main(
        ["analytic", "--cell-radius-m", "1000", "--overlap-m", "0",
         "--speed-mps", "50", "--delay-s", "3"]
    )
    assert code == 0
    capsys.readouterr()
    assert list(tmp_path.iterdir()) == []


# ----------------------------------------------------------------------
# any mapping: a result or a package error
# ----------------------------------------------------------------------

VALID_DOCS = (
    (scenario_from_dict, {
        "cell_radius_m": 1000, "overlap_m": 50, "speed": {"vmin": 40, "vmax": 60},
        "handoff_type": "intra",
        "delay_profile": {"intra_s": 1.0, "inter_s": 2.0, "link_layer_s": 0.1},
        "topology": {"systems": [{"system_id": "s1", "gfa_id": "g1",
                                  "fas": [{"fa_id": "f1", "bs_ids": ["b1", "b2"]}]}]},
        "mc": {"samples": 100, "seed": 3, "batches": 2},
    }),
    (scenario_from_dict, {"cell_radius_m": 1000.0, "overlap_m": 0, "speed": 50, "delay_s": 3}),
    (sweep_spec_from_dict, {
        "kind": "failure_vs_speed", "axis": {"start": 10, "stop": 80, "steps": 4},
        "cell_radius_m": 1000, "overlap_m": [0, 50], "delay_s": 3,
        "mc": {"samples": 100, "seed": 7, "batches": 2},
    }),
    (sweep_spec_from_dict, {
        "kind": "failure_vs_delay", "axis": {"start": 0, "stop": 8, "steps": 5},
        "cell_radius_m": [1500], "overlap_m": 100, "speed_mps": 20,
    }),
)

# what safe_load can produce: inf and NaN among the floats, integers beyond
# float range, and keys that are not strings
YAML_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(),
    st.integers(-10**6, 10**6),
    st.integers(2**1024, 10**400),
    st.integers(-10**400, -2**1024),
    st.text(max_size=8),
)
YAML_VALUES = st.recursive(
    YAML_SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8) | st.integers(-3, 3), inner, max_size=3),
    max_leaves=6,
)


def key_paths(doc, prefix=()):
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from key_paths(value, prefix + (key,))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.data())
def test_parsers_give_a_result_or_a_package_error(data):
    # one key of a valid document, nested or not, present or not, takes any
    # YAML value; the parser must return or raise a HandoffLabError
    parse, doc = data.draw(st.sampled_from(VALID_DOCS))
    doc = copy.deepcopy(doc)
    paths = [*key_paths(doc), ("delay_s",), ("handoff_type",), ("speed_mps",), ("mc", "seed")]
    path = data.draw(st.sampled_from(paths))
    target = doc
    for key in path[:-1]:
        target = target.setdefault(key, {})
    target[path[-1]] = data.draw(YAML_VALUES)
    try:
        parse(doc, env={})
    except ScenarioValidationError as exc:
        # the error's path starts at a document key, and its reason does not
        # name the key again
        schema = _SCENARIO_KEYS if parse is scenario_from_dict else _SWEEP_KEYS
        assert re.split(r"[.\[]", exc.path)[0] in {*schema, path[0]}, str(exc)
        last = exc.path.rsplit(".", 1)[-1].split("[")[0]
        assert not str(exc).startswith(f"{exc.path}: {last} "), str(exc)
    except HandoffLabError:
        pass


# ----------------------------------------------------------------------
# any command line: exit 0, 2, or 1 only where adapt's target is unreachable
# ----------------------------------------------------------------------

PARSER = _build_parser()
SUBCOMMANDS = next(a for a in PARSER._actions if isinstance(a, argparse._SubParsersAction)).choices
# what a refusal may name: a document key, or a flag's dest that is no key
REFUSAL_KEYS = {*_SCENARIO_KEYS, *_SWEEP_KEYS, "format", "out", "from_bs", "to_bs"}
REFUSAL_AT_KEY = re.compile(r"error: ([a-z_]+)[^ ]*: ")
ARGV_DRAWS = 1000


def test_any_command_line_exits_0_2_or_1_and_names_what_it_refuses(tmp_path, monkeypatch):
    # a valid command line, with one to three of its subcommand's flags set to
    # a value from the pool of the flag's sort (now and then from any pool) or
    # dropped, run in main: a refusal is one line naming its key or its file,
    # argparse's names a flag on its last line, exit 1 is only adapt's
    # unreachable target, and a run that fails leaves no --out file
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    # one parser serves every draw: building it costs more than most runs
    monkeypatch.setattr(cli, "_build_parser", lambda: PARSER)

    # 2**64 is a valid sample count whose run would never end: each estimate
    # still gets its inputs as given, but draws at most 64 samples
    def capped(estimate):
        def run(*args):
            *rest, ctl = args
            return estimate(*rest, SimControls(min(ctl.samples, 64), ctl.seed, min(ctl.batches, 64)))
        return run

    for module in (montecarlo, experiments):
        for name in ("estimate_false_handoff", "estimate_failure"):
            monkeypatch.setattr(module, name, capped(getattr(montecarlo, name)))
    unreachable, solve = [], cli.adapt_overlap

    def adapt_overlap(*args):
        try:
            return solve(*args)
        except NotBracketedError as exc:
            unreachable.append(exc)
            raise

    monkeypatch.setattr(cli, "adapt_overlap", adapt_overlap)
    (tmp_path / "scenario.yaml").write_text(TOPOLOGY_DOC + "mc: {samples: 100, seed: 1}\n")
    (tmp_path / "spec.yaml").write_text(SWEEP_DOC.replace("20000", "100").replace("steps: 8", "steps: 3"))
    (tmp_path / "bad.yaml").write_text(BAD_YAML)
    (tmp_path / "list.yaml").write_text(LIST_YAML)
    (tmp_path / "dir").mkdir()
    missing = tmp_path / "missing.csv"
    scenario, spec = str(tmp_path / "scenario.yaml"), str(tmp_path / "spec.yaml")
    outs = ["", str(tmp_path / "dir"), str(missing)]
    pools = {
        "number": ["0", "-1", "-0.5", "nan", "inf", "1e400", str(2**64), "1", "50"],
        "file": [*outs, scenario, spec, str(tmp_path / "bad.yaml"), str(tmp_path / "list.yaml")],
        "id": ["", "bs10", "bs11", "bs20", "zz"],
    }
    bases = {
        "analytic": {"--scenario": scenario}, "simulate": {"--scenario": scenario},
        "adapt": {"--scenario": scenario, "--target-pf": "0.2"},
        "classify": {"--scenario": scenario, "--from-bs": "bs11", "--to-bs": "bs12"}, "sweep": {"--spec": spec},
    }
    rng = random.Random(0)
    codes = set()
    for _ in range(ARGV_DRAWS):
        command = rng.choice(sorted(SUBCOMMANDS))
        flags = {**bases[command], "--out": str(missing)}
        actions = [a for a in SUBCOMMANDS[command]._actions if not isinstance(a, argparse._HelpAction)]
        for action in rng.sample(actions, rng.randint(1, 3)):
            flag = action.option_strings[-1]
            if rng.random() < 0.1:
                flags.pop(flag, None)
                continue
            sort = "number" if action.type else "file" if action.dest in ("scenario", "spec") else "id"
            values = outs if action.dest == "out" else list(action.choices or pools[sort])
            if action.dest != "out" and rng.random() < 0.1:
                values = [v for pool in pools.values() for v in pool]
            flags[flag] = rng.choice(values)
        argv = [command, *(part for item in flags.items() for part in item)]
        unreachable.clear()
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = f"argparse {exc.code}"
        codes.add(code)
        assert not (code and missing.exists()), argv
        missing.unlink(missing_ok=True)
        lines = err.getvalue().splitlines()
        if code == "argparse 2":
            assert any(opt in lines[-1] for a in actions for opt in a.option_strings), argv
            continue
        if code == 0:
            continue
        assert code == 2 or (code == 1 and unreachable), (argv, lines)
        (line,) = lines
        at_key = REFUSAL_AT_KEY.match(line)
        files = [flags[flag] for flag in ("--scenario", "--spec") if flag in flags]
        assert ((at_key and at_key[1] in REFUSAL_KEYS) or (code == 1 and line == f"error: {unreachable[-1]}")
                or any(f"{path!r}" in line for path in files)), (argv, line)
    assert codes == {0, 1, 2, "argparse 2"}


@pytest.mark.parametrize("make,key,message", [
    (lambda: SimControls(0, 1), "samples", "samples must be an integer >= 1, got 0"),
    (lambda: CellGeometry(1000.0, 900.0), "overlap_m",
     "overlap_m must lie in [0, 866.025) for cell_radius_m=1000, got 900.0"),
    (lambda: SweepSpec("false_vs_overlap", Axis(0.0, 1.0, 2), cell_radius_m=(1000.0, "x")),
     "cell_radius_m[1]", "cell_radius_m[1] must be a real number, got 'x'"),
    (lambda: SweepSpec("false_vs_overlap", Axis(0.0, 1.0, 2), cell_radius_m=5.0),
     "cell_radius_m", "cell_radius_m must be a sequence of numbers, got 5.0"),
    (lambda: DelayProfile(intra_s=2.0, inter_s=1.0), "inter_s",
     "inter_s must be at least intra_s, got 1.0 < 2.0"),
], ids=["SimControls", "CellGeometry", "coerce_numbers", "coerce_numbers-scalar", "DelayProfile"])
def test_library_errors_carry_their_key_apart_from_the_reason(make, key, message):
    # the message reads as it always has; the CLI reports the reason at the key
    with pytest.raises(InvalidParameterError) as err:
        make()
    assert (err.value.key, str(err.value)) == (key, message)
    assert f"{key} {err.value.reason}" == message


# ----------------------------------------------------------------------
# libyaml and pure-Python YAML parsing
# ----------------------------------------------------------------------

# the scenario and sweep documents the tests parse, valid or not, and the
# fuzz test's valid documents written out as YAML
YAML_DOCS = (
    MINIMAL,
    TOPOLOGY_DOC,
    SWEEP_DOC,
    "cell_radius_m: 1000\noverlap_m: 0\nspeed: 50\nhandoff_type: intra\n"
    "delay_profile: {intra_s: 0.7, inter_s: 5.0}",
    "cell_radius_m: 1000\noverlap_m: 0\nspeed: {vmin: 40, vmax: 60}\ndelay_s: 3",
    "cell_radius_m: 1000\noverlap_m: 0\nspeed: 50\nhandoff_type: inter\n",
    MINIMAL + "mc: {samples: 50000, seed: 11, batches: 2}",
    MINIMAL + "mc: {samples: 10, batches: 20}",
    MINIMAL + "bogus_key: 1",
    MINIMAL + "delay_profile: {intra_s: 1}",
    MINIMAL + "topology: {systems: []}",
    MINIMAL.replace("1000", "9" * 400),
    "- just\n- a\n- list",
    "kind: false_vs_overlap\naxis: {start: 0, stop: 100, steps: 3}\ncell_radius_m: 1000\n"
    "mc: {samples: 10, seed: -1}",
    "kind: failure_vs_speed\naxis: {start: 10, stop: 80, steps: 4}\ncell_radius_m: 1000",
    "kind: failure_vs_speed\naxis: {start: 10, stop: 80, steps: 8}\ncell_radius_m: 1000\n"
    "overlap_m: [0, 50]\ndelay_s: 3\nmc: {samples: 50000, seed: 7, batches: 4}\n",
    *(yaml.safe_dump(doc) for _, doc in VALID_DOCS),
)

needs_libyaml = pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")


@needs_libyaml
@pytest.mark.parametrize("text", YAML_DOCS)
def test_libyaml_and_python_loaders_build_equal_documents(text):
    assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader)


@needs_libyaml
@pytest.mark.parametrize("loader", ["CSafeLoader", "SafeLoader"])
@pytest.mark.parametrize("text", ["cell_radius_m: [unclosed", MINIMAL.replace("1000", "9" * 5000),
                                  MINIMAL + "name: \ud800"],
                         ids=["syntax", "digit-limit", "surrogate"])
def test_both_loaders_report_a_parse_error(monkeypatch, loader, text):
    # the loaders raise different errors for some of these: libyaml a
    # UnicodeEncodeError for the lone surrogate, the Python parser a ReaderError
    monkeypatch.setattr("handoff_lab.cli._YAML_LOADER", loader)
    with pytest.raises(ScenarioParseError):
        parse_scenario(text, env={})


@pytest.mark.parametrize("loader", ["CSafeLoader", "SafeLoader"])
@pytest.mark.parametrize("command,flag,what", [("analytic", "--scenario", "scenario"),
                                               ("sweep", "--spec", "sweep spec")], ids=["scenario", "sweep"])
def test_main_yaml_refusals_are_one_line_naming_the_file(tmp_path, capsys, monkeypatch, loader, command, flag, what):
    # PyYAML's reason keeps its problem and the line and column of each
    # mark, on one line after the file's name; a text with no file keeps
    # the bare "scenario"
    monkeypatch.setattr("handoff_lab.cli._YAML_LOADER", loader)
    bad, listed = tmp_path / "bad.yaml", tmp_path / "list.yaml"
    bad.write_text(BAD_YAML)
    listed.write_text(LIST_YAML)
    flow = "is not valid YAML: while parsing a flow sequence at line 1, column 16; "
    errs = {}
    for path, reason in ((bad, flow), (listed, "must be a mapping of keys to values\n")):
        assert main([command, flag, str(path)]) == 2
        errs[path] = capsys.readouterr().err
        assert errs[path].startswith(f"error: {what} {str(path)!r} {reason}") and errs[path].count("\n") == 1
    assert errs[bad].endswith(" at line 2, column 1\n") and "<unicode string>" not in errs[bad]
    with pytest.raises(ScenarioParseError, match="^scenario " + re.escape(flow)):
        parse_scenario(BAD_YAML, env={})


# ----------------------------------------------------------------------
# YAML 1.2 floats
# ----------------------------------------------------------------------

@pytest.mark.parametrize("loader", ["CSafeLoader", "SafeLoader"])
def test_exponent_only_numbers_load_as_floats(monkeypatch, loader):
    # YAML 1.1 reads 1e3 as a string; YAML 1.2's float pattern, tried after
    # YAML 1.1's rules, reads it as a float, and integers, octals, bools,
    # dates and strings keep their YAML 1.1 type
    monkeypatch.setattr("handoff_lab.cli._YAML_LOADER", loader)
    doc = _load_yaml_mapping("a: 1e3\nb: 1E3\nc: -2e-1\nd: 1000\ne: 010\nf: yes\ng: 2024-01-02\nh: 1e3x\ni: 1.0e3", "doc")
    assert {k: doc[k] for k in "abcdefhi"} == {"a": 1000.0, "b": 1000.0, "c": -0.2, "d": 1000, "e": 8, "f": True,
                                                "h": "1e3x", "i": 1000.0}
    assert [type(doc[k]) for k in "abcdeg"] == [float, float, float, int, int, type(doc["g"])] and doc["g"].year == 2024


def test_exponent_only_numbers_give_the_same_output(tmp_path, monkeypatch):
    # a scenario file and a sweep spec written with 1e3, 5E1 and 3e0 give
    # the bytes they give written as YAML 1.1 floats (1.0e+3)
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    outputs = []
    for style, (radius, speed, delay, start) in {"1.1": ("1.0e+3", "5.0e+1", "3.0e+0", "1.0e+1"),
                                                 "1.2": ("1e3", "5E1", "3e0", "1e1")}.items():
        scenario = tmp_path / f"scenario-{style}.yaml"
        scenario.write_text(f"cell_radius_m: {radius}\noverlap_m: 0\nspeed: {speed}\ndelay_s: {delay}\n")
        spec = tmp_path / f"sweep-{style}.yaml"
        spec.write_text(SWEEP_DOC.replace("start: 10", f"start: {start}").replace("cell_radius_m: 1000",
                                                                                   f"cell_radius_m: {radius}"))
        for argv in (["analytic", "--scenario", str(scenario)], ["sweep", "--spec", str(spec)]):
            out = tmp_path / f"{argv[0]}-{style}.csv"
            assert main(argv + ["--out", str(out)]) == 0
            outputs.append((argv[0], out.read_bytes()))
    assert outputs[:2] == outputs[2:]

"""Each workload's correctness gate passes the program's output and trips on a wrong one.

    python3 -m pytest benchmarks/test_gates.py
"""

import dataclasses
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import worker  # noqa: E402
from benchlib import Failure  # noqa: E402
from handoff_lab.analytic import SpeedModel  # noqa: E402
from handoff_lab.experiments import Axis, SweepSpec  # noqa: E402
from handoff_lab.geometry import CellGeometry  # noqa: E402
from handoff_lab.montecarlo import Estimate, SimControls  # noqa: E402


def estimate(p_hat, n=1_000_000, seed=1):
    return Estimate(p_hat=p_hat, std_err=math.sqrt(p_hat * (1 - p_hat) / n), n=n, seed=seed)


def test_mc_bulk_gate():
    g = CellGeometry(1000.0, 100.0)
    inp = {"nproc": 2, "calls": [("estimate_false_handoff", (g, SimControls(1_000_000, 1, 4)), 0.6)]}
    gate = worker.mc_bulk_gate(inp)
    good = estimate(0.6002)
    assert gate({"workers_1": [good], "workers_n": [good]}) == set()
    assert gate({"workers_1": [estimate(0.61)], "workers_n": [estimate(0.61)]}) == {("workers_1", 0)}
    assert gate({"workers_1": [good], "workers_n": [estimate(0.6003)]}) == {("workers_n", 0)}


@pytest.fixture(scope="module")
def small_sweep_grid():
    a = 1200.0
    inp = {
        "sweeps": [SweepSpec("failure_vs_speed", Axis(2.0, 60.0, 5), cell_radius_m=(a,),
                             overlap_m=(0.0, 200.0), delay_s=1.5)],
        "grid": [(CellGeometry(a, 150.0), 20.0, 1.0, 1.6)],
        "speed_avg": [(CellGeometry(a, 150.0), SpeedModel.uniform(5.0, 30.0), 1.2)],
        "adapt": [(a, 60.0, 5.0, 0.3)],
        "ecdf": (CellGeometry(a, 150.0), 20.0, SimControls(2000, 3, 2)),
        "overlay": SweepSpec("failure_vs_delay", Axis(0.0, 4.0, 4), cell_radius_m=(a,),
                             overlap_m=(100.0,), speed_mps=20.0, mc=SimControls(5000, 9, 1)),
    }
    out, _ = worker.sweep_grid_round(worker.bind(), inp)
    return inp, out


def test_sweep_grid_gate_passes_the_program(small_sweep_grid):
    inp, out = small_sweep_grid
    assert not any(isinstance(item, Failure) for items in out.values() for item in items)
    assert worker.sweep_grid_gate(inp)(out) == set()


def tamper(out, group, value):
    return dict(out, **{group: [value]})


def test_sweep_grid_gate_trips_on_each_wrong_value(small_sweep_grid):
    inp, out = small_sweep_grid
    gate = worker.sweep_grid_gate(inp)

    table = out["sweeps"][0]
    rows = list(table.rows)
    rows[3] = rows[3][:2] + (rows[3][2] + 1e-12,)
    assert gate(tamper(out, "sweeps", dataclasses.replace(table, rows=tuple(rows)))) == {("sweeps", 0)}

    support, false_p, failure_p, later_p = out["closed_form"][0]
    assert gate(tamper(out, "closed_form", (support, false_p, failure_p, failure_p - 0.01))) == {
        ("closed_form", 0)}
    assert gate(tamper(out, "closed_form", (support, 1.5, failure_p, later_p))) == {("closed_form", 0)}

    assert gate(tamper(out, "speed_avg", out["speed_avg"][0] + 1e-3)) == {("speed_avg", 0)}

    sol = out["adapt"][0]
    wrong = dataclasses.replace(sol, overlap_m=sol.overlap_m * 1.01)
    assert gate(tamper(out, "adapt", wrong)) == {("adapt", 0)}

    report = out["ecdf"][0]
    assert gate(tamper(out, "ecdf", dataclasses.replace(report, ks_stat=0.2))) == {("ecdf", 0)}

    table = out["overlay"][0]
    rows = [row[:3] + (1.0 - row[2],) + row[4:] for row in table.rows]
    assert gate(tamper(out, "overlay", dataclasses.replace(table, rows=tuple(rows)))) == {("overlay", 0)}


def test_cli_gate():
    inp = {"script": [(["analytic"], ("csv", ("a", "b"), [(0.5, 2.0)])), (["sweep"], ("svg",))]}
    gate = worker.cli_gate(inp)
    csv_text, svg_text = "a,b\n0.5,2\n", '<svg xmlns="http://www.w3.org/2000/svg"></svg>\n'
    assert gate({"commands": [(0, csv_text), (0, svg_text)]}) == set()
    assert gate({"commands": [(2, csv_text), (0, svg_text)]}) == {("commands", 0)}
    assert gate({"commands": [(0, "a,b\n0.5,2.00000001\n"), (0, svg_text)]}) == {("commands", 0)}
    assert gate({"commands": [(0, csv_text), (0, "<svg>")]}) == {("commands", 1)}


def test_ledger_counts_failures_and_changed_outputs():
    ledger = worker.Ledger(lambda out: {("g", 1)} if out["g"][1] > 10 else set())
    ledger.add({"g": [1.0, 11.0, Failure("ValueError()")]})
    ledger.add({"g": [1.0, 11.0, Failure("ValueError()")]})
    ledger.add({"g": [2.0, 11.0, Failure("ValueError()")]})
    assert (ledger.attempted, ledger.failed) == (9, 2 + 2 + 3)

"""The statistics of tools/compare.py, on fixed inputs."""

import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("compare", ROOT / "tools" / "compare.py")
compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare)


def test_quartiles_are_inclusive():
    assert compare.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert compare.quartiles([4.0, 1.0, 3.0, 2.0]) == (1.75, 2.5, 3.25)
    assert compare.quartiles([0.5]) == (0.5, 0.5, 0.5)


def test_sign_test_p_is_the_two_sided_binomial_tail():
    assert compare.sign_test_p(10, 0) == compare.sign_test_p(0, 10) == 2.0 / 1024
    assert compare.sign_test_p(9, 1) == 2.0 * 11 / 1024
    assert compare.sign_test_p(5, 5) == compare.sign_test_p(0, 0) == 1.0
    assert compare.sign_test_p(8, 2) == pytest.approx(2.0 * (1 + 10 + 45) / 1024)


def test_pairs_are_won_in_the_metric_s_direction():
    parent, change = [1.0, 2.0, 3.0, 4.0], [0.5, 2.0, 3.5, 3.0]
    lower = compare.compare(parent, change, "lower")
    assert (lower["change_better_pairs"], lower["change_worse_pairs"]) == (2, 1)
    higher = compare.compare(parent, change, "higher")
    assert (higher["change_better_pairs"], higher["change_worse_pairs"]) == (1, 2)
    assert lower["parent_iqr"] == 3.25 - 1.75
    assert (lower["parent"]["median"], lower["change"]["median"]) == (2.5, 2.5)
    assert lower["median_change_pct"] == 0.0
    assert compare.compare([2.0], [1.5])["median_change_pct"] == -25.0
    with pytest.raises(ValueError):
        compare.compare([1.0], [1.0, 2.0])


def test_met_needs_nine_in_ten_wins_and_a_median_beyond_the_parent_quartile():
    parent = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]  # q1 = 12.25
    faster = [p - 3.0 for p in parent]  # 10 wins, median 11.5
    assert compare.met(compare.compare(parent, faster))
    nine = faster[:9] + [parent[9] + 1.0]  # 9 wins, median 11.5
    assert compare.met(compare.compare(parent, nine))
    eight = faster[:8] + [p + 1.0 for p in parent[8:]]  # 8 wins
    assert not compare.met(compare.compare(parent, eight))
    # every pair won, but by too little for the median to leave the parent's IQR
    assert not compare.met(compare.compare(parent, [p - 0.5 for p in parent]))
    # a median exactly at q1 is not beyond it
    at_q1 = [p - 2.25 for p in parent]
    assert compare.compare(parent, at_q1)["change"]["median"] == 12.25
    assert not compare.met(compare.compare(parent, at_q1))
    # higher is better: the change's median must lie above the parent's q3
    assert compare.met(compare.compare(parent, [p + 8.0 for p in parent], "higher"))
    assert not compare.met(compare.compare(parent, faster, "higher"))


def test_a_tree_against_itself_meets_no_claim():
    # the same values on both sides tie every pair
    for values in ([0.0116, 0.0131, 0.0119, 0.0125], [1.0] * 10, [5.0]):
        for better in ("lower", "higher"):
            summary = compare.compare(values, list(values), better)
            assert summary["change_better_pairs"] == summary["change_worse_pairs"] == 0
            assert summary["sign_test_p"] == 1.0
            assert not compare.met(summary)


@pytest.mark.parametrize("bench", ["BENCH_25.json", "BENCH_30.json"])
def test_recorded_claims_rebuild_from_their_runs(bench):
    # each committed sweep_grid claim follows from the values its file
    # records, pair by pair, and the parent's runs against themselves meet none
    data = json.loads((ROOT / bench).read_text())
    for claim in data["claim"]:
        runs = [r for r in data["runs"]
                if (r["workload"], r["seed"], r.get("trace", 0)) == (claim["workload"], claim["seed"], 0)]
        by_side = {side: [r["metrics"][claim["metric"]] for r in sorted(runs, key=lambda r: r["pair"])
                          if r["side"] == side] for side in ("parent", "change")}
        summary = compare.compare(by_side["parent"], by_side["change"], "lower")
        assert summary["change_better_pairs"] == claim["change_better_pairs"]
        assert math.isclose(summary["parent"]["q1"], claim["parent_q1"], rel_tol=1e-12)
        assert math.isclose(summary["change"]["median"], claim["change_median"], rel_tol=1e-12)
        assert compare.met(summary) == claim["met"]
        assert not compare.met(compare.compare(by_side["parent"], by_side["parent"]))


def test_tier1_counts_read_the_last_summary_line():
    assert compare.tier1_counts("....x.. [ 10%]\n....... [100%]\n684 passed, 1 xfailed in 12.03s\n") == \
        {"passed": 684, "xfailed": 1}
    assert compare.tier1_counts("=== 1 failed, 683 passed, 1 xfailed, 2 warnings in 9.80s ===") == \
        {"failed": 1, "passed": 683, "xfailed": 1, "warnings": 2}
    assert compare.tier1_counts("2 passed in 0.1s\n1 error in 0.5s\n") == {"errors": 1}
    assert compare.tier1_counts("no tests ran in 0.01s") == compare.tier1_counts("") == {}


def test_run_tier1_times_the_command_in_the_tree(tmp_path, monkeypatch):
    # the command runs from the tree's root with that tree's src on the path
    script = "import os; print(os.getcwd()); print(os.environ['PYTHONPATH']); print('3 passed, 1 xfailed in 0.01s')"
    monkeypatch.setattr(compare, "TIER1", [sys.executable, "-c", script])
    run = compare.run_tier1(tmp_path)
    assert run["rc"] == 0 and run["counts"] == {"passed": 3, "xfailed": 1}
    assert run["metrics"]["wall_s"] > 0.0
    monkeypatch.setattr(compare, "TIER1", [sys.executable, "-c", script + "; raise SystemExit(1)"])
    assert compare.run_tier1(tmp_path)["rc"] == 1


def _tier1_run(wall, counts, rc=0):
    return {"rc": rc, "counts": counts, "metrics": {"wall_s": wall}}


def test_tier1_entry_is_reported_and_not_gated():
    same = {"passed": 684, "xfailed": 1}
    by_side = {"parent": [_tier1_run(w, same) for w in (12.0, 12.4, 11.8, 12.2)],
               "change": [_tier1_run(w, dict(same, passed=700)) for w in (12.5, 12.3, 12.9, 12.6)]}
    entry = compare.tier1_entry(by_side, 4)
    assert (entry["workload"], entry["seed"], entry["pairs"], entry["gated"]) == ("tier1", None, 4, False)
    assert entry["counts_by_side"] == {"parent": [same], "change": [dict(same, passed=700)]}
    assert entry["counts_agree_within_each_side"] and entry["all_runs_ok"]
    wall = entry["metrics"]["wall_s"]
    assert wall == compare.compare([12.0, 12.4, 11.8, 12.2], [12.5, 12.3, 12.9, 12.6])
    assert (wall["change_better_pairs"], wall["change_worse_pairs"]) == (1, 3)
    # a run that failed, or one whose counts differ from its side's others, shows
    by_side["change"][2] = _tier1_run(12.9, dict(same, failed=1), rc=1)
    entry = compare.tier1_entry(by_side, 4)
    assert not entry["all_runs_ok"] and not entry["counts_agree_within_each_side"]


def test_no_claim_may_name_tier1(monkeypatch):
    # refused before any tree is exported or any run made
    monkeypatch.setattr(compare, "export", lambda *args: pytest.fail("exported a tree"))
    with pytest.raises(SystemExit) as exc:
        compare.main(["--parent", "HEAD", "--workload", "tier1", "--claim", "tier1:wall_s"])
    assert exc.value.code == 2

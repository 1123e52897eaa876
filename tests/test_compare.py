"""The statistics of tools/compare.py, on fixed inputs."""

import importlib.util
import json
import math
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

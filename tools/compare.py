"""Compare the benchmark of two trees in alternating pairs and write a BENCH file.

Each side is exported into its own directory under .bench_work/: the parent
with `git archive REF`, the change with `git archive` of --change or, by
default, the working tree's tracked and untracked (not ignored) files.  For
every workload and seed, pair p runs `benchmarks/run.py --trace 0` once in
each tree, the parent first in even pairs and the change first in odd ones,
so a drift of the host's speed falls on both sides alike.

The `tier1` pseudo-workload runs the Tier-1 command (TIER1) once per pair
in each tree instead, seeds aside, and reports its wall time and its
summary counts by side.  It is reported and never gated: no claim may name
it, since a suite's wall time moves with the tests a change adds as much as
with the code.

Per metric it reports each side's median and quartiles, the pairs each side
won, and a two-sided sign-test p-value over the pairs that did not tie.  It
records whether every run of both sides gave one digest.  It claims nothing
by itself: a metric named with --claim is `met` when the change wins at
least 9 in 10 pairs and its median lies beyond the parent's quartile on the
better side (below q1 for a lower-is-better metric).  Each claim also says
whether the two medians differ by more than the parent's interquartile
range, the stricter reading of the same rule.

Usage: python tools/compare.py --parent REF [--change REF] [--workload W ... [tier1]]
           [--seed S ...] [--pairs N] [--seconds S] [--claim W:METRIC ...]
           [--what TEXT] [--out BENCH.json]

Standard library only; run it from anywhere inside the repository.
"""

import argparse
import importlib.metadata
import io
import json
import math
import os
import platform
import re
import shlex
import shutil
import statistics
import subprocess
import sys
import tarfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
WORKLOADS = ("mc_bulk", "sweep_grid", "cli_session")
# the Tier-1 command, run from a tree's root; the tier1 pseudo-workload times it
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
PROTOCOL = ("alternating parent/change pairs (even pairs parent first, odd pairs change first), each side in "
            "its own directory under .bench_work/; statistics are medians and inclusive quartiles over runs; "
            "a pair is won by the side whose value is better; a claim is met when the change wins at least 9 "
            "of 10 pairs and its median lies beyond the parent's quartile on the better side")


# ----------------------------------------------------------------------
# statistics (pure functions; tests/test_compare.py checks them on fixed inputs)
# ----------------------------------------------------------------------

def quartiles(values):
    """(q1, median, q3) of values by the inclusive method; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def sign_test_p(wins: int, losses: int) -> float:
    """Two-sided sign-test p-value of wins against losses (ties left out)."""
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, k) for k in range(min(wins, losses) + 1)) / 2.0**n
    return min(1.0, 2.0 * tail)


def compare(parent, change, better: str = "lower") -> dict:
    """Paired summary of one metric: parent[i] and change[i] are pair i."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need one parent and one change value per pair")
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    (pq1, pmed, pq3), (cq1, cmed, cq3) = quartiles(parent), quartiles(change)
    return {
        "parent": {"median": pmed, "q1": pq1, "q3": pq3, "n": len(parent)},
        "change": {"median": cmed, "q1": cq1, "q3": cq3, "n": len(change)},
        "better": better,
        "change_better_pairs": wins,
        "change_worse_pairs": losses,
        "sign_test_p": sign_test_p(wins, losses),
        "median_change_pct": 100.0 * (cmed - pmed) / pmed if pmed else None,
        "parent_iqr": pq3 - pq1,
        "parent_values": list(parent),
        "change_values": list(change),
    }


def met(summary: dict) -> bool:
    """Whether the change wins at least 9 in 10 pairs and its median lies
    beyond the parent's quartile on the better side."""
    pairs = summary["parent"]["n"]
    if 10 * summary["change_better_pairs"] < 9 * pairs:
        return False
    if summary["better"] == "lower":
        return summary["change"]["median"] < summary["parent"]["q1"]
    return summary["change"]["median"] > summary["parent"]["q3"]


# ----------------------------------------------------------------------
# trees and runs
# ----------------------------------------------------------------------

def git(*args, **kwargs) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, stdout=subprocess.PIPE, **kwargs).stdout


def export(ref, dest: Path) -> str:
    """Put ref's files (the working tree's when ref is None) into dest; return what was exported."""
    if dest.exists():
        shutil.rmtree(dest)
    dest.mkdir(parents=True)
    if ref is not None:
        with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", ref))) as tar:
            # the "data" filter refuses links and paths that leave dest, where tarfile has it
            tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
        return git("rev-parse", ref).decode().strip()
    for name in git("ls-files", "-z", "--cached", "--others", "--exclude-standard").decode().split("\0"):
        src = ROOT / name
        if name and src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)
    return "working tree on " + git("rev-parse", "HEAD").decode().strip()


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `benchmarks/run.py --trace 0` run in tree: its result line and digest."""
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)  # each tree imports its own src
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
    report = tree / ".bench_out" / f"report-{workload}-seed{seed}-trace0.json"
    digest = json.loads(report.read_text()).get("digest") if report.exists() and result else None
    return {"rc": proc.returncode, "digest": digest, "attempted": result.get("attempted"),
            "failed": result.get("failed"), "correct": result.get("correct"),
            "metrics": {k: v["value"] for k, v in result.get("metrics", {}).items()}}


def tier1_counts(output: str) -> dict:
    """The counts of pytest's last summary line ("684 passed, 1 xfailed in
    10.2s"), e.g. {"passed": 684, "xfailed": 1}; {} when there is none."""
    lines = [line for line in output.splitlines() if re.search(r"\d+ (passed|failed|errors?|skipped)\b", line)]
    if not lines:
        return {}
    counts = {}
    for number, what in re.findall(r"(\d+) ([a-z]+)", lines[-1]):
        counts[{"error": "errors", "warning": "warnings"}.get(what, what)] = int(number)
    return counts


def run_tier1(tree: Path) -> dict:
    """One run of the Tier-1 command in tree: its exit status, wall time and counts."""
    env = dict(os.environ, PYTHONPATH="src")  # each tree imports its own src
    start = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    wall = time.perf_counter() - start
    return {"rc": proc.returncode, "counts": tier1_counts(proc.stdout), "metrics": {"wall_s": wall}}


def tier1_entry(by_side: dict, pairs: int) -> dict:
    """The end-to-end entry of the tier1 pseudo-workload from each side's runs
    in pair order: wall time compared as any metric, and the summary counts
    each side gave, which agree when every run of a side gave the same."""
    counts = {side: [dict(c) for c in {tuple(sorted(r["counts"].items())) for r in rs}]
              for side, rs in by_side.items()}
    return {
        "workload": "tier1", "seed": None, "pairs": pairs, "gated": False,
        "command": shlex.join(["PYTHONPATH=src", "python", *TIER1[1:]]),
        "counts_by_side": counts,
        "counts_agree_within_each_side": all(len(c) == 1 for c in counts.values()),
        "all_runs_ok": all(r["rc"] == 0 for rs in by_side.values() for r in rs),
        "metrics": {"wall_s": compare([r["metrics"]["wall_s"] for r in by_side["parent"]],
                                      [r["metrics"]["wall_s"] for r in by_side["change"]])},
    }


def directions() -> dict:
    """Metric name -> "lower" or "higher", from BENCHMARK.json's end-to-end list."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m.get("better", "lower") for m in spec.get("end_to_end", [])}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="git ref of the parent tree")
    p.add_argument("--change", help="git ref of the change tree (default: the working tree)")
    p.add_argument("--workload", nargs="+", choices=WORKLOADS + ("tier1",), default=["sweep_grid"])
    p.add_argument("--seed", nargs="+", type=int, default=[7])
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=8.0)
    p.add_argument("--claim", nargs="*", default=[], help="WORKLOAD:METRIC pairs to judge as claims")
    p.add_argument("--what", default="", help="one line on the change, copied into the file")
    p.add_argument("--out", type=Path, help="where to write the BENCH file (default: stdout)")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    if any(claim.partition(":")[0] == "tier1" for claim in args.claim):
        p.error("tier1 is reported, not gated: no claim may name it")

    sides = {"parent": WORK / "parent", "change": WORK / "change"}
    revs = {"parent": export(args.parent, sides["parent"]), "change": export(args.change, sides["change"])}
    better = directions()
    runs, end_to_end, claims = [], [], []
    for workload in args.workload:
        for seed in [None] if workload == "tier1" else args.seed:
            by_side = {"parent": [], "change": []}
            for pair in range(args.pairs):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for k, side in enumerate(order):
                    run = (run_tier1(sides[side]) if workload == "tier1"
                           else run_once(sides[side], workload, seed, args.seconds))
                    run.update(workload=workload, seed=seed, pair=pair, order_in_pair=k, side=side)
                    runs.append(run)
                    by_side[side].append(run)
                    print(f"{workload} seed {seed} pair {pair} {side}: rc {run['rc']} {run['metrics']}",
                          file=sys.stderr, flush=True)
            if workload == "tier1":
                end_to_end.append(tier1_entry(by_side, args.pairs))
                continue
            digests = {side: sorted({r["digest"] for r in rs}, key=str) for side, rs in by_side.items()}
            names = sorted(set.intersection(*(set(r["metrics"]) for rs in by_side.values() for r in rs)))
            metrics = {name: compare([r["metrics"][name] for r in by_side["parent"]],
                                     [r["metrics"][name] for r in by_side["change"]], better.get(name, "lower"))
                       for name in names}
            end_to_end.append({
                "workload": workload, "seed": seed, "pairs": args.pairs,
                "digests_agree": len(digests["parent"]) == 1 and digests["parent"] == digests["change"],
                "digest_by_side": digests,
                "failed": sum(r["failed"] or 0 for rs in by_side.values() for r in rs),
                "all_runs_ok": all(r["rc"] == 0 and r["correct"] for rs in by_side.values() for r in rs),
                "metrics": metrics,
            })
            for claim in args.claim:
                claim_workload, _, metric = claim.partition(":")
                if claim_workload == workload and metric in metrics:
                    s = metrics[metric]
                    claims.append({"metric": metric, "workload": workload, "seed": seed,
                                   "change_better_pairs": s["change_better_pairs"], "pairs": args.pairs,
                                   "sign_test_p": s["sign_test_p"], "parent_median": s["parent"]["median"],
                                   "change_median": s["change"]["median"],
                                   "median_change_pct": s["median_change_pct"], "parent_iqr": s["parent_iqr"],
                                   "parent_q1": s["parent"]["q1"], "parent_q3": s["parent"]["q3"], "met": met(s),
                                   "median_gap_exceeds_parent_iqr":
                                       abs(s["change"]["median"] - s["parent"]["median"]) > s["parent_iqr"]})
    bench = {
        "what": args.what,
        "command": shlex.join(["python3", "tools/compare.py", *(argv if argv is not None else sys.argv[1:])]),
        "protocol": PROTOCOL,
        "run_command": f"python3 benchmarks/run.py --workload W --seed S --seconds {args.seconds:g} --trace 0",
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "numpy": importlib.metadata.version("numpy"), "os": platform.system()},
        "git": revs,
        "claim": claims,
        "end_to_end": end_to_end,
        "runs": runs,
    }
    text = json.dumps(bench, indent=1) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())

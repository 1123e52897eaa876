"""handoff-lab benchmark: one workload per run, end to end or traced.

    python3 benchmarks/run.py --workload mc_bulk --seed 1 --seconds 20 --trace 0

Run it from the repository root; nothing needs installing, the package is
imported from src.  Workloads: mc_bulk, sweep_grid, cli_session (see
benchmarks/DESIGN.md for why each exists and what it should show).

With --trace 0 the run makes one untimed warm-up import, sets the workload
up in SETUPS fresh interpreters (setup_s is their median), measures the
last of them for --seconds, and prints every end-to-end metric that applies
to the workload.  With --trace 1 it runs the traced suite instead and prints
the per-layer metrics; spans go to .bench_out/.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics, holding the metrics BENCHMARK.json lists for the mode.
Exit status is 0 when that line was printed and 2 when the run could not be
made (no sources to benchmark, a worker that crashed or ran out of time).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("mc_bulk", "sweep_grid", "cli_session")
SETUPS = 5
# Every process this run starts is killed once the run has taken this long.
RUN_LIMIT_S = 170.0


class RunError(Exception):
    """The benchmark could not produce a result."""


def git_sha() -> str:
    """HEAD's commit, read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = git / name
            if path.exists():
                return path.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def spawn(cmd, env, deadline: float):
    """Run cmd; return (seconds from spawn to its READY line, its last stdout line)."""
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT) as proc:
        watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            ready_s = time.perf_counter() - start
            rest = proc.stdout.read().splitlines()
            code = proc.wait()
        finally:
            watchdog.cancel()
    if ready.strip() != "READY" or code != 0:
        raise RunError(f"{' '.join(cmd[1:4])} ... exited with {code} (READY line: {ready.strip()!r})")
    return ready_s, (rest[-1] if rest else "")


def report_line(name: str, m: dict) -> str:
    line = f"  {name:<50} {m['value']:>16.6g} {m['unit']:<10} {m['better']}"
    if "percentile" in m:
        line += f"  (p{m['percentile']:.1f} of {m['samples']} commands, {m['beyond']} beyond)"
    return line


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    src = ROOT / "src"
    if not (src / "handoff_lab" / "__init__.py").is_file():
        print(f"error: no handoff_lab sources under {src}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    deadline = time.monotonic() + RUN_LIMIT_S
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    env.pop("HANDOFF_LAB_SEED", None)  # the CLI would read it; every seed here is explicit
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir = ROOT / ".bench_out"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work.mkdir(parents=True)
    out_dir.mkdir(exist_ok=True)
    try:
        # untimed: leaves bytecode caches and warm file pages behind
        subprocess.run([sys.executable, "-c", "import handoff_lab.cli"], env=env, cwd=ROOT,
                       check=True, timeout=120)
        worker = [sys.executable, str(ROOT / "benchmarks" / "worker.py"), "--workload", args.workload,
                  "--seed", str(args.seed), "--seconds", str(args.seconds), "--work", str(work)]
        setups = []
        if args.trace:
            worker += ["--trace", "--spans", str(out_dir / f"spans-{tag}.jsonl")]
        else:
            for _ in range(SETUPS - 1):
                setups.append(spawn(worker + ["--setup-only"], env, deadline)[0])
        ready_s, last = spawn(worker, env, deadline)
        setups.append(ready_s)
        result = json.loads(last)
    except (RunError, OSError, subprocess.SubprocessError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = result["metrics"]
    attempted, failed = result["attempted"], result["failed"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s", "better": "lower"}
        metrics["failed_frac"] = {"value": failed / attempted, "unit": "ratio", "better": "lower"}
    result.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  setups_s=setups, git=git_sha())
    (out_dir / f"report-{tag}.json").write_text(json.dumps(result, indent=1) + "\n")

    env_info = " ".join(f"{k}={v}" for k, v in result["env"].items() if k != "handoff_lab_path")
    print(f"handoff-lab benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"  {env_info} git={result['git']}")
    print(f"  rounds={result['rounds']} attempted={attempted} failed={failed} digest={result['digest']}")
    for name in sorted(metrics):
        print(report_line(name, metrics[name]))
    for error in result["errors"]:
        print(f"  failed: {error}")

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 2
    final = {m["name"]: {"value": metrics[m["name"]]["value"], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": final}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

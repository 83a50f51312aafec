"""Benchmark of the ds2aw command line, one fresh process per CLI call.

    python3 perfbench/run.py --workload fg-g2-sweep --seed 1 --seconds 36 --trace 0

Runs whole rounds of the workload's CLI commands in sequence (one client,
closed loop) for about --seconds seconds, checks every round's output
against references computed apart from the program, and prints one JSON
line: {"correct", "attempted", "failed", "metrics"}.  One round is one
operation.  --trace 0 reports the end-to-end metrics; --trace 1 alternates
untraced and traced rounds and reports the per-layer metrics.

The program is taken from src/ in the checkout holding this directory.
"""

from __future__ import annotations

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

import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPS = 9
# A run must end within this many seconds, whatever --seconds says.
RUN_LIMIT_S = 170.0

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}

PER_LAYER = {
    "theta.first_call_s": "s",
    "theta.self_s": "s",
    "theta.points": "count",
    "theta.calls": "count",
    "theta.points_per_s": "1/s",
    "theta.radius_M": "count",
    "fieldgen.grid_s": "s",
    "fieldgen.snapshot_s": "s",
    "fieldgen.params_s": "s",
    "fieldgen.points_per_s": "1/s",
    "fieldgen.overhead_s": "s",
    "refsolver.evolve_s": "s",
    "refsolver.steps": "count",
    "refsolver.step_us": "us",
    "fieldio.write_csv_s": "s",
    "fieldio.read_csv_s": "s",
    "fieldio.write_bin_s": "s",
    "fieldio.read_bin_s": "s",
    "fieldio.bytes_written": "B",
    "curve.build_s": "s",
    "curve.genus": "count",
    "modes.census_s": "s",
    "config.load_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def run_child(argv, cwd: Path, env: dict, timeout: float):
    """Run one command to its end; return its exit code and rusage."""
    with open(cwd / "stderr.txt", "ab") as err:
        proc = subprocess.Popen(argv, cwd=cwd, env=env,
                                stdout=subprocess.DEVNULL, stderr=err)
    killer = threading.Timer(max(timeout, 1.0), proc.kill)
    killer.start()
    try:
        _, status, rusage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, rusage


def run_round(plan, run_dir: Path, env: dict, traced: bool, deadline: float) -> dict:
    """One pass over the workload's commands in a fresh output directory."""
    out = run_dir / "round"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    cpu = rss_kib = 0.0
    code = 0
    spans = []
    start = time.perf_counter()
    for i, argv in enumerate(plan.commands(run_dir)):
        if traced:
            spans.append(out / f"spans_{i}.json")
            cmd = [sys.executable, str(HERE / "tracing.py"), str(spans[-1]), "--", *argv]
        else:
            cmd = [sys.executable, "-m", "ds2aw.cli", *argv]
        code, usage = run_child(cmd, out, env, deadline - time.perf_counter())
        cpu += usage.ru_utime + usage.ru_stime
        rss_kib = max(rss_kib, usage.ru_maxrss)
        if code != 0:
            break
    wall = time.perf_counter() - start
    if code != 0:
        tail = (out / "stderr.txt").read_text(errors="replace")[-2000:]
        return {"wall": wall, "errors": [f"CLI exit {code}: {tail.strip()}"]}
    result = {"wall": wall, "cpu": cpu, "rss_mib": rss_kib / 1024.0,
              "errors": plan.verify(out)}
    if traced:
        per_process = [tracing.process_metrics(json.loads(p.read_text())) for p in spans]
        result["layers"] = tracing.round_metrics(per_process)
    return result


def measure_setup(plan, run_dir: Path, env: dict) -> float:
    """Interpreter start, import of the CLI and its modules, config written."""
    probe = [sys.executable, "-c", "import ds2aw.cli"]
    run_child(probe, run_dir, env, 60.0)  # warm the byte-code and file caches
    samples = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        plan.write_configs(run_dir)
        code, _ = run_child(probe, run_dir, env, 60.0)
        samples.append(time.perf_counter() - start)
        if code != 0:
            raise RuntimeError(f"import ds2aw.cli failed with exit {code}")
    return statistics.median(samples)


def benchmark(args, run_dir: Path) -> dict:
    deadline = time.perf_counter() + RUN_LIMIT_S
    plan = WORKLOADS[args.workload](args.seed)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    setup_s = measure_setup(plan, run_dir, env)

    rounds = []
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        r = run_round(plan, run_dir, env, traced, deadline)
        r["traced"] = traced
        rounds.append(r)
        for msg in r["errors"]:
            print(f"round {len(rounds)}: {msg}", file=sys.stderr)
        walls = [x["wall"] for x in rounds]
        if time.perf_counter() + 2 * max(walls) > deadline:
            break
        # Start another round only if it should end within --seconds.
        if sum(walls) + statistics.median(walls) > args.seconds and not (
            args.trace and len(rounds) < 2
        ):
            break

    print("round wall/cpu s, T = traced: " + " ".join(
        f"{r['wall']:.3f}/{r.get('cpu', 0):.3f}{'T' * r['traced']}" for r in rounds
    ), file=sys.stderr)
    finished = [r for r in rounds if "cpu" in r]  # every command exited 0
    if not finished:
        raise RuntimeError("no round ran its commands to the end")
    doc = {
        "correct": all(not r["errors"] for r in finished),
        "attempted": len(rounds),
        "failed": sum(1 for r in rounds if r["errors"]),
    }
    untraced = [r for r in finished if not r["traced"]]
    traced = [r for r in finished if r["traced"]]
    if not args.trace:
        values = {
            "wall_s": statistics.median(r["wall"] for r in untraced),
            "cpu_s": statistics.median(r["cpu"] for r in untraced),
            "setup_s": setup_s,
            "peak_rss_mib": statistics.median(r["rss_mib"] for r in untraced),
        }
        units = END_TO_END
    else:
        values = {key: statistics.median(r["layers"].get(key, 0.0) for r in traced)
                  for key in PER_LAYER if key != "trace.overhead_s"}
        values["trace.overhead_s"] = (statistics.median(r["wall"] for r in traced)
                                      - statistics.median(r["wall"] for r in untraced))
        units = PER_LAYER
    doc["metrics"] = {k: {"value": float(values[k]), "unit": units[k]} for k in units}
    return doc


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (SRC / "ds2aw" / "cli.py").is_file():
        print(f"no ds2aw sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    run_dir = ROOT / ".perfbench_out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        doc = benchmark(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())

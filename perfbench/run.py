"""graphforecast benchmark: three closed-loop workloads, one caller, no extra threads.

Usage (from the repository root):

  python3 perfbench/run.py --workload predict-pa --seed 1 --seconds 30 --trace 0

Each round runs in a fresh interpreter (perfbench/worker.py), as a
``graphforecast`` CLI invocation does, so the process-wide ARIMA fit cache
and the homophily cache start cold in every round.  Round i of a run uses
the input made from (seed, i).

--trace 0 runs rounds until the next one would end past --seconds (at least
one), then adds set-up-only interpreters until there are SETUP_SAMPLES
set-up times.  It reports the medians of setup_s, wall_s and peak_rss_mb.

--trace 1 runs round 0 twice per pass, once plain and once with spans
around every public graphforecast function, and checks each result
against independent computations.  It reports the per-layer metrics of the
traced round and the tracing overhead (traced minus plain wall time).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# predictions made by one round: a predict, five protocol horizons, a 3x2 grid
OPS_PER_ROUND = {"predict-pa": 1, "protocol-exp2": 5, "sweep-short": 6}
SETUP_SAMPLES = 5
ROUND_TIMEOUT_S = 150


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # one caller and no extra threads
    return env


def run_round(args, rnd: int, trace: int, workdir: Path, setup_only=False, spans=None):
    """Run one worker; returns its result dict with setup_s added, or None if it failed."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--round", str(rnd), "--trace", str(trace),
           "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", str(spans)]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"round {rnd} timed out after {ROUND_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"round {rnd} failed:\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["t_first"] - t_spawn
    result["elapsed_s"] = time.monotonic() - t_spawn
    return result


def measure(args, workdir: Path, state: dict) -> dict:
    start = time.monotonic()
    rounds, setups, rnd = [], [], 0
    while True:
        res = run_round(args, rnd, 0, workdir)
        state["attempted"] += OPS_PER_ROUND[args.workload]
        if res is None:
            state["failed"] += OPS_PER_ROUND[args.workload]
        else:
            rounds.append(res)
            setups.append(res["setup_s"])
            state["problems"] += res["problems"]
        rnd += 1
        typical = statistics.median(r["elapsed_s"] for r in rounds) if rounds else 0.0
        if not rounds or time.monotonic() - start + typical > args.seconds:
            break
    while rounds and len(setups) < SETUP_SAMPLES:
        res = run_round(args, rnd, 0, workdir, setup_only=True)
        if res is None:
            state["problems"].append("a set-up-only interpreter failed")
            break
        setups.append(res["setup_s"])
    if not rounds:
        return {}
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(r["wall_s"] for r in rounds), "s"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in rounds), "MB"),
    }


def measure_traced(args, workdir: Path, state: dict) -> dict:
    start = time.monotonic()
    spans = OUT / f"{args.workload}-seed{args.seed}-spans.jsonl"
    plain, traced = [], []
    while True:
        pair_start = time.monotonic()
        a = run_round(args, 0, 0, workdir)
        b = run_round(args, 0, 1, workdir, spans=spans)
        for res in (a, b):
            state["attempted"] += OPS_PER_ROUND[args.workload]
            if res is None:
                state["failed"] += OPS_PER_ROUND[args.workload]
            else:
                state["problems"] += res["problems"]
        if a is None or b is None:
            break
        plain.append(a)
        traced.append(b)
        if time.monotonic() - start + (time.monotonic() - pair_start) > args.seconds:
            break
    if not traced:
        return {}
    digests = {tuple(r["digests"]) for r in plain + traced}
    if len(digests) != 1:
        state["problems"].append("repetitions on the same input wrote different outputs")
    layers = [r["layers"] for r in traced]
    metrics = {}
    for name in layers[0]:
        values = [l[name] for l in layers]
        if name.endswith("_s"):
            metrics[name] = (statistics.median(values), "s")
            continue
        if len(set(values)) != 1:
            state["problems"].append(f"count {name} differs between traced rounds: {values}")
        metrics[name] = (values[0], "count")
    wall_traced = statistics.median(r["wall_s"] for r in traced)
    wall_plain = statistics.median(r["wall_s"] for r in plain)
    metrics["trace.wall_s"] = (wall_traced, "s")
    metrics["trace.untraced_wall_s"] = (wall_plain, "s")
    metrics["trace.overhead_s"] = (wall_traced - wall_plain, "s")
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(OPS_PER_ROUND))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "graphforecast" / "__init__.py").is_file():
        print(f"graphforecast sources not found under {SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(SRC, quiet=1)  # so no round pays for byte-compiling
    compileall.compile_dir(HERE, quiet=1)

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    state = {"attempted": 0, "failed": 0, "problems": []}
    try:
        if args.trace:
            metrics = measure_traced(args, workdir, state)
        else:
            metrics = measure(args, workdir, state)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in state["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not state["problems"],
        "attempted": state["attempted"],
        "failed": state["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=2) + "\n", encoding="utf-8"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

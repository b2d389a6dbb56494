"""One round of one workload, in a fresh interpreter.

Started by run.py.  It generates the round's input, writes it to a file,
runs the workload's operations through the graphforecast CLI entry point,
checks the outputs, and prints one JSON line:

  t_first   time.monotonic() just before the first call into the program
  wall_s    wall time of the operations (reading the input to writing the output)
  rss_mb    peak resident memory of this process, read before the checks run
  digests   sha256 of every output file
  problems  list of failed checks
  layers    per-layer metrics (only with --trace 1)

With --setup-only it stops after writing the input and prints t_first only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

from graphforecast import cli, datagen

import tracing

# Preferential attachment (PA) with the paper's s=10 edges per new vertex
# and T=15 snapshots, on a smaller graph: a 15-cycle gaining one vertex per
# snapshot, 30 vertices and 165 edges at T.  A paper-scale series (s0=45,
# n_t in 45+5t..45+5t+4, about 121 vertices) takes 19-30 s per cold predict
# on a 2-core host, so a run could time only one; this size fits several
# rounds, each on its own input, in one run.
PA = dict(s=10, s0=15, schedule=(15, 1, 1), length=15)
# A larger, sparser PA graph seen through only 5 snapshots: 3 edges per new
# vertex from a triangle, 20 new vertices per snapshot, 100 vertices.  ARIMA
# has a few cheap cells on 5-point degree series, so the simplex and branch
# and bound do most of the work.
SWEEP = dict(s=3, s0=3, schedule=(0, 20, 1), length=5)
SWEEP_GAMMAS = (0.2, 0.5, 0.8)
SWEEP_US = (0.8, 0.95)  # without u=0.5, whose branch and bound is slow and erratic
# Experiment 2 of the synthetic protocol on the PA family above: one run,
# T=15, horizons 1-5, 5-10 random edges deleted after every growth step.
PROTOCOL_T = 15
PROTOCOL_HORIZONS = (1, 2, 3, 4, 5)
PROTOCOL_DELETE_RANGE = (5, 10)  # evaluate.SYNTH_DELETE_RANGE, not a CLI flag

STREAM = {"predict-pa": 0, "protocol-exp2": 1, "sweep-short": 2}


def seed_sequence(workload: str, seed: int, rnd: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=seed % (1 << 63), spawn_key=(STREAM[workload], rnd))


def generate(workload: str, seed: int, rnd: int):
    spec = PA if workload == "predict-pa" else SWEEP
    cfg = datagen.PaConfig(
        s=spec["s"],
        s0=spec["s0"],
        length=spec["length"],
        schedule=datagen.uniform_band_schedule(*spec["schedule"]),
        seed=seed_sequence(workload, seed, rnd),
    )
    return datagen.pa_sequence(cfg)


def protocol_seed(seed: int, rnd: int) -> int:
    return int(seed_sequence("protocol-exp2", seed, rnd).generate_state(1)[0])


def protocol_series(run_seed: int):
    """The series the protocol generates for its single run, rebuilt for the checks."""
    s, s0, (base, step, width) = PA["s"], PA["s0"], PA["schedule"]
    cfg = datagen.PaConfig(
        s=s,
        s0=s0,
        length=PROTOCOL_T + max(PROTOCOL_HORIZONS),
        schedule=datagen.uniform_band_schedule(base, step, width),
        seed=datagen.run_seed(run_seed, 0, 0),
    )
    return datagen.delete_edges(
        datagen.pa_sequence(cfg), *PROTOCOL_DELETE_RANGE, datagen.run_seed(run_seed, 0, 1)
    )


def write_edgelist(series, path: Path) -> None:
    """``u v t`` lines, t being the first snapshot that holds the edge."""
    lines, prev = [], frozenset()
    for t, g in enumerate(series, start=1):
        lines.extend(f"{u} {v} {t}" for u, v in sorted(g.edges - prev))
        prev = g.edges
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def cli_args(workload: str, inp: Path, out: Path, seed: int, rnd: int) -> list[str]:
    if workload == "predict-pa":
        return ["predict", "--input", str(inp), "--out", str(out),
                "--granularity", "ticks:1", "--horizon", "1"]
    if workload == "sweep-short":
        return ["sweep", "--input", str(inp), "--out", str(out), "--granularity", "ticks:1",
                "--gammas", ",".join(map(str, SWEEP_GAMMAS)), "--us", ",".join(map(str, SWEEP_US))]
    base, step, width = PA["schedule"]
    return ["eval-synth", "--out", str(out), "--experiment", "2", "--runs", "1",
            "--T", str(PROTOCOL_T), "--horizons", ",".join(map(str, PROTOCOL_HORIZONS)),
            "--seed", str(protocol_seed(seed, rnd)), "--s", str(PA["s"]), "--s0", str(PA["s0"]),
            "--base", str(base), "--step", str(step), "--width", str(width)]


def run_checks(workload, series, out, seed, rnd, tracer) -> list[str]:
    import checks

    if workload == "predict-pa":
        problems = checks.output_predict(out, series)
    elif workload == "sweep-short":
        problems = checks.output_sweep(out, series, SWEEP_GAMMAS, SWEEP_US)
    else:
        expected = checks.baseline_errors(
            protocol_series(protocol_seed(seed, rnd)), PROTOCOL_T, PROTOCOL_HORIZONS
        )
        problems = checks.output_protocol(out, expected)
    if tracer is None:
        return problems
    cap = tracer.capture
    expected_predicts = {"predict-pa": 1, "sweep-short": len(SWEEP_GAMMAS) * len(SWEEP_US)}
    if len(cap.predictions) != expected_predicts.get(workload, len(PROTOCOL_HORIZONS)):
        problems.append(f"{len(cap.predictions)} predict calls captured")
    for rec in cap.predictions:
        problems += checks.check_prediction(rec)
    problems += checks.check_homophily(cap.homophily)
    if workload == "protocol-exp2":
        problems += checks.check_reports(cap.reports, expected)
    else:
        problems += checks.check_ingested(cap.ingested, series)
    if workload == "sweep-short":
        problems += checks.check_bounds_monotone(cap.predictions, *SWEEP_US)
    return problems


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(STREAM))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--round", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", help="write the traced round's spans here")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    work = Path(args.workdir)
    inp, out = work / "input.txt", work / "output.txt"
    series = None
    if args.workload != "protocol-exp2":
        series = generate(args.workload, args.seed, args.round)
        write_edgelist(series, inp)
    argv = cli_args(args.workload, inp, out, args.seed, args.round)
    t_first = time.monotonic()
    if args.setup_only:
        print(json.dumps({"t_first": t_first}))
        return 0

    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        rc = cli.main(argv)
        wall = time.perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if rc != 0:
        raise SystemExit(f"graphforecast {argv[0]} exited with {rc}")

    result = {"t_first": t_first, "wall_s": wall, "rss_mb": rss_mb}
    if tracer is not None:
        # before the checks, whose own calls into datagen would add spans
        result["layers"] = tracing.layer_metrics(tracer)
        if args.spans:
            tracer.dump(args.spans)
    result["problems"] = run_checks(args.workload, series, out, args.seed, args.round, tracer)
    outputs = [out, Path(str(out) + ".meta.json")]
    result["digests"] = [hashlib.sha256(p.read_bytes()).hexdigest() for p in outputs]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

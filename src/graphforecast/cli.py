"""Command-line interface.

Subcommands:
  synth      generate a preferential-attachment series as an edge-list file
  predict    one-shot prediction from an edge list, emitted as an edge list
  eval-synth synthetic-protocol evaluation (optionally with edge deletion)
  eval-real  moving-window evaluation of an ingested edge list
  sweep      prediction-distribution dump over a gamma x u grid

Flags may also be supplied through an optional key=value config file
(``--config``); explicit flags win over config values.
"""

from __future__ import annotations

import argparse
import csv
import logging
import sys
from pathlib import Path

from . import evaluate, ingest
from .datagen import PaConfig, delete_edges, pa_sequence, uniform_band_schedule
from .predictor import PredictParams, predict, predict_distribution


def _parse_int_list(text: str) -> list[int]:
    """Accept '1,2,3' or a range '15-24'."""
    text = text.strip()
    if "-" in text and "," not in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",") if part]


def _parse_float_list(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part]


def _load_config(path: str) -> dict[str, str]:
    values = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line without '=': {line!r}")
        key, val = line.split("=", 1)
        values[key.strip().replace("-", "_")] = val.strip()
    return values


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="graphforecast",
        description="Predict the structure of a growing graph series.",
    )
    parser.add_argument("--config", help="key=value file with flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers: dict[str, argparse.ArgumentParser] = {}

    def add_params(p):
        p.add_argument("--gamma", type=float, default=0.5, help="vertex-count quantile")
        p.add_argument("--u", type=float, default=0.8, help="degree/edge bound quantile")
        p.add_argument("--alpha", type=float, default=1e-3, help="new-edge objective weight")
        p.add_argument("--k", type=int, default=10, help="attachment fan-out per new vertex")

    synth = sub.add_parser("synth", help="generate a synthetic edge-list file")
    synth.add_argument("--out", required=True)
    synth.add_argument("--snapshots", type=int, default=20)
    synth.add_argument("--s", type=int, default=evaluate.SYNTH_S)
    synth.add_argument("--s0", type=int, default=evaluate.SYNTH_S0)
    synth.add_argument("--base", type=int, default=evaluate.SYNTH_SCHEDULE[0])
    synth.add_argument("--step", type=int, default=evaluate.SYNTH_SCHEDULE[1])
    synth.add_argument("--width", type=int, default=evaluate.SYNTH_SCHEDULE[2])
    synth.add_argument("--experiment", type=int, choices=(1, 2), default=1)
    synth.add_argument("--delete-min", type=int, default=evaluate.SYNTH_DELETE_RANGE[0])
    synth.add_argument("--delete-max", type=int, default=evaluate.SYNTH_DELETE_RANGE[1])
    synth.add_argument("--seed", type=int, default=0)

    pred = sub.add_parser("predict", help="predict T+h from an edge-list file")
    pred.add_argument("--input", required=True)
    pred.add_argument("--out", required=True)
    pred.add_argument("--granularity", default="ticks:1")
    pred.add_argument("--horizon", type=int, default=1)
    pred.add_argument(
        "--train-window",
        type=int,
        default=0,
        help="train on the last N snapshots only (0 = all available)",
    )
    add_params(pred)

    es = sub.add_parser("eval-synth", help="synthetic-protocol evaluation")
    es.add_argument("--out", required=True)
    es.add_argument("--experiment", type=int, choices=(1, 2), default=1)
    es.add_argument("--runs", type=int, default=10)
    es.add_argument("--T", type=int, default=15)
    es.add_argument("--horizons", type=_parse_int_list, default="1,2,3,4,5")
    es.add_argument("--seed", type=int, default=0)
    es.add_argument("--s", type=int, default=evaluate.SYNTH_S)
    es.add_argument("--s0", type=int, default=evaluate.SYNTH_S0)
    es.add_argument("--base", type=int, default=evaluate.SYNTH_SCHEDULE[0])
    es.add_argument("--step", type=int, default=evaluate.SYNTH_SCHEDULE[1])
    es.add_argument("--width", type=int, default=evaluate.SYNTH_SCHEDULE[2])
    add_params(es)

    er = sub.add_parser("eval-real", help="moving-window evaluation of an edge list")
    er.add_argument("--input", required=True)
    er.add_argument("--out", required=True)
    er.add_argument("--granularity", default="daily")
    er.add_argument("--Ts", type=_parse_int_list, default="15-24")
    er.add_argument("--horizons", type=_parse_int_list, default="1,2,3,4,5")
    er.add_argument("--window", type=int, default=15)
    er.add_argument("--dataset", default="")
    add_params(er)

    sw = sub.add_parser("sweep", help="gamma x u prediction-distribution dump")
    sw.add_argument("--input", required=True)
    sw.add_argument("--out", required=True)
    sw.add_argument("--granularity", default="ticks:1")
    sw.add_argument("--horizon", type=int, default=1)
    sw.add_argument("--gammas", type=_parse_float_list, default="0.2,0.5,0.8")
    sw.add_argument("--us", type=_parse_float_list, default="0.5,0.8,0.95")
    sw.add_argument("--alpha", type=float, default=1e-3)
    sw.add_argument("--k", type=int, default=10)
    sw.add_argument(
        "--train-window", type=int, default=0, help="0 = all available snapshots"
    )

    subparsers.update(
        {"synth": synth, "predict": pred, "eval-synth": es, "eval-real": er, "sweep": sw}
    )
    return parser, subparsers


def _series_from_file(path: str, granularity: str, train_window: int):
    if train_window < 0:
        raise ValueError(f"--train-window must be >= 0, got {train_window}")
    events = ingest.parse_edgelist(path)
    boundaries = ingest.boundary_schedule(events, granularity)
    series = ingest.expanding_windows(events, boundaries)
    if train_window and train_window < len(series):
        series = series.window(len(series) - train_window + 1, len(series))
    return series


def _cmd_synth(args) -> dict:
    cfg = PaConfig(
        s=args.s,
        s0=args.s0,
        length=args.snapshots,
        schedule=uniform_band_schedule(args.base, args.step, args.width),
        seed=args.seed,
    )
    series = pa_sequence(cfg)
    if args.experiment == 2:
        series = delete_edges(series, args.delete_min, args.delete_max, args.seed + 1)
    ingest.dump_edgelist(series, args.out)
    print(f"wrote {len(series)} snapshots to {args.out}")
    return {}


def _cmd_predict(args) -> dict:
    series = _series_from_file(args.input, args.granularity, args.train_window)
    params = PredictParams(args.gamma, args.u, args.alpha, args.k, args.horizon)
    result = predict(series, params)
    marker = len(series) + args.horizon
    ingest.dump_graph(result.graph, args.out, marker)
    print(
        f"predicted snapshot {marker}: {result.graph.vertex_count} vertices, "
        f"{result.graph.edge_count} edges -> {args.out}"
    )
    return {"diagnostics": result.diagnostics}


def _cmd_eval_synth(args) -> dict:
    params = PredictParams(args.gamma, args.u, args.alpha, args.k, 1)
    reports = evaluate.run_synthetic_experiment(
        args.experiment,
        args.runs,
        args.T,
        args.horizons,
        params,
        args.seed,
        s=args.s,
        s0=args.s0,
        schedule=(args.base, args.step, args.width),
    )
    evaluate.write_reports_csv(reports, args.out, "pa-synthetic", str(args.experiment))
    print(f"wrote {2 * len(reports)} result rows to {args.out}")
    return {}


def _cmd_eval_real(args) -> dict:
    series = _series_from_file(args.input, args.granularity, 0)
    params = PredictParams(args.gamma, args.u, args.alpha, args.k, 1)
    reports = evaluate.run_real_experiment(
        series, args.Ts, args.horizons, params, window=args.window
    )
    dataset = args.dataset or Path(args.input).stem
    evaluate.write_reports_csv(reports, args.out, dataset, "real")
    print(f"wrote {2 * len(reports)} result rows to {args.out}")
    return {}


def _cmd_sweep(args) -> dict:
    series = _series_from_file(args.input, args.granularity, args.train_window)
    results = predict_distribution(series, args.gammas, args.us, args.alpha, args.k, args.horizon)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["gamma", "u", "n_hat", "vertex_count", "edge_count"])
        for pg in results:
            writer.writerow(
                [
                    pg.params.gamma,
                    pg.params.u,
                    pg.diagnostics["n_hat"],
                    pg.graph.vertex_count,
                    pg.graph.edge_count,
                ]
            )
    print(f"wrote {len(results)} sweep rows to {args.out}")
    return {}


# flags the sidecar leaves out of its params: seed has its own field
_NOT_PARAMS = ("command", "config", "out", "seed")

_COMMANDS = {
    "synth": _cmd_synth,
    "predict": _cmd_predict,
    "eval-synth": _cmd_eval_synth,
    "eval-real": _cmd_eval_real,
    "sweep": _cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subparsers = _build_parser()
    pre = argparse.ArgumentParser(prog=parser.prog, add_help=False)
    pre.add_argument("--config")
    config_path = pre.parse_known_args(argv)[0].config
    try:
        # config values become parser defaults so explicit flags always win
        if config_path is not None:
            config = _load_config(config_path)
            for sp in subparsers.values():
                typed = {}
                for action in sp._actions:
                    if action.dest in config:
                        raw = config[action.dest]
                        typed[action.dest] = action.type(raw) if action.type else raw
                sp.set_defaults(**typed)
        args = parser.parse_args(argv)
        logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
        extra = _COMMANDS[args.command](args)
        # the sidecar records the parsed flags, plus what the command adds
        params = {k: v for k, v in vars(args).items() if k not in _NOT_PARAMS}
        seed = getattr(args, "seed", None)
        evaluate.write_run_metadata(args.out, args.command, seed, {**params, **extra})
        return 0
    except (ValueError, OSError) as exc:
        # bad input data or config, or a missing file: one line and argparse's usage-error code
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

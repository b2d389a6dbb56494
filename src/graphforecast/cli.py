"""Command-line interface.

Subcommands:
  synth      generate a preferential-attachment series as an edge-list file
  predict    one-shot prediction from an edge list, emitted as an edge list
  eval-synth synthetic-protocol evaluation (optionally with edge deletion)
  eval-real  moving-window evaluation of an ingested edge list
  sweep      prediction-distribution dump over a gamma x u grid

Every flag is declared once, in ``_FLAGS``, with its type, default and help;
--gamma, --u, --alpha, --k and --horizon take their defaults from
``PredictParams()``.  Each ``_COMMANDS`` entry names its handler, help line and
flags; eval-real alone overrides a default (--granularity daily).

Flags may also be supplied through an optional key=value config file
(``--config``); explicit flags win over config values.  A key must name a
flag of some command other than the required --input and --out; one file may
serve several commands, so each command skips the keys it does not take.
"""

from __future__ import annotations

import argparse
import csv
import logging
import sys
from pathlib import Path

from . import evaluate, ingest
from .datagen import PaConfig, pa_sequence, uniform_band_schedule
from .predictor import PredictParams, predict, predict_distribution


def _list_flag(parse):
    """An argparse type: the values parse reads from a list flag's text.

    A bad value, an empty list or a repeat raises ArgumentTypeError, whose
    message ``'<text>': <reason>`` argparse prints as it is.
    """

    def parse_list(text: str) -> list:
        try:
            values = parse(text.strip())
            if not values:
                raise ValueError("empty list")
            if len(set(values)) < len(values):
                raise ValueError("repeated value")
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from None
        return values

    return parse_list


@_list_flag
def _parse_int_list(text: str) -> list[int]:
    """Accept '1,2,3' or a range '15-24'."""
    if "-" in text and "," not in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",") if part]


@_list_flag
def _parse_float_list(text: str) -> list[float]:
    """Accept '0.2,0.5'."""
    return [float(part) for part in text.split(",") if part]


_DEFAULT = PredictParams()

# each flag once, as its add_argument keywords; no flag name contains '_', so
# a config key maps back to its flag by turning '_' into '-'
_FLAGS: dict[str, dict] = {
    "input": dict(required=True, help="edge-list file of 'u v t' lines"),
    "out": dict(required=True, help="output file; <out>.meta.json records the run"),
    "granularity": dict(default="ticks:1", help="snapshot period: daily|weekly|biweekly|ticks:N"),
    "train-window": dict(type=int, default=0, help="train on the last N snapshots (0 = all)"),
    "horizon": dict(type=int, default=_DEFAULT.h, help="forecast horizon h"),
    "gamma": dict(type=float, default=_DEFAULT.gamma, help="vertex-count quantile"),
    "u": dict(type=float, default=_DEFAULT.u, help="degree/edge bound quantile"),
    "alpha": dict(type=float, default=_DEFAULT.alpha, help="new-edge objective weight"),
    "k": dict(type=int, default=_DEFAULT.k, help="attachment fan-out per new vertex"),
    "gammas": dict(type=_parse_float_list, default="0.2,0.5,0.8", help="gamma grid"),
    "us": dict(type=_parse_float_list, default="0.5,0.8,0.95", help="u grid"),
    "horizons": dict(type=_parse_int_list, default="1,2,3,4,5", help="horizons: '1,2' or '1-5'"),
    "Ts": dict(type=_parse_int_list, default="15-24", help="training end points T"),
    "window": dict(type=int, default=15, help="training snapshots per T"),
    "dataset": dict(default="", help="CSV dataset name (default: the input's stem)"),
    "experiment": dict(type=int, choices=(1, 2), default=1, help="2 adds edge deletions"),
    "runs": dict(type=int, default=10, help="generated series to average over"),
    "T": dict(type=int, default=15, help="training snapshots per run"),
    "snapshots": dict(type=int, default=20, help="series length"),
    "s": dict(type=int, default=evaluate.SYNTH_S, help="edges per arriving vertex"),
    "s0": dict(type=int, default=evaluate.SYNTH_S0, help="seed cycle size"),
    "base": dict(type=int, default=evaluate.SYNTH_SCHEDULE[0], help="vertex-target base"),
    "step": dict(type=int, default=evaluate.SYNTH_SCHEDULE[1], help="vertex-target step"),
    "width": dict(type=int, default=evaluate.SYNTH_SCHEDULE[2], help="vertex-target band"),
    "seed": dict(type=int, default=0, help="random seed"),
}


def _load_config(path: str) -> dict:
    """The key=value lines of a config file, each value parsed by its flag's type."""
    values = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line without '=': {line!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        spec = _FLAGS.get(key.replace("_", "-"))
        if spec is None:
            raise ValueError(f"config key {key!r} is not a flag of any command")
        if spec.get("required"):
            # argparse checks required flags on the command line alone
            raise ValueError(f"config key {key!r}: give --{key} on the command line")
        try:
            value = spec.get("type", str)(val)
            if "choices" in spec and value not in spec["choices"]:
                raise ValueError(f"not one of {spec['choices']}")
        except argparse.ArgumentTypeError as exc:  # its message names the value
            raise ValueError(f"config {key}={exc}") from None
        except ValueError as exc:
            raise ValueError(f"config {key}={val!r}: {exc}") from None
        values[key.replace("-", "_")] = value
    return values


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="graphforecast",
        description="Predict the structure of a growing graph series.",
    )
    parser.add_argument("--config", help="key=value file with flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers: dict[str, argparse.ArgumentParser] = {}
    # one add_argument per flag and subcommand: parent parsers would share Action
    # objects, so one command's set_defaults would move every sharer's default
    for name, (_, help_line, flags) in _COMMANDS.items():
        sp = subparsers[name] = sub.add_parser(name, help=help_line)
        for flag in flags.split():
            sp.add_argument(f"--{flag}", **_FLAGS[flag])
    subparsers["eval-real"].set_defaults(granularity="daily")
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
    params = PredictParams(args.gamma, args.u, args.alpha, args.k)
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
    params = PredictParams(args.gamma, args.u, args.alpha, args.k)
    reports = evaluate.run_real_experiment(
        series, args.Ts, args.horizons, params, window=args.window
    )
    dataset = args.dataset or Path(args.input).stem
    evaluate.write_reports_csv(reports, args.out, dataset, "real")
    print(f"wrote {2 * len(reports)} result rows to {args.out}")
    return {}


def _cmd_sweep(args) -> dict:
    series = _series_from_file(args.input, args.granularity, args.train_window)
    base = PredictParams(alpha=args.alpha, k=args.k, h=args.horizon)
    results = predict_distribution(series, args.gammas, args.us, base)
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
    capped = sum(pg.diagnostics["ilp_status"] == "node_cap" for pg in results)
    return {"node_cap_predictions": capped}


# flags the sidecar leaves out of its params: seed has its own field
_NOT_PARAMS = ("command", "config", "out", "seed")

# name -> (handler, help line, flags in help order)
_COMMANDS = {
    "synth": (_cmd_synth, "generate a synthetic edge-list file",
              "out snapshots s s0 base step width seed"),
    "predict": (_cmd_predict, "predict T+h from an edge-list file",
                "input out granularity horizon train-window gamma u alpha k"),
    "eval-synth": (_cmd_eval_synth, "synthetic-protocol evaluation",
                   "out experiment runs T horizons seed s s0 base step width gamma u alpha k"),
    "eval-real": (_cmd_eval_real, "moving-window evaluation of an edge list",
                  "input out granularity Ts horizons window dataset gamma u alpha k"),
    "sweep": (_cmd_sweep, "gamma x u prediction-distribution dump",
              "input out granularity horizon gammas us alpha k train-window"),
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
                sp.set_defaults(**{a.dest: config[a.dest] for a in sp._actions if a.dest in config})
        args = parser.parse_args(argv)
        # refused before the command runs, which on a paper-scale sweep takes minutes
        out_dir = Path(args.out).parent
        if not out_dir.is_dir():
            raise OSError(f"cannot write --out {args.out}: {out_dir} is not a directory")
        logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
        extra = _COMMANDS[args.command][0](args)
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

"""Evaluation metrics and the synthetic / moving-window experiment protocols.

Predictions are scored against the actual future snapshot with absolute
relative errors of the vertex and edge counts, and contrasted with the
"last seen" baseline that reuses the final training snapshot unchanged.
Both protocols score through one loop, ``_evaluate``: a protocol only
yields its windows (training series, full series, T), the synthetic one a
generated series per run and the moving-window one a window per T.  Each
window is predicted at every horizon h, longest first, and scored, with its
baseline, against snapshot T + h, and the errors are averaged over the
windows.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import __version__, datagen
from .datagen import PaConfig, delete_edges, pa_sequence, run_seed, uniform_band_schedule
from .graphs import Graph, GraphSeries
from .predictor import PredictParams, predict

log = logging.getLogger(__name__)

CSV_COLUMNS = [
    "dataset",
    "experiment",
    "h",
    "method",
    "vertex_error",
    "edge_error",
    "reduction_vertex_pct",
    "reduction_edge_pct",
]

# paper-scale defaults for the synthetic protocol
SYNTH_S = 10
SYNTH_S0 = 45
SYNTH_SCHEDULE = (45, 5, 5)  # base, step, width
SYNTH_DELETE_RANGE = (5, 10)


def vertex_error(pred: Graph, actual: Graph) -> float:
    """|n_hat - n| / n."""
    if actual.vertex_count == 0:
        raise ZeroDivisionError("actual graph has no vertices")
    return abs(pred.vertex_count - actual.vertex_count) / actual.vertex_count


def edge_error(pred: Graph, actual: Graph) -> float:
    """|m_hat - m| / m."""
    if actual.edge_count == 0:
        raise ZeroDivisionError("actual graph has no edges")
    return abs(pred.edge_count - actual.edge_count) / actual.edge_count


@dataclass(frozen=True)
class EvalReport:
    """Mean errors for one horizon; reductions are fractions of the baseline."""

    horizon: int
    vertex_error: float
    edge_error: float
    baseline_vertex_error: float
    baseline_edge_error: float
    reduction_vertex: float
    reduction_edge: float


def _reduction(proposed: float, baseline: float) -> float:
    return 1.0 - proposed / baseline if baseline > 0 else 0.0


def _evaluate(
    windows: Iterable[tuple[GraphSeries, GraphSeries, int]],
    horizons: Sequence[int],
    params: PredictParams,
) -> list[EvalReport]:
    """Score every window at every horizon and average the errors per horizon.

    A window is (train, full, T): the prediction from ``train`` at horizon h
    and the last-seen baseline ``train.last`` are both scored against
    ``full.snapshot(T + h)``.  A window's horizons are predicted longest
    first, so each of its count series is forecast once, and the shorter
    horizons take prefixes of that forecast (``forecast_with_fallback``);
    the reports keep the order of ``horizons``.
    """
    longest_first = sorted(range(len(horizons)), key=horizons.__getitem__, reverse=True)
    cells = []  # per window, per horizon: vertex, edge, baseline vertex, baseline edge
    for train, full, T in windows:
        row = [None] * len(horizons)
        for i in longest_first:
            actual = full.snapshot(T + horizons[i])
            predicted = predict(train, replace(params, h=horizons[i])).graph
            row[i] = [err(g, actual) for g in (predicted, train.last)
                      for err in (vertex_error, edge_error)]
        cells.append(row)
    return [
        EvalReport(h, ve, ee, bve, bee, _reduction(ve, bve), _reduction(ee, bee))
        for h, (ve, ee, bve, bee) in zip(horizons, np.mean(cells, axis=0).tolist())
    ]


def run_synthetic_experiment(
    experiment: int,
    runs: int,
    T: int,
    horizons: Sequence[int],
    params: PredictParams,
    seed: int,
    s: int = SYNTH_S,
    s0: int = SYNTH_S0,
    schedule: tuple[int, int, int] = SYNTH_SCHEDULE,
) -> list[EvalReport]:
    """Preferential-attachment protocol: train on the first T snapshots of each
    generated series, predict every horizon, and average errors over runs.

    Experiment 2 additionally deletes SYNTH_DELETE_RANGE random edges after
    each growth step.
    """
    if experiment not in (1, 2):
        raise ValueError("experiment must be 1 or 2")
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    if not horizons:
        raise ValueError("horizons must be non-empty")

    def windows():
        for run in range(runs):
            cfg = PaConfig(
                s=s,
                s0=s0,
                length=T + max(horizons),
                schedule=uniform_band_schedule(*schedule),
                seed=run_seed(seed, run, 0),
            )
            series = pa_sequence(cfg)
            if experiment == 2:
                series = delete_edges(series, *SYNTH_DELETE_RANGE, run_seed(seed, run, 1))
            yield series.window(1, T), series, T
            # resumed once _evaluate has scored this run
            log.debug("synthetic run %d/%d scored", run + 1, runs)

    return _evaluate(windows(), horizons, params)


def run_real_experiment(
    series: GraphSeries,
    Ts: Sequence[int],
    horizons: Sequence[int],
    params: PredictParams,
    window: int = 15,
) -> list[EvalReport]:
    """Moving-window protocol: for each T train on the `window` snapshots
    ending at T, predict every horizon, and average errors over T."""
    for name, values in (("Ts", Ts), ("horizons", horizons)):
        if not values:
            raise ValueError(f"{name} must be non-empty")
    if max(Ts) + max(horizons) > len(series):
        raise ValueError(
            f"series has {len(series)} snapshots; need {max(Ts) + max(horizons)}"
        )
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if min(Ts) < window:
        raise ValueError(f"T={min(Ts)} leaves no room for a window of {window}")
    return _evaluate(
        ((series.window(T - window + 1, T), series, T) for T in Ts), horizons, params
    )


def write_reports_csv(
    reports: Sequence[EvalReport], path: str | Path, dataset: str, experiment: str
) -> None:
    """Fixed-schema CSV mirroring the result tables, two rows per horizon."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in reports:
            writer.writerow(
                [
                    dataset,
                    experiment,
                    r.horizon,
                    "last_seen",
                    f"{r.baseline_vertex_error:.6f}",
                    f"{r.baseline_edge_error:.6f}",
                    "",
                    "",
                ]
            )
            writer.writerow(
                [
                    dataset,
                    experiment,
                    r.horizon,
                    "proposed",
                    f"{r.vertex_error:.6f}",
                    f"{r.edge_error:.6f}",
                    f"{100 * r.reduction_vertex:.3f}",
                    f"{100 * r.reduction_edge:.3f}",
                ]
            )


def write_run_metadata(out_path: str | Path, command: str, seed, params: dict) -> None:
    """Reproducibility sidecar written next to every output file."""
    meta = {
        "command": command,
        "seed": seed,
        "rng_algorithm": datagen.RNG_ALGORITHM,
        "params": params,
        "version": __version__,
    }
    Path(str(out_path) + ".meta.json").write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

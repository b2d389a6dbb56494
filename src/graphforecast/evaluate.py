"""Evaluation metrics and the synthetic / moving-window experiment protocols.

Predictions are scored against the actual future snapshot with absolute
relative errors of the vertex and edge counts, and contrasted with the
"last seen" baseline that reuses the final training snapshot unchanged.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

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


def _aggregate(
    horizons: Sequence[int],
    cells: dict[int, list[tuple[float, float, float, float]]],
) -> list[EvalReport]:
    reports = []
    for h in horizons:
        arr = np.array(cells[h])
        ve, ee, bve, bee = arr.mean(axis=0)
        reports.append(
            EvalReport(
                horizon=h,
                vertex_error=float(ve),
                edge_error=float(ee),
                baseline_vertex_error=float(bve),
                baseline_edge_error=float(bee),
                reduction_vertex=_reduction(float(ve), float(bve)),
                reduction_edge=_reduction(float(ee), float(bee)),
            )
        )
    return reports


def _score(
    train: GraphSeries, full: GraphSeries, T: int, h: int, params: PredictParams
) -> tuple[float, float, float, float]:
    actual = full.snapshot(T + h)
    baseline = train.last
    predicted = predict(train, replace(params, h=h))
    return (
        vertex_error(predicted.graph, actual),
        edge_error(predicted.graph, actual),
        vertex_error(baseline, actual),
        edge_error(baseline, actual),
    )


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
    delete_range: tuple[int, int] = SYNTH_DELETE_RANGE,
) -> list[EvalReport]:
    """Preferential-attachment protocol: train on the first T snapshots of each
    generated series, predict every horizon, and average errors over runs.

    Experiment 2 additionally deletes a random handful of edges after each
    growth step.
    """
    if experiment not in (1, 2):
        raise ValueError("experiment must be 1 or 2")
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    if not horizons:
        raise ValueError("horizons must be non-empty")
    length = T + max(horizons)
    cells: dict[int, list] = {h: [] for h in horizons}
    for run in range(runs):
        cfg = PaConfig(
            s=s,
            s0=s0,
            length=length,
            schedule=uniform_band_schedule(*schedule),
            seed=run_seed(seed, run, 0),
        )
        series = pa_sequence(cfg)
        if experiment == 2:
            series = delete_edges(
                series, delete_range[0], delete_range[1], run_seed(seed, run, 1)
            )
        train = series.window(1, T)
        for h in horizons:
            cells[h].append(_score(train, series, T, h, params))
        log.debug("synthetic run %d/%d scored", run + 1, runs)
    return _aggregate(horizons, cells)


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
    cells: dict[int, list] = {h: [] for h in horizons}
    for T in Ts:
        train = series.window(T - window + 1, T)
        for h in horizons:
            cells[h].append(_score(train, series, T, h, params))
    return _aggregate(horizons, cells)


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

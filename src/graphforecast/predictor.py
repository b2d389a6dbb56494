"""End-to-end prediction: series -> candidates -> constraints -> selection.

A prediction is a subgraph of the hypothetical candidate graph chosen by the
exact binary solver; its vertex set is the union of the last snapshot's
vertices and the forecast new vertices (kept even when they attract no
edges, since the vertex count is a first-class forecast).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from . import constraints, solver
from .candidates import Provenance, build_hypothetical
from .graphs import Graph, GraphSeries

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PredictParams:
    """Knobs of the prediction distribution and the candidate construction."""

    gamma: float = 0.5  # quantile for the vertex-count forecast
    u: float = 0.8  # quantile for degree and total-edge bounds
    alpha: float = 1e-3  # objective weight of candidate new edges
    k: int = 10  # attachment fan-out per new vertex
    h: int = 1  # forecast horizon

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie strictly between 0 and 1")
        if not 0.0 < self.u < 1.0:
            raise ValueError("u must lie strictly between 0 and 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie strictly between 0 and 1")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.h < 1:
            raise ValueError("h must be >= 1")


@dataclass(frozen=True)
class PredictedGraph:
    graph: Graph
    params: PredictParams
    horizon_origin: int  # T, the index of the last training snapshot
    diagnostics: dict = field(default_factory=dict)


def predict(
    series: GraphSeries, params: PredictParams, *, model: solver.LpModel | None = None
) -> PredictedGraph:
    """Predict the snapshot at T + params.h from a training series of length T.

    The LPs are solved on ``model``; by default a new one, so a lone
    prediction is a cold solve that depends on no earlier one.  When
    ``model`` already searched this system at these floored bounds, the
    prediction takes that search's selection, and ``nodes_explored``,
    ``simplex_iterations`` and ``lp_iteration_limit_nodes`` describe that
    one search.
    """
    if len(series) < 4:
        raise ValueError(f"prediction needs at least 4 snapshots, got {len(series)}")
    H = build_hypothetical(series, params.h, params.gamma, params.k)
    cs = constraints.assemble(series, H, params.h, params.u, params.alpha)
    ilp = solver.solve_ilp(cs, model)
    if ilp.status == "node_cap":
        log.warning(
            "prediction at gamma=%g, u=%g, h=%d stopped at the branch-and-bound node cap "
            "(%d nodes): its edge set is the best found, not a proven optimum",
            params.gamma, params.u, params.h, ilp.nodes_explored,
        )
    edges = [H.candidates[j].pair for j in np.flatnonzero(ilp.values)]
    root = ilp.root  # the B&B root relaxation, solve_lp's
    return PredictedGraph(
        graph=Graph(H.vertex_order, edges),
        params=params,
        horizon_origin=len(series),
        diagnostics={
            "lp_objective": root.objective,
            "ilp_objective": ilp.objective,
            "candidate_count": cs.n_cols,
            "candidates_by_provenance": {
                p.value: n for p, n in zip(Provenance, H.provenance_counts)
            },
            "n_hat": H.n_hat,
            "nodes_explored": ilp.nodes_explored,
            "ilp_status": ilp.status,
            "forced_columns": int(root.forced.sum()),
            "simplex_iterations": ilp.simplex_iterations,
            "lp_iteration_limit_nodes": ilp.lp_iteration_limit_nodes,
            "degree_bound_total": float(root.bounds[:-1].sum()) / 2,
            "edge_bound": float(root.bounds[-1]),
        },
    )


def predict_distribution(
    series: GraphSeries,
    gammas: list[float],
    us: list[float],
    base: PredictParams = PredictParams(),
) -> list[PredictedGraph]:
    """Predictions for every (gamma, u) pair, in row-major order over the grid.

    Each cell is ``base`` with its gamma and u replaced, and runs ``predict``.
    The cells share what does not depend on their own (gamma, u): each count
    series' forecasts (``forecast_with_fallback``), each degree series built
    once, and the gammas that forecast the same vertex count get one
    candidate graph with its row layout, endpoint rows and existing-edge mask
    (``build_hypothetical``).  A cell computes only its bounds and its
    solve.  The cells also share one LP model: the u
    cells of a gamma have the same candidate columns (so do the gammas that
    forecast the same vertex count), so each of their root LPs starts from
    the previous cell's last basis and only bounds change; a cell with other
    columns rebuilds the model and solves cold.  A cell whose system equals
    an earlier one's at the same floored bounds is not solved again: the
    model returns the stored search, so the cell gets that cell's edge set
    and solver diagnostics.  With equal vertex-count forecasts across the
    gammas, each u is searched once.
    """
    if not gammas or not us:
        raise ValueError("gammas and us must be non-empty")
    model = solver.LpModel()
    return [
        predict(series, replace(base, gamma=g, u=u), model=model) for g in gammas for u in us
    ]

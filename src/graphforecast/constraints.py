"""Assembly of the edge-selection constraint system.

The system bounds the degree of every vertex of the hypothetical graph from
above by the u bound of its degree series (existing vertices) or by the
historical mean degree of newly arriving vertices (hypothetical vertices),
and bounds the total number of selected edges by the u bound of the edge-count
series; every forecast bound is ``timeseries.upper_bound``.  Rows follow
``HypotheticalGraph.vertex_order`` and columns follow its candidate list.  The
matrix is the incidence matrix of the candidate graph with an all-ones row
appended for the total-edge constraint; the candidate graph's endpoint rows
are its only stored form.

Only the bounds depend on a sweep cell's u.  The row layout, the endpoint
rows and the existing-edge mask come from the candidate graph, which builds
each once; every degree series is built once per training series, and its
forecasts are kept as ``timeseries.forecast_with_fallback`` keeps them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import timeseries
from .candidates import HypotheticalGraph
from .graphs import GraphSeries, degree_series, edge_count_series, new_vertex_degree_pool


@dataclass(frozen=True)
class ConstraintSystem:
    """max objective . x  subject to  0 <= Mx <= upper_bounds, x binary.

    M has one row per vertex (two 1-entries per column) plus a final all-ones
    row; column j corresponds to the hypothetical graph's candidates[j].  M is
    never formed: endpoint_rows determines it, activity applies it, and
    columns gives it in HiGHS's compressed-column form.
    """

    row_vertices: tuple[int, ...]
    endpoint_rows: np.ndarray  # (cols, 2) row indices of each candidate's endpoints
    upper_bounds: np.ndarray  # (rows,) with rows = len(row_vertices) + 1
    objective: np.ndarray  # (cols,)

    @property
    def n_rows(self) -> int:
        return len(self.upper_bounds)

    @property
    def n_cols(self) -> int:
        return len(self.objective)

    def activity(self, x: np.ndarray) -> np.ndarray:
        """M @ x: each row's sum of x over its columns, added in column order."""
        out = np.bincount(
            self.endpoint_rows.ravel(), weights=np.repeat(x, 2), minlength=self.n_rows
        )
        # the total row adds in column order too, which x.sum() does not
        out[-1] = np.add.accumulate(x, dtype=float)[-1] if self.n_cols else 0.0
        return out

    def columns(self) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
        """M in compressed-column form: entry count, column starts, rows, values.

        A column's rows are its two endpoint rows, sorted, then the total row.
        """
        n = self.n_cols
        rows = np.column_stack([np.sort(self.endpoint_rows, axis=1), np.full(n, self.n_rows - 1)])
        starts = np.arange(0, 3 * n, 3, dtype=np.int32)
        return 3 * n, starts, rows.ravel().astype(np.int32), np.ones(3 * n)

    def validate(self) -> None:
        rows, cols = self.n_rows, self.n_cols
        if rows != len(self.row_vertices) + 1:
            raise ValueError("row count must be vertex rows plus the total-edge row")
        if self.endpoint_rows.shape != (cols, 2):
            raise ValueError("endpoint_rows shape mismatch")
        if cols and (self.endpoint_rows.min() < 0 or self.endpoint_rows.max() >= rows - 1):
            raise ValueError("endpoint rows must index vertex rows only")
        if cols and (self.endpoint_rows[:, 0] == self.endpoint_rows[:, 1]).any():
            raise ValueError("a column must touch two distinct vertex rows")
        if cols and self.objective.min() < 0:
            raise ValueError("objective coefficients must be non-negative")
        if self.upper_bounds.min() < 0:
            raise ValueError("upper bounds must be non-negative")


def degree_bounds(
    series: GraphSeries, H: HypotheticalGraph, h: int, u: float
) -> np.ndarray:
    """Per-vertex degree upper bounds in the row layout ``H.vertex_order``.

    Existing vertices get the u bound of their degree series; hypothetical
    vertices get the mean arrival degree of past new vertices.
    """
    if not 0.0 < u < 1.0:
        raise ValueError("quantile level u must lie strictly between 0 and 1")
    pool_mean = 0.0
    if H.new_vertex_count and len(series) >= 2:
        _, pool_mean = new_vertex_degree_pool(series, len(series))
    return np.array(
        [
            timeseries.upper_bound(degree_series(series, v), h, u)
            if v in H.base.vertices
            else pool_mean
            for v in H.vertex_order
        ],
        dtype=float,
    )


def total_edge_bound(series: GraphSeries, h: int, u: float) -> float:
    """The u bound of the edge-count series at T+h."""
    return timeseries.upper_bound(edge_count_series(series), h, u)


def objective_coeffs(H: HypotheticalGraph, alpha: float) -> np.ndarray:
    """Weight 1 for edges already present, alpha for candidate new edges."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    return np.where(H.existing_mask, 1.0, alpha)


def assemble(
    series: GraphSeries, H: HypotheticalGraph, h: int, u: float, alpha: float
) -> ConstraintSystem:
    """Build the full constraint system for the hypothetical graph.

    The system shares H's read-only row layout and endpoint rows.
    """
    upper = np.concatenate(
        [degree_bounds(series, H, h, u), [total_edge_bound(series, h, u)]]
    )
    cs = ConstraintSystem(
        row_vertices=H.vertex_order,
        endpoint_rows=H.endpoint_rows,
        upper_bounds=upper,
        objective=objective_coeffs(H, alpha),
    )
    cs.validate()
    return cs

"""Assembly of the edge-selection constraint system.

The system bounds the degree of every vertex of the hypothetical graph from
above by the u bound of its degree series (existing vertices) or by the
historical mean degree of newly arriving vertices (hypothetical vertices),
and bounds the total number of selected edges by the u bound of the edge-count
series; every forecast bound is ``timeseries.upper_bound``.  Rows follow
``HypotheticalGraph.vertex_order`` and columns follow its candidate list.  The
matrix is the incidence matrix of the candidate graph with an all-ones row
appended for the total-edge constraint.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse

from . import timeseries
from .candidates import HypotheticalGraph, Provenance
from .graphs import GraphSeries, degree_series, edge_count_series, new_vertex_degree_pool


@dataclass(frozen=True)
class ConstraintSystem:
    """max objective . x  subject to  0 <= Mx <= upper_bounds, x binary.

    M has one row per vertex (two 1-entries per column) plus a final all-ones
    row; column j corresponds to the hypothetical graph's candidates[j].
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

    def matrix(self) -> sparse.csc_array:
        """M as a sparse (rows, cols) array, the all-ones row included.

        Built once per system; the root LP, its model and branch and bound share it.
        """
        return self._matrix

    @cached_property
    def _matrix(self) -> sparse.csc_array:
        C = self.n_cols
        rows = np.column_stack(
            [np.sort(self.endpoint_rows, axis=1), np.full(C, self.n_rows - 1)]
        )
        return sparse.csc_array(
            (np.ones(3 * C), rows.ravel(), np.arange(0, 3 * C + 1, 3)),
            shape=(self.n_rows, C),
        )

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
    return np.array(
        [1.0 if c.provenance is Provenance.EXISTING else alpha for c in H.candidates]
    )


def assemble(
    series: GraphSeries, H: HypotheticalGraph, h: int, u: float, alpha: float
) -> ConstraintSystem:
    """Build the full constraint system for the hypothetical graph."""
    order = H.vertex_order
    row_of = {v: r for r, v in enumerate(order)}
    endpoint_rows = np.array(
        [[row_of[c.u], row_of[c.v]] for c in H.candidates], dtype=np.int64
    ).reshape(len(H.candidates), 2)
    upper = np.concatenate(
        [degree_bounds(series, H, h, u), [total_edge_bound(series, h, u)]]
    )
    cs = ConstraintSystem(
        row_vertices=order,
        endpoint_rows=endpoint_rows,
        upper_bounds=upper,
        objective=objective_coeffs(H, alpha),
    )
    cs.validate()
    return cs

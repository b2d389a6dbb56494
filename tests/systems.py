"""Edge-selection systems for the tests, and the exhaustive oracle that solves them.

Not a test module: pytest collects only ``test_*.py``, and the test modules
import from here.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from graphforecast.constraints import ConstraintSystem
from graphforecast.solver import selection_objective

CHUNK = 1 << 16  # subsets per vectorised step of exhaustive


def make_system(endpoints, bounds, coeffs, n_vertices=None):
    endpoints = np.asarray(endpoints, dtype=np.int64).reshape(-1, 2)
    nv = n_vertices if n_vertices is not None else len(bounds) - 1
    return ConstraintSystem(
        row_vertices=tuple(range(nv)),
        endpoint_rows=endpoints,
        upper_bounds=np.asarray(bounds, dtype=float),
        objective=np.asarray(coeffs, dtype=float),
    )


def random_system(rng):
    """2-6 vertices, 1-12 columns of weight 1 or 1e-3, real bounds in [0, 4)."""
    nv = int(rng.integers(2, 7))
    C = int(rng.integers(1, 13))
    ea = rng.integers(0, nv, C)
    eb = (ea + 1 + rng.integers(0, nv - 1, C)) % nv
    return make_system(
        np.column_stack([np.minimum(ea, eb), np.maximum(ea, eb)]),
        rng.uniform(0, 4, nv + 1),
        rng.choice([1.0, 1e-3], C),
        n_vertices=nv,
    )


def incidence(cs):
    """M as a scipy.sparse CSC array, from endpoint_rows alone.

    Each column's rows ascend: its two endpoint rows, sorted, then the total row.
    """
    C = cs.n_cols
    rows = np.column_stack([np.sort(cs.endpoint_rows, axis=1), np.full(C, cs.n_rows - 1)])
    return sparse.csc_array(
        (np.ones(3 * C), rows.ravel(), np.arange(0, 3 * C + 1, 3)), shape=(cs.n_rows, C)
    )


def floored(cs):
    """Row bounds as integer activities see them: activity <= ub + 1e-6 iff <= this."""
    return np.floor(cs.upper_bounds + 1e-6)


@dataclass(frozen=True)
class Optima:
    objective: float  # selection_objective of first, as solve_ilp reports its own
    first: np.ndarray  # the optimum of smallest mask, 0/1 ints per column
    selections: np.ndarray  # (n, cols) bool: every subset within 1e-9 of the best, by mask


def exhaustive(cs):
    """The optima among all 2**cols subsets at the floored bounds, by ascending mask.

    Bit j of a mask is column j.  Subsets are ranked by their summed weight;
    the reported objective is selection_objective's, so it equals solve_ilp's
    bit for bit when both find a selection of the same weights.
    """
    C = cs.n_cols
    dense = incidence(cs).toarray()
    f = floored(cs)
    c = cs.objective.astype(float)
    bit_cols = np.arange(C, dtype=np.uint32)
    kept, scores = [], []
    for start in range(0, 1 << C, CHUNK):
        masks = np.arange(start, min(start + CHUNK, 1 << C), dtype=np.uint32)
        bits = ((masks[:, None] >> bit_cols) & 1).astype(bool)
        bits = bits[(bits @ dense.T <= f).all(axis=1)]
        objs = bits @ c
        near = objs >= objs.max(initial=-np.inf) - 1e-9
        kept.append(bits[near])
        scores.append(objs[near])
    bits, objs = np.concatenate(kept), np.concatenate(scores)
    optima = bits[objs >= objs.max() - 1e-9]  # the empty subset is always feasible
    return Optima(
        objective=selection_objective(c, optima[0]),
        first=optima[0].astype(np.int64),
        selections=optima,
    )

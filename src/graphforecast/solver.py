"""Exact solvers for the edge-selection program.

The problem is  max c.x  subject to  0 <= Mx <= f  and binary x, where every
column of M has exactly two 1-entries among the vertex rows plus a 1 in the
final all-ones row.  Binary activities are integers, so every solver accepts
Mx <= f + FEAS_TOL, and solve_lp and solve_ilp work on floor(f + FEAS_TOL).
Before the root LP, _forced fixes at 1 the top-weight columns that a
dominance argument on the b-matching rows shows to be 1 in every LP and
binary optimum (for the 1-versus-alpha weights: the existing edges at
vertices whose bound admits all their existing edges).

An LpModel is one HiGHS model of a system's relaxation, driven through
scipy's bundled binding with the settings of linprog's "highs-ds": presolve,
then the serial dual simplex, which ends on a basic solution.  Fixings are
column bounds: a column fixed at 1 gets lower bound 1, one fixed at 0 upper
bound 0, and a column no binary selection can take stays out of the model
(at 0) until a later solve lets it be nonzero.  solve_lp solves the root
relaxation from the _forced fixings; solve_ilp runs depth-first branch and
bound from them on the same model, its root node is solve_lp's solution, so a
prediction solves the root LP once, and every further node changes only
column bounds and restarts the dual simplex from its parent's basis.  A model
handed a system with the same rows, columns and weights keeps its basis, so
that system's root LP starts from the last optimum: predict_distribution
shares one across its cells, and the u cells of a gamma differ only in their
bounds.  brute_force enumerates every subset of the unreduced system for
verification.

Because M is non-negative and the lower row bounds are zero, x = 0 is always
feasible, so neither solver can fail on feasibility.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

try:
    from scipy.optimize._highspy._core import HighsModelStatus, _Highs, kHighsInf
except ImportError:
    raise ImportError(
        "graphforecast.solver needs scipy >= 1.17 for its HiGHS binding "
        "(scipy.optimize._highspy._core)"
    ) from None

from .constraints import ConstraintSystem

FEAS_TOL = 1e-6
INT_TOL = 1e-6
PRUNE_TOL = 1e-7
NODE_CAP = 1_000_000


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    ITERATION_LIMIT = "iteration_limit"


@dataclass(frozen=True)
class LpSolution:
    values: np.ndarray
    objective: float
    status: LpStatus
    iterations: int  # HiGHS's simplex iterations


@dataclass(frozen=True)
class IlpSolution:
    values: np.ndarray  # 0/1 ints per candidate column
    objective: float
    nodes_explored: int
    lp_objective: float  # the LP relaxation's optimum, an upper bound on objective
    status: str  # "optimal", or "node_cap": the best selection found within NODE_CAP nodes
    forced_columns: int  # columns fixed at 1 before the root LP (_forced)
    simplex_iterations: int  # summed over the root and every node LP
    lp_iteration_limit_nodes: int  # nodes whose LP stopped at HiGHS's iteration limit


def selection_objective(c: np.ndarray, mask: np.ndarray) -> float:
    """Objective of a binary selection, summed in value order.

    Sorting before summing makes the float result depend only on the multiset
    of selected coefficients, so equal-value selections found by different
    code paths report bit-identical objectives.
    """
    return float(np.sort(c[mask]).sum())


# linprog(method="highs-ds")'s settings: presolve on, then the serial dual simplex
_HIGHS_OPTIONS = {"output_flag": False, "presolve": "on", "solver": "simplex", "simplex_strategy": 1}


class LpModel:
    """One HiGHS model of a system's LP relaxation, re-solved as its bounds change.

    The model holds the columns some solve has let be nonzero; the others
    stay at 0 without being passed to HiGHS.  A solve on the system already
    loaded changes only bounds, adds the columns it newly lets be nonzero
    (nonbasic at their lower bound), and starts from the basis the model
    holds: the last solve's, or one put back with restore.  A new model, or a
    system with other rows, columns or weights, is solved cold.
    """

    def __init__(self):
        self._highs = self._system = None
        self._held = self._rows = self._lower = self._upper = None

    def _load(self, cs: ConstraintSystem, f: np.ndarray) -> None:
        """A new model with cs's rows, bounded by f, and no columns yet."""
        self._highs = _Highs()
        for name, value in _HIGHS_OPTIONS.items():
            self._highs.setOptionValue(name, value)
        empty = np.zeros(cs.n_rows, dtype=np.int32)
        self._highs.addRows(cs.n_rows, np.full(cs.n_rows, -kHighsInf), f, 0, empty, empty, empty)
        self._system = cs  # only its rows, columns and weights count
        self._held = np.zeros(0, dtype=np.int64)  # its columns in the model, in model order
        self._rows, self._lower, self._upper = f, np.zeros(0), np.zeros(0)  # what HiGHS holds

    def solve(
        self, cs: ConstraintSystem, f: np.ndarray, lower: np.ndarray, upper: np.ndarray
    ) -> tuple[np.ndarray, LpStatus, int]:
        """Maximise c.x over Mx <= f and lower <= x <= upper (0/1 masks).

        Returns x, its status and HiGHS's simplex iterations.  With no column
        free, x is ``lower`` without a solve; at the iteration limit x is
        ``lower`` too.  Any other non-optimal HiGHS status raises RuntimeError.
        """
        lower, upper = lower.astype(float), upper.astype(float)
        if (lower == upper).all():
            return lower, LpStatus.OPTIMAL, 0
        loaded = self._system
        if not (
            loaded is not None
            and loaded.n_rows == cs.n_rows
            and np.array_equal(loaded.endpoint_rows, cs.endpoint_rows)
            and np.array_equal(loaded.objective, cs.objective)
        ):
            self._load(cs, f)
        for r in np.flatnonzero(f != self._rows):
            self._highs.changeRowBounds(int(r), -kHighsInf, float(f[r]))
        held = self._held
        lo, up = lower[held], upper[held]
        changed = np.flatnonzero((lo != self._lower) | (up != self._upper))
        if changed.size:
            self._highs.changeColsBounds(changed.size, changed.astype(np.int32), lo[changed], up[changed])
        added = np.setdiff1d(np.flatnonzero(upper), held)
        if added.size:
            A = cs.matrix()[:, added]
            self._highs.addCols(
                added.size, -cs.objective[added].astype(float), lower[added], upper[added],
                A.nnz, A.indptr[:-1].astype(np.int32), A.indices.astype(np.int32), A.data,
            )  # HiGHS minimises
            held = self._held = np.concatenate([held, added])
        self._rows, self._lower, self._upper = f, lower[held], upper[held]

        self._highs.run()
        status = self._highs.getModelStatus()
        iterations = int(self._highs.getInfo().simplex_iteration_count)
        if status == HighsModelStatus.kIterationLimit:
            return lower, LpStatus.ITERATION_LIMIT, iterations
        if status != HighsModelStatus.kOptimal:
            raise RuntimeError(
                f"HiGHS could not solve the LP: {self._highs.modelStatusToString(status)}"
            )
        x = lower.copy()
        x[held] = np.clip(self._highs.getSolution().col_value, 0.0, 1.0)
        fixed = lower == upper
        x[fixed] = lower[fixed]  # exactly, where HiGHS may be off by a rounding error
        return x, LpStatus.OPTIMAL, iterations

    def basis(self):
        """HiGHS's current basis, for restore."""
        return self._highs.getBasis()

    def restore(self, basis) -> None:
        """Start the next solve from ``basis``, one this model returned."""
        self._highs.setBasis(basis)


def _floored_bounds(cs: ConstraintSystem) -> np.ndarray:
    """Row bounds as binary selections see them: activities are integers."""
    return np.floor(cs.upper_bounds.astype(float) + FEAS_TOL)


def _selectable(cs: ConstraintSystem, cap: np.ndarray) -> np.ndarray:
    """Columns whose tightest row capacity admits them; the rest are 0 in every selection."""
    e = cs.endpoint_rows
    colcap = np.minimum(np.minimum(cap[e[:, 0]], cap[e[:, 1]]), cap[-1])
    return colcap >= 1.0 - INT_TOL


def _forced(cs: ConstraintSystem, f: np.ndarray) -> np.ndarray:
    """Columns that are 1 in every optimum of the LP and of the binary program.

    Let W be the top weight.  When every other weight is below W/2 and the
    floored total-edge bound f[-1] admits all W-weight columns, a W-weight
    column whose two endpoint rows each admit all their W-weight columns is
    1 in every optimum: where it is below 1 by d, each tight row it touches,
    the total-edge row included, carries at least d of lighter columns, so
    raising it by d and taking d of lighter columns off each tight endpoint
    row (or off the total row when only it is tight) gains at least
    d * (W - 2 * max(other weight)) > 0.  When the condition fails, nothing
    is forced.
    """
    c = cs.objective
    forced = np.zeros(cs.n_cols, dtype=bool)
    if cs.n_cols == 0 or c.max() <= 0:
        return forced
    top = c == c.max()
    if 2.0 * c[~top].max(initial=0.0) >= c.max() or f[-1] < top.sum():
        return forced
    e = cs.endpoint_rows[top]
    roomy = f >= np.bincount(e.ravel(), minlength=cs.n_rows)
    forced[np.flatnonzero(top)[roomy[e[:, 0]] & roomy[e[:, 1]]]] = True
    return forced


def solve_lp(cs: ConstraintSystem, model: LpModel | None = None) -> LpSolution:
    """Optimal basic solution of the LP relaxation (x in [0, 1]).

    This is solve_ilp's root node: it relaxes the floored bounds, fixes the
    _forced columns at 1 (every LP optimum has them at 1, so the optimum is
    the unreduced relaxation's) and holds at 0 the columns no binary
    selection can then take, so its objective bounds every selection
    solve_ilp and brute_force can return.  It solves on ``model`` (a new,
    cold one by default), whose basis the next solve starts from.  When
    HiGHS stops at its iteration limit, the values are the fixings and the
    objective is the trivial bound, the weight of the forced and the
    selectable columns.
    """
    cs.validate()
    f = _floored_bounds(cs)
    forced = _forced(cs, f)
    free = ~forced & _selectable(cs, f - cs.matrix() @ forced)
    model = LpModel() if model is None else model
    x, status, iterations = model.solve(cs, f, forced, forced | free)
    c = cs.objective.astype(float)
    if status is LpStatus.ITERATION_LIMIT:
        # no LP optimum to report: the weight of every column a selection may
        # take, solve_ilp's bound at such a node, still bounds every selection
        objective = selection_objective(c, forced) + float(c[free].sum())
    else:
        objective = float(c @ x)
    return LpSolution(values=x, objective=objective, status=status, iterations=iterations)


def _min_improvement(c: np.ndarray) -> float:
    """Smallest possible strict objective improvement between selections.

    When the coefficients take at most two values whose ratio is an integer
    (the 1-versus-alpha scheme), every objective lies on a lattice with this
    spacing, which licenses far more aggressive pruning than the generic
    float tolerance.
    """
    vals = np.unique(c)
    vals = vals[vals > 0]
    if len(vals) == 1:
        return float(vals[0])
    if len(vals) == 2:
        ratio = vals[1] / vals[0]
        if abs(ratio - round(ratio)) < 1e-9:
            return float(vals[0])
    return PRUNE_TOL


def solve_ilp(cs: ConstraintSystem, model: LpModel | None = None) -> IlpSolution:
    """Globally optimal binary selection via depth-first branch and bound.

    Each node solves its LP relaxation over the free columns (HiGHS dual
    simplex, a basic solution, started from its parent's basis) and offers
    that solution, rounded down and completed greedily, as an incumbent.  A
    node ends when its solution is integral or its relaxation bound cannot
    strictly beat the incumbent; otherwise it branches on the most fractional
    variable and explores x = 1 first, so the first optimum reached in this
    fixed order is returned.  A node whose LP stops at the iteration limit
    takes the trivial bound and branches on its heaviest free column.
    Bounds are floored onto the objective lattice when the coefficients
    allow it.  Node capacities are floored (integer activities cannot exceed
    floor(f)), which tightens the relaxation without excluding any binary
    solution.  The root fixes the _forced columns at 1, which every optimum
    contains, and its relaxation is solve_lp's on ``model`` (a new, cold one
    by default).  Past NODE_CAP nodes the search stops and returns the
    incumbent (the empty selection if it has none) with status "node_cap".
    """
    model = LpModel() if model is None else model
    root = solve_lp(cs, model)
    C = cs.n_cols
    if C == 0:
        return IlpSolution(
            values=np.zeros(0, dtype=np.int64),
            objective=0.0,
            nodes_explored=0,
            lp_objective=root.objective,
            status="optimal",
            forced_columns=0,
            simplex_iterations=0,
            lp_iteration_limit_nodes=0,
        )
    M = cs.matrix()
    eA = cs.endpoint_rows[:, 0]
    eB = cs.endpoint_rows[:, 1]
    R = cs.n_rows
    c = cs.objective.astype(float)
    f = _floored_bounds(cs)
    forced = _forced(cs, f)
    lattice = _min_improvement(c)
    prune_gap = max(0.999 * lattice, PRUNE_TOL)

    def tighten(bound: float) -> float:
        # achievable objectives are integer multiples of the lattice spacing,
        # so a relaxation bound can be floored onto the lattice
        if lattice > PRUNE_TOL:
            return lattice * math.floor(bound / lattice + 1e-4)
        return bound

    def greedy_complete(mask: np.ndarray, free_idx: np.ndarray) -> None:
        """Extend a feasible selection in place by free columns, best weight first."""
        cap = f - M @ mask
        todo = free_idx[~mask[free_idx]]
        for j in todo[np.lexsort((todo, -c[todo]))]:
            a, b = eA[j], eB[j]
            if cap[a] >= 1.0 and cap[b] >= 1.0 and cap[R - 1] >= 1.0:
                mask[j] = True
                cap[a] -= 1.0
                cap[b] -= 1.0
                cap[R - 1] -= 1.0

    inc_mask = np.zeros(C, dtype=bool)  # x = 0 is always feasible
    inc_obj = -np.inf
    nodes = 0
    status = "optimal"
    iterations = root.iterations
    limited = 0
    # (columns fixed at 0, columns fixed at 1, the parent's basis); the root's is solve_lp's
    stack: list[tuple[np.ndarray, np.ndarray, object]] = [
        (np.zeros(C, dtype=bool), forced, None)
    ]

    while stack:
        if nodes == NODE_CAP:
            status = "node_cap"
            break
        fix0, fix1, basis = stack.pop()
        nodes += 1

        f_red = f - M @ fix1
        if (f_red < -1e-9).any():
            continue
        obj_offset = selection_objective(c, fix1)

        free = ~fix0 & ~fix1
        if free.any():
            free &= _selectable(cs, f_red)
        free_idx = np.flatnonzero(free)

        if nodes == 1:
            # solve_lp's objective already counts the forced columns
            x_f, relaxed, lp_status = root.values[free_idx], root.objective, root.status
        else:
            model.restore(basis)
            x, lp_status, node_iterations = model.solve(cs, f, fix1, fix1 | free)
            iterations += node_iterations
            x_f = x[free_idx]
            relaxed = obj_offset + float(c[free_idx] @ x_f)
        if lp_status is LpStatus.ITERATION_LIMIT:
            limited += 1
            bound = obj_offset + float(c[free_idx].sum())  # trivial but sound
        else:
            bound = tighten(relaxed)
        if bound <= inc_obj + prune_gap:
            continue

        # rounding the LP solution down stays feasible (and is the LP solution
        # when it is integral); a greedy completion then recovers most of the
        # fractional remainder
        mask = fix1.copy()
        mask[free_idx[x_f > 1.0 - INT_TOL]] = True
        if (M @ mask <= f + FEAS_TOL).all():
            greedy_complete(mask, free_idx)
            cand_obj = selection_objective(c, mask)
            if cand_obj > inc_obj + 1e-12:
                inc_obj, inc_mask = cand_obj, mask

        if bound <= inc_obj + prune_gap:
            continue
        if lp_status is LpStatus.ITERATION_LIMIT:
            # no LP values to branch on; enumerating the free columns stays exact
            if not free_idx.size:
                continue
            j = int(free_idx[np.argmax(c[free_idx])])
        else:
            frac = np.minimum(x_f, 1.0 - x_f)
            if frac.max(initial=0.0) <= INT_TOL:
                continue
            j = int(free_idx[int(np.argmax(frac))])
        basis = model.basis()
        child0_f0 = fix0.copy()
        child0_f0[j] = True
        stack.append((child0_f0, fix1, basis))
        child1_f1 = fix1.copy()
        child1_f1[j] = True
        stack.append((fix0.copy(), child1_f1, basis))

    return IlpSolution(
        values=inc_mask.astype(np.int64),
        objective=selection_objective(c, inc_mask),
        nodes_explored=nodes,
        lp_objective=root.objective,
        status=status,
        forced_columns=int(forced.sum()),
        simplex_iterations=iterations,
        lp_iteration_limit_nodes=limited,
    )


def brute_force(cs: ConstraintSystem) -> IlpSolution:
    """Exhaustive enumeration oracle; subsets tried in ascending mask order.

    Bit j of the mask is column j, so the first best subset found is the
    lexicographically smallest binary vector among the optima.  Its
    lp_objective and simplex_iterations are solve_lp's; no node LP is solved.
    """
    cs.validate()
    C = cs.n_cols
    if C > 25:
        raise ValueError(f"brute force limited to 25 columns, got {C}")
    dense = cs.matrix().toarray()
    f = cs.upper_bounds.astype(float)
    c = cs.objective.astype(float)

    best_mask = 0
    best_obj = -np.inf
    total = 1 << C
    chunk = 1 << 16
    bit_cols = np.arange(C, dtype=np.uint32)
    for start in range(0, total, chunk):
        masks = np.arange(start, min(start + chunk, total), dtype=np.uint32)
        bits = ((masks[:, None] >> bit_cols[None, :]) & 1).astype(float)
        feasible = (bits @ dense.T <= f + FEAS_TOL).all(axis=1)
        if not feasible.any():
            continue
        objs = bits @ c
        objs[~feasible] = -np.inf
        i = int(np.argmax(objs))  # first max = smallest mask in this chunk
        if objs[i] > best_obj:
            best_obj = float(objs[i])
            best_mask = int(masks[i])
    sel = np.array([(best_mask >> j) & 1 for j in range(C)], dtype=bool)
    root = solve_lp(cs)
    return IlpSolution(
        values=sel.astype(np.int64),
        objective=selection_objective(c, sel),
        nodes_explored=total,
        lp_objective=root.objective,
        status="optimal",
        forced_columns=0,
        simplex_iterations=root.iterations,
        lp_iteration_limit_nodes=0,
    )

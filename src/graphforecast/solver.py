"""Exact solvers for the edge-selection program.

The problem is  max c.x  subject to  0 <= Mx <= f  and binary x, where every
column of M has exactly two 1-entries among the vertex rows plus a 1 in the
final all-ones row.  Binary activities are integers, so Mx <= f + FEAS_TOL
holds exactly when Mx <= floor(f + FEAS_TOL), the bounds both solvers use.
Before the root LP, _forced fixes at 1 the top-weight columns that a
dominance argument on the b-matching rows shows to be 1 in every LP and
binary optimum (for the 1-versus-alpha weights: the existing edges at
vertices whose bound admits all their existing edges).

An LpModel is one HiGHS model of a system's relaxation over all its columns,
driven through scipy's bundled binding: presolve, then the simplex HiGHS
chooses, which ends on a basic solution.  Fixings are column bounds: a column
fixed at 1 gets lower bound 1, and one fixed at 0, or that no binary
selection can take, upper bound 0.  solve_lp solves the root relaxation from
the _forced fixings; solve_ilp runs depth-first branch and bound from them on
the same model, its root node is solve_lp's solution, so a prediction solves
the root LP once, and every further node changes only column bounds and
restarts from its parent's basis.  The root takes the path of every other
node: its free columns are _free_columns' and its bound is _bound's.  solve_lp
loads each system into the model once per prediction; a system with the same
rows, columns and weights as the loaded one keeps its basis, so its root LP
starts from the last optimum: predict_distribution shares one model across
its cells, and the u cells of a gamma differ only in their bounds.  The model
also keeps each search it ran on the loaded system, by floored row bounds:
loaded at the same bounds again, solve_lp returns the stored search's root and
solve_ilp the stored search, with the diagnostics of the one search that
found it, and neither HiGHS nor branch and bound runs.  Loading another
system empties that memo.  The arrays of both solutions are read-only, since
a stored one is handed out again.

Because M is non-negative and the lower row bounds are zero, x = 0 is always
feasible, so neither solver can fail on feasibility.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import _extensions
from .constraints import ConstraintSystem

try:
    _core = _extensions.load("scipy.optimize._highspy._core")
except ImportError:
    raise ImportError(
        "graphforecast.solver needs scipy >= 1.17 for its HiGHS binding "
        "(scipy.optimize._highspy._core)"
    ) from None

HighsModelStatus, _Highs, kHighsInf = _core.HighsModelStatus, _core._Highs, _core.kHighsInf

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
    bounds: np.ndarray  # the floored row bounds it relaxed (_floored_bounds)
    forced: np.ndarray  # the columns it fixed at 1 (_forced)


@dataclass(frozen=True)
class IlpSolution:
    values: np.ndarray  # 0/1 ints per candidate column
    objective: float
    nodes_explored: int
    status: str  # "optimal", or "node_cap": the best selection found within NODE_CAP nodes
    simplex_iterations: int  # summed over the root and every node LP
    lp_iteration_limit_nodes: int  # nodes whose LP stopped at HiGHS's iteration limit
    root: LpSolution  # solve_lp's root relaxation: its objective bounds objective


def selection_objective(c: np.ndarray, mask: np.ndarray) -> float:
    """Objective of a binary selection, summed in value order.

    Sorting before summing makes the float result depend only on the multiset
    of selected coefficients, so equal-value selections found by different
    code paths report bit-identical objectives.
    """
    return float(np.sort(c[mask]).sum())


# simplex_strategy 0 lets HiGHS choose: the primal simplex from the feasible
# all-slack basis (x = 0) of a cold root, where few columns end nonzero, and the
# dual simplex from the dual-feasible basis a bound change leaves (B&B nodes,
# later sweep cells)
_HIGHS_OPTIONS = {"output_flag": False, "presolve": "on", "solver": "simplex", "simplex_strategy": 0}


class LpModel:
    """One HiGHS model of a system's LP relaxation, re-solved as its bounds change.

    load sets the system, and the model holds every column of it.  A solve
    changes only row and column bounds and starts from the basis the model
    holds: the last solve's, or one put back with restore.  The first solve
    after loading a system with other rows, columns or weights builds HiGHS's
    model and solves cold.  ``searches`` maps the floored row bounds of each
    solve_ilp search on the loaded system to its IlpSolution.
    """

    def __init__(self):
        self._highs = self._system = None
        self._rows = self._lower = self._upper = None  # the bounds HiGHS holds
        self.searches: dict[bytes, IlpSolution] = {}

    def load(self, cs: ConstraintSystem) -> None:
        """Solve ``cs`` from now on.

        A system with other rows, columns or weights than the loaded one drops
        HiGHS's model, so the next solve builds it cold, and empties searches.
        """
        loaded = self._system
        if not (
            loaded is not None
            and loaded.n_rows == cs.n_rows
            and np.array_equal(loaded.endpoint_rows, cs.endpoint_rows)
            and np.array_equal(loaded.objective, cs.objective)
        ):
            self._highs, self._system, self.searches = None, cs, {}

    def solve(
        self, f: np.ndarray, lower: np.ndarray, upper: np.ndarray
    ) -> tuple[np.ndarray, LpStatus, int]:
        """Maximise c.x over Mx <= f and lower <= x <= upper (0/1 masks).

        Returns x, its status and HiGHS's simplex iterations.  With no column
        free, x is ``lower`` without a solve; at the iteration limit x is
        ``lower`` too.  Any other non-optimal HiGHS status raises RuntimeError.
        """
        lower, upper = lower.astype(float), upper.astype(float)
        if (lower == upper).all():
            return lower, LpStatus.OPTIMAL, 0
        if self._highs is not None:
            for r in np.flatnonzero(f != self._rows):
                self._highs.changeRowBounds(int(r), -kHighsInf, float(f[r]))
            changed = np.flatnonzero((lower != self._lower) | (upper != self._upper)).astype(np.int32)
            if changed.size:
                self._highs.changeColsBounds(changed.size, changed, lower[changed], upper[changed])
        else:
            cs = self._system
            self._highs = _Highs()
            for name, value in _HIGHS_OPTIONS.items():
                self._highs.setOptionValue(name, value)
            empty = np.zeros(cs.n_rows, dtype=np.int32)
            self._highs.addRows(cs.n_rows, np.full(cs.n_rows, -kHighsInf), f, 0, empty, empty, empty)
            self._highs.addCols(
                cs.n_cols, -cs.objective.astype(float), lower, upper, *cs.columns()
            )  # HiGHS minimises
        self._rows, self._lower, self._upper = f, lower, upper

        self._highs.run()
        status = self._highs.getModelStatus()
        iterations = int(self._highs.getInfo().simplex_iteration_count)
        if status == HighsModelStatus.kIterationLimit:
            return lower, LpStatus.ITERATION_LIMIT, iterations
        if status != HighsModelStatus.kOptimal:
            raise RuntimeError(
                f"HiGHS could not solve the LP: {self._highs.modelStatusToString(status)}"
            )
        x = np.clip(self._highs.getSolution().col_value, 0.0, 1.0)
        fixed = lower == upper
        x[fixed] = lower[fixed]  # exactly, where HiGHS may be off by a rounding error
        return x, LpStatus.OPTIMAL, iterations

    def basis(self):
        """HiGHS's current basis, for restore."""
        return self._highs.getBasis()

    def restore(self, basis) -> None:
        """Start the next solve from ``basis``, one this model returned."""
        self._highs.setBasis(basis)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


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
    W = c.max(initial=0.0)
    top = c == W
    if 2.0 * c[~top].max(initial=0.0) >= W:  # also when there is no weight above 0
        return np.zeros(cs.n_cols, dtype=bool)
    roomy = f >= cs.activity(top)  # rows that admit all their W-weight columns
    return top & roomy[cs.endpoint_rows].all(axis=1) & roomy[-1]


def _free_columns(
    cs: ConstraintSystem, f: np.ndarray, fix0: np.ndarray, fix1: np.ndarray
) -> np.ndarray:
    """A node's free columns: unfixed, and admitted by the capacity its fixed-at-1 columns leave."""
    return ~fix0 & ~fix1 & _selectable(cs, f - cs.activity(fix1))


def _bound(
    c: np.ndarray, x: np.ndarray, status: LpStatus, fix1: np.ndarray, free: np.ndarray
) -> float:
    """A node's relaxation bound: c.x, or at the iteration limit the trivial bound.

    With no LP optimum to report, the weight of every column a selection may
    take at the node, its fixed-at-1 and its free columns, still bounds every
    selection below it.
    """
    if status is LpStatus.ITERATION_LIMIT:
        return selection_objective(c, fix1) + float(c[free].sum())
    return float(c @ x)


def solve_lp(cs: ConstraintSystem, model: LpModel | None = None) -> LpSolution:
    """Optimal basic solution of the LP relaxation (x in [0, 1]).

    This is solve_ilp's root node: it relaxes the floored bounds, fixes the
    _forced columns at 1 (every LP optimum has them at 1, so the optimum is
    the unreduced relaxation's) and holds at 0 the columns no binary
    selection can then take, so its objective bounds every binary selection.
    It loads ``cs`` into ``model`` (a new, cold one by default) and solves
    there, leaving the basis the next solve starts from; when ``model`` stored
    a search of this system at these floored bounds, it returns that search's
    root unsolved.  When HiGHS stops at its iteration limit, the values are
    the fixings and the objective is _bound's trivial one.
    """
    cs.validate()
    f = _read_only(_floored_bounds(cs))
    model = LpModel() if model is None else model
    model.load(cs)
    stored = model.searches.get(f.tobytes())
    if stored is not None:
        return stored.root
    forced = _read_only(_forced(cs, f))
    free = _free_columns(cs, f, np.zeros_like(forced), forced)
    x, status, iterations = model.solve(f, forced, forced | free)
    objective = _bound(cs.objective.astype(float), x, status, forced, free)
    return LpSolution(
        values=_read_only(x), objective=objective, status=status, iterations=iterations,
        bounds=f, forced=forced,
    )


def _min_improvement(c: np.ndarray) -> float:
    """Smallest possible strict objective improvement between selections.

    When the coefficients take at most two values whose ratio is an integer
    (the 1-versus-alpha scheme), every objective lies on a lattice with this
    spacing, which licenses far more aggressive pruning than the generic
    float tolerance.
    """
    vals = sorted(set(c[c > 0].tolist()))
    if len(vals) == 1:
        return vals[0]
    if len(vals) == 2:
        ratio = vals[1] / vals[0]
        if abs(ratio - round(ratio)) < 1e-9:
            return vals[0]
    return PRUNE_TOL


def solve_ilp(cs: ConstraintSystem, model: LpModel | None = None) -> IlpSolution:
    """Globally optimal binary selection via depth-first branch and bound.

    Each node solves its LP relaxation over the free columns (a basic
    solution, HiGHS started from its parent's basis) and offers
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
    by default), whose floored bounds and fixings it reuses; every node, the
    root included, takes its bound from _bound.
    A child fixes at 1 only a column its parent's _free_columns admitted, so
    the columns fixed at 1 always fit the floored rows.  A system without
    columns is the root alone: 1 node, the empty selection.  Past NODE_CAP
    nodes the search stops and returns the incumbent (the empty selection if
    it has none) with status "node_cap".  The search is stored in ``model``
    by its floored bounds; a later solve_ilp of this system at these floored
    bounds takes its root from solve_lp, which loads the system, and returns
    the stored search, even one whose root had no free column.
    """
    model = LpModel() if model is None else model
    root = solve_lp(cs, model)
    key = root.bounds.tobytes()
    if key in model.searches:
        return model.searches[key]
    C = cs.n_cols
    eA, eB = cs.endpoint_rows.T
    R = cs.n_rows
    c = cs.objective.astype(float)
    f, forced = root.bounds, root.forced
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
        cap = f - cs.activity(mask)
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
    # (columns fixed at 0, columns fixed at 1, the parent's basis); the root has
    # no parent, and its LP is solve_lp's
    stack: list[tuple[np.ndarray, np.ndarray, object]] = [(np.zeros(C, dtype=bool), forced, None)]

    while stack:
        if nodes == NODE_CAP:
            status = "node_cap"
            break
        fix0, fix1, basis = stack.pop()
        nodes += 1
        free = _free_columns(cs, f, fix0, fix1)
        if basis is None:
            x, lp_status = root.values, root.status
        else:
            model.restore(basis)
            x, lp_status, node_iterations = model.solve(f, fix1, fix1 | free)
            iterations += node_iterations
        if lp_status is LpStatus.ITERATION_LIMIT:
            limited += 1
        bound = tighten(_bound(c, x, lp_status, fix1, free))
        if bound <= inc_obj + prune_gap:
            continue
        free_idx = np.flatnonzero(free)
        x_f = x[free_idx]

        # rounding the LP solution down stays feasible (and is the LP solution
        # when it is integral); a greedy completion then recovers most of the
        # fractional remainder
        mask = fix1.copy()
        mask[free_idx[x_f > 1.0 - INT_TOL]] = True
        if (cs.activity(mask) <= f + FEAS_TOL).all():
            greedy_complete(mask, free_idx)
            cand_obj = selection_objective(c, mask)
            if cand_obj > inc_obj + 1e-12:
                inc_obj, inc_mask = cand_obj, mask

        if bound <= inc_obj + prune_gap:
            continue
        if lp_status is LpStatus.ITERATION_LIMIT:
            # no LP values to branch on; enumerating the free columns stays exact
            # (a node without free columns is solved without HiGHS, so never stops here)
            j = int(free_idx[np.argmax(c[free_idx])])
        else:
            frac = np.minimum(x_f, 1.0 - x_f)
            if frac.max(initial=0.0) <= INT_TOL:
                continue
            j = int(free_idx[int(np.argmax(frac))])
        pick = np.zeros(C, dtype=bool)
        pick[j] = True
        basis = model.basis()
        stack += [(fix0 | pick, fix1, basis), (fix0, fix1 | pick, basis)]  # x_j = 1 pops first

    ilp = IlpSolution(
        values=_read_only(inc_mask.astype(np.int64)),
        objective=selection_objective(c, inc_mask),
        nodes_explored=nodes,
        status=status,
        simplex_iterations=iterations,
        lp_iteration_limit_nodes=limited,
        root=root,
    )
    model.searches[key] = ilp
    return ilp


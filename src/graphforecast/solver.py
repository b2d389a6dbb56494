"""Exact solvers for the edge-selection program.

The problem is  max c.x  subject to  0 <= Mx <= f  and binary x, where every
column of M has exactly two 1-entries among the vertex rows plus a 1 in the
final all-ones row.  Binary activities are integers, so every solver accepts
Mx <= f + FEAS_TOL, and solve_lp and solve_ilp work on floor(f + FEAS_TOL).
Before the root LP, _forced fixes at 1 the top-weight columns that a
dominance argument on the b-matching rows shows to be 1 in every LP and
binary optimum (for the 1-versus-alpha weights: the existing edges at
vertices whose bound admits all their existing edges).  solve_lp relaxes the
remaining columns to [0, 1] and solves them with HiGHS's dual simplex
(scipy.optimize.linprog); solve_ilp runs depth-first branch and bound from
those fixings, and its root node is solve_lp's solution, so a prediction
solves the root LP once; brute_force enumerates every subset of the
unreduced system for verification.

Because M is non-negative and the lower row bounds are zero, x = 0 is always
feasible, so neither solver can fail on feasibility.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

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


@dataclass(frozen=True)
class IlpSolution:
    values: np.ndarray  # 0/1 ints per candidate column
    objective: float
    nodes_explored: int
    lp_objective: float  # the LP relaxation's optimum, an upper bound on objective
    status: str  # "optimal", or "node_cap": the best selection found within NODE_CAP nodes
    forced_columns: int  # columns fixed at 1 before the root LP (_forced)


def selection_objective(c: np.ndarray, mask: np.ndarray) -> float:
    """Objective of a binary selection, summed in value order.

    Sorting before summing makes the float result depend only on the multiset
    of selected coefficients, so equal-value selections found by different
    code paths report bit-identical objectives.
    """
    return float(np.sort(c[mask]).sum())


def _lp_values(A, c, f) -> tuple[np.ndarray, float, LpStatus]:
    """Maximise c.x subject to A x <= f and 0 <= x <= 1 with HiGHS."""
    if len(c) == 0:
        return np.zeros(0), 0.0, LpStatus.OPTIMAL
    # the dual simplex ends on a basic solution, which branch and bound relies on
    res = linprog(-c, A_ub=A, b_ub=f, bounds=(0, 1), method="highs-ds")
    if res.status == 1:
        status = LpStatus.ITERATION_LIMIT
    elif res.status == 0:
        status = LpStatus.OPTIMAL
    else:
        raise RuntimeError(f"HiGHS could not solve the LP: {res.message}")
    x = np.zeros(len(c)) if res.x is None else np.clip(res.x, 0.0, 1.0)
    return x, float(c @ x), status


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


def solve_lp(cs: ConstraintSystem) -> LpSolution:
    """Optimal basic solution of the LP relaxation (x in [0, 1]).

    This is solve_ilp's root node: it relaxes the floored bounds, fixes the
    _forced columns at 1 (every LP optimum has them at 1, so the optimum is
    the unreduced relaxation's), takes them off the row capacities and leaves
    out (holds at 0) the columns no binary selection can then take, so its
    objective bounds every selection solve_ilp and brute_force can return.
    HiGHS sees only the columns still selectable.
    """
    cs.validate()
    f = _floored_bounds(cs)
    c = cs.objective.astype(float)
    M = cs.matrix()
    forced = _forced(cs, f)
    f_red = f - M @ forced
    free_idx = np.flatnonzero(~forced & _selectable(cs, f_red))
    x_f, _, status = _lp_values(M[:, free_idx], c[free_idx], f_red)
    x = forced.astype(float)
    x[free_idx] = x_f
    return LpSolution(values=x, objective=float(c @ x), status=status)


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


def solve_ilp(cs: ConstraintSystem) -> IlpSolution:
    """Globally optimal binary selection via depth-first branch and bound.

    Each node solves its LP relaxation over the free columns (HiGHS dual
    simplex, a basic solution) and offers that solution, rounded down and
    completed greedily, as an incumbent.  A node ends when its solution is
    integral or its relaxation bound cannot strictly beat the incumbent;
    otherwise it branches on the most fractional variable and explores x = 1
    first, so the first optimum reached in this fixed order is returned.
    Bounds are floored onto the objective lattice when the coefficients
    allow it.  Node capacities are floored (integer activities cannot exceed
    floor(f)), which tightens the relaxation without excluding any binary
    solution.  The root fixes the _forced columns at 1, which every optimum
    contains, and its relaxation is solve_lp's.  Past NODE_CAP nodes the
    search stops and returns the incumbent (the empty selection if it has
    none) with status "node_cap".
    """
    root = solve_lp(cs)
    C = cs.n_cols
    if C == 0:
        return IlpSolution(
            values=np.zeros(0, dtype=np.int64),
            objective=0.0,
            nodes_explored=0,
            lp_objective=root.objective,
            status="optimal",
            forced_columns=0,
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
    stack: list[tuple[np.ndarray, np.ndarray]] = [(np.zeros(C, dtype=bool), forced)]

    while stack:
        if nodes == NODE_CAP:
            status = "node_cap"
            break
        fix0, fix1 = stack.pop()
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
            x_f, lp_obj, lp_status = _lp_values(M[:, free_idx], c[free_idx], f_red)
            relaxed = obj_offset + lp_obj
        if lp_status is LpStatus.ITERATION_LIMIT:
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

        frac = np.minimum(x_f, 1.0 - x_f)
        if frac.max(initial=0.0) <= INT_TOL or bound <= inc_obj + prune_gap:
            continue
        j = int(free_idx[int(np.argmax(frac))])
        child0_f0 = fix0.copy()
        child0_f0[j] = True
        stack.append((child0_f0, fix1))
        child1_f1 = fix1.copy()
        child1_f1[j] = True
        stack.append((fix0.copy(), child1_f1))

    return IlpSolution(
        values=inc_mask.astype(np.int64),
        objective=selection_objective(c, inc_mask),
        nodes_explored=nodes,
        lp_objective=root.objective,
        status=status,
        forced_columns=int(forced.sum()),
    )


def brute_force(cs: ConstraintSystem) -> IlpSolution:
    """Exhaustive enumeration oracle; subsets tried in ascending mask order.

    Bit j of the mask is column j, so the first best subset found is the
    lexicographically smallest binary vector among the optima.  Its
    lp_objective is solve_lp's.
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
    return IlpSolution(
        values=sel.astype(np.int64),
        objective=selection_objective(c, sel),
        nodes_explored=total,
        lp_objective=solve_lp(cs).objective,
        status="optimal",
        forced_columns=0,
    )

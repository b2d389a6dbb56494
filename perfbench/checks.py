"""Correctness checks computed apart from the program.

Each check returns a list of problems (empty when the check passes).  The
``output_*`` checks read only the files a round wrote and the generated
input, and run after every round; the others use objects captured by the
tracer and run after the traced round.  All of them run after the timed
region.
"""

from __future__ import annotations

import csv
import json

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

# Degree and edge bounds are floored after adding this tolerance, as the
# branch and bound does; a bound of 2.9999999 therefore admits 3 edges.
BOUND_TOL = 1e-6
# Objectives are sums of 1s and alpha = 1e-3 weights, so two optimal
# selections differ by at least 1e-3; a float difference below 1e-6 is noise.
OBJ_TOL = 1e-6


def adjacency(graph, order):
    index = {v: i for i, v in enumerate(order)}
    rows = [index[u] for u, v in graph.edges] + [index[v] for u, v in graph.edges]
    cols = rows[len(rows) // 2 :] + rows[: len(rows) // 2]
    n = len(order)
    return sparse.csr_array((np.ones(len(rows)), (rows, cols)), shape=(n, n)), index


def homophily_count(graph) -> int:
    """Non-edges with a nonzero entry in A^2, counted once per vertex pair."""
    A, _ = adjacency(graph, sorted(graph.vertices))
    two_step = (A @ A).astype(bool).astype(np.int8)
    two_step = two_step - two_step.multiply(A.astype(bool)).astype(np.int8)
    two_step.setdiag(0)
    two_step.eliminate_zeros()
    return int(sparse.triu(two_step, k=1).nnz)


def floored_bounds(cs) -> np.ndarray:
    return np.floor(cs.upper_bounds.astype(float) + BOUND_TOL)


def milp_objective(cs) -> tuple[float | None, str]:
    """Optimal objective of the 0/1 program by scipy's HiGHS branch and cut."""
    C, R = cs.n_cols, cs.n_rows
    if C == 0:
        return 0.0, ""
    rows = np.concatenate([cs.endpoint_rows[:, 0], cs.endpoint_rows[:, 1], np.full(C, R - 1)])
    cols = np.tile(np.arange(C), 3)
    A = sparse.csr_array((np.ones(3 * C), (rows, cols)), shape=(R, C))
    ub = floored_bounds(cs)
    res = milp(
        -cs.objective.astype(float),
        integrality=np.ones(C),
        bounds=Bounds(0, 1),
        constraints=LinearConstraint(A, -np.inf, ub),
        options={"mip_rel_gap": 0.0, "time_limit": 120.0},
    )
    if res.status != 0 or res.x is None:
        return None, f"milp did not solve the system: {res.message}"
    x = np.round(res.x) > 0.5
    if (A @ x.astype(float) > ub).any():
        return None, "milp's rounded selection violates a bound"
    return float(np.sort(cs.objective[x]).sum()), ""


def check_prediction(rec) -> list[str]:
    """Solver optimality, bound feasibility and the LP bound for one predict."""
    problems = []
    cs, lp, ilp, graph = rec["cs"], rec["lp"], rec["ilp"], rec["result"].graph
    if rec["ilp_cs"] is not cs:
        problems.append("solve_ilp was not given the assembled system")
    ref, why = milp_objective(cs)
    if ref is None:
        problems.append(why)
    elif abs(ref - ilp.objective) > OBJ_TOL:
        problems.append(f"solve_ilp objective {ilp.objective!r} != milp {ref!r}")
    ub = floored_bounds(cs)
    over = [v for r, v in enumerate(cs.row_vertices) if graph.degree(v) > ub[r]]
    if over:
        problems.append(f"{len(over)} predicted degrees exceed their floored bounds")
    if graph.edge_count > ub[-1]:
        problems.append(f"{graph.edge_count} predicted edges exceed the bound {ub[-1]}")
    if lp.objective < ilp.objective - OBJ_TOL:
        problems.append(f"LP objective {lp.objective!r} below ILP {ilp.objective!r}")
    H = rec["H"]
    kinds = {}
    for c in H.candidates:
        kinds[c.provenance.value] = kinds.get(c.provenance.value, 0) + 1
    params = rec["params"]
    if kinds.get("existing", 0) != H.base.edge_count:
        problems.append("existing candidates differ from the last snapshot's edges")
    expected = H.new_vertex_count * min(params.k, H.base.vertex_count)
    if kinds.get("attachment", 0) != expected:
        problems.append(f"{kinds.get('attachment', 0)} attachment candidates, expected {expected}")
    return problems


def check_homophily(captured) -> list[str]:
    problems = []
    for graph, count in captured:
        ref = homophily_count(graph)
        if ref != count:
            problems.append(f"homophily candidates {count} != A^2 non-edges {ref}")
    return problems


def check_ingested(captured, generated) -> list[str]:
    if len(captured) != 1:
        return [f"expected one ingested series, saw {len(captured)}"]
    if captured[0][2] != generated:
        return ["ingested series differs from the generated one"]
    return []


def check_bounds_monotone(predictions, lo=0.8, hi=0.95) -> list[str]:
    """Every degree and edge bound at u=hi is at least the one at u=lo."""
    problems = []
    by_key = {(rec["params"].gamma, rec["params"].u): rec["cs"] for rec in predictions}
    for gamma in sorted({g for g, _ in by_key}):
        a, b = by_key.get((gamma, lo)), by_key.get((gamma, hi))
        if a is None or b is None:
            problems.append(f"missing u={lo} or u={hi} at gamma={gamma}")
        elif a.row_vertices != b.row_vertices:
            problems.append(f"row layouts differ between u={lo} and u={hi} at gamma={gamma}")
        elif (b.upper_bounds < a.upper_bounds).any():
            n = int((b.upper_bounds < a.upper_bounds).sum())
            problems.append(f"{n} bounds shrink from u={lo} to u={hi} at gamma={gamma}")
    return problems


def baseline_errors(series, T, horizons) -> dict[int, tuple[float, float]]:
    """Last-seen errors: reuse snapshot T as the prediction of snapshot T+h."""
    last = series.snapshot(T)
    out = {}
    for h in horizons:
        actual = series.snapshot(T + h)
        out[h] = (
            abs(last.vertex_count - actual.vertex_count) / actual.vertex_count,
            abs(last.edge_count - actual.edge_count) / actual.edge_count,
        )
    return out


def check_reports(captured, expected) -> list[str]:
    """Reported last-seen errors equal the ones recomputed from the series."""
    if len(captured) != 1:
        return [f"expected one protocol run, saw {len(captured)}"]
    problems = []
    for r in captured[0]:
        ve, ee = expected[r.horizon]
        if abs(r.baseline_vertex_error - ve) > 1e-12 or abs(r.baseline_edge_error - ee) > 1e-12:
            problems.append(f"last-seen errors at h={r.horizon} differ from the recomputed ones")
    return problems


def output_predict(out_path, series) -> list[str]:
    """The predicted edge list holds only candidate pairs and matches its objective."""
    problems = []
    last = series.last
    next_id = max(last.vertices) + 1
    with open(str(out_path) + ".meta.json", encoding="utf-8") as fh:
        params = json.load(fh)["params"]
    diag = params["diagnostics"]
    A, index = adjacency(last, sorted(last.vertices))
    common = (A @ A).tocsr()
    existing = new = 0
    with open(out_path, encoding="utf-8") as fh:
        for line in fh:
            u, v, _ = (int(x) for x in line.split())
            if (u, v) in last.edges:
                existing += 1
            elif u in index and (v >= next_id or (v in index and common[index[u], index[v]])):
                new += 1
            else:
                problems.append(f"predicted edge {u}-{v} is not a candidate")
    n_new = max(diag["n_hat"] - last.vertex_count, 0)
    attachment = n_new * min(params["k"], last.vertex_count)
    candidates = last.edge_count + homophily_count(last) + attachment
    if diag["candidate_count"] != candidates:
        problems.append(f"candidate count {diag['candidate_count']} != recount {candidates}")
    if abs(existing + params["alpha"] * new - diag["ilp_objective"]) > OBJ_TOL:
        problems.append("ILP objective differs from the weight of the written edges")
    if diag["lp_objective"] < diag["ilp_objective"] - OBJ_TOL:
        problems.append("LP objective below the ILP objective")
    return problems


def output_sweep(out_path, series, gammas, us) -> list[str]:
    """Grid order, vertex counts, and n_hat independent of u and monotone in gamma."""
    with open(out_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    grid = [(g, u) for g in gammas for u in us]
    if [(float(r["gamma"]), float(r["u"])) for r in rows] != grid:
        return ["sweep rows do not follow the gamma x u grid"]
    problems = []
    n_T = series.last.vertex_count
    n_hat = {}
    for r in rows:
        n = int(r["n_hat"])
        n_hat.setdefault(float(r["gamma"]), set()).add(n)
        if int(r["vertex_count"]) != max(n_T, n):
            problems.append(f"vertex count {r['vertex_count']} != max({n_T}, {n})")
    if any(len(v) != 1 for v in n_hat.values()):
        problems.append("n_hat depends on u")
    firsts = [min(n_hat[g]) for g in gammas]
    if firsts != sorted(firsts):
        problems.append("n_hat is not monotone in gamma")
    return problems


def output_protocol(out_path, expected) -> list[str]:
    """Last-seen rows of the result CSV equal the recomputed baseline errors."""
    with open(out_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    seen = {(int(r["h"]), r["method"]): r for r in rows}
    for h, (ve, ee) in expected.items():
        base = seen.get((h, "last_seen"))
        if (h, "proposed") not in seen or base is None:
            problems.append(f"missing result rows at h={h}")
        elif (base["vertex_error"], base["edge_error"]) != (f"{ve:.6f}", f"{ee:.6f}"):
            problems.append(f"last-seen row at h={h} differs from the recomputed errors")
    return problems

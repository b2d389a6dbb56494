import itertools
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from graphforecast import solver
from graphforecast.constraints import ConstraintSystem
from graphforecast.solver import LpStatus, solve_ilp, solve_lp

from systems import exhaustive, floored, incidence, make_system, random_system


def triangle_system(bounds=(1.0, 1.0, 1.0, 3.0), coeffs=(1.0, 1.0, 1.0)):
    return make_system([[0, 1], [0, 2], [1, 2]], bounds, coeffs)


class TestSolveLp:
    def test_single_candidate(self):
        cs = make_system([[0, 1]], [1.0, 1.0, 1.0], [1.0])
        sol = solve_lp(cs)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.values == pytest.approx([1.0])
        assert sol.objective == pytest.approx(1.0)

    def test_triangle_fractional_optimum(self):
        # oracle: enumerate basic solutions from active-constraint subsets
        cs = triangle_system()
        dense = incidence(cs).toarray()
        rows = [dense[i] for i in range(4)] + [np.eye(3)[i] for i in range(3)]
        rhs = list(cs.upper_bounds) + [1.0, 1.0, 1.0]
        best = 0.0
        for active in itertools.combinations(range(len(rows)), 3):
            A = np.array([rows[i] for i in active])
            b = np.array([rhs[i] for i in active])
            if abs(np.linalg.det(A)) < 1e-12:
                continue
            x = np.linalg.solve(A, b)
            if (x >= -1e-9).all() and (x <= 1 + 1e-9).all() and (
                dense @ x <= cs.upper_bounds + 1e-9
            ).all():
                best = max(best, float(cs.objective @ x))
        assert best == pytest.approx(1.5)
        sol = solve_lp(cs)
        assert sol.objective == 1.5
        assert sol.values == pytest.approx([0.5, 0.5, 0.5], abs=1e-9)

    def test_zero_bounds(self):
        cs = triangle_system(bounds=(0.0, 0.0, 0.0, 0.0))
        sol = solve_lp(cs)
        assert sol.objective == 0.0
        assert sol.values == pytest.approx([0.0, 0.0, 0.0])

    def test_solution_feasible_and_boxed(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            cs = random_system(rng)
            sol = solve_lp(cs)
            assert (sol.values >= -1e-9).all() and (sol.values <= 1 + 1e-9).all()
            act = incidence(cs).toarray() @ sol.values
            assert (act <= cs.upper_bounds + 1e-6).all()
            assert (act >= -1e-6).all()

    def test_rejects_negative_objective(self):
        cs = make_system([[0, 1]], [1.0, 1.0, 1.0], [-1.0])
        with pytest.raises(ValueError):
            solve_lp(cs)


class TestForced:
    def test_dominated_columns_are_forced(self):
        # rows 0 and 1 admit both their weight-1 columns; row 3 admits one of two
        cs = make_system(
            [[0, 1], [1, 2], [3, 4], [3, 5], [0, 2]],
            [2, 2, 2, 1, 1, 1, 9],
            [1.0, 1.0, 1.0, 1.0, 1e-3],
        )
        assert solver._forced(cs, floored(cs)).tolist() == [True, True, False, False, False]
        assert solve_ilp(cs).forced_columns == 2

    # each system has an optimum without some weight-1 column, so forcing it would be wrong
    @pytest.mark.parametrize(
        "endpoints, bounds, coeffs",
        [
            # the other weight is not below half the top weight: 0.5 + 0.5 ties with 1
            ([[0, 1], [0, 2], [1, 3]], [1, 1, 1, 1, 9], [1.0, 0.5, 0.5]),
            # the total row admits one of the two weight-1 columns
            ([[0, 1], [2, 3]], [1, 1, 1, 1, 1], [1.0, 1.0]),
            # row 0 admits one of its two weight-1 columns
            ([[0, 1], [0, 2]], [1, 1, 1, 9], [1.0, 1.0]),
        ],
        ids=["heavy-alpha", "total-row", "endpoint-row"],
    )
    def test_nothing_is_forced(self, endpoints, bounds, coeffs):
        cs = make_system(endpoints, bounds, coeffs)
        assert not solver._forced(cs, floored(cs)).any()
        assert not exhaustive(cs).selections.all(axis=1).all()
        assert solve_ilp(cs).forced_columns == 0


class TestSolveIlp:
    def test_triangle_picks_first_column(self):
        # oracle: exhaustive over the 8 subsets
        cs = triangle_system()
        assert exhaustive(cs).objective == pytest.approx(1.0)
        sol = solve_ilp(cs)
        assert sol.objective == pytest.approx(1.0)
        assert sol.values.tolist() == [1, 0, 0]

    def test_two_candidates(self):
        # oracle: exhaustive over the 4 subsets
        cs = make_system([[0, 1], [0, 2]], [1.0, 2.0, 2.0, 2.0], [1.0, 1e-3])
        sol = solve_ilp(cs)
        assert sol.objective == pytest.approx(exhaustive(cs).objective)
        assert sol.values.tolist() == [1, 0]

    def test_root_bounds_and_fixings_come_from_solve_lp(self, monkeypatch):
        # a system that branches after forcing a column (an @example of the
        # node property below)
        cs = make_system(
            [[1, 0], [0, 1], [2, 0], [2, 0], [1, 2], [0, 2], [0, 1], [2, 0], [1, 2]],
            [1, 2, 2, 3],
            [0.25, 0.25, 1e-3, 0.25, 1.0, 1e-3, 1e-3, 1e-3, 1e-3],
        )
        forced = solver._forced(cs, floored(cs))
        calls = []
        for name in ("_floored_bounds", "_forced"):
            fn = getattr(solver, name)
            monkeypatch.setattr(
                solver, name, lambda *a, fn=fn, name=name: calls.append(name) or fn(*a)
            )
        sol = solve_ilp(cs)
        assert sol.nodes_explored > 1 and sol.forced_columns == forced.sum() > 0
        assert calls == ["_floored_bounds", "_forced"]
        root = solve_lp(cs)
        assert np.array_equal(root.bounds, floored(cs))
        assert np.array_equal(root.forced, forced)

    def test_empty_system(self):
        cs = make_system(np.zeros((0, 2)), [1.0, 1.0, 5.0], [])
        sol = solve_ilp(cs)
        assert sol.objective == 0.0
        assert len(sol.values) == 0
        assert sol.nodes_explored == 1  # the root, like any other system's
        assert sol.forced_columns == 0

    def test_empty_system_has_zero_lp_objective(self):
        cs = make_system(np.zeros((0, 2)), [1.0, 1.0, 5.0], [])
        sol = solve_ilp(cs)
        assert sol.lp_objective == 0.0
        assert sol.status == "optimal"

    def test_node_cap_returns_a_feasible_incumbent(self, monkeypatch):
        # root LP 1.35 against an optimum of 1.0: the search has to branch
        cs = make_system([[0, 1], [0, 2], [1, 2]], [1, 1, 1, 3], [1.0, 0.9, 0.8])
        assert solve_ilp(cs).status == "optimal"
        monkeypatch.setattr(solver, "NODE_CAP", 1)
        sol = solve_ilp(cs)
        assert sol.status == "node_cap"
        assert sol.nodes_explored == 1
        assert set(sol.values.tolist()) <= {0, 1}
        assert (incidence(cs) @ sol.values <= cs.upper_bounds).all()
        assert sol.objective == float(cs.objective @ sol.values)
        assert sol.objective <= sol.lp_objective

    def test_matches_brute_force_on_random_systems(self):
        rng = np.random.default_rng(1234)
        for _ in range(200):
            cs = random_system(rng)
            a = solve_ilp(cs)
            b = exhaustive(cs)
            assert a.objective == b.objective
            for values in (a.values, b.first):
                act = incidence(cs).toarray() @ values
                assert (act <= cs.upper_bounds + 1e-6).all()

    def test_matches_brute_force_on_tie_heavy_systems(self):
        # larger instances dominated by equal alpha weights stress the
        # lattice pruning and greedy-completion paths
        rng = np.random.default_rng(4321)
        for _ in range(12):
            nv = int(rng.integers(4, 8))
            C = int(rng.integers(16, 21))
            ea = rng.integers(0, nv, C)
            eb = (ea + 1 + rng.integers(0, nv - 1, C)) % nv
            coeffs = np.where(rng.random(C) < 0.25, 1.0, 1e-3)
            cs = make_system(
                np.column_stack([np.minimum(ea, eb), np.maximum(ea, eb)]),
                rng.uniform(0, 8, nv + 1),
                coeffs,
                n_vertices=nv,
            )
            a = solve_ilp(cs)
            b = exhaustive(cs)
            assert a.objective == b.objective
            act = incidence(cs).toarray() @ a.values
            assert (act <= cs.upper_bounds + 1e-6).all()

    def test_lp_bounds_ilp(self):
        rng = np.random.default_rng(55)
        for _ in range(50):
            cs = random_system(rng)
            assert solve_lp(cs).objective >= solve_ilp(cs).objective - 1e-9
            assert solve_ilp(cs).objective >= -1e-12

    def test_objective_scaling_keeps_selection(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            cs = random_system(rng)
            base = solve_ilp(cs)
            scaled = ConstraintSystem(
                row_vertices=cs.row_vertices,
                endpoint_rows=cs.endpoint_rows,
                upper_bounds=cs.upper_bounds,
                objective=cs.objective * 7.0,
            )
            sol = solve_ilp(scaled)
            assert sol.objective == pytest.approx(7.0 * base.objective, rel=1e-12)
            assert sol.values.tolist() == base.values.tolist()

    def test_deterministic(self):
        rng = np.random.default_rng(99)
        cs = random_system(rng)
        a = solve_ilp(cs)
        b = solve_ilp(cs)
        assert a.values.tolist() == b.values.tolist()
        assert a.objective == b.objective


class TestIterationLimit:
    # rows 0, 2 and 3 admit nothing; rounding the root's LP values down and
    # completing greedily reaches 1.0, the optimum is 1.001
    ENDPOINTS = [[4, 5], [0, 1], [0, 3], [1, 5], [2, 4], [2, 3], [1, 4], [0, 4]]
    BOUNDS = [0, 3, 0, 0, 1, 1, 2]
    COEFFS = [1.0, 1e-3, 1e-3, 1e-3, 1.0, 1e-3, 1.0, 1.0]

    @pytest.fixture
    def limited(self, monkeypatch):
        monkeypatch.setattr(
            solver, "_HIGHS_OPTIONS", {**solver._HIGHS_OPTIONS, "simplex_iteration_limit": 0}
        )
        return make_system(self.ENDPOINTS, self.BOUNDS, self.COEFFS)

    def test_root_reports_the_limit(self, limited):
        sol = solve_lp(limited)
        assert sol.status is LpStatus.ITERATION_LIMIT
        assert sol.values.tolist() == [0.0] * limited.n_cols

    def test_search_stays_exact_on_the_trivial_bound(self, limited, monkeypatch):
        best = exhaustive(limited).objective
        statuses = []
        solve = solver.LpModel.solve

        def recorded(self, *args):
            out = solve(self, *args)
            statuses.append(out[1])
            return out

        monkeypatch.setattr(solver.LpModel, "solve", recorded)
        ilp = solve_ilp(limited)
        assert ilp.objective == best == 1.001
        assert ilp.lp_objective >= ilp.objective
        assert ilp.nodes_explored > 1
        assert ilp.lp_iteration_limit_nodes == statuses.count(LpStatus.ITERATION_LIMIT) > 0

    def test_other_statuses_raise(self, monkeypatch):
        monkeypatch.setattr(solver, "_HIGHS_OPTIONS", {**solver._HIGHS_OPTIONS, "time_limit": 0.0})
        with pytest.raises(RuntimeError, match="Time limit reached"):
            solve_lp(triangle_system())


def test_import_names_the_scipy_it_needs():
    # scipy releases without the bundled HiGHS binding cannot run the solver
    code = (
        "import sys; sys.modules['scipy.optimize._highspy._core'] = None\n"
        "try:\n    import graphforecast.solver\n"
        "except ImportError as exc:\n    print(exc)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    ).stdout
    assert out.strip().splitlines() == [
        "graphforecast.solver needs scipy >= 1.17 for its HiGHS binding "
        "(scipy.optimize._highspy._core)"
    ]


# bounds sit on or right next to integers, where flooring and the feasibility
# tolerance decide; pairs are drawn independently, so columns repeat often
BOUNDS = st.one_of(
    st.just(0.0),
    st.integers(0, 4).map(float),
    st.builds(
        lambda k, eps: max(k + eps, 0.0), st.integers(0, 4), st.sampled_from([-1e-7, 1e-7])
    ),
)


@st.composite
def small_systems(draw):
    nv = draw(st.integers(2, 6))
    vertex = st.integers(0, nv - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex).filter(lambda p: p[0] != p[1]), max_size=12))
    C = len(pairs)
    coeffs = draw(st.lists(st.sampled_from([1.0, 1e-3, 0.25]), min_size=C, max_size=C))
    bounds = draw(st.lists(BOUNDS, min_size=nv + 1, max_size=nv + 1))
    return make_system(pairs, bounds, coeffs, n_vertices=nv)


@st.composite
def odd_cycle_systems(draw):
    """Odd cycles of equal-weight columns under unit row bounds, plus alpha pendants.

    The root LP puts 1/2 on every column of a cycle.  Each cycle vertex may
    also get an alpha-weight column to a vertex of its own; these keep the
    objective lattice finer than a cycle's weight, so the root bound is not
    floored onto the greedy selection's objective and the search branches.
    """
    pairs, coeffs, nv = [], [], 0
    for length in draw(st.lists(st.sampled_from([3, 5]), min_size=1, max_size=2)):
        weight = draw(st.sampled_from([1.0, 0.25]))
        pairs += [(nv + i, nv + (i + 1) % length) for i in range(length)]
        coeffs += [weight] * length
        nv += length
    for v in draw(st.lists(st.integers(0, nv - 1), min_size=1, max_size=3)):
        pairs.append((v, nv))
        coeffs.append(1e-3)
        nv += 1
    order = draw(st.permutations(range(len(pairs))))
    unit = st.sampled_from([1.0, 1.0 - 1e-7, 1.0 + 1e-7])
    bounds = draw(st.lists(unit, min_size=nv, max_size=nv)) + [float(len(pairs))]
    return make_system(
        [pairs[j] for j in order], bounds, [coeffs[j] for j in order], n_vertices=nv
    )


def check_ilp_matches_exhaustive(cs):
    ilp = solve_ilp(cs)
    # distinct optima differ by at least 1e-3; the slack only absorbs
    # float summation order among equal-value selections
    assert ilp.objective == pytest.approx(exhaustive(cs).objective, abs=1e-9)
    assert (incidence(cs) @ ilp.values <= floored(cs)).all()
    assert set(ilp.values.tolist()) <= {0, 1}
    assert solve_lp(cs).objective >= ilp.objective - 1e-9


def check_optima_hold_the_forced_columns(cs):
    forced = solver._forced(cs, floored(cs))
    assert exhaustive(cs).selections[:, forced].all()
    assert solve_ilp(cs).forced_columns == forced.sum()


class TestSolverProperties:
    @settings(derandomize=True, deadline=None)
    @given(small_systems())
    def test_ilp_matches_brute_force_within_floored_bounds(self, cs):
        check_ilp_matches_exhaustive(cs)

    @settings(derandomize=True, deadline=None)
    @given(small_systems())
    def test_every_optimum_holds_the_forced_columns(self, cs):
        check_optima_hold_the_forced_columns(cs)

    @settings(derandomize=True, deadline=None, max_examples=50)
    @given(odd_cycle_systems())
    def test_branching_ilp_matches_brute_force(self, cs):
        check_ilp_matches_exhaustive(cs)

    @settings(derandomize=True, deadline=None, max_examples=50)
    @given(odd_cycle_systems())
    def test_branching_optima_hold_the_forced_columns(self, cs):
        check_optima_hold_the_forced_columns(cs)

    def test_odd_cycle_systems_branch(self):
        # small_systems' draws all end at the root; these must reach child nodes
        nodes = []

        @settings(derandomize=True, deadline=None, max_examples=50)
        @given(odd_cycle_systems())
        def collect(cs):
            nodes.append(solve_ilp(cs).nodes_explored)

        collect()
        assert len(nodes) >= 40
        assert sum(n > 1 for n in nodes) >= 0.8 * len(nodes)

    @settings(derandomize=True, deadline=None)
    @given(small_systems())
    def test_lp_matches_the_unreduced_relaxation(self, cs):
        expected = 0.0
        if cs.n_cols:
            res = linprog(
                -cs.objective, A_ub=incidence(cs), b_ub=floored(cs), bounds=(0, 1), method="highs"
            )
            assert res.status == 0
            expected = -res.fun
        assert solve_lp(cs).objective == pytest.approx(expected, abs=1e-9)

    @settings(derandomize=True, deadline=None)
    @given(small_systems())
    # two systems that branch, the second from a forced column: 3 and 5 nodes
    @example(make_system([[0, 1], [0, 2], [1, 2]], [1, 1, 1, 3], [1.0, 0.9, 0.8]))
    @example(
        make_system(
            [[1, 0], [0, 1], [2, 0], [2, 0], [1, 2], [0, 2], [0, 1], [2, 0], [1, 2]],
            [1, 2, 2, 3],
            [0.25, 0.25, 1e-3, 0.25, 1.0, 1e-3, 1e-3, 1e-3, 1e-3],
        )
    )
    def test_every_node_fixes_at_1_only_columns_that_fit(self, cs):
        # the root's forced columns fit by _forced's condition, and a child fixes
        # at 1 only a column its parent admitted as free: no row is overdrawn
        calls = []
        solve = solver.LpModel.solve

        def recording(model, cs_, f, lower, upper):
            calls.append((f, lower))
            return solve(model, cs_, f, lower, upper)

        with mock.patch.object(solver.LpModel, "solve", recording):
            solve_ilp(cs)
        assert calls
        for rows, lower in calls:
            assert np.array_equal(rows, floored(cs))
            assert (incidence(cs) @ lower <= rows).all()

    @settings(derandomize=True, deadline=None)
    @given(small_systems())
    def test_ilp_root_is_solve_lp(self, cs):
        ilp = solve_ilp(cs)
        assert ilp.lp_objective == solve_lp(cs).objective
        assert ilp.lp_objective >= ilp.objective - 1e-9


@st.composite
def rebounded_systems(draw):
    """A system, then new row bounds and column fixings that leave it feasible."""
    cs = draw(small_systems())
    C = cs.n_cols
    rows = np.array(draw(st.lists(st.integers(0, 4), min_size=cs.n_rows, max_size=cs.n_rows)), float)
    upper = np.array(draw(st.lists(st.booleans(), min_size=C, max_size=C)), dtype=bool)
    lower = upper & np.array(draw(st.lists(st.booleans(), min_size=C, max_size=C)), dtype=bool)
    return cs, np.maximum(rows, incidence(cs) @ lower), lower, upper


class TestWarmStart:
    @settings(derandomize=True, deadline=None)
    @given(rebounded_systems())
    def test_warm_resolve_matches_a_cold_solve(self, drawn):
        cs, rows, lower, upper = drawn
        c = cs.objective
        model = solver.LpModel()
        solve_lp(cs, model)  # leaves the root's basis in the model
        warm, warm_status, _ = model.solve(cs, rows, lower, upper)
        cold, cold_status, _ = solver.LpModel().solve(cs, rows, lower, upper)
        assert warm_status is cold_status is LpStatus.OPTIMAL
        assert c @ warm == pytest.approx(c @ cold, abs=1e-9)
        assert (incidence(cs) @ warm <= rows + 1e-6).all()
        assert (warm >= lower - 1e-9).all() and (warm <= upper + 1e-9).all()

    def test_shared_model_matches_cold_solves(self):
        # the same columns under growing, then shrinking bounds, as in
        # predict_distribution's u cells and the next gamma's first cell
        rng = np.random.default_rng(8)
        for _ in range(30):
            cs = random_system(rng)
            model = solver.LpModel()
            for scale in (0.5, 1.0, 2.0, 0.25):
                grown = ConstraintSystem(
                    row_vertices=cs.row_vertices,
                    endpoint_rows=cs.endpoint_rows,
                    upper_bounds=cs.upper_bounds * scale,
                    objective=cs.objective,
                )
                shared = solve_ilp(grown, model)
                assert shared.objective == solve_ilp(grown).objective
                assert shared.lp_objective == pytest.approx(solve_lp(grown).objective, abs=1e-9)


def same_system(a, b):
    return (
        a.n_rows == b.n_rows
        and np.array_equal(a.endpoint_rows, b.endpoint_rows)
        and np.array_equal(a.objective, b.objective)
    )


class TestSearchMemo:
    @settings(derandomize=True, deadline=None)
    @given(
        st.one_of(small_systems(), odd_cycle_systems()),
        st.one_of(small_systems(), odd_cycle_systems()),
    )
    def test_the_memo_does_not_outlive_its_system(self, a, b):
        assume(not same_system(a, b))
        calls = []
        solve = solver.LpModel.solve

        def counted(model, *args):
            calls.append(args)
            return solve(model, *args)

        model = solver.LpModel()
        with mock.patch.object(solver.LpModel, "solve", counted):
            first = solve_ilp(a, model)
            other = solve_ilp(b, model)
            del calls[:]
            again = solve_ilp(a, model)
            # loading b emptied the memo, so a is searched again
            assert calls
            del calls[:]
            repeat = solve_ilp(a, model)
            if model.holds(a):  # a search without free columns loads nothing
                assert repeat is again and not calls
        expected = exhaustive(a).objective
        for ilp in (first, again, repeat):
            assert ilp.objective == pytest.approx(expected, abs=1e-9)
        assert other.objective == pytest.approx(exhaustive(b).objective, abs=1e-9)

    def test_a_repeated_system_returns_the_stored_search(self):
        cs = make_system([[0, 1], [0, 2], [1, 2]], [1, 1, 1, 3], [1.0, 0.9, 0.8])
        model = solver.LpModel()
        root, ilp = solve_lp(cs, model), solve_ilp(cs, model)
        assert ilp.nodes_explored == 3
        # an equal system built apart, at bounds that floor alike, shares the search
        twin = make_system([[0, 1], [0, 2], [1, 2]], [1.0000001, 1, 1.5, 3], [1.0, 0.9, 0.8])
        with mock.patch.object(solver.LpModel, "solve", side_effect=AssertionError):
            shared_root, shared = solve_lp(twin, model), solve_ilp(twin, model)
        assert shared is solve_ilp(cs, model)
        assert shared_root.objective == root.objective
        # other floored bounds are another search
        looser = make_system([[0, 1], [0, 2], [1, 2]], [1, 1, 2, 3], [1.0, 0.9, 0.8])
        assert solve_ilp(looser, model) is not shared

    def test_shared_arrays_are_read_only(self):
        cs = make_system([[0, 1], [0, 2], [1, 2]], [1, 1, 1, 3], [1.0, 0.9, 0.8])
        model = solver.LpModel()
        solve_ilp(cs, model)
        lp, ilp = solve_lp(cs, model), solve_ilp(cs, model)
        for array in (lp.values, lp.bounds, lp.forced, ilp.values, ilp.bounds):
            with pytest.raises(ValueError):
                array[0] = 1

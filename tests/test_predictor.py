import pytest

from graphforecast import candidates, constraints, solver, timeseries
from graphforecast.candidates import Provenance, build_hypothetical
from graphforecast.datagen import PaConfig, pa_sequence, uniform_band_schedule
from graphforecast.graphs import Graph, GraphSeries
from graphforecast.predictor import PredictParams, predict, predict_distribution

from systems import exhaustive, floored


def small_pa_series(seed, length=9, base=8, step=2, width=2, s=2, s0=5):
    cfg = PaConfig(
        s=s, s0=s0, length=length,
        schedule=uniform_band_schedule(base, step, width), seed=seed,
    )
    return pa_sequence(cfg)


class TestPredictParams:
    def test_defaults(self):
        p = PredictParams()
        assert (p.gamma, p.u, p.alpha, p.k, p.h) == (0.5, 0.8, 1e-3, 10, 1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"gamma": 0.0},
            {"gamma": 1.0},
            {"u": 1.5},
            {"alpha": 0.0},
            {"alpha": 1.0},
            {"k": 0},
            {"h": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            PredictParams(**kwargs)


class TestPredict:
    def test_stable_triangle_predicts_itself(self):
        g = Graph([0, 1, 2], [(0, 1), (0, 2), (1, 2)])
        series = GraphSeries([g] * 6)
        result = predict(series, PredictParams())
        assert result.graph == g
        assert result.horizon_origin == 6

    def test_decreasing_degree_can_drop_an_edge(self):
        # vertex 9's degree falls one edge per snapshot toward zero; the
        # selection stays inside the candidate set and matches the exhaustive oracle
        snaps = []
        for t in range(6):
            hub_edges = [(9, j) for j in range(5 - t)]
            frame = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
            snaps.append(Graph(range(10), frame + hub_edges))
        series = GraphSeries(snaps)
        params = PredictParams(u=0.5)
        result = predict(series, params)
        H = build_hypothetical(series, params.h, params.gamma, params.k)
        cand_pairs = {c.pair for c in H.candidates}
        assert result.graph.edges <= cand_pairs
        cs = constraints.assemble(series, H, params.h, params.u, params.alpha)
        assert result.diagnostics["ilp_objective"] == exhaustive(cs).objective

    def test_one_node_prediction_solves_one_lp(self, monkeypatch):
        runs = []

        class Counted(solver._Highs):
            def run(self):
                runs.append(self)
                return super().run()

        monkeypatch.setattr(solver, "_Highs", Counted)
        g = Graph([0, 1, 2], [(0, 1), (0, 2), (1, 2)])
        result = predict(GraphSeries([g] * 6), PredictParams())
        assert result.diagnostics["nodes_explored"] == 1
        assert result.diagnostics["ilp_status"] == "optimal"
        # each vertex's bound admits both its edges, so all three are fixed at 1
        # and no column is left for HiGHS
        assert result.diagnostics["forced_columns"] == 3
        assert result.diagnostics["simplex_iterations"] == 0
        assert runs == []
        # a one-node search with free columns runs HiGHS once, for the root
        result = predict(small_pa_series(1).window(1, 7), PredictParams())
        assert result.diagnostics["nodes_explored"] == 1
        assert result.diagnostics["simplex_iterations"] > 0
        assert len(runs) == 1

    def test_no_growth_means_no_attachment_edges(self):
        g = Graph.from_edges([(0, 1), (1, 2), (2, 3)])
        series = GraphSeries([g] * 7)
        result = predict(series, PredictParams())
        assert result.graph.vertex_count == g.vertex_count
        assert result.diagnostics["n_hat"] <= g.vertex_count

    def test_requires_four_snapshots(self):
        g = Graph([0, 1], [(0, 1)])
        with pytest.raises(ValueError):
            predict(GraphSeries([g] * 3), PredictParams())

    def test_draining_edges_can_predict_none(self):
        # edges drain fast enough that the total bound forecasts to zero;
        # the vertices survive as an edgeless prediction
        all_edges = [(u, v) for u in range(12) for v in range(u + 1, 12)][:40]
        snaps = [Graph(range(12), all_edges[: 40 - 6 * t]) for t in range(7)]
        series = GraphSeries(snaps)
        result = predict(series, PredictParams(u=0.5, h=5))
        assert result.graph.vertex_count == 12
        assert result.graph.edge_count == 0

    def test_contract_on_pa_series(self):
        for seed in range(4):
            series = small_pa_series(seed)
            train = series.window(1, 7)
            params = PredictParams(h=2)
            result = predict(train, params)
            H = build_hypothetical(train, 2, params.gamma, params.k)
            # never invents an edge outside the hypothetical graph
            assert result.graph.edges <= {c.pair for c in H.candidates}
            # vertex count equals max(n_T, n_hat) exactly
            assert result.graph.vertex_count == max(
                train.last.vertex_count, result.diagnostics["n_hat"]
            )
            # all bounds hold
            cs = constraints.assemble(train, H, 2, params.u, params.alpha)
            order = H.vertex_order
            for i, v in enumerate(order):
                deg = (
                    result.graph.degree(v) if v in result.graph.vertices else 0
                )
                assert deg <= cs.upper_bounds[i] + 1e-6
            assert result.graph.edge_count <= cs.upper_bounds[-1] + 1e-6
            # LP relaxation dominates the integer objective
            assert (
                result.diagnostics["lp_objective"]
                >= result.diagnostics["ilp_objective"] - 1e-9
            )

    def test_candidates_by_provenance(self):
        series = small_pa_series(2).window(1, 7)
        params = PredictParams(k=3)
        result = predict(series, params)
        H = build_hypothetical(series, params.h, params.gamma, params.k)
        kinds = {p.value: 0 for p in Provenance}
        for c in H.candidates:
            kinds[c.provenance.value] += 1
        assert result.diagnostics["candidates_by_provenance"] == kinds
        assert kinds["attachment"] > 0 and kinds["homophily"] > 0

    def test_bound_totals(self):
        series = small_pa_series(2).window(1, 7)
        params = PredictParams(k=3)
        result = predict(series, params)
        H = build_hypothetical(series, params.h, params.gamma, params.k)
        f = floored(constraints.assemble(series, H, params.h, params.u, params.alpha))
        assert result.diagnostics["degree_bound_total"] == f[:-1].sum() / 2
        assert result.diagnostics["edge_bound"] == f[-1]

    def test_deterministic(self):
        series = small_pa_series(3).window(1, 7)
        a = predict(series, PredictParams(h=2))
        b = predict(series, PredictParams(h=2))
        assert a.graph == b.graph
        assert a.diagnostics == b.diagnostics


class TestPredictDistribution:
    def test_single_cell_matches_predict(self):
        series = small_pa_series(1).window(1, 7)
        lone = predict_distribution(series, [0.5], [0.8])
        direct = predict(series, PredictParams(gamma=0.5, u=0.8))
        assert len(lone) == 1
        assert lone[0].graph == direct.graph

    def test_row_major_order(self):
        series = small_pa_series(2).window(1, 7)
        grid = predict_distribution(series, [0.3, 0.7], [0.4, 0.6, 0.8])
        assert len(grid) == 6
        expected = [(g, u) for g in (0.3, 0.7) for u in (0.4, 0.6, 0.8)]
        assert [(p.params.gamma, p.params.u) for p in grid] == expected

    def test_edge_count_weakly_grows_in_u(self):
        for seed in range(10):
            series = small_pa_series(seed).window(1, 7)
            grid = predict_distribution(
                series, [0.5], [0.3, 0.5, 0.7, 0.9], base=PredictParams(h=2)
            )
            counts = [p.graph.edge_count for p in grid]
            assert counts == sorted(counts)

    def test_cells_match_lone_predictions(self):
        # the u cells of a gamma share an LP model, so each root starts from the
        # previous cell's basis; a lone predict solves cold.  Cell (0.5, 0.8) branches
        series = small_pa_series(5).window(1, 7)
        grid = predict_distribution(series, [0.2, 0.5, 0.8], [0.5, 0.8, 0.95])
        assert max(p.diagnostics["nodes_explored"] for p in grid) > 1
        for cell in grid:
            lone = predict(series, cell.params)
            for key in ("ilp_objective", "n_hat"):
                assert cell.diagnostics[key] == lone.diagnostics[key], key
            # another optimal vertex of the same LP can sum to its objective in
            # another order (40.005 against 40.004999999999995)
            assert cell.diagnostics["lp_objective"] == pytest.approx(
                lone.diagnostics["lp_objective"], rel=1e-12
            )
            assert cell.graph.edge_count == lone.graph.edge_count

    def test_shared_work_matches_cells_built_from_scratch(self):
        # the grid shares forecasts, degree series and candidate graphs between
        # cells; rebuilding all of them for every cell, on the same chain of
        # warm-started solves, changes nothing.  Cell (0.5, 0.8) branches
        series = small_pa_series(5).window(1, 7)
        grid = predict_distribution(series, [0.2, 0.5, 0.8], [0.5, 0.8, 0.95])
        model = solver.LpModel()
        for cell in grid:
            timeseries._longest.clear()
            candidates.homophily_candidates.cache_clear()
            candidates._hypothetical.cache_clear()
            fresh = GraphSeries(list(series))  # without the degree series built so far
            alone = predict(fresh, cell.params, model=model)
            assert alone.graph == cell.graph
            assert alone.diagnostics == cell.diagnostics

    def test_equal_systems_are_searched_once(self, monkeypatch):
        # the three gammas forecast the same vertex count, so the grid holds two
        # systems, one per u.  Each is searched once (cell (0.2, 0.8) branches)
        # and the later cells of its u share the search
        series = pa_sequence(
            PaConfig(s=3, s0=3, length=5, schedule=uniform_band_schedule(0, 20, 1), seed=0)
        )
        roots, restored = [], [False]
        solve, restore = solver.LpModel.solve, solver.LpModel.restore

        def restoring(model, basis):
            restored[0] = True
            return restore(model, basis)

        def counted(model, *args):
            if not restored[0]:
                roots.append(args)
            restored[0] = False
            return solve(model, *args)

        monkeypatch.setattr(solver.LpModel, "restore", restoring)
        monkeypatch.setattr(solver.LpModel, "solve", counted)
        grid = predict_distribution(series, [0.2, 0.5, 0.8], [0.8, 0.95])
        assert len({cell.diagnostics["n_hat"] for cell in grid}) == 1
        assert grid[0].diagnostics["nodes_explored"] > 1
        assert len(roots) == 2
        for cell, first in zip(grid[2:], grid[:2] * 2):
            assert cell.graph == first.graph
            assert cell.diagnostics == first.diagnostics

    def test_empty_grid_rejected(self):
        series = small_pa_series(0).window(1, 7)
        with pytest.raises(ValueError):
            predict_distribution(series, [], [0.5])

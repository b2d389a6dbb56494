import csv

import numpy as np
import pytest

from graphforecast import evaluate, timeseries
from graphforecast.datagen import PaConfig, delete_edges, pa_sequence, run_seed, uniform_band_schedule
from graphforecast.evaluate import (
    EvalReport,
    edge_error,
    run_real_experiment,
    run_synthetic_experiment,
    vertex_error,
    write_reports_csv,
)
from graphforecast.graphs import Graph
from graphforecast.ingest import boundary_schedule, dump_edgelist, expanding_windows, parse_edgelist
from graphforecast.predictor import PredictParams


def graph_of_size(n, m):
    edges = []
    v = 1
    while len(edges) < m:
        for u in range(v):
            edges.append((u, v))
            if len(edges) == m:
                break
        v += 1
    return Graph(range(n), edges)


class TestErrors:
    def test_vertex_error_formula(self):
        assert vertex_error(graph_of_size(105, 0), graph_of_size(100, 0)) == 0.05

    def test_vertex_error_zero(self):
        g = graph_of_size(10, 0)
        assert vertex_error(g, g) == 0.0

    def test_vertex_error_empty_prediction(self):
        assert vertex_error(Graph([], []), graph_of_size(100, 0)) == 1.0

    def test_vertex_error_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            vertex_error(graph_of_size(5, 0), Graph([], []))

    def test_edge_error_formula(self):
        assert edge_error(graph_of_size(20, 90), graph_of_size(20, 100)) == pytest.approx(0.10)

    def test_edge_error_zero(self):
        g = graph_of_size(10, 5)
        assert edge_error(g, g) == 0.0

    def test_edge_error_double(self):
        assert edge_error(graph_of_size(30, 100), graph_of_size(30, 50)) == pytest.approx(1.0)

    def test_edge_error_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            edge_error(graph_of_size(5, 3), graph_of_size(5, 0))


def tiny_params():
    return PredictParams(k=3)


def tiny_synthetic(**kw):
    defaults = dict(
        experiment=1, runs=2, T=6, horizons=[1, 2], params=tiny_params(), seed=5,
        s=2, s0=5, schedule=(8, 2, 2),
    )
    defaults.update(kw)
    return run_synthetic_experiment(**defaults)


class TestSyntheticExperiment:
    def test_report_shape(self):
        reports = tiny_synthetic()
        assert [r.horizon for r in reports] == [1, 2]
        for r in reports:
            assert r.vertex_error >= 0 and r.edge_error >= 0

    def test_deterministic(self):
        assert tiny_synthetic() == tiny_synthetic()

    def test_seed_changes_results(self):
        assert tiny_synthetic() != tiny_synthetic(seed=6)

    def test_deletion_variant_runs(self):
        reports = tiny_synthetic(experiment=2, s=3, s0=8, schedule=(10, 3, 2))
        assert len(reports) == 2

    def test_reduction_definition(self):
        for r in tiny_synthetic():
            if r.baseline_vertex_error > 0:
                assert r.reduction_vertex == pytest.approx(
                    1 - r.vertex_error / r.baseline_vertex_error
                )

    def test_empty_horizons_are_rejected(self):
        with pytest.raises(ValueError, match="^horizons must be non-empty$"):
            tiny_synthetic(horizons=[])

    def test_baseline_error_grows_with_horizon(self):
        reports = tiny_synthetic(runs=3, T=6, horizons=[1, 2, 3])
        bves = [r.baseline_vertex_error for r in reports]
        assert bves == sorted(bves)


class TestRealExperiment:
    def make_series(self, length=16):
        cfg = PaConfig(
            s=2, s0=5, length=length, schedule=uniform_band_schedule(8, 2, 2), seed=3,
        )
        return pa_sequence(cfg)

    def test_aggregates_over_T(self):
        series = self.make_series(16)
        reports = run_real_experiment(
            series, Ts=[8, 9, 10], horizons=[1, 2], params=tiny_params(), window=8
        )
        assert [r.horizon for r in reports] == [1, 2]

    def test_window_excludes_early_snapshots(self):
        series = self.make_series(16)
        w = series.window(16 - 8 + 1, 16)
        assert len(w) == 8
        assert w.snapshot(1) == series.snapshot(9)

    def test_length_validation(self):
        series = self.make_series(10)
        with pytest.raises(ValueError):
            run_real_experiment(series, Ts=[8], horizons=[5], params=tiny_params(), window=8)
        for Ts, horizons, name in (([], [1], "Ts"), ([8], [], "horizons")):
            with pytest.raises(ValueError, match=f"^{name} must be non-empty$"):
                run_real_experiment(series, Ts=Ts, horizons=horizons, params=tiny_params(), window=8)

    def test_edge_list_pipeline_matches_direct(self, tmp_path):
        series = self.make_series(12)
        path = tmp_path / "events.txt"
        dump_edgelist(series, path)
        events = parse_edgelist(path)
        rebuilt = expanding_windows(events, boundary_schedule(events, "ticks:1"))
        direct = run_real_experiment(
            series, Ts=[8, 9], horizons=[1, 2], params=tiny_params(), window=8
        )
        via_file = run_real_experiment(
            rebuilt, Ts=[8, 9], horizons=[1, 2], params=tiny_params(), window=8
        )
        assert direct == via_file

    def test_mean_aggregation(self):
        series = self.make_series(16)
        Ts = [8, 9, 10]
        reports = run_real_experiment(series, Ts=Ts, horizons=[1], params=tiny_params(), window=8)
        per_T = []
        for T in Ts:
            r = run_real_experiment(series, Ts=[T], horizons=[1], params=tiny_params(), window=8)
            per_T.append(r[0].vertex_error)
        assert reports[0].vertex_error == pytest.approx(float(np.mean(per_T)))


class TestOneScoringRule:
    @pytest.mark.parametrize("experiment", [1, 2])
    def test_one_run_is_one_moving_window(self, experiment):
        # a synthetic run is the moving window of length T ending at T over
        # the series it generates, so both protocols score it alike
        T, horizons, seed, s, s0, schedule = 6, [1, 2], 5, 3, 8, (10, 3, 2)
        cfg = PaConfig(
            s=s, s0=s0, length=T + max(horizons), schedule=uniform_band_schedule(*schedule),
            seed=run_seed(seed, 0, 0),
        )
        series = pa_sequence(cfg)
        if experiment == 2:
            series = delete_edges(series, *evaluate.SYNTH_DELETE_RANGE, run_seed(seed, 0, 1))
        synthetic = tiny_synthetic(
            experiment=experiment, runs=1, T=T, horizons=horizons, seed=seed,
            s=s, s0=s0, schedule=schedule,
        )
        real = run_real_experiment(series, Ts=[T], horizons=horizons, params=tiny_params(), window=T)
        assert synthetic == real


class TestForecastOnce:
    """A protocol forecasts each count series once, at its longest horizon."""

    def test_each_series_is_forecast_once(self, monkeypatch):
        asked, forecast_for = [], []
        with_fallback, forecast = timeseries.forecast_with_fallback, timeseries.forecast

        def asking(series, h):
            asked.append(series)
            return with_fallback(series, h)

        def counting(fit, series, h):
            forecast_for.append(series)
            return forecast(fit, series, h)

        monkeypatch.setattr(timeseries, "forecast_with_fallback", asking)
        monkeypatch.setattr(timeseries, "forecast", counting)
        timeseries._models.clear()
        tiny_synthetic(experiment=2, runs=1, T=8, horizons=(1, 2, 3, 4, 5),
                       s=3, s0=8, schedule=(10, 3, 2))
        long_enough = {s for s in asked if len(s) >= 4}
        assert len(forecast_for) == len(long_enough) > 0
        assert set(forecast_for) == long_enough

    def test_reports_keep_the_order_of_the_horizons(self):
        series = TestRealExperiment().make_series(12)

        def run(horizons):
            return run_real_experiment(
                series, Ts=[8, 9], horizons=horizons, params=tiny_params(), window=8
            )

        assert run((3, 1, 2)) == [run((h,))[0] for h in (3, 1, 2)]


class TestCsvOutput:
    def test_schema_and_rows(self, tmp_path):
        reports = [
            EvalReport(1, 0.01, 0.02, 0.05, 0.08, 0.8, 0.75),
            EvalReport(2, 0.02, 0.03, 0.10, 0.12, 0.8, 0.75),
        ]
        out = tmp_path / "results.csv"
        write_reports_csv(reports, out, "demo", "1")
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == evaluate.CSV_COLUMNS
        assert len(rows) == 5
        assert rows[1][3] == "last_seen" and rows[2][3] == "proposed"
        assert rows[1][6] == ""  # no reduction on baseline rows
        assert rows[2][6] == "80.000"

    def test_metadata_sidecar(self, tmp_path):
        out = tmp_path / "results.csv"
        evaluate.write_run_metadata(out, "eval-synth", 7, {"k": 10})
        meta = (tmp_path / "results.csv.meta.json").read_text()
        assert '"seed": 7' in meta
        assert "PCG64" in meta

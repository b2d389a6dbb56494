import io

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from graphforecast import ingest
from graphforecast.datagen import PaConfig, delete_edges, pa_sequence, uniform_band_schedule
from graphforecast.graphs import Graph, GraphSeries
from graphforecast.ingest import (
    EdgeEvent,
    boundary_schedule,
    dump_edgelist,
    expanding_windows,
    parse_edgelist,
)


class TestParseEdgelist:
    def test_whitespace_format(self):
        events = parse_edgelist(io.StringIO("1 2 100\n2 3 200\n"))
        assert events == [EdgeEvent(1, 2, 100), EdgeEvent(2, 3, 200)]

    def test_comment_and_comma_format(self):
        events = parse_edgelist(io.StringIO("# comment\n1,2,100\n"))
        assert events == [EdgeEvent(1, 2, 100)]

    def test_self_loop_dropped(self, caplog):
        with caplog.at_level("WARNING"):
            events = parse_edgelist(io.StringIO("1 1 100\n"))
        assert events == []
        assert "self-loop" in caplog.text

    def test_percent_comments(self):
        events = parse_edgelist(io.StringIO("% header\n% more\n3 4 5\n"))
        assert events == [EdgeEvent(3, 4, 5)]

    def test_malformed_threshold_aborts(self):
        lines = ["1 2 3\n"] * 50 + ["garbage line here extra\n"] * 50
        with pytest.raises(ValueError):
            parse_edgelist(io.StringIO("".join(lines)))

    def test_few_malformed_tolerated(self, caplog):
        lines = ["1 2 3\n"] * 200 + ["bad\n"]
        with caplog.at_level("WARNING"):
            events = parse_edgelist(io.StringIO("".join(lines)))
        assert len(events) == 200
        assert "malformed" in caplog.text

    def test_from_path(self, tmp_path):
        p = tmp_path / "edges.txt"
        p.write_text("7 8 1\n8 9 2\n")
        assert len(parse_edgelist(p)) == 2


class TestExpandingWindows:
    def test_basic(self):
        events = [EdgeEvent(1, 2, 1), EdgeEvent(2, 3, 2), EdgeEvent(3, 4, 3)]
        series = expanding_windows(events, [1, 2])
        assert series.snapshot(1).edges == frozenset({(1, 2)})
        assert series.snapshot(2).edges == frozenset({(1, 2), (2, 3)})

    def test_duplicate_events_merge(self):
        events = [EdgeEvent(1, 2, 1), EdgeEvent(2, 1, 2)]
        series = expanding_windows(events, [1, 2])
        assert series.snapshot(2).edge_count == 1

    def test_single_window(self):
        events = [EdgeEvent(1, 2, 1), EdgeEvent(2, 3, 2), EdgeEvent(3, 4, 3)]
        series = expanding_windows(events, [3])
        assert series.snapshot(1).edge_count == 3

    def test_growing_by_construction(self):
        events = [EdgeEvent(i, i + 1, i) for i in range(1, 12)]
        series = expanding_windows(events, [3, 6, 9, 12])
        for t in range(2, 5):
            assert series.snapshot(t - 1).edges <= series.snapshot(t).edges
            assert series.snapshot(t - 1).vertices <= series.snapshot(t).vertices

    def test_empty_first_window(self):
        events = [EdgeEvent(1, 2, 10)]
        with pytest.raises(ValueError):
            expanding_windows(events, [5, 15])

    def test_non_increasing_boundaries(self):
        events = [EdgeEvent(1, 2, 1)]
        with pytest.raises(ValueError):
            expanding_windows(events, [2, 2])


class TestBoundarySchedule:
    def test_daily_over_three_days(self):
        day = 86400
        events = [EdgeEvent(1, 2, 0), EdgeEvent(2, 3, day + 5), EdgeEvent(3, 4, 2 * day + 5)]
        bounds = boundary_schedule(events, "daily")
        assert bounds == [day - 1, 2 * day - 1, 3 * day - 1]

    def test_biweekly_spacing(self):
        day = 86400
        events = [EdgeEvent(1, 2, 0), EdgeEvent(2, 3, 40 * day)]
        bounds = boundary_schedule(events, "biweekly")
        assert bounds[1] - bounds[0] == 14 * day
        assert bounds[-1] >= 40 * day

    def test_ticks(self):
        events = [EdgeEvent(1, 2, 5), EdgeEvent(2, 3, 250)]
        assert boundary_schedule(events, "ticks:100") == [100, 200, 300]

    def test_covers_the_full_span(self):
        day = 86400
        events = [EdgeEvent(1, 2, 0), EdgeEvent(2, 3, 500 * day)]
        bounds = boundary_schedule(events, "daily")
        assert len(bounds) == 501
        assert bounds[-2] < 500 * day <= bounds[-1]

    def test_keeps_every_event_past_29_windows(self):
        events = [EdgeEvent(i, i + 1, i + 1) for i in range(40)]
        series = expanding_windows(events, boundary_schedule(events, "ticks:1"))
        assert len(series) == 40
        assert series.snapshot(40).edge_count == 40

    def test_refuses_a_runaway_schedule(self):
        events = [EdgeEvent(1, 2, 1_700_000_000)]
        with pytest.raises(ValueError, match="coarser granularity"):
            boundary_schedule(events, "ticks:1")

    def test_calendar_alignment(self):
        day = 86400
        events = [EdgeEvent(1, 2, day + 12345), EdgeEvent(2, 3, 2 * day)]
        bounds = boundary_schedule(events, "daily")
        assert bounds[0] == 2 * day - 1  # end of the first event's UTC day

    def test_unknown_granularity(self):
        with pytest.raises(ValueError):
            boundary_schedule([EdgeEvent(1, 2, 1)], "hourly")


@st.composite
def growing_series(draw):
    """A series whose edge sets only grow, each vertex an edge endpoint.

    An edge list holds edges only, so isolated vertices cannot round-trip,
    and the last snapshot adds an edge so that it sets the last tick.
    """
    pair = st.tuples(st.integers(0, 40), st.integers(0, 40)).filter(lambda uv: uv[0] != uv[1])
    batches = draw(st.lists(st.lists(pair, min_size=1, max_size=6), min_size=1, max_size=8))
    snapshots, edges = [], set()
    for batch in batches:
        before = len(snapshots[-1].edges) if snapshots else 0
        edges.update(batch)
        snapshots.append(Graph.from_edges(edges))
    assume(len(snapshots[-1].edges) > before)
    return GraphSeries(snapshots)


class TestRoundTrip:
    def test_pa_series_round_trips(self, tmp_path):
        cfg = PaConfig(s=2, s0=5, length=8, schedule=uniform_band_schedule(5, 1, 1), seed=21)
        series = pa_sequence(cfg)
        path = tmp_path / "pa.txt"
        dump_edgelist(series, path)
        events = parse_edgelist(path)
        rebuilt = expanding_windows(events, list(range(1, 9)))
        assert rebuilt == series

    def test_boundary_schedule_recovers_ticks(self, tmp_path):
        cfg = PaConfig(s=2, s0=5, length=6, schedule=uniform_band_schedule(5, 1, 1), seed=2)
        series = pa_sequence(cfg)
        path = tmp_path / "pa.txt"
        dump_edgelist(series, path)
        events = parse_edgelist(path)
        bounds = boundary_schedule(events, "ticks:1")
        assert bounds == list(range(1, 7))
        assert expanding_windows(events, bounds) == series

    # every example overwrites the same file, so sharing tmp_path is harmless
    @settings(
        derandomize=True,
        deadline=None,
        max_examples=200,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(series=growing_series())
    def test_any_growing_series_round_trips(self, tmp_path, series):
        path = tmp_path / "series.txt"
        dump_edgelist(series, path)
        events = parse_edgelist(path)
        assert expanding_windows(events, boundary_schedule(events, "ticks:1")) == series

    def test_a_deleted_edge_is_refused(self, tmp_path):
        # 'u v t' lines are cumulative: written anyway, the series would come
        # back with every deleted edge still in it
        cfg = PaConfig(s=3, s0=8, length=8, schedule=uniform_band_schedule(10, 2, 2), seed=4)
        series = delete_edges(pa_sequence(cfg), 1, 2, 5)
        path = tmp_path / "deleted.txt"
        with pytest.raises(ValueError, match="^snapshot 2 deletes an edge of snapshot 1"):
            dump_edgelist(series, path)
        assert not path.exists()

    def test_dump_graph_is_ingestible(self, tmp_path):
        g = Graph.from_edges([(0, 1), (1, 2)])
        path = tmp_path / "pred.txt"
        ingest.dump_graph(g, path, t=17)
        events = parse_edgelist(path)
        assert {e.t for e in events} == {17}
        rebuilt = expanding_windows(events, [17])
        assert rebuilt.snapshot(1) == g

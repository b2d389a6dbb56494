import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphforecast import constraints, timeseries
from graphforecast.candidates import build_hypothetical
from graphforecast.graphs import (
    Graph,
    GraphSeries,
    degree_series,
    edge_count_series,
    new_vertex_degree_pool,
    vertex_count_series,
)

from systems import incidence


def constant_series(graph, length=6):
    return GraphSeries([graph] * length)


def path_graph(ids):
    return Graph(ids, list(zip(ids, ids[1:])))


def activity_matrix(cs):
    """M column by column, as the system's own activity computes it."""
    return np.column_stack([cs.activity(e) for e in np.eye(cs.n_cols)])


class TestDegreeBounds:
    def test_constant_degree_is_exact(self):
        g = Graph([1, 2, 3], [(1, 2), (1, 3), (2, 3)])
        series = constant_series(g)
        H = build_hypothetical(series, 1, 0.5, 2)
        bounds = constraints.degree_bounds(series, H, 1, 0.8)
        assert bounds == pytest.approx([2.0, 2.0, 2.0])

    def test_growing_degree_tracks_trend(self):
        # vertex 0 gains one edge per snapshot: degrees 1..10
        snaps = []
        for t in range(1, 11):
            edges = [(0, j) for j in range(1, t + 1)]
            snaps.append(Graph(range(11), edges))
        series = GraphSeries(snaps)
        H = build_hypothetical(series, 1, 0.5, 2)
        bounds = constraints.degree_bounds(series, H, 1, 0.5)
        # oracle: linear extrapolation of the exact ramp
        assert bounds[0] == pytest.approx(11.0, abs=0.5)

    def test_new_vertices_get_pool_mean(self):
        # one arrival per snapshot with arrival degrees 2, 1, 3, 2, 1, 3, 2
        arrival_deg = {2: 2, 3: 1, 4: 3, 5: 2, 6: 1, 7: 3, 8: 2}
        edges = [(0, 1)]
        snaps = [Graph([0, 1], edges)]
        for v, deg in arrival_deg.items():
            edges = edges + [(u, v) for u in range(deg)]
            snaps.append(Graph(range(v + 1), edges))
        series = GraphSeries(snaps)
        H = build_hypothetical(series, 2, 0.5, 3)
        assert H.new_vertex_count >= 1  # counts grow by one per snapshot
        bounds = constraints.degree_bounds(series, H, 2, 0.8)
        pool_mean = sum(arrival_deg.values()) / len(arrival_deg)
        for i in range(H.new_vertex_count):
            assert bounds[len(series.last.vertices) + i] == pytest.approx(pool_mean)

    def test_never_negative(self):
        g = path_graph([0, 1, 2, 3])
        series = constant_series(g)
        H = build_hypothetical(series, 1, 0.5, 2)
        bounds = constraints.degree_bounds(series, H, 1, 0.01)
        assert (bounds >= 0).all()


class TestTotalEdgeBound:
    def test_constant_edges(self):
        g = Graph.from_edges([(0, 1), (1, 2)])
        series = constant_series(g)
        for u in (0.2, 0.5, 0.9):
            assert constraints.total_edge_bound(series, 1, u) == pytest.approx(2.0)

    def test_linear_growth(self):
        snaps = []
        edges = [(0, 1)]
        for t in range(15):
            snaps.append(Graph(range(20), list(edges)))
            edges.append((t + 1, t + 2))
        series = GraphSeries(snaps)
        got = constraints.total_edge_bound(series, 1, 0.5)
        assert got == pytest.approx(16.0, abs=0.5)  # ramp continues by one

    def test_declining_forecast_clamps_to_zero(self):
        # edges drain by five per snapshot; far horizons forecast negative
        all_edges = [(u, v) for u in range(12) for v in range(u + 1, 12)][:45]
        snaps = []
        for t in range(8):
            snaps.append(Graph(range(12), all_edges[: 45 - 5 * t]))
        series = GraphSeries(snaps)
        assert constraints.total_edge_bound(series, 5, 0.5) == 0.0

    def test_three_snapshots_use_the_fallback(self):
        # too short for ARIMA: the last count, spread by the sample deviation
        series = GraphSeries([path_graph(list(range(n))) for n in (3, 4, 6)])
        spread = statistics.NormalDist().inv_cdf(0.9) * statistics.stdev([2, 3, 5])
        assert constraints.total_edge_bound(series, 2, 0.5) == 5.0
        assert constraints.total_edge_bound(series, 2, 0.9) == pytest.approx(5.0 + spread)


class TestObjectiveCoeffs:
    def test_mixed_provenance(self):
        series = constant_series(path_graph([0, 1, 2]))
        H = build_hypothetical(series, 1, 0.5, 2)
        coeffs = constraints.objective_coeffs(H, 1e-3)
        existing = sum(1 for c in H.candidates if c.provenance.value == "existing")
        assert (coeffs[:existing] == 1.0).all()
        assert (coeffs[existing:] == 1e-3).all()

    def test_alpha_validation(self):
        series = constant_series(path_graph([0, 1, 2]))
        H = build_hypothetical(series, 1, 0.5, 2)
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                constraints.objective_coeffs(H, bad)


class TestAssemble:
    def test_shapes(self):
        series = constant_series(path_graph([0, 1, 2, 3]))
        H = build_hypothetical(series, 1, 0.5, 2)
        cs = constraints.assemble(series, H, 1, 0.8, 1e-3)
        assert cs.n_rows == len(H.vertex_order) + 1
        assert cs.n_cols == len(H.candidates)
        assert len(cs.upper_bounds) == cs.n_rows

    def test_last_row_all_ones(self):
        series = constant_series(path_graph([0, 1, 2]))
        H = build_hypothetical(series, 1, 0.5, 2)
        cs = constraints.assemble(series, H, 1, 0.8, 1e-3)
        dense = activity_matrix(cs)
        assert (dense[-1, :] == 1.0).all()

    def test_vertex_columns_sum_to_two(self):
        series = constant_series(path_graph([0, 1, 2, 3, 4]))
        H = build_hypothetical(series, 1, 0.5, 2)
        cs = constraints.assemble(series, H, 1, 0.8, 1e-3)
        dense = activity_matrix(cs)
        assert (dense[:-1, :].sum(axis=0) == 2.0).all()

    def test_matches_incidence_matrix_up_to_column_order(self):
        series = constant_series(path_graph([0, 1, 2, 3]))
        H = build_hypothetical(series, 1, 0.5, 2)
        cs = constraints.assemble(series, H, 1, 0.8, 1e-3)
        row_of = {v: r for r, v in enumerate(H.vertex_order)}
        ref = np.zeros((len(H.vertex_order), len(H.candidates)))
        for j, c in enumerate(H.candidates):
            for v in c.pair:
                ref[row_of[v], j] = 1.0
        assert (ref == activity_matrix(cs)[:-1, :]).all()

    def test_zero_selection_always_feasible(self):
        series = constant_series(path_graph([0, 1, 2, 3]))
        H = build_hypothetical(series, 1, 0.5, 2)
        cs = constraints.assemble(series, H, 1, 0.8, 1e-3)
        assert (cs.upper_bounds >= 0).all()

    def test_deterministic(self):
        snaps = [path_graph(list(range(n))) for n in [4, 5, 6, 7, 8, 9]]
        series = GraphSeries(snaps)
        a = constraints.assemble(series, build_hypothetical(series, 2, 0.7, 3), 2, 0.7, 1e-3)
        b = constraints.assemble(series, build_hypothetical(series, 2, 0.7, 3), 2, 0.7, 1e-3)
        assert (a.upper_bounds == b.upper_bounds).all()
        assert (a.endpoint_rows == b.endpoint_rows).all()
        assert (a.objective == b.objective).all()

    def test_empty_candidate_system(self):
        # a single isolated vertex yields no candidates at all
        g = Graph([0], [])
        series = constant_series(g)
        H = build_hypothetical(series, 1, 0.5, 2)
        cs = constraints.assemble(series, H, 1, 0.8, 1e-3)
        assert cs.n_cols == 0


@st.composite
def small_growing_series(draw):
    """1-7 snapshots whose vertex sets grow by 1-3 per step; edges come and go."""
    n = draw(st.integers(2, 5))
    snapshots = []
    for _ in range(draw(st.integers(1, 7))):
        n += draw(st.integers(1, 3))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        snapshots.append(Graph(range(n), draw(st.lists(st.sampled_from(pairs), max_size=12))))
    return GraphSeries(snapshots)


class TestRowBounds:
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        series=small_growing_series(),
        h=st.integers(1, 3),
        gamma=st.floats(0.05, 0.95),
        u=st.floats(0.05, 0.95),
    )
    def test_each_row_is_its_series_bound(self, series, h, gamma, u):
        H = build_hypothetical(series, h, gamma, 2)
        cs = constraints.assemble(series, H, h, u, 1e-3)
        pool_mean = new_vertex_degree_pool(series, len(series))[1] if len(series) >= 2 else 0.0
        assert cs.row_vertices == H.vertex_order
        for r, v in enumerate(cs.row_vertices):
            if v in series.last.vertices:
                expected = timeseries.upper_bound(degree_series(series, v), h, u)
            else:
                expected = pool_mean
            assert cs.upper_bounds[r] == expected
        assert cs.upper_bounds[-1] == timeseries.upper_bound(edge_count_series(series), h, u)
        n_bound = timeseries.upper_bound(vertex_count_series(series), h, gamma)
        assert H.n_hat == math.floor(n_bound + 0.5)


@st.composite
def incidence_cases(draw):
    """A system on 2-7 vertex rows with up to 12 columns, endpoints in either order."""
    nv = draw(st.integers(2, 7))
    pair = st.tuples(st.integers(0, nv - 1), st.integers(0, nv - 1)).filter(lambda p: p[0] != p[1])
    pairs = draw(st.lists(pair, max_size=12))
    C = len(pairs)
    cs = constraints.ConstraintSystem(
        row_vertices=tuple(range(nv)),
        endpoint_rows=np.array(pairs, dtype=np.int64).reshape(C, 2),
        upper_bounds=np.ones(nv + 1),
        objective=np.ones(C),
    )
    x = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=C, max_size=C)), dtype=float)
    return cs, x


class TestIncidence:
    @settings(derandomize=True, deadline=None)
    @given(incidence_cases())
    def test_activity_is_the_sparse_product(self, case):
        cs, x = case
        M = incidence(cs)
        assert np.array_equal(cs.activity(x), M @ x)  # bit for bit: both add in column order
        mask = x > 0
        assert np.array_equal(cs.activity(mask), M @ mask)

    def test_the_total_row_adds_in_column_order(self):
        # in column order 1e16 absorbs each later 1.0 (a tie, rounded to even);
        # numpy's pairwise x.sum() adds some of the 1.0s to each other first
        C = 18
        x = np.array([1e16] + [1.0] * (C - 1))
        cs = constraints.ConstraintSystem(
            row_vertices=tuple(range(4)),
            endpoint_rows=np.array([(j % 4, (j + 1) % 4) for j in range(C)], dtype=np.int64),
            upper_bounds=np.ones(5),
            objective=np.ones(C),
        )
        M = incidence(cs)
        assert (M @ x)[-1] == 1e16 != x.sum()
        assert np.array_equal(cs.activity(x), M @ x)

    @settings(derandomize=True, deadline=None)
    @given(incidence_cases())
    def test_columns_are_the_csc_slice(self, case):
        cs, _ = case
        A = incidence(cs)
        nnz, starts, indices, data = cs.columns()
        assert nnz == A.nnz
        assert starts.dtype == indices.dtype == np.int32 and data.dtype == np.float64
        assert np.array_equal(starts, A.indptr[:-1])
        assert np.array_equal(indices, A.indices)
        assert np.array_equal(data, A.data)

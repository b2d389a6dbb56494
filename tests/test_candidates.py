import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphforecast import candidates
from graphforecast.candidates import (
    CandidateEdge,
    Provenance,
    attachment_candidates,
    build_hypothetical,
    homophily_candidates,
    predict_vertex_count,
)
from graphforecast.graphs import Graph, GraphSeries, edge


def growing_series(counts, edge_maker):
    """Series with vertex counts per snapshot; edges via edge_maker(n)."""
    return GraphSeries([Graph(range(n), edge_maker(n)) for n in counts])


def path_graph(ids):
    return Graph(ids, list(zip(ids, ids[1:])))


@st.composite
def small_graphs(draw):
    """Up to 12 vertices with ids in 0..29, and any set of their pairs as edges."""
    vertices = sorted(draw(st.sets(st.integers(0, 29), max_size=12)))
    pairs = [(u, v) for i, u in enumerate(vertices) for v in vertices[i + 1 :]]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return Graph(vertices, edges)


class TestPredictVertexCount:
    def test_linear_growth(self):
        counts = list(range(50, 125, 5))  # 50, 55, ..., 120
        series = growing_series(counts, lambda n: [])
        n_hat, n_new = predict_vertex_count(series, 1, 0.5)
        assert n_hat == pytest.approx(125, abs=1)
        assert n_new == pytest.approx(5, abs=1)
        # oracle: straight-line extrapolation of the exact ramp
        assert abs(n_hat - 125) <= 1

    def test_constant_series(self):
        series = growing_series([40] * 8, lambda n: [])
        n_hat, n_new = predict_vertex_count(series, 3, 0.5)
        assert n_hat == 40
        assert n_new == 0

    def test_shrinking_forecast_clamps(self):
        # decreasing-count series is not a valid GraphSeries, so emulate with
        # a low quantile on a noisy flat series instead
        series = growing_series([30, 30, 30, 30, 31, 31, 31, 31], lambda n: [])
        n_hat, n_new = predict_vertex_count(series, 1, 0.01)
        assert n_new == max(n_hat - 31, 0)
        assert n_new == 0

    def test_three_snapshots_use_the_fallback(self):
        # too short for ARIMA: the last count, spread by the sample deviation
        series = growing_series([3, 4, 6], lambda n: [])
        assert predict_vertex_count(series, 2, 0.5) == (6, 0)
        bound = 6 + statistics.NormalDist().inv_cdf(0.9) * statistics.stdev([3, 4, 6])
        assert bound == pytest.approx(7.96, abs=0.01)  # rounds half-up to 8
        assert predict_vertex_count(series, 2, 0.9) == (8, 2)


class TestHomophilyCandidates:
    def test_path_gives_ends(self):
        cands = homophily_candidates(path_graph([1, 2, 3]))
        assert [(c.u, c.v) for c in cands] == [(1, 3)]
        assert all(c.provenance is Provenance.HOMOPHILY for c in cands)

    def test_triangle_gives_none(self):
        g = Graph([1, 2, 3], [(1, 2), (1, 3), (2, 3)])
        assert homophily_candidates(g) == ()

    def test_star_pairs_leaves(self):
        g = Graph.from_edges([(0, 1), (0, 2), (0, 3)])
        cands = homophily_candidates(g)
        assert [(c.u, c.v) for c in cands] == [(1, 2), (1, 3), (2, 3)]

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(small_graphs())
    def test_equals_the_brute_force_pairs(self, g):
        vs = sorted(g.vertices)
        expected = [
            CandidateEdge(u, v, Provenance.HOMOPHILY)
            for u in vs
            for v in vs
            if u < v and edge(u, v) not in g.edges and g.neighbors(u) & g.neighbors(v)
        ]
        cands = homophily_candidates(g)
        assert list(cands) == expected
        # an equal graph built separately finds the memoised tuple
        assert homophily_candidates(Graph(vs, g.edges)) is cands

    def test_common_neighbour_invariant(self):
        g = Graph.from_edges(
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]
        )
        for c in homophily_candidates(g):
            assert edge(c.u, c.v) not in g.edges
            assert g.neighbors(c.u) & g.neighbors(c.v)


class TestAttachmentCandidates:
    def test_no_new_vertices(self):
        assert attachment_candidates(path_graph([1, 2, 3]), 0, 5, 10) == []

    def test_star_tie_break(self):
        g = Graph.from_edges([(0, 1), (0, 2), (0, 3), (0, 4)])
        cands = attachment_candidates(g, 1, 2, 5)
        assert [(c.u, c.v) for c in cands] == [(0, 5), (1, 5)]
        assert all(c.provenance is Provenance.ATTACHMENT for c in cands)

    def test_fanout_clamped_to_vertex_count(self):
        g = path_graph([0, 1, 2, 3, 4])
        cands = attachment_candidates(g, 2, 10, 5)
        assert len(cands) == 10  # 5 partners per new vertex

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            attachment_candidates(path_graph([0, 1]), 1, 0, 5)


class TestBuildHypothetical:
    def stable_path_series(self):
        g = path_graph([0, 1, 2])
        return GraphSeries([g] * 6)

    def test_no_growth_has_no_attachment(self):
        H = build_hypothetical(self.stable_path_series(), 1, 0.5, 2)
        assert H.new_vertex_count == 0
        kinds = {c.provenance for c in H.candidates}
        assert kinds == {Provenance.EXISTING, Provenance.HOMOPHILY}

    def test_path_with_growth(self):
        # counts 3,3,3,4,4,5,5,6 trend upward; use gamma just above the
        # median so the forecast rounds to at least one new vertex
        snaps = [
            path_graph([0, 1, 2]),
            path_graph([0, 1, 2]),
            path_graph([0, 1, 2]),
            path_graph([0, 1, 2, 3]),
            path_graph([0, 1, 2, 3]),
            path_graph([0, 1, 2, 3, 4]),
            path_graph([0, 1, 2, 3, 4]),
            path_graph([0, 1, 2, 3, 4, 5]),
        ]
        series = GraphSeries(snaps)
        H = build_hypothetical(series, 2, 0.8, 2)
        assert H.new_vertex_count >= 1
        first_new = H.new_vertex_ids[0]
        assert first_new == 6
        existing = [c for c in H.candidates if c.provenance is Provenance.EXISTING]
        assert len(existing) == 5
        attach = [c for c in H.candidates if c.provenance is Provenance.ATTACHMENT]
        # partners are the two highest-degree vertices: 1 and 2 (ties by id)
        assert {(c.u, c.v) for c in attach if c.v == first_new} == {
            (1, first_new),
            (2, first_new),
        }

    def test_counts_add_up(self):
        series = self.stable_path_series()
        H = build_hypothetical(series, 1, 0.5, 2)
        g = series.last
        homo = homophily_candidates(g)
        counts = (g.edge_count, len(homo), min(2, g.vertex_count) * H.new_vertex_count)
        assert len(H.candidates) == sum(counts)
        assert H.provenance_counts == counts

    def test_existing_edges_all_present_once(self):
        series = self.stable_path_series()
        H = build_hypothetical(series, 1, 0.5, 2)
        existing = [c.pair for c in H.candidates if c.provenance is Provenance.EXISTING]
        assert sorted(existing) == sorted(series.last.edges)
        assert len(set(c.pair for c in H.candidates)) == len(H.candidates)

    def test_no_new_new_pairs(self):
        snaps = [path_graph(list(range(n))) for n in [3, 4, 5, 6, 7, 8, 9, 10]]
        series = GraphSeries(snaps)
        H = build_hypothetical(series, 3, 0.9, 4)
        new = set(H.new_vertex_ids)
        for c in H.candidates:
            assert not ({c.u, c.v} <= new)

    def test_deterministic(self):
        snaps = [path_graph(list(range(n))) for n in [3, 4, 5, 6, 7, 8]]
        series = GraphSeries(snaps)
        a = build_hypothetical(series, 2, 0.7, 3)
        b = build_hypothetical(series, 2, 0.7, 3)
        assert a.candidates == b.candidates
        assert a.vertex_order == b.vertex_order

    def test_total_vertices(self):
        series = self.stable_path_series()
        H = build_hypothetical(series, 1, 0.5, 2)
        assert len(H.vertex_order) == max(series.last.vertex_count, H.n_hat)

    def test_equal_n_hat_shares_one_graph(self):
        # a constant vertex count forecasts the same n_hat at every gamma
        series = self.stable_path_series()
        a = build_hypothetical(series, 1, 0.2, 2)
        assert build_hypothetical(series, 1, 0.8, 2) is a
        assert build_hypothetical(series, 1, 0.8, 3) is not a
        candidates._hypothetical.cache_clear()
        fresh = build_hypothetical(series, 1, 0.8, 2)
        assert fresh is not a and fresh == a

    def test_column_arrays_follow_the_candidates_and_are_read_only(self):
        snaps = [path_graph(list(range(n))) for n in [3, 4, 5, 6, 7, 8]]
        H = build_hypothetical(GraphSeries(snaps), 2, 0.7, 3)
        row_of = {v: r for r, v in enumerate(H.vertex_order)}
        assert H.endpoint_rows.tolist() == [[row_of[c.u], row_of[c.v]] for c in H.candidates]
        assert H.existing_mask.tolist() == [
            c.provenance is Provenance.EXISTING for c in H.candidates
        ]
        # each provenance is one block of the candidates, in the enum's order
        assert min(H.provenance_counts) > 0
        assert [c.provenance for c in H.candidates] == [
            p for p, n in zip(Provenance, H.provenance_counts) for _ in range(n)
        ]
        assert H.endpoint_rows.dtype == np.int64 and H.existing_mask.dtype == bool
        with pytest.raises(ValueError):
            H.endpoint_rows[0, 0] = 1
        with pytest.raises(ValueError):
            H.existing_mask[0] = False

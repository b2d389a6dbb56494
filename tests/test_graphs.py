import numpy as np
import pytest

from graphforecast.graphs import (
    Graph,
    GraphSeries,
    degree_series,
    new_vertex_degree_pool,
    t_new_vertices,
)


def triangle():
    return Graph([1, 2, 3], [(1, 2), (1, 3), (2, 3)])


class TestGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph([1], [(1, 1)])

    def test_rejects_dangling_edge(self):
        with pytest.raises(ValueError):
            Graph([1, 2], [(1, 3)])

    def test_edge_normalisation_dedupes(self):
        g = Graph([1, 2], [(2, 1), (1, 2)])
        assert g.edge_count == 1

    def test_triangle_degree(self):
        assert triangle().degree(1) == 2

    def test_isolated_vertex_degree(self):
        g = Graph([1, 2, 3], [(1, 2)])
        assert g.degree(3) == 0

    def test_star_centre_degree(self):
        g = Graph.from_edges([(0, i) for i in range(1, 5)])
        assert g.degree(0) == 4

    def test_unknown_vertex(self):
        with pytest.raises(KeyError):
            triangle().degree(9)


class TestGraphSeries:
    def test_rejects_shrinking_vertices(self):
        g1 = Graph([1, 2], [(1, 2)])
        g2 = Graph([1], [])
        with pytest.raises(ValueError):
            GraphSeries([g1, g2])

    def test_first_seen(self):
        g1 = Graph([1, 2], [(1, 2)])
        g2 = Graph([1, 2, 3], [(1, 2), (2, 3)])
        series = GraphSeries([g1, g2])
        assert series.first_seen == {1: 1, 2: 1, 3: 2}

    def test_edge_deletion_is_allowed(self):
        g1 = Graph([1, 2], [(1, 2)])
        g2 = Graph([1, 2], [])
        assert len(GraphSeries([g1, g2])) == 2

    def test_window_contents(self):
        gs = [Graph([1], []), Graph([1, 2], []), Graph([1, 2, 3], [])]
        series = GraphSeries(gs)
        w = series.window(2, 3)
        assert len(w) == 2
        assert w.snapshot(1) == gs[1]


class TestDegreeSeries:
    def make_series(self):
        g1 = Graph([1, 2], [(1, 2)])
        g2 = Graph([1, 2, 3], [(1, 2), (1, 3)])
        g3 = Graph([1, 2, 3], [(1, 2), (1, 3), (2, 3)])
        g4 = Graph([1, 2, 3, 4], [(1, 2), (1, 3), (2, 3), (1, 4)])
        g5 = Graph([1, 2, 3, 4], [(1, 2), (1, 3), (2, 3), (1, 4)])
        return GraphSeries([g1, g2, g3, g4, g5])

    def test_late_entry_length(self):
        series = self.make_series()
        s = degree_series(series, 3)
        assert len(s) == 4

    def test_full_history(self):
        series = self.make_series()
        assert degree_series(series, 1).values == (1.0, 2.0, 2.0, 3.0, 3.0)

    def test_isolated_after_entry(self):
        g1 = Graph([1, 2], [(1, 2)])
        g2 = Graph([1, 2, 3], [(1, 2)])
        g3 = Graph([1, 2, 3], [(1, 2)])
        s = degree_series(GraphSeries([g1, g2, g3]), 3)
        assert s.values == (0.0, 0.0)

    def test_unknown_vertex(self):
        with pytest.raises(KeyError):
            degree_series(self.make_series(), 99)


class TestTNewVertices:
    def test_single_arrival(self):
        s = GraphSeries([Graph([1, 2], []), Graph([1, 2, 3], [])])
        assert t_new_vertices(s, 2) == {3}

    def test_no_arrivals(self):
        s = GraphSeries([Graph([1, 2], []), Graph([1, 2], [])])
        assert t_new_vertices(s, 2) == frozenset()

    def test_two_arrivals(self):
        s = GraphSeries([Graph([1], []), Graph([1, 2, 3], [])])
        assert t_new_vertices(s, 2) == {2, 3}

    def test_index_out_of_range(self):
        s = GraphSeries([Graph([1], []), Graph([1], [])])
        with pytest.raises(IndexError):
            t_new_vertices(s, 1)
        with pytest.raises(IndexError):
            t_new_vertices(s, 3)

    def test_arrival_sets_partition_when_growing(self):
        rng = np.random.default_rng(0)
        snaps = []
        verts: set[int] = set()
        nxt = 0
        for _ in range(6):
            for _ in range(int(rng.integers(0, 3))):
                verts.add(nxt)
                nxt += 1
            snaps.append(Graph(sorted(verts | {0}), []))
        series = GraphSeries(snaps)
        union = set()
        total = 0
        for t in range(2, len(series) + 1):
            new = t_new_vertices(series, t)
            total += len(new)
            union |= new
        expected = series.snapshot(len(series)).vertices - series.snapshot(1).vertices
        assert union == expected
        assert total == len(expected)


class TestNewVertexDegreePool:
    def test_mean_of_pool(self):
        g1 = Graph([1, 2], [(1, 2)])
        g2 = Graph.from_edges([(1, 2), (1, 3), (2, 3)])  # 3 arrives with degree 2
        g3 = Graph.from_edges([(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)])
        pool, mean = new_vertex_degree_pool(GraphSeries([g1, g2, g3]), 3)
        assert sorted(pool) == [2, 3]
        assert mean == 2.5

    def test_empty_pool(self):
        s = GraphSeries([Graph([1, 2], []), Graph([1, 2], [])])
        pool, mean = new_vertex_degree_pool(s, 2)
        assert pool == []
        assert mean == 0.0

    def test_multiset_preserves_duplicates(self):
        # arrivals at t=2 have degree 1 and 1; the t=3 arrival has degree 4
        g1 = Graph([0, 1], [(0, 1)])
        g2 = Graph.from_edges([(0, 1), (0, 2), (0, 3)])
        g3 = Graph.from_edges(
            [(0, 1), (0, 2), (0, 3), (0, 4), (1, 4), (2, 4), (3, 4)]
        )
        pool, mean = new_vertex_degree_pool(GraphSeries([g1, g2, g3]), 3)
        assert sorted(pool) == [1, 1, 4]
        assert mean == 2.0

    def test_three_value_pool(self):
        g1 = Graph([0, 1], [(0, 1)])
        g2 = Graph.from_edges([(0, 1), (0, 2), (1, 2)])  # degree 2 arrival
        g3 = Graph.from_edges(
            [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]
        )  # degree 3 arrival
        g4 = Graph.from_edges(
            [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3),
             (0, 4), (1, 4), (2, 4), (3, 4)]
        )  # degree 4 arrival
        pool, mean = new_vertex_degree_pool(GraphSeries([g1, g2, g3, g4]), 4)
        assert sorted(pool) == [2, 3, 4]
        assert mean == 3.0

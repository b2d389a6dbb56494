import numpy as np
import pytest

from graphforecast.datagen import (
    PaConfig,
    delete_edges,
    pa_sequence,
    uniform_band_schedule,
)
from graphforecast.graphs import GraphSeries


def classic_config(seed=0, s=2, s0=5, length=5):
    # one vertex per snapshot: n_t = s0 + t (a width-1 band draws nothing from the rng)
    return PaConfig(
        s=s, s0=s0, length=length, schedule=uniform_band_schedule(s0, 1, 1), seed=seed
    )


class TestPaSequence:
    def test_counts_after_three_additions(self):
        # one vertex per snapshot: after 3 additions the
        # graph has s0 + 3 vertices and s0 + 3 s edges
        series = pa_sequence(classic_config(length=3))
        g = series.snapshot(3)
        assert g.vertex_count == 8
        assert g.edge_count == 11

    def test_paper_scale_final_count(self):
        cfg = PaConfig(
            s=10, s0=45, length=20,
            schedule=uniform_band_schedule(45, 5, 5), seed=11,
        )
        series = pa_sequence(cfg)
        assert 145 <= series.snapshot(20).vertex_count <= 149
        for t in range(1, 21):
            assert 45 + 5 * t <= series.snapshot(t).vertex_count <= 49 + 5 * t

    def test_determinism(self):
        cfg = classic_config(seed=42)
        assert pa_sequence(cfg) == pa_sequence(cfg)

    def test_distinct_seeds_differ(self):
        a = pa_sequence(classic_config(seed=1, length=8))
        b = pa_sequence(classic_config(seed=2, length=8))
        assert a != b

    def test_edge_increment_matches_vertex_increment(self):
        cfg = PaConfig(
            s=3, s0=6, length=8, schedule=uniform_band_schedule(8, 3, 3), seed=5,
        )
        series = pa_sequence(cfg)
        for t in range(2, 9):
            dn = series.snapshot(t).vertex_count - series.snapshot(t - 1).vertex_count
            dm = series.snapshot(t).edge_count - series.snapshot(t - 1).edge_count
            assert dm == 3 * dn

    def test_no_self_loops_or_duplicates(self):
        series = pa_sequence(classic_config(seed=9, length=20))
        for g in series:
            assert all(u != v for u, v in g.edges)  # frozenset of sorted pairs

    def test_heavy_tail(self):
        cfg = PaConfig(
            s=10, s0=45, length=20,
            schedule=uniform_band_schedule(45, 5, 5), seed=10,
        )
        g = pa_sequence(cfg).snapshot(20)
        degrees = [g.degree(v) for v in g.vertices]
        assert max(degrees) > 3 * np.mean(degrees)

    def test_invalid_schedule(self):
        cfg = PaConfig(
            s=2, s0=5, length=3, schedule=lambda t, rng: 10, seed=0,
        )
        with pytest.raises(ValueError):
            pa_sequence(cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PaConfig(s=0, s0=5, length=5, schedule=uniform_band_schedule(5, 1, 1), seed=0)
        with pytest.raises(ValueError):
            PaConfig(s=6, s0=5, length=5, schedule=uniform_band_schedule(5, 1, 1), seed=0)
        with pytest.raises(ValueError):
            PaConfig(s=2, s0=5, length=1, schedule=uniform_band_schedule(5, 1, 1), seed=0)


class TestDeleteEdges:
    def test_zero_deletions_identity(self):
        series = pa_sequence(classic_config(seed=3, length=6))
        assert delete_edges(series, 0, 0, seed=1) == series

    def test_cumulative_bookkeeping(self):
        series = pa_sequence(
            PaConfig(
                s=10, s0=45, length=10,
                schedule=uniform_band_schedule(45, 5, 5), seed=4,
            )
        )
        deleted = delete_edges(series, 5, 10, seed=4)
        for t in range(2, 11):
            removed = series.snapshot(t).edge_count - deleted.snapshot(t).edge_count
            assert 5 * (t - 1) <= removed <= 10 * (t - 1)

    def test_vertices_untouched(self):
        series = pa_sequence(classic_config(seed=6, length=8, s=2, s0=12))
        deleted = delete_edges(series, 1, 2, seed=0)
        for t in range(1, 9):
            assert deleted.snapshot(t).vertices == series.snapshot(t).vertices
        assert isinstance(deleted, GraphSeries)  # vertex monotonicity revalidated

    def test_too_few_edges(self):
        series = pa_sequence(classic_config(seed=8, length=4))
        with pytest.raises(ValueError):
            delete_edges(series, 11, 999, seed=0)

    def test_deterministic(self):
        series = pa_sequence(classic_config(seed=9, length=6, s=2, s0=12))
        a = delete_edges(series, 1, 3, seed=2)
        b = delete_edges(series, 1, 3, seed=2)
        assert a == b

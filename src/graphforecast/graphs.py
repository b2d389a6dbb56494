"""Immutable graph snapshots and growing graph series.

Vertices are non-negative integer ids that stay stable across all snapshots
of a series.  Edges are unordered pairs stored as (min, max) tuples.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from .timeseries import Series

VertexId = int
Edge = tuple[int, int]


def edge(u: VertexId, v: VertexId) -> Edge:
    """Normalise an unordered vertex pair; self-loops are rejected."""
    if u == v:
        raise ValueError(f"self-loop on vertex {u} is not allowed")
    return (u, v) if u < v else (v, u)


class Graph:
    """An undirected, unweighted, loop-free graph snapshot."""

    __slots__ = ("_vertices", "_edges", "_adj")

    def __init__(self, vertices: Iterable[VertexId], edges: Iterable[Edge] = ()):
        vs = frozenset(int(v) for v in vertices)
        if any(v < 0 for v in vs):
            raise ValueError("vertex ids must be non-negative")
        es = frozenset(edge(u, v) for u, v in edges)
        for u, v in es:
            if u not in vs or v not in vs:
                raise ValueError(f"edge ({u}, {v}) has an endpoint outside the vertex set")
        self._vertices = vs
        self._edges = es
        self._adj: dict[int, frozenset[int]] | None = None

    @classmethod
    def from_edges(cls, edges: Iterable[Edge], isolated: Iterable[VertexId] = ()) -> "Graph":
        es = [edge(u, v) for u, v in edges]
        vs = set(isolated)
        for u, v in es:
            vs.add(u)
            vs.add(v)
        return cls(vs, es)

    @property
    def vertices(self) -> frozenset[int]:
        return self._vertices

    @property
    def edges(self) -> frozenset[Edge]:
        return self._edges

    @property
    def vertex_count(self) -> int:
        return len(self._vertices)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def _adjacency(self) -> dict[int, frozenset[int]]:
        if self._adj is None:
            nbrs: dict[int, set[int]] = {v: set() for v in self._vertices}
            for u, v in self._edges:
                nbrs[u].add(v)
                nbrs[v].add(u)
            self._adj = {v: frozenset(s) for v, s in nbrs.items()}
        return self._adj

    def degree(self, v: VertexId) -> int:
        if v not in self._vertices:
            raise KeyError(f"unknown vertex {v}")
        return len(self._adjacency()[v])

    def neighbors(self, v: VertexId) -> frozenset[int]:
        if v not in self._vertices:
            raise KeyError(f"unknown vertex {v}")
        return self._adjacency()[v]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._vertices == other._vertices and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self._vertices, self._edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.vertex_count}, m={self.edge_count})"


class GraphSeries:
    """An ordered sequence of snapshots with growing vertex sets.

    Edge deletion between snapshots is permitted; vertex deletion is not.
    Snapshot indices are 1-based time steps t = 1..T.
    """

    __slots__ = ("_snapshots", "_first_seen", "_degrees")

    def __init__(self, snapshots: Sequence[Graph]):
        if len(snapshots) == 0:
            raise ValueError("a graph series needs at least one snapshot")
        for t in range(1, len(snapshots)):
            if not snapshots[t - 1].vertices <= snapshots[t].vertices:
                missing = sorted(snapshots[t - 1].vertices - snapshots[t].vertices)[:5]
                raise ValueError(
                    f"vertex set shrank between snapshots {t} and {t + 1} "
                    f"(e.g. vertices {missing})"
                )
        first_seen: dict[int, int] = {}
        for t, g in enumerate(snapshots, start=1):
            for v in g.vertices:
                first_seen.setdefault(v, t)
        self._snapshots = tuple(snapshots)
        self._first_seen = first_seen
        self._degrees: dict[int, Series] | None = None

    def __len__(self) -> int:
        return len(self._snapshots)

    def __iter__(self) -> Iterator[Graph]:
        return iter(self._snapshots)

    @property
    def first_seen(self) -> dict[int, int]:
        return dict(self._first_seen)

    def snapshot(self, t: int) -> Graph:
        if not 1 <= t <= len(self._snapshots):
            raise IndexError(f"time index {t} outside 1..{len(self._snapshots)}")
        return self._snapshots[t - 1]

    @property
    def last(self) -> Graph:
        return self._snapshots[-1]

    def window(self, start: int, end: int) -> "GraphSeries":
        """Sub-series of snapshots start..end inclusive (1-based)."""
        if not (1 <= start <= end <= len(self._snapshots)):
            raise IndexError(f"window {start}..{end} outside 1..{len(self._snapshots)}")
        return GraphSeries(self._snapshots[start - 1 : end])

    def __eq__(self, other) -> bool:
        if not isinstance(other, GraphSeries):
            return NotImplemented
        return self._snapshots == other._snapshots

    def __hash__(self) -> int:
        return hash(self._snapshots)


def degree_series(series: GraphSeries, v: VertexId) -> Series:
    """Degree of v in every snapshot from its first appearance to T.

    The first call builds every vertex's degree series in one pass over the
    snapshots and keeps them on the series, so later calls only look one up.
    """
    if v not in series._first_seen:
        raise KeyError(f"vertex {v} never appears in the series")
    if series._degrees is None:
        # vertices never leave, so a vertex's degrees from its first snapshot on
        degrees: dict[int, list[float]] = {u: [] for u in series._first_seen}
        for g in series._snapshots:
            for u, nbrs in g._adjacency().items():
                degrees[u].append(float(len(nbrs)))
        series._degrees = {u: Series(tuple(d)) for u, d in degrees.items()}
    return series._degrees[v]


def vertex_count_series(series: GraphSeries) -> Series:
    return Series(tuple(float(g.vertex_count) for g in series))


def edge_count_series(series: GraphSeries) -> Series:
    return Series(tuple(float(g.edge_count) for g in series))


def t_new_vertices(series: GraphSeries, t: int) -> frozenset[int]:
    """Vertices present in snapshot t but not in snapshot t-1."""
    if not 1 < t <= len(series):
        raise IndexError(f"time index {t} outside 2..{len(series)}")
    return series.snapshot(t).vertices - series.snapshot(t - 1).vertices


def new_vertex_degree_pool(series: GraphSeries, T: int) -> tuple[list[int], float]:
    """Degrees at arrival of every t-new vertex for 1 < t <= T, with their mean.

    The pool is a multiset (duplicates preserved); an empty pool has mean 0.
    """
    if not 2 <= T <= len(series):
        raise IndexError(f"T={T} outside 2..{len(series)}")
    pool: list[int] = []
    for t in range(2, T + 1):
        g = series.snapshot(t)
        for v in sorted(t_new_vertices(series, t)):
            pool.append(g.degree(v))
    mean = float(np.mean(pool)) if pool else 0.0
    return pool, mean

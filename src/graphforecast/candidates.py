"""Candidate edges for the hypothetical future graph.

Starting from the last observed snapshot, the hypothetical graph adds the
forecast number of new vertices (the vertex-count series' gamma bound from
``timeseries.upper_bound``, rounded half-up) and three kinds of candidate
edges: every currently existing edge, edges between existing vertices that
share a neighbour, and edges attaching each new vertex to the most popular
existing vertices.  Edges between two new vertices are deliberately not
generated.  ``HypotheticalGraph`` owns the candidate list, whose order is the
column order of the constraint system, its block sizes ``provenance_counts``,
the row layout ``vertex_order``, and the column arrays derived from them
(``endpoint_rows``, ``existing_mask``), each built once per graph and read-only.

A candidate graph depends on the last snapshot, n_hat and k alone, so the
cells of a gamma x u sweep share it: ``build_hypothetical`` forecasts n_hat
in every call, keeps the graphs of its last two (snapshot, n_hat, k) keys,
and returns the same object for a repeated key.  ``homophily_candidates``
keeps the candidate tuples of the last two snapshots it was given, so the
candidate graphs of one snapshot share one homophily block.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain

import numpy as np

from . import timeseries
from .graphs import Edge, Graph, GraphSeries, VertexId, edge, vertex_count_series


class Provenance(enum.Enum):
    EXISTING = "existing"
    HOMOPHILY = "homophily"
    ATTACHMENT = "attachment"


@dataclass(frozen=True)
class CandidateEdge:
    u: VertexId
    v: VertexId
    provenance: Provenance

    def __post_init__(self):
        if self.u >= self.v:
            raise ValueError("candidate endpoints must be stored as (min, max)")

    @property
    def pair(self) -> Edge:
        return (self.u, self.v)


@dataclass(frozen=True)
class HypotheticalGraph:
    """The candidate superset graph from which a prediction is selected."""

    base: Graph
    n_hat: int
    new_vertex_ids: tuple[VertexId, ...]
    candidates: tuple[CandidateEdge, ...]
    provenance_counts: tuple[int, int, int]  # per Provenance, in order: the blocks of candidates

    @property
    def new_vertex_count(self) -> int:
        return len(self.new_vertex_ids)

    @cached_property
    def vertex_order(self) -> tuple[VertexId, ...]:
        """Row layout: existing vertices by ascending id, then new vertices."""
        return tuple(sorted(self.base.vertices)) + self.new_vertex_ids

    @cached_property
    def endpoint_rows(self) -> np.ndarray:
        """(cols, 2) rows of each candidate's endpoints in ``vertex_order``, read-only."""
        row_of = {v: r for r, v in enumerate(self.vertex_order)}
        rows = np.array(
            [(row_of[c.u], row_of[c.v]) for c in self.candidates], dtype=np.int64
        ).reshape(len(self.candidates), 2)
        rows.flags.writeable = False
        return rows

    @cached_property
    def existing_mask(self) -> np.ndarray:
        """(cols,) True at the candidates that are edges of the base snapshot, read-only."""
        mask = np.arange(len(self.candidates)) < self.provenance_counts[0]
        mask.flags.writeable = False
        return mask


def predict_vertex_count(series: GraphSeries, h: int, gamma: float) -> tuple[int, int]:
    """Forecast the vertex count at T+h and the implied number of new vertices.

    Returns (n_hat, n_new): n_hat is the vertex-count series' gamma bound
    (``timeseries.upper_bound``) rounded half-up, and n_new = max(n_hat - n_T, 0).
    """
    n_hat = int(math.floor(timeseries.upper_bound(vertex_count_series(series), h, gamma) + 0.5))
    return n_hat, max(n_hat - series.last.vertex_count, 0)


# Two entries, like _hypothetical's: its callers build one snapshot's candidate
# graphs in a row and never return to an earlier snapshot.
@lru_cache(maxsize=2)
def homophily_candidates(g: Graph) -> tuple[CandidateEdge, ...]:
    """Non-adjacent vertex pairs with at least one common neighbour, in sorted order."""
    pairs: set[Edge] = set()
    existing = g.edges
    for w in g.vertices:
        nbrs = sorted(g.neighbors(w))
        for i in range(len(nbrs)):
            for j in range(i + 1, len(nbrs)):
                pair = (nbrs[i], nbrs[j])
                if pair not in existing:
                    pairs.add(pair)
    return tuple(CandidateEdge(u, v, Provenance.HOMOPHILY) for u, v in sorted(pairs))


def attachment_candidates(
    g: Graph, n_new: int, k: int, next_id: VertexId
) -> list[CandidateEdge]:
    """Pair each of n_new fresh vertices with the min(k, n) most popular vertices.

    Popularity is degree in g; degree ties break by ascending vertex id.
    """
    if k < 1:
        raise ValueError("attachment fan-out k must be >= 1")
    if n_new < 0:
        raise ValueError("n_new must be non-negative")
    if n_new == 0 or g.vertex_count == 0:
        return []
    popular = sorted(g.vertices, key=lambda v: (-g.degree(v), v))[: min(k, g.vertex_count)]
    out = []
    for idx in range(n_new):
        nv = next_id + idx
        for p in popular:
            u, v = edge(p, nv)
            out.append(CandidateEdge(u, v, Provenance.ATTACHMENT))
    return out


def build_hypothetical(
    series: GraphSeries, h: int, gamma: float, k: int
) -> HypotheticalGraph:
    """Assemble the candidate graph for predicting the snapshot at T+h.

    n_hat is forecast in every call; a (last snapshot, n_hat, k) among the
    last two seen gets the graph already built for it, the same object.
    """
    n_hat, n_new = predict_vertex_count(series, h, gamma)
    return _hypothetical(series.last, n_hat, n_new, k)


# Two entries: a sweep's row-major grid puts the gammas with equal n_hat next
# to each other, and a 303-vertex graph (30,955 candidates) holds 3.9 MB.
@lru_cache(maxsize=2)
def _hypothetical(g: Graph, n_hat: int, n_new: int, k: int) -> HypotheticalGraph:
    next_id = max(g.vertices, default=-1) + 1
    blocks = (
        [CandidateEdge(u, v, Provenance.EXISTING) for u, v in sorted(g.edges)],
        homophily_candidates(g),
        attachment_candidates(g, n_new, k, next_id),
    )
    return HypotheticalGraph(
        base=g,
        n_hat=n_hat,
        new_vertex_ids=tuple(range(next_id, next_id + n_new)),
        candidates=tuple(chain.from_iterable(blocks)),
        provenance_counts=tuple(len(block) for block in blocks),
    )

"""Synthetic benchmark series from a preferential-attachment growth process.

A single graph grows from a seed cycle; each arriving vertex connects to s
distinct existing vertices drawn with probability proportional to current
degree.  Snapshots are taken whenever the vertex count reaches the next
target of a schedule.  All randomness comes from numpy's PCG64 generator
seeded explicitly, so sequences are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .graphs import Graph, GraphSeries, edge

RNG_ALGORITHM = "numpy-PCG64"

# n_t targets for snapshot t = 1..length; drawn before any growth randomness
Schedule = Callable[[int, np.random.Generator], int]


def uniform_band_schedule(base: int, step: int, width: int) -> Schedule:
    """n_t drawn uniformly from {base + step*t, ..., base + step*t + width - 1}."""
    if step < 1 or width < 1:
        raise ValueError("schedule step and width must be >= 1")

    def draw(t: int, rng: np.random.Generator) -> int:
        return base + step * t + int(rng.integers(0, width))

    return draw


@dataclass(frozen=True)
class PaConfig:
    s: int  # edges brought by each new vertex
    s0: int  # seed graph size (an s0-cycle: s0 vertices, s0 edges)
    length: int  # number of snapshots
    schedule: Schedule
    seed: int | np.random.SeedSequence

    def __post_init__(self):
        if self.s < 1:
            raise ValueError("s must be >= 1")
        if self.s0 < max(self.s, 3):
            raise ValueError("s0 must be >= max(s, 3) for a valid seed cycle")
        if self.length < 2:
            raise ValueError("length must be >= 2")


def _draw_targets(cfg: PaConfig, rng: np.random.Generator) -> list[int]:
    targets = [cfg.schedule(t, rng) for t in range(1, cfg.length + 1)]
    prev = cfg.s0
    for t, n in enumerate(targets, start=1):
        if n <= prev:
            raise ValueError(
                f"schedule is not strictly increasing at t={t}: {n} after {prev}"
            )
        prev = n
    return targets


def pa_sequence(cfg: PaConfig) -> GraphSeries:
    """Grow one preferential-attachment graph and snapshot it per the schedule."""
    rng = np.random.default_rng(cfg.seed)
    targets = _draw_targets(cfg, rng)

    degrees = [2] * cfg.s0
    edges: list[tuple[int, int]] = [edge(i, (i + 1) % cfg.s0) for i in range(cfg.s0)]
    n = cfg.s0
    snapshots: list[Graph] = []
    for target in targets:
        while n < target:
            # degree-proportional draws with rejection until s distinct picks
            cum = np.cumsum(degrees)
            total = cum[-1]
            picks: set[int] = set()
            while len(picks) < cfg.s:
                r = rng.random() * total
                picks.add(int(np.searchsorted(cum, r, side="right")))
            nv = n
            degrees.append(cfg.s)
            for p in sorted(picks):
                edges.append(edge(p, nv))
                degrees[p] += 1
            n += 1
        snapshots.append(Graph(range(n), edges))
    return GraphSeries(snapshots)


def delete_edges(series: GraphSeries, r_min: int, r_max: int, seed: int) -> GraphSeries:
    """From each snapshot t >= 2, remove r ~ Uniform{r_min..r_max} random edges.

    A removed edge stays removed in every later snapshot.  Vertices are never
    removed.
    """
    if not 0 <= r_min <= r_max:
        raise ValueError("need 0 <= r_min <= r_max")
    rng = np.random.default_rng(seed)
    removed: set[tuple[int, int]] = set()
    out = [series.snapshot(1)]
    for t in range(2, len(series) + 1):
        g = series.snapshot(t)
        current = sorted(g.edges - removed)
        if len(current) <= r_max:
            raise ValueError(
                f"snapshot {t} has only {len(current)} edges, need more than {r_max}"
            )
        r = int(rng.integers(r_min, r_max + 1))
        picked_idx = rng.choice(len(current), size=r, replace=False) if r else []
        picked = {current[i] for i in picked_idx}
        removed |= picked
        out.append(Graph(g.vertices, set(current) - picked))
    return GraphSeries(out)


def run_seed(base_seed: int, *spawn_key: int) -> np.random.SeedSequence:
    """Deterministic child seed for independent streams of one experiment."""
    return np.random.SeedSequence(entropy=base_seed, spawn_key=tuple(spawn_key))

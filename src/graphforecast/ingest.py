"""Edge-list ingestion and expanding-window graph construction.

Input files are lines of ``u v t`` (whitespace) or ``u,v,t`` (comma),
auto-detected from the first data line; ``#`` and ``%`` lines are comments.
Timestamps are integer seconds (or abstract ticks); calendar bucketing is
done in UTC.
"""

from __future__ import annotations

import logging
from pathlib import Path
from typing import NamedTuple, Sequence, TextIO

from .graphs import Graph, GraphSeries, edge

log = logging.getLogger(__name__)

MALFORMED_FRACTION_LIMIT = 0.01
# A schedule longer than this is taken for a granularity mistake (say ticks:1
# over Unix timestamps) and refused, rather than built or cut short.
MAX_WINDOWS = 10_000

_DAY = 86400


class EdgeEvent(NamedTuple):
    u: int
    v: int
    t: int


def parse_edgelist(source: str | Path | TextIO) -> list[EdgeEvent]:
    """Parse timestamped edge events, dropping self-loops with a warning.

    Aborts when more than 1% of the data lines are malformed.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            return parse_edgelist(fh)
    events: list[EdgeEvent] = []
    delimiter: str | None = None
    malformed = 0
    self_loops = 0
    data_lines = 0
    for line in source:
        stripped = line.strip()
        if not stripped or stripped.startswith(("#", "%")):
            continue
        data_lines += 1
        if delimiter is None:
            delimiter = "," if "," in stripped else " "
        parts = stripped.split(",") if delimiter == "," else stripped.split()
        if len(parts) != 3:
            malformed += 1
            continue
        try:
            u, v, t = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            malformed += 1
            continue
        if u == v:
            self_loops += 1
            continue
        events.append(EdgeEvent(u, v, t))
    if self_loops:
        log.warning("dropped %d self-loop event(s)", self_loops)
    if malformed:
        log.warning("skipped %d malformed line(s) of %d", malformed, data_lines)
        if data_lines and malformed / data_lines > MALFORMED_FRACTION_LIMIT:
            raise ValueError(
                f"{malformed} of {data_lines} data lines are malformed (> 1%)"
            )
    return events


def expanding_windows(
    events: Sequence[EdgeEvent], boundaries: Sequence[int]
) -> GraphSeries:
    """Snapshot l holds every distinct edge with event time <= boundaries[l].

    Vertices are exactly the endpoints of the included edges, so the series
    grows by construction.
    """
    if not boundaries:
        raise ValueError("need at least one window boundary")
    if any(b >= a for a, b in zip(boundaries[1:], boundaries)):
        raise ValueError("boundaries must be strictly increasing")
    ordered = sorted(events, key=lambda ev: ev.t)
    snapshots: list[Graph] = []
    edges: set[tuple[int, int]] = set()
    i = 0
    for b in boundaries:
        while i < len(ordered) and ordered[i].t <= b:
            edges.add(edge(ordered[i].u, ordered[i].v))
            i += 1
        if not edges:
            raise ValueError(f"first window (t <= {b}) contains no events")
        snapshots.append(Graph.from_edges(edges))
    return GraphSeries(snapshots)


def parse_granularity(spec: str) -> int:
    """Length of one window period in timestamp units.

    Recognised forms: daily, weekly, biweekly, or ticks:N for abstract
    integer timestamps.
    """
    name = spec.strip().lower()
    if name == "daily":
        return _DAY
    if name == "weekly":
        return 7 * _DAY
    if name == "biweekly":
        return 14 * _DAY
    if name.startswith("ticks:"):
        try:
            n = int(name.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"unknown granularity {spec!r}") from None
        if n < 1:
            raise ValueError("ticks granularity must be >= 1")
        return -n  # negative marks tick mode (no calendar alignment)
    raise ValueError(f"unknown granularity {spec!r}")


def boundary_schedule(events: Sequence[EdgeEvent], granularity: str) -> list[int]:
    """End-of-period boundaries from the earliest event through the latest one.

    Calendar granularities align periods to UTC midnight of the first event's
    day; tick granularities use absolute multiples of the tick size, from the
    first one at or after the earliest event, so leading empty windows are
    dropped (the window count is still checked from tick 0).
    """
    if not events:
        raise ValueError("cannot derive boundaries from an empty event list")
    period = parse_granularity(granularity)
    t_min = min(ev.t for ev in events)
    t_max = max(ev.t for ev in events)
    if period < 0:  # tick mode: boundaries k * size, the first one >= t_min, the last >= t_max
        size = -period
        count = max(1, -(-t_max // size))
        offset, first = 0, max(1, -(-t_min // size))
    else:  # boundaries start + k * size - 1, the last one >= t_max
        size = period
        start = (t_min // _DAY) * _DAY
        count = -(-(t_max - start + 1) // size)
        offset, first = start - 1, 1
    if count > MAX_WINDOWS:
        raise ValueError(
            f"granularity {granularity!r} splits the events into {count} windows "
            f"(more than {MAX_WINDOWS}); choose a coarser granularity"
        )
    return [offset + k * size for k in range(first, count + 1)]


def dump_edgelist(series: GraphSeries, path: str | Path) -> None:
    """Write a series as ``u v t`` lines, t being each edge's first snapshot.

    Round-trips through expanding windows with ticks:1 boundaries.  The lines
    are cumulative, so only a growing series (snapshots that only ever gain
    edges) can be written: a snapshot that loses an edge raises ValueError,
    and nothing is written.
    """
    lines = []
    prev: frozenset = frozenset()
    for t in range(1, len(series) + 1):
        g = series.snapshot(t)
        if not prev <= g.edges:
            raise ValueError(
                f"snapshot {t} deletes an edge of snapshot {t - 1}: "
                "'u v t' lines can only add edges"
            )
        for u, v in sorted(g.edges - prev):
            lines.append(f"{u} {v} {t}")
        prev = g.edges
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def dump_graph(graph: Graph, path: str | Path, t: int) -> None:
    """Write a single graph as ``u v t`` lines with a fixed time marker."""
    lines = [f"{u} {v} {t}" for u, v in sorted(graph.edges)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

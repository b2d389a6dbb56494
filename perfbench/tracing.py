"""Spans around the public functions of graphforecast, recorded from outside.

Each wrapper is installed at the place where callers look the function up
(a module attribute), so the program itself is not edited.  A span holds
its name, start, end, the index of the span that was open when it began,
and whether it raised.  Spans stay in memory until the round ends.

``Capture`` keeps references to the objects the correctness checks need
(constraint systems, solver results, candidate graphs, ingested series),
so that the checks can run after the timed region.
"""

from __future__ import annotations

import functools
import json
import time

from graphforecast import (
    candidates,
    cli,
    constraints,
    datagen,
    evaluate,
    ingest,
    predictor,
    solver,
    timeseries,
)

NAME, PARENT, START, END, FAILED = range(5)


class Capture:
    """Objects handed between layers, kept for the checks and counters."""

    def __init__(self):
        self.predictions: list[dict] = []  # one record per predictor.predict call
        self.current: dict = {}
        self.homophily: list[tuple] = []  # (graph, candidate count)
        self.ingested: list[tuple] = []  # (events, boundaries, series)
        self.reports: list[list] = []  # EvalReports of each protocol run

    def assembled(self, args, kwargs, cs):
        self.current["cs"] = cs

    def built(self, args, kwargs, H):
        self.current["H"] = H

    def lp(self, args, kwargs, sol):
        self.current["lp"] = sol

    def ilp(self, args, kwargs, sol):
        self.current["ilp"] = sol
        self.current["ilp_cs"] = args[0]

    def predicted(self, args, kwargs, result):
        record, self.current = self.current, {}
        record["params"] = args[1]
        record["result"] = result
        self.predictions.append(record)

    def homophily_pairs(self, args, kwargs, cands):
        self.homophily.append((args[0], len(cands)))

    def windows(self, args, kwargs, series):
        self.ingested.append((args[0], args[1], series))

    def protocol(self, args, kwargs, reports):
        self.reports.append(reports)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.capture = Capture()

    def wrap(self, module, attr: str, name: str, after=None) -> None:
        """Replace module.attr by a function that records a span per call."""
        fn = getattr(module, attr)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[FAILED] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(module, attr, traced)

    def install(self) -> None:
        cap = self.capture
        sites = [
            # (module where callers look the name up, attribute, span name, hook)
            (ingest, "parse_edgelist", "ingest.parse_edgelist", None),
            (ingest, "boundary_schedule", "ingest.boundary_schedule", None),
            (ingest, "expanding_windows", "ingest.expanding_windows", cap.windows),
            (datagen, "pa_sequence", "datagen.pa_sequence", None),
            (evaluate, "pa_sequence", "datagen.pa_sequence", None),
            (evaluate, "delete_edges", "datagen.delete_edges", None),
            (cli, "predict", "predictor.predict", cap.predicted),
            (evaluate, "predict", "predictor.predict", cap.predicted),
            (predictor, "predict", "predictor.predict", cap.predicted),
            (cli, "predict_distribution", "predictor.predict_distribution", None),
            (predictor, "build_hypothetical", "candidates.build_hypothetical", cap.built),
            (candidates, "predict_vertex_count", "candidates.predict_vertex_count", None),
            (candidates, "homophily_candidates", "candidates.homophily_candidates",
             cap.homophily_pairs),
            (candidates, "attachment_candidates", "candidates.attachment_candidates", None),
            (constraints, "assemble", "constraints.assemble", cap.assembled),
            (timeseries, "auto_fit", "timeseries.auto_fit", None),
            (timeseries, "fit", "timeseries.fit", None),
            (timeseries, "forecast", "timeseries.forecast", None),
            (timeseries, "forecast_with_fallback", "timeseries.forecast_with_fallback", None),
            (timeseries, "quantile", "timeseries.quantile", None),
            (solver, "solve_lp", "solver.solve_lp", cap.lp),
            (solver, "solve_ilp", "solver.solve_ilp", cap.ilp),
            (evaluate, "run_synthetic_experiment", "evaluate.run_synthetic_experiment",
             cap.protocol),
            (evaluate, "write_reports_csv", "evaluate.write_reports_csv", None),
            (evaluate, "write_run_metadata", "evaluate.write_run_metadata", None),
        ]
        for module, attr, name, hook in sites:
            self.wrap(module, attr, name, hook)

    def dump(self, path) -> None:
        """Write the spans as JSON lines: name, parent index, start, end, failed."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s[NAME], "parent": s[PARENT],
                                     "start": s[START], "end": s[END],
                                     "failed": s[FAILED]}) + "\n")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts and times from the spans and the captured objects.

    A layer's self time is the time of its spans minus the time of their
    child spans; the layer is the span name up to its first dot.
    """
    spans = tracer.spans
    dur = [s[END] - s[START] for s in spans]
    self_time = list(dur)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            self_time[s[PARENT]] -= dur[i]

    def named(name):
        return [i for i, s in enumerate(spans) if s[NAME] == name]

    def layer_self(layer):
        return sum(self_time[i] for i, s in enumerate(spans) if s[NAME].split(".")[0] == layer)

    fits = named("timeseries.fit")
    failed = [i for i in fits if spans[i][FAILED]]
    cold = set()
    for i in fits:
        p = spans[i][PARENT]
        while p >= 0:
            if spans[p][NAME] == "timeseries.auto_fit":
                cold.add(p)
            p = spans[p][PARENT]
    auto = named("timeseries.auto_fit")

    cap = tracer.capture
    kinds = {p: 0 for p in candidates.Provenance}
    for rec in cap.predictions:
        for c in rec["H"].candidates:
            kinds[c.provenance] += 1
    lps = [rec["lp"] for rec in cap.predictions]
    ilps = [rec["ilp"] for rec in cap.predictions]

    return {
        "timeseries.auto_fit.calls": len(auto),
        "timeseries.auto_fit.cold_calls": len(cold),
        "timeseries.auto_fit.time_s": sum(dur[i] for i in auto),
        "timeseries.fit.cells": len(fits),
        "timeseries.fit.time_s": sum(dur[i] for i in fits),
        "timeseries.fit.cells_failed": len(failed),
        "timeseries.fit.failed_time_s": sum(dur[i] for i in failed),
        "timeseries.forecast.calls": len(named("timeseries.forecast")),
        "candidates.time_s": layer_self("candidates"),
        "candidates.existing": kinds[candidates.Provenance.EXISTING],
        "candidates.homophily": kinds[candidates.Provenance.HOMOPHILY],
        "candidates.attachment": kinds[candidates.Provenance.ATTACHMENT],
        "constraints.time_s": layer_self("constraints"),
        "constraints.rows": sum(rec["cs"].n_rows for rec in cap.predictions),
        "constraints.cols": sum(rec["cs"].n_cols for rec in cap.predictions),
        "solver.solve_lp.time_s": sum(dur[i] for i in named("solver.solve_lp")),
        "solver.solve_ilp.time_s": sum(dur[i] for i in named("solver.solve_ilp")),
        "solver.bb_nodes": sum(s.nodes_explored for s in ilps),
        "solver.lp_iteration_limit": sum(
            s.status is solver.LpStatus.ITERATION_LIMIT for s in lps
        ),
        "ingest.time_s": layer_self("ingest"),
        "ingest.events": sum(len(ev) for ev, _, _ in cap.ingested),
        "ingest.windows": sum(len(b) for _, b, _ in cap.ingested),
        "datagen.time_s": layer_self("datagen"),
        "predictor.predict.calls": len(named("predictor.predict")),
        "predictor.predict.time_s": sum(dur[i] for i in named("predictor.predict")),
        "evaluate.time_s": layer_self("evaluate"),
        "trace.spans": len(spans),
    }

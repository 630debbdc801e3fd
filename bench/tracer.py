"""Traced in-process run of the spotrank CLI.

    python3 bench/tracer.py TRACE.json -- <spotrank arguments>

Times ``import spotrank.cli``, wraps the public functions each layer exposes
at the names their callers look up, runs ``spotrank.cli.main(argv)`` once
inside a ``cli.main`` span, restores every name, and then writes the import
time, the counters and the spans (name, start, end, parent, run id) to
``TRACE.json``.  The program's own stdout and files are the same as in an
untraced run.  :func:`merge` turns the traces of one or more runs into the
per-layer metrics.

Spans stay in memory until the run ends.  A layer's self time is its span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import statistics
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable

# direct children of cli.main after which the cli is emitting output
OUTPUT_SPANS = ("state.rank_answers", "grids.emit_csv", "simulate.stability_report")


class Tracer:
    """Span recorder; patches names in place and restores them."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list[list[Any]] = []  # [name, start, end, parent index, run id]
        self.counters: Counter[str] = Counter()
        self.states: dict[int, Any] = {}  # every QuestionState that applied an event
        self._stack = [-1]
        self._patched: list[tuple[Any, str, Any]] = []

    def wrap(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        spans, stack, run_id, clock = self.spans, self._stack, self.run_id, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1], run_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def patch(self, owner: Any, attr: str, name: str, after: Callable | None = None) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, after))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        """Wrap every layer boundary of the spotrank package."""
        # import_module, because the package rebinds the name spotrank.simulate
        # to the simulate() function
        cli, grids, simulate, state = (
            importlib.import_module(f"spotrank.{name}")
            for name in ("cli", "grids", "simulate", "state")
        )

        count = self.counters

        def ranked(args, result):
            count["answers_ranked"] += len(result.entries)

        def applied(args, changed):
            event = args[1]
            count["maxima_changes"] += bool(changed)
            count["retractions"] += event.up_delta < 0 or event.down_delta < 0
            self.states[id(args[0])] = args[0]

        def gridded(args, result):
            count["cells"] += result.scores.size

        def emitted(args, result):
            if isinstance(args[1], (str, os.PathLike)):
                count["csv_bytes"] += os.path.getsize(args[1])

        self.patch(cli, "rank_answers", "state.rank_answers", ranked)
        self.patch(cli, "emit_csv", "grids.emit_csv", emitted)
        self.patch(cli, "grid_scores", "grids.grid_scores", gridded)
        self.patch(cli, "simulate", "simulate.simulate",
                   lambda args, result: count.update(snapshots=len(result.snapshots)))
        self.patch(cli, "stability_report", "simulate.stability_report")
        # names looked up inside the package: sweep -> grid_scores,
        # QuestionState.rank -> rank_answers -> combined_score, simulate -> the rest
        self.patch(grids, "grid_scores", "grids.grid_scores", gridded)
        self.patch(state, "rank_answers", "state.rank_answers", ranked)
        self.patch(state, "combined_score", "scoring.combined_score")
        self.patch(simulate, "generate_events", "simulate.generate_events",
                   lambda args, result: count.update(events_generated=len(result)))
        self.patch(simulate, "kendall_tau", "simulate.kendall_tau")
        self.patch(state.QuestionState, "apply_event", "state.apply_event", applied)
        self.patch(state.QuestionState, "recompute_maxima", "state.recompute_maxima")


def _percentile_us(durations: list[float], q: float) -> float:
    """Nearest-rank percentile in microseconds; 0 without samples."""
    if not durations:
        return 0.0
    ordered = sorted(durations)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)] * 1e6


def _self_time(spans: list[list[Any]], index: int, children: list[int]) -> float:
    _, start, end, _, _ = spans[index]
    return (end - start) - sum(spans[c][2] - spans[c][1] for c in children)


def _main_span(spans: list[list[Any]], index: int, top: list[int]) -> dict[str, float]:
    """Times of one ``cli.main`` span whose direct children are ``top``."""
    _, main_start, main_end, _, _ = spans[index]
    first = spans[top[0]][1] if top else main_end
    output_at = min((spans[c][1] for c in top if spans[c][0] in OUTPUT_SPANS), default=main_end)
    after_output = sum(spans[c][2] - spans[c][1] for c in top if spans[c][1] >= output_at)
    return {
        "trace.main_s": main_end - main_start,
        "trace.layers_s": sum(spans[c][2] - spans[c][1] for c in top),
        "cli.ingest_s": first - main_start,
        "cli.self_s": _self_time(spans, index, top),
        "cli.write_s": (main_end - output_at) - after_output,
    }


def summarize(spans: list[list[Any]], counters: Counter, answers: int) -> dict[str, float]:
    """Per-layer metrics of the runs whose spans these are; each run's root
    span (parent -1) is its ``cli.main``, and times of the roots add up."""
    children: dict[int, list[int]] = {}
    by_name: dict[str, list[float]] = {}
    for index, (name, start, end, parent, _) in enumerate(spans):
        children.setdefault(parent, []).append(index)
        by_name.setdefault(name, []).append(end - start)
    mains: Counter[str] = Counter()
    for root in children.get(-1, []):
        mains.update(_main_span(spans, root, children.get(root, [])))

    rescans = sum(1 for name, _, _, parent, _ in spans
                  if name == "state.recompute_maxima" and parent >= 0
                  and spans[parent][0] == "state.apply_event")
    sim_self = sum(_self_time(spans, i, children.get(i, []))
                   for i, span in enumerate(spans) if span[0] == "simulate.simulate")

    def total(name: str) -> float:
        return sum(by_name.get(name, ()))

    def calls(name: str) -> int:
        return len(by_name.get(name, ()))

    score = by_name.get("scoring.combined_score", [])
    apply = by_name.get("state.apply_event", [])
    retractions = counters["retractions"]
    return {
        **{name: mains[name] for name in ("trace.main_s", "trace.layers_s", "cli.ingest_s",
                                          "cli.self_s", "cli.write_s")},
        "scoring.combined_score_calls": len(score),
        "scoring.combined_score_s": sum(score),
        "scoring.combined_score_us_p50": statistics.median(score) * 1e6 if score else 0.0,
        "scoring.combined_score_us_p99": _percentile_us(score, 0.99),
        "state.apply_event_calls": len(apply),
        "state.apply_event_s": sum(apply),
        "state.apply_event_us_p50": statistics.median(apply) * 1e6 if apply else 0.0,
        "state.apply_event_us_p99": _percentile_us(apply, 0.99),
        "state.maxima_changes": counters["maxima_changes"],
        "state.retractions": retractions,
        "state.rescans": rescans,
        "state.rescan_ratio": rescans / retractions if retractions else 0.0,
        "state.peak_answers": answers,
        "state.rank_answers_calls": calls("state.rank_answers"),
        "state.answers_ranked": counters["answers_ranked"],
        "state.rank_answers_s": total("state.rank_answers"),
        "grids.grid_scores_calls": calls("grids.grid_scores"),
        "grids.cells": counters["cells"],
        "grids.grid_scores_s": total("grids.grid_scores"),
        "grids.emit_csv_s": total("grids.emit_csv"),
        "grids.bytes_out": counters["csv_bytes"],
        "simulate.generate_events_s": total("simulate.generate_events"),
        "simulate.events_generated": counters["events_generated"],
        "simulate.kendall_tau_calls": calls("simulate.kendall_tau"),
        "simulate.kendall_tau_s": total("simulate.kendall_tau"),
        "simulate.stability_report_s": total("simulate.stability_report"),
        "simulate.snapshots": counters["snapshots"],
        "simulate.self_s": sim_self,
    }


def merge(traces: list[dict[str, Any]]) -> dict[str, float]:
    """Per-layer metrics of several traced runs taken together, from the
    files :func:`main` writes; times and counts add up over the runs, and
    latency percentiles are taken over all their calls."""
    spans: list[list[Any]] = []
    counters: Counter[str] = Counter()
    for trace in traces:
        offset = len(spans)
        spans += [[name, start, end, parent + offset if parent >= 0 else -1, run]
                  for name, start, end, parent, run in trace["spans"]]
        counters.update(trace["counters"])
    answers = sum(trace["answers"] for trace in traces)
    return {"cli.import_s": sum(trace["import_s"] for trace in traces),
            **summarize(spans, counters, answers)}


def main(args: list[str]) -> int:
    if len(args) < 2 or args[1] != "--":
        print("usage: tracer.py TRACE.json -- <spotrank arguments>", file=sys.stderr)
        return 2
    trace_path = Path(args[0])
    start = time.perf_counter()
    import spotrank.cli

    import_s = time.perf_counter() - start
    tracer = Tracer(run_id=os.getpid())
    tracer.install()
    try:
        rc = tracer.wrap("cli.main", spotrank.cli.main)(args[2:])
    finally:
        tracer.restore()
        sys.stdout.flush()
    trace = {
        "import_s": import_s,
        "answers": sum(len(state) for state in tracer.states.values()),
        "counters": tracer.counters,
        "spans": tracer.spans,
    }
    trace_path.write_text(json.dumps(trace), encoding="utf-8")
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

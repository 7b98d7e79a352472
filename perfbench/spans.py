"""Spans around the package's public functions, patched in from outside.

Each traced function is replaced, for the duration of a `patched` block, by a
wrapper that records a span (name, start, end, parent span, run id) and the
counts read from its arguments and result. Names are patched where callers
look them up, so a function imported by name into several modules is patched
in each of them. Spans stay in memory; `Tracer.dump` writes them once.
"""
from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time
from pathlib import Path

from reservoirplan import cli, formulation, lp, scenarios, simulation
from reservoirplan.pwl import PwlFunction


def _lp_size(args, result) -> dict:
    problem = result[0]
    return {"rows": problem.num_constraints, "cols": problem.num_variables,
            "nnz": sum(len(c.coefficients) for c in problem.constraints)}


def _solve_counts(args, result) -> dict:
    problem = args[0]
    m, n = problem.num_constraints, problem.num_variables
    # Dense tableau of the seed solver: m rows by n structural plus m slack
    # columns, float64. Computed from the LP size, not measured.
    return {"pivots": result.iterations, "tableau_bytes": 8 * m * (n + m)}


def _mc_counts(args, result) -> dict:
    return {"reps": result.replications}


# (owner, attribute, span name, counts read from the call)
TRACED = (
    (cli, "resolve_scenario", "scenarios.load", None),
    (cli, "load_sweep_config", "scenarios.load", None),
    (scenarios, "resolve_scenario", "scenarios.load", None),
    (cli, "expand_sweep", "scenarios.expand_sweep", None),
    (cli, "validate_scenario", "model.validate", None),
    (formulation, "validate_scenario", "model.validate", None),
    (scenarios, "validate_scenario", "model.validate", None),
    (formulation, "build_proposed", "formulation.build", _lp_size),
    (formulation, "build_deterministic", "formulation.build", _lp_size),
    (formulation, "extract_plan", "formulation.extract", None),
    (lp, "solve", "lp.solve", _solve_counts),
    (simulation, "run_monte_carlo", "simulation.mc", _mc_counts),
    (PwlFunction, "evaluate", "pwl.evaluate", None),
    (cli, "load_plan_json", "cli.load_plan", None),
)

COMMAND_SPAN = "cli.command"


@contextlib.contextmanager
def patched(replacements):
    """Set each (owner, attribute, value) for the block, then restore."""
    saved = [(owner, attr, getattr(owner, attr))
             for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


class Tracer:
    """In-memory span store; one run id per traced command."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.run_id = 0

    def _wrap(self, name, func, counts):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = {"name": name, "start": time.perf_counter(), "end": None,
                    "parent": self._stack[-1] if self._stack else None,
                    "run": self.run_id}
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                self._stack.pop()
                span["end"] = time.perf_counter()
            if counts is not None:
                span["counts"] = counts(args, result)
            return result
        return traced

    def call(self, command):
        """Run `command()` under a root span with every target patched;
        returns its result and the run id of its spans."""
        self.run_id += 1
        wrappers = [(owner, attr, self._wrap(name, getattr(owner, attr), counts))
                    for owner, attr, name, counts in TRACED]
        with patched(wrappers):
            return self._wrap(COMMAND_SPAN, command, None)(), self.run_id

    def run_metrics(self, run_id: int) -> dict:
        """Per-layer metrics of one traced command."""
        spans = {i: s for i, s in enumerate(self.spans) if s["run"] == run_id}
        child_time = dict.fromkeys(spans, 0.0)
        for span in spans.values():
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        self_time: dict[str, float] = {}
        inclusive: dict[str, float] = {}
        calls: dict[str, int] = {}
        counts: dict[str, int] = {}
        largest_tableau = 0
        for i, span in spans.items():
            name = span["name"]
            duration = span["end"] - span["start"]
            self_time[name] = self_time.get(name, 0.0) + duration - child_time[i]
            inclusive[name] = inclusive.get(name, 0.0) + duration
            calls[name] = calls.get(name, 0) + 1
            for key, value in span.get("counts", {}).items():
                if key == "tableau_bytes":
                    largest_tableau = max(largest_tableau, value)
                else:
                    counts[key] = counts.get(key, 0) + value

        solve_s = self_time.get("lp.solve", 0.0)
        pivots = counts.get("pivots", 0)
        mc_s = inclusive.get("simulation.mc", 0.0)
        reps = counts.get("reps", 0)
        return {
            "scenarios.load_s": self_time.get("scenarios.load", 0.0),
            "scenarios.expand_sweep_s": self_time.get("scenarios.expand_sweep", 0.0),
            "model.validate_s": self_time.get("model.validate", 0.0),
            "model.validate_calls": calls.get("model.validate", 0),
            "formulation.build_s": self_time.get("formulation.build", 0.0),
            "formulation.build_calls": calls.get("formulation.build", 0),
            "formulation.rows": counts.get("rows", 0),
            "formulation.cols": counts.get("cols", 0),
            "formulation.nnz": counts.get("nnz", 0),
            "formulation.extract_s": self_time.get("formulation.extract", 0.0),
            "lp.solve_s": solve_s,
            "lp.solve_calls": calls.get("lp.solve", 0),
            "lp.pivots": pivots,
            "lp.ms_per_pivot": 1e3 * solve_s / pivots if pivots else 0.0,
            "lp.tableau_mb": largest_tableau / 2**20,
            "simulation.mc_s": self_time.get("simulation.mc", 0.0),
            "simulation.mc_calls": calls.get("simulation.mc", 0),
            "simulation.reps": reps,
            "simulation.reps_per_s": reps / mc_s if mc_s else 0.0,
            "pwl.evaluate_s": self_time.get("pwl.evaluate", 0.0),
            "pwl.evaluate_calls": calls.get("pwl.evaluate", 0),
            "cli.load_plan_s": self_time.get("cli.load_plan", 0.0),
            "cli.self_s": self_time.get(COMMAND_SPAN, 0.0),
        }

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans) + "\n")


COUNT_METRICS = ("model.validate_calls", "formulation.build_calls",
                 "formulation.rows", "formulation.cols", "formulation.nnz",
                 "lp.solve_calls", "lp.pivots", "lp.tableau_mb",
                 "simulation.mc_calls", "simulation.reps",
                 "pwl.evaluate_calls")


def combine(per_run: list[dict]) -> dict:
    """Median of each timing over traced commands; counts are taken from the
    first, since run.py checks that they repeat exactly."""
    return {key: per_run[0][key] if key in COUNT_METRICS
            else statistics.median(m[key] for m in per_run)
            for key in per_run[0]}
